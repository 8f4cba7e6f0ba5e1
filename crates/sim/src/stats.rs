//! Ground-truth access accounting.
//!
//! The simulator — unlike real hardware — can afford omniscience: it counts
//! exactly how many times each logical page is accessed at the memory level
//! (LLC misses). This is what the paper's Oracle policy "assumes knowledge
//! of" (Table II), and what the Fig. 6 hitrate replay uses as the
//! denominator. None of this information is visible to the profilers, which
//! see only their own sampled views: the counters are private fields of
//! `GroundTruth`, which only the machine holds, and they leave it only as
//! the [`EpochTruth`] that `Machine::advance_epoch` returns.
//!
//! Counting is per physical frame, as a device-side access counter does
//! it (NeoMem): an LLC miss adds one to its frame's counter in a lazily
//! materialized frame chunk, an array increment rather than a hash probe.
//! The page key comes from the access, not from the frame's descriptor
//! (THP tail frames have no owner), and is listed with the frame when the
//! frame's count leaves 0. The epoch close writes each listed frame's
//! count into its entry and hands that same list out as the epoch's truth.
//!
//! **The list contract.** [`EpochTruth::mem_accesses`] holds
//! `(packed page key, count)` pairs: each key appears at most once, every
//! count is > 0, and the pairs keep the order in which their entries were
//! listed (a frame's newest entry holds its count), so the order is
//! deterministic. A key cannot
//! repeat because a page's open-epoch count lives only on its current
//! frame (migration moves it) and the machine has no path that frees a
//! counted frame. Consumers sum, sort or fold the list; nothing looks a
//! key up in it.

use crate::addr::Pfn;
use crate::pagedesc::{FrameChunks, PageKey, DEFAULT_CHUNK};

/// One epoch's true per-page memory-level access counts.
#[derive(Clone, Debug, Default)]
pub struct EpochTruth {
    /// Memory-level accesses (LLC misses) as `(packed PageKey, count)`:
    /// each key at most once, every count > 0, in a deterministic order
    /// (see the module docs).
    pub mem_accesses: Vec<(u64, u64)>,
}

impl EpochTruth {
    /// Total memory-level accesses this epoch.
    pub fn total_mem_accesses(&self) -> u64 {
        self.mem_accesses.iter().map(|&(_, c)| c).sum()
    }
}

/// The machine's omniscient recorder: memory-level accesses per frame in
/// the open epoch.
pub(crate) struct GroundTruth {
    /// Memory-level accesses per frame this epoch. A free frame's count
    /// is always 0: migration moves a page's count with the page.
    counts: FrameChunks<u64>,
    /// `(packed page key, frame number)` for every frame whose count left
    /// 0 this epoch, oldest first. A frame that a migration vacated and
    /// another page reached later in the epoch is listed twice; its newest
    /// entry names the page whose accesses the count now holds. The epoch
    /// close overwrites each frame number with its count.
    touched: Vec<(u64, u64)>,
}

impl GroundTruth {
    /// Counters for `total_frames` frames. Allocates nothing per frame.
    pub(crate) fn new(total_frames: u64) -> Self {
        Self {
            counts: FrameChunks::new(total_frames, DEFAULT_CHUNK, None),
            touched: Vec::new(),
        }
    }

    /// Record one memory-level access (an LLC miss) to `key`, served by
    /// frame `pfn`.
    #[inline]
    pub(crate) fn record(&mut self, pfn: Pfn, key: PageKey) {
        let count = self.counts.get_mut(pfn);
        if *count == 0 {
            self.touched.push((key.pack(), pfn.0));
        }
        *count += 1;
    }

    /// Page migration: `key`'s open-epoch count moves from frame `from` to
    /// the free frame `to`.
    pub(crate) fn migrate(&mut self, from: Pfn, to: Pfn, key: PageKey) {
        debug_assert_eq!(self.count(to), 0, "free frame {to:?} has a truth count");
        let count = self.count(from);
        if count > 0 {
            *self.counts.get_mut(from) = 0;
            *self.counts.get_mut(to) = count;
            self.touched.push((key.pack(), to.0));
        }
    }

    /// Open-epoch count of frame `pfn`.
    fn count(&self, pfn: Pfn) -> u64 {
        self.counts.get(pfn).copied().unwrap_or(0)
    }

    /// Close the epoch: return its per-page counts as the touched list
    /// itself, and zero every frame.
    pub(crate) fn take_epoch(&mut self) -> EpochTruth {
        let mut list = std::mem::take(&mut self.touched);
        // Newest first, so a frame listed twice is credited to the page
        // that reached it last; its older entry then reads 0 and is dropped.
        for entry in list.iter_mut().rev() {
            entry.1 = std::mem::take(self.counts.get_mut(Pfn(entry.1)));
        }
        list.retain(|&(_, count)| count > 0);
        debug_assert!(keys_unique(&list), "a page key is listed twice");
        EpochTruth { mem_accesses: list }
    }
}

/// Whether no key repeats in `list` (the debug check of the list contract).
fn keys_unique(list: &[(u64, u64)]) -> bool {
    let mut keys: Vec<u64> = list.iter().map(|&(k, _)| k).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len() == list.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Vpn;

    fn key(vpn: u64) -> PageKey {
        PageKey {
            pid: 1,
            vpn: Vpn(vpn),
        }
    }

    #[test]
    fn records_references_and_memory_separately() {
        // Only memory-level accesses reach the recorder (cache hits are
        // never recorded), each counted against its own page.
        let mut gt = GroundTruth::new(16);
        gt.record(Pfn(4), key(1));
        gt.record(Pfn(4), key(1));
        gt.record(Pfn(9), key(2));
        let t = gt.take_epoch();
        assert_eq!(t.mem_accesses, vec![(key(1).pack(), 2), (key(2).pack(), 1)]);
        assert_eq!(t.total_mem_accesses(), 3);
    }

    #[test]
    fn take_epoch_returns_the_epoch_and_starts_fresh() {
        let mut gt = GroundTruth::new(16);
        gt.record(Pfn(1), key(1));
        gt.record(Pfn(2), key(2));
        let e1 = gt.take_epoch();
        assert_eq!(e1.total_mem_accesses(), 2);
        gt.record(Pfn(1), key(1));
        gt.record(Pfn(1), key(1));
        gt.record(Pfn(3), key(3));
        let e2 = gt.take_epoch();
        // Every frame restarts at 0: an epoch holds only its own accesses.
        assert_eq!(
            e2.mem_accesses,
            vec![(key(1).pack(), 2), (key(3).pack(), 1)]
        );
        assert_eq!(e2.total_mem_accesses(), 3);
        assert_eq!(gt.take_epoch().total_mem_accesses(), 0);
        assert!((0..16).all(|pfn| gt.count(Pfn(pfn)) == 0));
    }

    #[test]
    fn pages_touched_counts_distinct_pages() {
        let mut gt = GroundTruth::new(16);
        for v in 0..10 {
            gt.record(Pfn(v), key(v));
            gt.record(Pfn(v), key(v));
        }
        assert_eq!(gt.take_epoch().mem_accesses.len(), 10);
    }

    #[test]
    fn a_page_that_migrates_away_and_back_is_listed_once() {
        // P migrates f1 -> f2 -> f1 within one epoch and Q first-touches
        // the f2 that P left, so f1 is listed twice for P and f2 once for
        // P and once for Q. P must come out once, with all its accesses.
        let (f1, f2) = (Pfn(1), Pfn(2));
        let (p, q) = (key(7), key(8));
        let mut gt = GroundTruth::new(16);
        gt.record(f1, p);
        gt.record(f1, p);
        gt.migrate(f1, f2, p);
        gt.record(f2, p);
        gt.migrate(f2, f1, p);
        gt.record(f2, q);
        gt.record(f1, p);
        let t = gt.take_epoch();
        assert_eq!(t.mem_accesses, vec![(p.pack(), 4), (q.pack(), 1)]);
        assert!((0..16).all(|pfn| gt.count(Pfn(pfn)) == 0));
    }
}
