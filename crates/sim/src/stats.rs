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
//! frame's count leaves 0; the epoch close turns the listed frames' counts
//! into the per-page map.

use crate::addr::Pfn;
use crate::keymap::KeyMap;
use crate::pagedesc::{FrameChunks, PageKey, DEFAULT_CHUNK};

/// One epoch's true per-page memory-level access counts.
#[derive(Clone, Debug, Default)]
pub struct EpochTruth {
    /// Memory-level accesses (LLC misses) per packed [`PageKey`].
    pub mem_accesses: KeyMap<u64, u64>,
}

impl EpochTruth {
    /// Total memory-level accesses this epoch.
    pub fn total_mem_accesses(&self) -> u64 {
        self.mem_accesses.values().sum()
    }
}

/// The machine's omniscient recorder: memory-level accesses per frame in
/// the open epoch.
pub(crate) struct GroundTruth {
    /// Memory-level accesses per frame this epoch. A free frame's count
    /// is always 0: migration moves a page's count with the page.
    counts: FrameChunks<u64>,
    /// `(frame, packed page key)` for every frame whose count left 0 this
    /// epoch, oldest first. A frame that a migration vacated and another
    /// page reached later in the epoch is listed twice; its newest entry
    /// names the page whose accesses the count now holds.
    touched: Vec<(Pfn, u64)>,
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
            self.touched.push((pfn, key.pack()));
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
            self.touched.push((to, key.pack()));
        }
    }

    /// Open-epoch count of frame `pfn`.
    fn count(&self, pfn: Pfn) -> u64 {
        self.counts.get(pfn).copied().unwrap_or(0)
    }

    /// Close the epoch: return its per-page counts and zero every frame.
    pub(crate) fn take_epoch(&mut self) -> EpochTruth {
        let touched = std::mem::take(&mut self.touched);
        let mut mem_accesses = KeyMap::with_capacity_and_hasher(touched.len(), Default::default());
        // Newest first, so a frame listed twice is credited to the page
        // that reached it last; its older entry then reads 0.
        for &(pfn, key) in touched.iter().rev() {
            let count = std::mem::take(self.counts.get_mut(pfn));
            if count > 0 {
                *mem_accesses.entry(key).or_insert(0) += count;
            }
        }
        EpochTruth { mem_accesses }
    }
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
        assert_eq!(t.mem_accesses.len(), 2);
        assert_eq!(t.mem_accesses[&key(1).pack()], 2);
        assert_eq!(t.mem_accesses[&key(2).pack()], 1);
        assert!(!t.mem_accesses.contains_key(&key(3).pack()));
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
        assert_eq!(e2.mem_accesses[&key(1).pack()], 2);
        assert!(!e2.mem_accesses.contains_key(&key(2).pack()));
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
}
