//! Ground-truth access accounting.
//!
//! The simulator — unlike real hardware — can afford omniscience: it records
//! exactly how many times each logical page is accessed at the memory level
//! (LLC misses). This is what the paper's Oracle policy "assumes knowledge
//! of" (Table II), and what the Fig. 6 hitrate replay uses as the
//! denominator. None of this information is visible to the profilers, which
//! see only their own sampled views.

use crate::keymap::KeyMap;
use crate::pagedesc::PageKey;

/// One epoch's true per-page memory-level access counts.
///
/// Counts live in a [`KeyMap`]: `record` runs on the simulator's per-op
/// path, so the map hash must be cheap (and deterministic for replays).
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

/// The machine's omniscient recorder: memory-level accesses per page for
/// the open epoch, plus the lifetime total over every closed epoch.
#[derive(Debug, Default)]
pub struct GroundTruth {
    current: EpochTruth,
    /// Memory-level accesses per page over every closed epoch, folded in
    /// by [`GroundTruth::take_epoch`].
    lifetime_mem: KeyMap<u64, u64>,
}

impl GroundTruth {
    /// Fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one memory-level access (an LLC miss) to `key`.
    #[inline]
    pub fn record(&mut self, key: PageKey) {
        *self.current.mem_accesses.entry(key.pack()).or_insert(0) += 1;
    }

    /// Close the epoch: fold its counts into the lifetime totals, return
    /// its truth and start a fresh one.
    pub fn take_epoch(&mut self) -> EpochTruth {
        let epoch = std::mem::take(&mut self.current);
        for (&key, &n) in &epoch.mem_accesses {
            *self.lifetime_mem.entry(key).or_insert(0) += n;
        }
        epoch
    }

    /// Peek at the in-progress epoch.
    pub fn current(&self) -> &EpochTruth {
        &self.current
    }

    /// Lifetime memory-level accesses per packed page key, over closed
    /// epochs only: the open epoch joins at the next
    /// [`crate::machine::Machine::advance_epoch`].
    pub fn lifetime_mem(&self) -> &KeyMap<u64, u64> {
        &self.lifetime_mem
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
        let mut gt = GroundTruth::new();
        gt.record(key(1));
        gt.record(key(1));
        gt.record(key(2));
        let t = gt.current();
        assert_eq!(t.mem_accesses.len(), 2);
        assert_eq!(t.mem_accesses[&key(1).pack()], 2);
        assert_eq!(t.mem_accesses[&key(2).pack()], 1);
        assert!(!t.mem_accesses.contains_key(&key(3).pack()));
        assert_eq!(t.total_mem_accesses(), 3);
    }

    #[test]
    fn take_epoch_resets_current_but_keeps_lifetime() {
        let mut gt = GroundTruth::new();
        gt.record(key(1));
        gt.record(key(2));
        assert!(
            gt.lifetime_mem().is_empty(),
            "the open epoch joins the lifetime only when it closes"
        );
        let e1 = gt.take_epoch();
        assert_eq!(e1.total_mem_accesses(), 2);
        assert_eq!(gt.current().total_mem_accesses(), 0);
        gt.record(key(1));
        gt.record(key(1));
        gt.record(key(3));
        assert_eq!(gt.lifetime_mem()[&key(1).pack()], 1);
        assert!(!gt.lifetime_mem().contains_key(&key(3).pack()));
        let e2 = gt.take_epoch();
        // The lifetime is exactly the sum of the closed epochs.
        let mut sum: KeyMap<u64, u64> = KeyMap::default();
        for epoch in [&e1, &e2] {
            for (&k, &n) in &epoch.mem_accesses {
                *sum.entry(k).or_insert(0) += n;
            }
        }
        assert_eq!(gt.lifetime_mem(), &sum);
        assert_eq!(gt.lifetime_mem()[&key(1).pack()], 3);
    }

    #[test]
    fn pages_touched_counts_distinct_pages() {
        let mut gt = GroundTruth::new();
        for v in 0..10 {
            gt.record(key(v));
            gt.record(key(v));
        }
        assert_eq!(gt.current().mem_accesses.len(), 10);
    }
}
