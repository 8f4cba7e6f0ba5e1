//! Per-core two-level TLB model.
//!
//! The TLB is where the paper's central A-bit subtlety lives: the hardware
//! page-table walker sets the PTE's A bit only when it *fills* a translation.
//! While a translation stays cached in the TLB, further accesses to the page
//! never touch the PTE — so after the profiler clears an A bit *without* a
//! shootdown, the bit stays stale until the entry is naturally evicted
//! (§III-B-4, optimization 3). This module reproduces that behaviour
//! structurally: A-bit updates happen only on fills, which only happen on
//! misses.
//!
//! The D bit is different (correctness, not performance): it is cached in
//! the TLB entry, and a store through a *clean* cached translation performs
//! a PTE write-back that sets the D bit even though no walk occurs (§II-B).
//!
//! Geometry defaults approximate a Zen2 core: 64-entry fully-associative L1
//! DTLB and a 2048-entry 16-way L2 STLB.

use crate::addr::{Pfn, Vpn};

/// Identifies a process address space (analogous to an ASID/PCID).
pub type Pid = u32;

/// Number of 4 KiB pages covered by a 2 MiB huge-page translation.
pub const HUGE_SPAN: u64 = 512;

/// A cached translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbEntry {
    pub pid: Pid,
    /// For 4 KiB entries, the page; for huge entries, the 512-aligned base.
    pub vpn: Vpn,
    /// For huge entries, the first frame of the contiguous 512-frame run.
    pub pfn: Pfn,
    pub writable: bool,
    /// Cached dirty state: a store through a clean entry must write the PTE.
    pub dirty: bool,
    /// 2 MiB huge-page translation (one entry covers 512 pages).
    pub huge: bool,
}

impl TlbEntry {
    /// Frame backing `vpn`, resolving the huge-page offset if needed.
    #[inline]
    pub fn frame_for(&self, vpn: Vpn) -> Pfn {
        if self.huge {
            Pfn(self.pfn.0 + (vpn.0 - self.vpn.0))
        } else {
            self.pfn
        }
    }
}

#[derive(Clone, Copy)]
struct Slot {
    entry: TlbEntry,
    stamp: u64,
    valid: bool,
}

const INVALID_SLOT: Slot = Slot {
    entry: TlbEntry {
        pid: 0,
        vpn: Vpn(0),
        pfn: Pfn(0),
        writable: false,
        dirty: false,
        huge: false,
    },
    stamp: 0,
    valid: false,
};

/// One set-associative translation cache level with true-LRU replacement.
pub struct TlbLevel {
    sets: usize,
    ways: usize,
    slots: Vec<Slot>,
    clock: u64,
    /// Count of valid huge-page entries; lets [`Tlb::access`] skip the
    /// huge-tag probe entirely when no huge translation can possibly hit
    /// (the common non-THP case), halving lookup work per access.
    huge_entries: usize,
}

impl TlbLevel {
    /// Create a level with `sets * ways` entries. `sets` must be a power of
    /// two (1 set = fully associative).
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "TLB sets must be a power of two");
        assert!(ways > 0);
        Self {
            sets,
            ways,
            slots: vec![INVALID_SLOT; sets * ways],
            clock: 0,
            huge_entries: 0,
        }
    }

    /// Whether any valid huge-page entry is cached.
    #[inline]
    pub fn holds_huge(&self) -> bool {
        self.huge_entries > 0
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    #[inline]
    fn set_range(&self, pid: Pid, vpn: Vpn) -> std::ops::Range<usize> {
        // Mix the PID in so co-running processes do not alias set 0-heavy
        // layouts onto each other deterministically.
        let idx = ((vpn.0 ^ (pid as u64).wrapping_mul(0x9E37_79B9)) as usize) & (self.sets - 1);
        let start = idx * self.ways;
        start..start + self.ways
    }

    /// Probe for a translation; a hit refreshes LRU state.
    // tmprof-lint: allow(panic-reachability) — set_range slices a full set of `ways` slots within the slots array
    pub fn lookup(&mut self, pid: Pid, vpn: Vpn) -> Option<&mut TlbEntry> {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(pid, vpn);
        let slot = self.slots[range]
            .iter_mut()
            .find(|s| s.valid && s.entry.pid == pid && s.entry.vpn == vpn)?;
        slot.stamp = clock;
        Some(&mut slot.entry)
    }

    /// Install a translation, evicting the set's LRU entry if needed.
    /// Returns the evicted entry, if one was displaced.
    ///
    /// A single pass over the set finds (in priority order) an existing
    /// mapping for the same page, the first invalid slot, and the LRU
    /// victim — the same selection the original three-scan version made.
    // tmprof-lint: allow(panic-reachability) — set_range slices a full set of `ways` slots; in-set offsets come from enumerate
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(entry.pid, entry.vpn);
        let set = &mut self.slots[range];
        let mut invalid: Option<usize> = None;
        let mut lru = 0usize;
        let mut lru_stamp = u64::MAX;
        let mut same: Option<usize> = None;
        for (i, s) in set.iter().enumerate() {
            if s.valid {
                if s.entry.pid == entry.pid && s.entry.vpn == entry.vpn {
                    same = Some(i);
                    break;
                }
                if s.stamp < lru_stamp {
                    lru_stamp = s.stamp;
                    lru = i;
                }
            } else if invalid.is_none() {
                invalid = Some(i);
            }
        }
        if let Some(i) = same {
            self.huge_entries += entry.huge as usize;
            self.huge_entries -= set[i].entry.huge as usize;
            set[i] = Slot {
                entry,
                stamp: clock,
                valid: true,
            };
            return None;
        }
        self.huge_entries += entry.huge as usize;
        if let Some(i) = invalid {
            set[i] = Slot {
                entry,
                stamp: clock,
                valid: true,
            };
            return None;
        }
        let victim = &mut set[lru];
        debug_assert!(victim.valid, "ways > 0");
        let evicted = victim.entry;
        *victim = Slot {
            entry,
            stamp: clock,
            valid: true,
        };
        self.huge_entries -= evicted.huge as usize;
        Some(evicted)
    }

    /// Drop the translation for (`pid`, `vpn`) if cached. Returns whether an
    /// entry was present (shootdown accounting).
    // tmprof-lint: allow(panic-reachability) — set_range slices a full set of `ways` slots within the slots array
    pub fn invalidate_page(&mut self, pid: Pid, vpn: Vpn) -> bool {
        let range = self.set_range(pid, vpn);
        for slot in &mut self.slots[range] {
            if slot.valid && slot.entry.pid == pid && slot.entry.vpn == vpn {
                slot.valid = false;
                self.huge_entries -= slot.entry.huge as usize;
                return true;
            }
        }
        false
    }

    /// Number of currently valid entries (diagnostics).
    // tmprof-lint: allow(dead-surface) — capacity and invalidation checks of sim/tests/props.rs and tlb::tests
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.valid).count()
    }
}

/// Where a translation was found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbHit {
    /// Hit in the first-level DTLB.
    L1,
    /// Missed L1, hit the second-level STLB (entry promoted to L1).
    L2,
    /// Missed both levels: a hardware page walk is required.
    Miss,
}

/// A two-level data TLB as seen by one core.
pub struct Tlb {
    pub l1: TlbLevel,
    pub l2: TlbLevel,
}

/// Result of a successful lookup.
#[derive(Clone, Copy, Debug)]
pub struct Translation {
    pub entry: TlbEntry,
    pub level: TlbHit,
    /// True if this access was a store through a clean cached entry, which
    /// forces a D-bit write-back to the PTE without a walk.
    pub needs_dirty_writeback: bool,
}

impl Tlb {
    /// Zen2-like default geometry.
    // tmprof-lint: allow(dead-surface) — the 64-entry geometry of tlb::tests and the substrate bench's tlb cells
    pub fn zen2() -> Self {
        Self {
            l1: TlbLevel::new(1, 64),
            l2: TlbLevel::new(128, 16),
        }
    }

    /// Custom geometry.
    pub fn new(l1: TlbLevel, l2: TlbLevel) -> Self {
        Self { l1, l2 }
    }

    /// Look up (`pid`, `vpn`) for a load (`is_store = false`) or store.
    ///
    /// Both the 4 KiB translation and (if present) the covering 2 MiB
    /// translation are probed, as in real split/unified TLBs. On an L2 hit
    /// the entry is promoted into L1. On a store through a clean entry the
    /// entry's cached dirty bit is set and `needs_dirty_writeback` is
    /// reported so the owner can update the PTE.
    pub fn access(&mut self, pid: Pid, vpn: Vpn, is_store: bool) -> Option<Translation> {
        // Probe the huge tag first; a hit short-circuits exactly like a 4K
        // hit. When neither level caches any huge translation the probe
        // cannot hit and is skipped outright (the common non-THP case).
        if self.l1.holds_huge() || self.l2.holds_huge() {
            let base = Vpn(vpn.0 & !(HUGE_SPAN - 1));
            if let Some(tr) = self.access_tag(pid, base, is_store, true) {
                return Some(tr);
            }
        }
        self.access_tag(pid, vpn, is_store, false)
    }

    /// Probe one tag (4K page or huge base) through both levels.
    fn access_tag(
        &mut self,
        pid: Pid,
        vpn: Vpn,
        is_store: bool,
        want_huge: bool,
    ) -> Option<Translation> {
        if let Some(entry) = self.l1.lookup(pid, vpn) {
            if entry.huge != want_huge {
                return None;
            }
            let needs_wb = is_store && !entry.dirty;
            if is_store {
                entry.dirty = true;
            }
            let entry = *entry;
            // Keep L2 coherent about dirty state so a later L1 eviction and
            // L2 re-promotion does not repeat the write-back.
            if needs_wb {
                if let Some(l2e) = self.l2.lookup(pid, vpn) {
                    l2e.dirty = true;
                }
            }
            return Some(Translation {
                entry,
                level: TlbHit::L1,
                needs_dirty_writeback: needs_wb,
            });
        }
        if let Some(entry) = self.l2.lookup(pid, vpn) {
            if entry.huge != want_huge {
                return None;
            }
            let needs_wb = is_store && !entry.dirty;
            if is_store {
                entry.dirty = true;
            }
            let entry = *entry;
            self.l1.insert(entry);
            return Some(Translation {
                entry,
                level: TlbHit::L2,
                needs_dirty_writeback: needs_wb,
            });
        }
        None
    }

    /// Install a freshly walked translation into both levels.
    pub fn fill(&mut self, entry: TlbEntry) {
        self.l2.insert(entry);
        self.l1.insert(entry);
    }

    /// Invalidate one page in both levels (the per-page half of a TLB
    /// shootdown). Also drops a huge translation covering the page, as
    /// `invlpg` does. Returns true if any level held a translation.
    pub fn invalidate_page(&mut self, pid: Pid, vpn: Vpn) -> bool {
        let a = self.l1.invalidate_page(pid, vpn);
        let b = self.l2.invalidate_page(pid, vpn);
        let base = Vpn(vpn.0 & !(HUGE_SPAN - 1));
        let c = base != vpn && {
            let c1 = self.l1.invalidate_page(pid, base);
            let c2 = self.l2.invalidate_page(pid, base);
            c1 || c2
        };
        a || b || c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TlbLevel {
        /// Drop every translation belonging to `pid`.
        fn flush_pid(&mut self, pid: Pid) -> usize {
            let mut n = 0;
            for slot in &mut self.slots {
                if slot.valid && slot.entry.pid == pid {
                    slot.valid = false;
                    self.huge_entries -= slot.entry.huge as usize;
                    n += 1;
                }
            }
            n
        }

        /// Drop everything.
        fn flush_all(&mut self) {
            for slot in &mut self.slots {
                slot.valid = false;
            }
            self.huge_entries = 0;
        }
    }

    impl Tlb {
        /// Flush all translations of a process from both levels.
        fn flush_pid(&mut self, pid: Pid) -> usize {
            self.l1.flush_pid(pid) + self.l2.flush_pid(pid)
        }
    }

    fn entry(pid: Pid, vpn: u64, pfn: u64) -> TlbEntry {
        TlbEntry {
            pid,
            vpn: Vpn(vpn),
            pfn: Pfn(pfn),
            writable: true,
            dirty: false,
            huge: false,
        }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut tlb = Tlb::zen2();
        assert!(tlb.access(1, Vpn(42), false).is_none());
        tlb.fill(entry(1, 42, 7));
        let t = tlb.access(1, Vpn(42), false).unwrap();
        assert_eq!(t.level, TlbHit::L1);
        assert_eq!(t.entry.pfn, Pfn(7));
    }

    #[test]
    fn pids_are_isolated() {
        let mut tlb = Tlb::zen2();
        tlb.fill(entry(1, 42, 7));
        assert!(tlb.access(2, Vpn(42), false).is_none());
    }

    #[test]
    fn lru_evicts_oldest_in_l1() {
        let mut l1 = TlbLevel::new(1, 2);
        l1.insert(entry(1, 1, 1));
        l1.insert(entry(1, 2, 2));
        // Touch vpn 1 so vpn 2 becomes LRU.
        assert!(l1.lookup(1, Vpn(1)).is_some());
        let evicted = l1.insert(entry(1, 3, 3)).unwrap();
        assert_eq!(evicted.vpn, Vpn(2));
        assert!(l1.lookup(1, Vpn(1)).is_some());
        assert!(l1.lookup(1, Vpn(2)).is_none());
        assert!(l1.lookup(1, Vpn(3)).is_some());
    }

    #[test]
    fn l1_eviction_still_hits_in_l2() {
        // Tiny L1, roomy L2: overflow of L1 must be caught by L2.
        let mut tlb = Tlb::new(TlbLevel::new(1, 2), TlbLevel::new(1, 64));
        for v in 0..10 {
            tlb.fill(entry(1, v, v));
        }
        let t = tlb.access(1, Vpn(0), false).unwrap();
        assert_eq!(t.level, TlbHit::L2);
        // Promotion: second access hits L1.
        let t = tlb.access(1, Vpn(0), false).unwrap();
        assert_eq!(t.level, TlbHit::L1);
    }

    #[test]
    fn store_through_clean_entry_requests_dirty_writeback_once() {
        let mut tlb = Tlb::zen2();
        tlb.fill(entry(1, 5, 9));
        let first = tlb.access(1, Vpn(5), true).unwrap();
        assert!(first.needs_dirty_writeback);
        let second = tlb.access(1, Vpn(5), true).unwrap();
        assert!(!second.needs_dirty_writeback, "dirty state must be cached");
    }

    #[test]
    fn load_never_requests_dirty_writeback() {
        let mut tlb = Tlb::zen2();
        tlb.fill(entry(1, 5, 9));
        let t = tlb.access(1, Vpn(5), false).unwrap();
        assert!(!t.needs_dirty_writeback);
    }

    #[test]
    fn dirty_state_survives_l1_eviction_via_l2() {
        let mut tlb = Tlb::new(TlbLevel::new(1, 1), TlbLevel::new(1, 64));
        tlb.fill(entry(1, 5, 9));
        assert!(tlb.access(1, Vpn(5), true).unwrap().needs_dirty_writeback);
        // Evict vpn 5 from the single-entry L1.
        tlb.fill(entry(1, 6, 10));
        // Re-promote from L2: must still be dirty, no second write-back.
        let t = tlb.access(1, Vpn(5), true).unwrap();
        assert_eq!(t.level, TlbHit::L2);
        assert!(!t.needs_dirty_writeback);
    }

    #[test]
    fn invalidate_page_removes_from_both_levels() {
        let mut tlb = Tlb::zen2();
        tlb.fill(entry(1, 8, 3));
        assert!(tlb.invalidate_page(1, Vpn(8)));
        assert!(tlb.access(1, Vpn(8), false).is_none());
        assert!(!tlb.invalidate_page(1, Vpn(8)));
    }

    #[test]
    fn flush_pid_only_hits_that_pid() {
        let mut tlb = Tlb::zen2();
        tlb.fill(entry(1, 1, 1));
        tlb.fill(entry(2, 2, 2));
        let n = tlb.flush_pid(1);
        assert_eq!(n, 2, "entry lives in both levels");
        assert!(tlb.access(1, Vpn(1), false).is_none());
        assert!(tlb.access(2, Vpn(2), false).is_some());
    }

    #[test]
    fn occupancy_tracks_valid_entries() {
        let mut l = TlbLevel::new(4, 4);
        assert_eq!(l.occupancy(), 0);
        for v in 0..8 {
            l.insert(entry(1, v, v));
        }
        assert_eq!(l.occupancy(), 8);
        l.flush_all();
        assert_eq!(l.occupancy(), 0);
    }

    #[test]
    fn huge_entry_covers_its_whole_span() {
        let mut tlb = Tlb::zen2();
        tlb.fill(TlbEntry {
            pid: 1,
            vpn: Vpn(512), // second 2 MiB region, aligned
            pfn: Pfn(4096),
            writable: true,
            dirty: false,
            huge: true,
        });
        // Any page in [512, 1024) hits through the one entry and resolves
        // to its offset frame.
        for off in [0u64, 1, 300, 511] {
            let t = tlb.access(1, Vpn(512 + off), false).expect("huge hit");
            assert!(t.entry.huge);
            assert_eq!(t.entry.frame_for(Vpn(512 + off)), Pfn(4096 + off));
        }
        // Pages outside the span miss.
        assert!(tlb.access(1, Vpn(511), false).is_none());
        assert!(tlb.access(1, Vpn(1024), false).is_none());
    }

    #[test]
    fn huge_and_4k_entries_do_not_alias() {
        let mut tlb = Tlb::zen2();
        // A 4K entry AT a huge-aligned vpn must not satisfy huge probes
        // for other pages in the region, and vice versa.
        tlb.fill(entry(1, 512, 7)); // 4K entry at the aligned address
        assert!(
            tlb.access(1, Vpn(513), false).is_none(),
            "4K entry must not cover neighbors"
        );
        let t = tlb.access(1, Vpn(512), false).unwrap();
        assert!(!t.entry.huge);
        assert_eq!(t.entry.frame_for(Vpn(512)), Pfn(7));
    }

    #[test]
    fn invalidating_any_covered_page_drops_huge_entry() {
        let mut tlb = Tlb::zen2();
        tlb.fill(TlbEntry {
            pid: 1,
            vpn: Vpn(0),
            pfn: Pfn(0),
            writable: true,
            dirty: false,
            huge: true,
        });
        assert!(tlb.invalidate_page(1, Vpn(300)));
        assert!(tlb.access(1, Vpn(300), false).is_none());
        assert!(tlb.access(1, Vpn(0), false).is_none());
    }

    #[test]
    fn store_through_huge_entry_requests_one_writeback() {
        let mut tlb = Tlb::zen2();
        tlb.fill(TlbEntry {
            pid: 1,
            vpn: Vpn(0),
            pfn: Pfn(0),
            writable: true,
            dirty: false,
            huge: true,
        });
        let first = tlb.access(1, Vpn(17), true).unwrap();
        assert!(first.needs_dirty_writeback);
        // Dirty state is cached region-wide.
        let second = tlb.access(1, Vpn(400), true).unwrap();
        assert!(!second.needs_dirty_writeback);
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(Tlb::zen2().l1.capacity(), 64);
        assert_eq!(Tlb::zen2().l2.capacity(), 2048);
    }
}
