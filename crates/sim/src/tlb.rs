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
//! Every machine has one geometry (`Machine::new`): a Zen2 core's 64-entry
//! fully associative L1 DTLB and 2,048-entry 16-way L2 STLB, each shrunk
//! 4× (TLB reach scales with pages, the square root of the caches' 16×), so
//! a 16-entry fully associative DTLB and a 32-set × 16-way STLB.

use crate::addr::{Pfn, Vpn};
use crate::lru::{check_ways, initial_order, lru_way, to_front};
use crate::pagedesc::PageKey;

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

/// The second word of a TLB way: the frame number plus valid, writable,
/// dirty and huge bits (bits 63 to 60). 0 is an empty way; an invalidated
/// way keeps its other bits.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameWord(u64);

impl FrameWord {
    const VALID: u64 = 1 << 63;
    const WRITABLE: u64 = 1 << 62;
    const DIRTY: u64 = 1 << 61;
    const HUGE: u64 = 1 << 60;
    const PFN_MASK: u64 = Self::HUGE - 1;

    /// The valid word of `entry`.
    #[inline]
    fn of(entry: &TlbEntry) -> Self {
        debug_assert!(
            entry.pfn.0 <= Self::PFN_MASK,
            "{:?} overflows a frame word",
            entry.pfn
        );
        Self(
            entry.pfn.0
                | Self::VALID
                | (Self::WRITABLE * u64::from(entry.writable))
                | (Self::DIRTY * u64::from(entry.dirty))
                | (Self::HUGE * u64::from(entry.huge)),
        )
    }

    #[inline]
    fn valid(self) -> bool {
        self.0 & Self::VALID != 0
    }

    /// The translation's frame (a huge one's first frame).
    #[inline]
    pub fn pfn(self) -> Pfn {
        Pfn(self.0 & Self::PFN_MASK)
    }

    /// A 2 MiB translation.
    #[inline]
    fn huge(self) -> bool {
        self.0 & Self::HUGE != 0
    }

    /// The cached dirty state.
    #[inline]
    fn dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }

    /// Cache the dirty state (a store went through the translation).
    #[inline]
    fn set_dirty(&mut self) {
        self.0 |= Self::DIRTY;
    }

    /// The entry this word translates (`pid`, `vpn`) to.
    #[inline]
    fn entry(self, pid: Pid, vpn: Vpn) -> TlbEntry {
        TlbEntry {
            pid,
            vpn,
            pfn: self.pfn(),
            writable: self.0 & Self::WRITABLE != 0,
            dirty: self.dirty(),
            huge: self.huge(),
        }
    }
}

/// One set-associative translation cache level with true-LRU replacement.
///
/// Each way is two 8-byte words: the packed [`PageKey`] of its page (or a
/// huge page's base) and its [`FrameWord`]. Each set has one recency word
/// (`crate::lru`), so a set has at most 16 ways.
pub struct TlbLevel {
    sets: usize,
    ways: usize,
    keys: Vec<u64>,
    frames: Vec<FrameWord>,
    order: Vec<u64>,
    /// Count of valid huge-page entries; lets [`Tlb::access`] skip the
    /// huge-tag probe entirely when no huge translation can possibly hit
    /// (the common non-THP case), halving lookup work per access.
    huge_entries: usize,
}

impl TlbLevel {
    /// Create a level with `sets * ways` entries. `sets` must be a power of
    /// two (1 set = fully associative).
    ///
    /// # Panics
    /// If `sets` is not a power of two, or `ways` is 0 or above 16.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "TLB sets must be a power of two");
        check_ways("TLB level", ways);
        Self {
            sets,
            ways,
            keys: vec![0; sets * ways],
            frames: vec![FrameWord::default(); sets * ways],
            order: vec![initial_order(ways); sets],
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

    /// The set (`pid`, `vpn`) maps to.
    #[inline]
    fn set_of(&self, pid: Pid, vpn: Vpn) -> usize {
        // Mix the PID in so co-running processes do not alias set 0-heavy
        // layouts onto each other deterministically.
        ((vpn.0 ^ (pid as u64).wrapping_mul(0x9E37_79B9)) as usize) & (self.sets - 1)
    }

    /// The ways of set `set`.
    #[inline]
    fn slots(&self, set: usize) -> std::ops::Range<usize> {
        let start = set * self.ways;
        start..start + self.ways
    }

    /// The index of the valid way holding `key` in `range`.
    #[inline]
    // tmprof-lint: allow(panic-reachability) — callers pass slots(set) of a set below `sets`, a range inside both way arrays
    fn find(&self, range: std::ops::Range<usize>, key: u64) -> Option<usize> {
        let frames = &self.frames[range.clone()];
        self.keys[range]
            .iter()
            .zip(frames)
            .position(|(&k, f)| k == key && f.valid())
    }

    /// Probe for a translation; a hit moves its way to the front of the
    /// set's recency word and returns its frame word.
    // tmprof-lint: allow(panic-reachability) — set_of masks the set index to sets - 1, so its ways and recency word are in bounds, and `way` is a position within the set
    pub fn lookup(&mut self, pid: Pid, vpn: Vpn) -> Option<&mut FrameWord> {
        let set = self.set_of(pid, vpn);
        let range = self.slots(set);
        let way = self.find(range.clone(), PageKey { pid, vpn }.pack())?;
        self.order[set] = to_front(self.order[set], way);
        Some(&mut self.frames[range.start + way])
    }

    /// Install a translation, evicting the set's LRU entry if needed.
    /// Returns the evicted entry, if one was displaced.
    ///
    /// The way is, in priority order, the one that already maps the same
    /// page (overwritten in place, nothing evicted), the first empty way,
    /// and the LRU way.
    // tmprof-lint: allow(panic-reachability) — set_of masks the set index to sets - 1, so its ways and recency word are in bounds; `way` is a position within the set or a recency nibble below `ways`
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        let set = self.set_of(entry.pid, entry.vpn);
        let range = self.slots(set);
        let key = PageKey {
            pid: entry.pid,
            vpn: entry.vpn,
        }
        .pack();
        let same = self.find(range.clone(), key);
        let way = same
            .or_else(|| self.frames[range.clone()].iter().position(|f| !f.valid()))
            .unwrap_or_else(|| lru_way(self.order[set], self.ways));
        let slot = range.start + way;
        let (old_key, old) = (self.keys[slot], self.frames[slot]);
        self.keys[slot] = key;
        self.frames[slot] = FrameWord::of(&entry);
        self.order[set] = to_front(self.order[set], way);
        self.huge_entries += entry.huge as usize;
        if !old.valid() {
            return None;
        }
        self.huge_entries -= old.huge() as usize;
        let PageKey { pid, vpn } = PageKey::unpack(old_key);
        same.is_none().then(|| old.entry(pid, vpn))
    }

    /// Drop the translation for (`pid`, `vpn`) if cached. Returns whether an
    /// entry was present (shootdown accounting).
    // tmprof-lint: allow(panic-reachability) — set_of masks the set index to sets - 1, so `way` is a position within the set's ways
    pub fn invalidate_page(&mut self, pid: Pid, vpn: Vpn) -> bool {
        let range = self.slots(self.set_of(pid, vpn));
        let Some(way) = self.find(range.clone(), PageKey { pid, vpn }.pack()) else {
            return false;
        };
        let frame = &mut self.frames[range.start + way];
        frame.0 &= !FrameWord::VALID;
        self.huge_entries -= frame.huge() as usize;
        true
    }

    /// Number of currently valid entries (diagnostics).
    // tmprof-lint: allow(dead-surface) — capacity and invalidation checks of sim/tests/props.rs and tlb::tests
    pub fn occupancy(&self) -> usize {
        self.frames.iter().filter(|f| f.valid()).count()
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
    /// A TLB of the two levels.
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
        if let Some(word) = self.l1.lookup(pid, vpn) {
            if word.huge() != want_huge {
                return None;
            }
            let needs_wb = is_store && !word.dirty();
            if is_store {
                word.set_dirty();
            }
            let entry = word.entry(pid, vpn);
            // Keep L2 coherent about dirty state so a later L1 eviction and
            // L2 re-promotion does not repeat the write-back.
            if needs_wb {
                if let Some(l2_word) = self.l2.lookup(pid, vpn) {
                    l2_word.set_dirty();
                }
            }
            return Some(Translation {
                entry,
                level: TlbHit::L1,
                needs_dirty_writeback: needs_wb,
            });
        }
        if let Some(word) = self.l2.lookup(pid, vpn) {
            if word.huge() != want_huge {
                return None;
            }
            let needs_wb = is_store && !word.dirty();
            if is_store {
                word.set_dirty();
            }
            let entry = word.entry(pid, vpn);
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
    use proptest::prelude::*;

    impl TlbLevel {
        /// The valid entries, ascending by key.
        fn entries(&self) -> Vec<TlbEntry> {
            let mut v: Vec<(u64, TlbEntry)> = self
                .keys
                .iter()
                .zip(&self.frames)
                .filter(|(_, f)| f.valid())
                .map(|(&k, f)| {
                    let PageKey { pid, vpn } = PageKey::unpack(k);
                    (k, f.entry(pid, vpn))
                })
                .collect();
            v.sort_unstable_by_key(|&(k, _)| k);
            v.into_iter().map(|(_, e)| e).collect()
        }

        /// Drop every translation belonging to `pid`.
        fn flush_pid(&mut self, pid: Pid) -> usize {
            let mut n = 0;
            for e in self.entries() {
                if e.pid == pid {
                    self.invalidate_page(pid, e.vpn);
                    n += 1;
                }
            }
            n
        }

        /// Drop everything.
        fn flush_all(&mut self) {
            for e in self.entries() {
                self.invalidate_page(e.pid, e.vpn);
            }
        }
    }

    /// The machine's geometry: a 16-entry DTLB and a 32 x 16 STLB.
    fn machine_tlb() -> Tlb {
        Tlb::new(TlbLevel::new(1, 16), TlbLevel::new(32, 16))
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
        let mut tlb = machine_tlb();
        assert!(tlb.access(1, Vpn(42), false).is_none());
        tlb.fill(entry(1, 42, 7));
        let t = tlb.access(1, Vpn(42), false).unwrap();
        assert_eq!(t.level, TlbHit::L1);
        assert_eq!(t.entry.pfn, Pfn(7));
    }

    #[test]
    fn pids_are_isolated() {
        let mut tlb = machine_tlb();
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
        let mut tlb = Tlb::new(TlbLevel::new(1, 2), TlbLevel::new(1, 16));
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
        let mut tlb = machine_tlb();
        tlb.fill(entry(1, 5, 9));
        let first = tlb.access(1, Vpn(5), true).unwrap();
        assert!(first.needs_dirty_writeback);
        let second = tlb.access(1, Vpn(5), true).unwrap();
        assert!(!second.needs_dirty_writeback, "dirty state must be cached");
    }

    #[test]
    fn load_never_requests_dirty_writeback() {
        let mut tlb = machine_tlb();
        tlb.fill(entry(1, 5, 9));
        let t = tlb.access(1, Vpn(5), false).unwrap();
        assert!(!t.needs_dirty_writeback);
    }

    #[test]
    fn dirty_state_survives_l1_eviction_via_l2() {
        let mut tlb = Tlb::new(TlbLevel::new(1, 1), TlbLevel::new(1, 16));
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
        let mut tlb = machine_tlb();
        tlb.fill(entry(1, 8, 3));
        assert!(tlb.invalidate_page(1, Vpn(8)));
        assert!(tlb.access(1, Vpn(8), false).is_none());
        assert!(!tlb.invalidate_page(1, Vpn(8)));
    }

    #[test]
    fn flush_pid_only_hits_that_pid() {
        let mut tlb = machine_tlb();
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
        let mut tlb = machine_tlb();
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
        let mut tlb = machine_tlb();
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
        let mut tlb = machine_tlb();
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
        let mut tlb = machine_tlb();
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
        assert_eq!(machine_tlb().l1.capacity(), 16);
        assert_eq!(machine_tlb().l2.capacity(), 512);
    }

    #[test]
    #[should_panic(expected = "TLB level: 64 ways, but a recency word holds at most 16")]
    fn more_ways_than_a_recency_word_holds_panics() {
        TlbLevel::new(1, 64);
    }

    /// One way of the stamped oracle: a whole entry, a 64-bit LRU stamp
    /// and a valid flag.
    #[derive(Clone, Copy)]
    struct Slot {
        entry: TlbEntry,
        stamp: u64,
        valid: bool,
    }

    /// The stamped TLB level, kept as the oracle for [`TlbLevel`]: a hit or
    /// an insert stamps its slot with the level's clock, and a full set
    /// evicts the slot with the smallest stamp.
    struct StampedLevel {
        sets: usize,
        ways: usize,
        slots: Vec<Slot>,
        clock: u64,
        huge_entries: usize,
    }

    impl StampedLevel {
        fn new(sets: usize, ways: usize) -> Self {
            let empty = Slot {
                entry: entry(0, 0, 0),
                stamp: 0,
                valid: false,
            };
            Self {
                sets,
                ways,
                slots: vec![empty; sets * ways],
                clock: 0,
                huge_entries: 0,
            }
        }

        fn set_range(&self, pid: Pid, vpn: Vpn) -> std::ops::Range<usize> {
            let idx = ((vpn.0 ^ (pid as u64).wrapping_mul(0x9E37_79B9)) as usize) & (self.sets - 1);
            let start = idx * self.ways;
            start..start + self.ways
        }

        fn lookup(&mut self, pid: Pid, vpn: Vpn) -> Option<&mut TlbEntry> {
            self.clock += 1;
            let clock = self.clock;
            let range = self.set_range(pid, vpn);
            let slot = self.slots[range]
                .iter_mut()
                .find(|s| s.valid && s.entry.pid == pid && s.entry.vpn == vpn)?;
            slot.stamp = clock;
            Some(&mut slot.entry)
        }

        fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
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
            let fresh = Slot {
                entry,
                stamp: clock,
                valid: true,
            };
            if let Some(i) = same {
                self.huge_entries += entry.huge as usize;
                self.huge_entries -= set[i].entry.huge as usize;
                set[i] = fresh;
                return None;
            }
            self.huge_entries += entry.huge as usize;
            if let Some(i) = invalid {
                set[i] = fresh;
                return None;
            }
            let evicted = set[lru].entry;
            set[lru] = fresh;
            self.huge_entries -= evicted.huge as usize;
            Some(evicted)
        }

        fn invalidate_page(&mut self, pid: Pid, vpn: Vpn) -> bool {
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

        fn occupancy(&self) -> usize {
            self.slots.iter().filter(|s| s.valid).count()
        }

        fn entries(&self) -> Vec<TlbEntry> {
            let mut v: Vec<TlbEntry> = self
                .slots
                .iter()
                .filter(|s| s.valid)
                .map(|s| s.entry)
                .collect();
            v.sort_unstable_by_key(|e| {
                PageKey {
                    pid: e.pid,
                    vpn: e.vpn,
                }
                .pack()
            });
            v
        }
    }

    /// [`Tlb`]'s two-level protocol over stamped levels.
    struct StampedTlb {
        l1: StampedLevel,
        l2: StampedLevel,
    }

    impl StampedTlb {
        fn access(&mut self, pid: Pid, vpn: Vpn, is_store: bool) -> Option<Translation> {
            if self.l1.huge_entries > 0 || self.l2.huge_entries > 0 {
                let base = Vpn(vpn.0 & !(HUGE_SPAN - 1));
                if let Some(tr) = self.access_tag(pid, base, is_store, true) {
                    return Some(tr);
                }
            }
            self.access_tag(pid, vpn, is_store, false)
        }

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

        fn invalidate_page(&mut self, pid: Pid, vpn: Vpn) -> bool {
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

    #[derive(Clone, Debug)]
    enum TlbOp {
        /// Access a page; on a miss, fill it when `fill` is set, as a 2 MiB
        /// translation of its region when `huge` is set.
        Access {
            pid: Pid,
            vpn: u64,
            store: bool,
            fill: bool,
            huge: bool,
            pfn: u64,
        },
        /// Fill without an access first (a refill of a cached page
        /// overwrites it in place).
        Fill {
            pid: Pid,
            vpn: u64,
            huge: bool,
            dirty: bool,
            pfn: u64,
        },
        Invalidate {
            pid: Pid,
            vpn: u64,
        },
    }

    /// Pages `a + 128 b`: up to 48 pages of a pid share a set in every
    /// geometry up to 128 sets, so sets overflow; pages with `a = 0` share
    /// their key with the base of a 2 MiB region, and 12 regions are in
    /// range, so huge and 4 KiB translations alias.
    fn vpn() -> impl Strategy<Value = u64> {
        (0..3u64, 0..48u64).prop_map(|(a, b)| a + 128 * b)
    }

    fn tlb_ops() -> impl Strategy<Value = Vec<TlbOp>> {
        prop::collection::vec(
            prop_oneof![
                12 => (1..4u32, vpn(), any::<bool>(), prop_oneof![3 => Just(true), 1 => Just(false)], prop_oneof![1 => Just(true), 7 => Just(false)], 0..1u64 << 27)
                    .prop_map(|(pid, vpn, store, fill, huge, pfn)| TlbOp::Access { pid, vpn, store, fill, huge, pfn }),
                2 => (1..4u32, vpn(), prop_oneof![1 => Just(true), 5 => Just(false)], any::<bool>(), 0..1u64 << 27)
                    .prop_map(|(pid, vpn, huge, dirty, pfn)| TlbOp::Fill { pid, vpn, huge, dirty, pfn }),
                2 => (1..4u32, vpn()).prop_map(|(pid, vpn)| TlbOp::Invalidate { pid, vpn }),
            ],
            1..800,
        )
    }

    /// The translation a fill installs for `vpn`: a huge one keys on its
    /// region's base.
    fn fill_entry(pid: Pid, vpn: u64, huge: bool, dirty: bool, pfn: u64) -> TlbEntry {
        TlbEntry {
            pid,
            vpn: Vpn(if huge { vpn & !(HUGE_SPAN - 1) } else { vpn }),
            pfn: Pfn(pfn),
            writable: pfn % 3 != 0,
            dirty,
            huge,
        }
    }

    /// Apply `ops` to a [`Tlb`] and to the stamped oracle of the same
    /// geometry, requiring the same hit level, entry and dirty write-back
    /// from every access, the same evicted entry from every insert, and
    /// the same `holds_huge` and occupancy of both levels after every op
    /// and the same entries at the end.
    fn check_against_stamped(ops: &[TlbOp], l1_ways: usize, l2_sets: usize, l2_ways: usize) {
        let mut t = Tlb::new(TlbLevel::new(1, l1_ways), TlbLevel::new(l2_sets, l2_ways));
        let mut r = StampedTlb {
            l1: StampedLevel::new(1, l1_ways),
            l2: StampedLevel::new(l2_sets, l2_ways),
        };
        let geometry = format!("1 x {l1_ways} + {l2_sets} x {l2_ways}");
        let fill = |t: &mut Tlb, r: &mut StampedTlb, e: TlbEntry, at: &str| {
            assert_eq!(t.l2.insert(e), r.l2.insert(e), "L2 insert, {at}");
            assert_eq!(t.l1.insert(e), r.l1.insert(e), "L1 insert, {at}");
        };
        for (i, op) in ops.iter().enumerate() {
            let at = format!("{geometry}, op {i} {op:?}");
            match *op {
                TlbOp::Access {
                    pid,
                    vpn,
                    store,
                    fill: then_fill,
                    huge,
                    pfn,
                } => {
                    let got = t.access(pid, Vpn(vpn), store);
                    let want = r.access(pid, Vpn(vpn), store);
                    let outcome = |tr: Option<Translation>| {
                        tr.map(|tr| (tr.level, tr.entry, tr.needs_dirty_writeback))
                    };
                    assert_eq!(outcome(got), outcome(want), "access, {at}");
                    if got.is_none() && then_fill {
                        fill(&mut t, &mut r, fill_entry(pid, vpn, huge, store, pfn), &at);
                    }
                }
                TlbOp::Fill {
                    pid,
                    vpn,
                    huge,
                    dirty,
                    pfn,
                } => fill(&mut t, &mut r, fill_entry(pid, vpn, huge, dirty, pfn), &at),
                TlbOp::Invalidate { pid, vpn } => {
                    let got = t.invalidate_page(pid, Vpn(vpn));
                    assert_eq!(got, r.invalidate_page(pid, Vpn(vpn)), "invalidate, {at}");
                }
            }
            let state = |l: &TlbLevel| (l.holds_huge(), l.occupancy());
            let oracle = |l: &StampedLevel| (l.huge_entries > 0, l.occupancy());
            assert_eq!(
                state(&t.l1),
                oracle(&r.l1),
                "L1 holds_huge and occupancy, {at}"
            );
            assert_eq!(
                state(&t.l2),
                oracle(&r.l2),
                "L2 holds_huge and occupancy, {at}"
            );
        }
        assert_eq!(
            t.l1.entries(),
            r.l1.entries(),
            "L1 entries, {geometry}, end"
        );
        assert_eq!(
            t.l2.entries(),
            r.l2.entries(),
            "L2 entries, {geometry}, end"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Packed ways and recency words are exact true LRU: every access,
        /// fill, invalidation and huge-page translation gives what the
        /// stamped TLB gives, on DTLBs of 1 x 2 to 1 x 16 over STLBs of
        /// 8 x 4 to 128 x 16.
        #[test]
        fn packed_ways_match_stamped_lru(ops in tlb_ops()) {
            for l1_ways in [2, 4, 8, 16] {
                for (l2_sets, l2_ways) in [(8, 4), (32, 16), (128, 16)] {
                    check_against_stamped(&ops, l1_ways, l2_sets, l2_ways);
                }
            }
        }
    }
}
