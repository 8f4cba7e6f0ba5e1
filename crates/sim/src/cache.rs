//! Set-associative cache model and the private/shared hierarchy.
//!
//! Trace-based profiling (IBS/PEBS) reports, per sampled op, which level of
//! the hierarchy served the data. TMP only treats samples whose data source
//! is *beyond* the LLC as evidence of memory heat (§III-A: pages that hit in
//! cache gain little from migration), so the cache model is what gives the
//! trace profiler its selectivity. Geometry defaults approximate the paper's
//! Ryzen 5 3600X: 32 KiB 8-way L1D, 512 KiB 8-way private L2, and a 32 MiB
//! 16-way shared LLC, all with 64 B lines.

use crate::addr::{PhysAddr, LINE_SHIFT};

/// Which level of the cache hierarchy served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheLevel {
    /// Served by the core-private L1 data cache.
    L1,
    /// Served by the core-private L2.
    L2,
    /// Served by the shared last-level cache.
    Llc,
    /// Missed the whole hierarchy: served by a memory tier.
    Memory,
}

#[derive(Clone, Copy)]
struct Line {
    tag: u64,
    stamp: u64,
    valid: bool,
    dirty: bool,
}

/// Cache lines per 4 KiB page.
const PAGE_LINES: u64 = crate::addr::PAGE_SIZE >> LINE_SHIFT;

const INVALID_LINE: Line = Line {
    tag: 0,
    stamp: 0,
    valid: false,
    dirty: false,
};

/// Result of a single-level probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FillOutcome {
    /// A dirty victim line was written back (address of the victim line).
    pub writeback: Option<u64>,
}

/// One set-associative, write-back, write-allocate cache with true LRU.
///
/// Lines are tracked by *physical* line number, so page migration (which
/// changes a page's physical address) naturally invalidates nothing but maps
/// the page to cold lines — the same effect real migration has.
#[derive(Clone)]
pub struct Cache {
    name: &'static str,
    sets: usize,
    ways: usize,
    lines: Vec<Line>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache of `size_bytes` with `ways`-way associativity.
    pub fn new(name: &'static str, size_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0);
        let lines_total = (size_bytes >> LINE_SHIFT) as usize;
        assert!(lines_total >= ways, "{name}: size below one set");
        let sets = lines_total / ways;
        assert!(
            sets.is_power_of_two(),
            "{name}: set count must be a power of two"
        );
        Self {
            name,
            sets,
            ways,
            lines: vec![INVALID_LINE; sets * ways],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Cache capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * (1 << LINE_SHIFT)
    }

    /// Human-readable identifier (diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let idx = (line as usize) & (self.sets - 1);
        let start = idx * self.ways;
        start..start + self.ways
    }

    /// Probe for `line`; on a hit, refresh LRU and (for stores) mark dirty.
    // tmprof-lint: allow(panic-reachability) — set_range masks the set index to sets - 1 and slices exactly `ways` lines
    pub fn probe(&mut self, line: u64, is_store: bool) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(line);
        if let Some(slot) = self.lines[range]
            .iter_mut()
            .find(|l| l.valid && l.tag == line)
        {
            slot.stamp = clock;
            slot.dirty |= is_store;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Install `line` after a miss, evicting the LRU way.
    // tmprof-lint: allow(panic-reachability) — set_range masks the set index to sets - 1 and slices exactly `ways` lines
    pub fn fill(&mut self, line: u64, is_store: bool) -> FillOutcome {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(line);
        let set = &mut self.lines[range];
        let slot = if let Some(free) = set.iter_mut().find(|l| !l.valid) {
            free
        } else {
            // tmprof-lint: allow(panic-reachability) — ways >= 1 is validated at construction, so a set always has an LRU victim
            set.iter_mut().min_by_key(|l| l.stamp).expect("ways > 0")
        };
        let writeback = (slot.valid && slot.dirty).then_some(slot.tag);
        *slot = Line {
            tag: line,
            stamp: clock,
            valid: true,
            dirty: is_store,
        };
        FillOutcome { writeback }
    }

    /// Absorb a writeback from an inner cache level: if `line` is present,
    /// mark it dirty (no demand-stat or LRU update — writebacks are not
    /// demand traffic). Returns false when the line is absent and the
    /// writeback must continue outward.
    // tmprof-lint: allow(panic-reachability) — set_range masks the set index to sets - 1 and slices exactly `ways` lines
    pub fn writeback_touch(&mut self, line: u64) -> bool {
        let range = self.set_range(line);
        for slot in &mut self.lines[range] {
            if slot.valid && slot.tag == line {
                slot.dirty = true;
                return true;
            }
        }
        false
    }

    /// Drop `line` if cached (migration scrub / coherence). Returns whether
    /// it was present and dirty.
    // tmprof-lint: allow(panic-reachability) — set_range masks the set index to sets - 1 and slices exactly `ways` lines
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let range = self.set_range(line);
        for slot in &mut self.lines[range] {
            if slot.valid && slot.tag == line {
                slot.valid = false;
                return Some(slot.dirty);
            }
        }
        None
    }

    /// The slots that can hold a line of the page starting at
    /// `page_first_line`. A page's lines are consecutive line numbers, so
    /// with at least `PAGE_LINES` sets they fill `PAGE_LINES` contiguous
    /// sets; with fewer sets they cover every set.
    #[inline]
    fn page_slots(&self, page_first_line: u64) -> std::ops::Range<usize> {
        debug_assert_eq!(page_first_line % PAGE_LINES, 0, "not a page's first line");
        if self.sets >= PAGE_LINES as usize {
            let start = self.set_range(page_first_line).start;
            start..start + PAGE_LINES as usize * self.ways
        } else {
            0..self.lines.len()
        }
    }

    /// Drop every line of a physical page (used when a page migrates off
    /// the frame, so the frame is cold when it is reused, like hardware
    /// after a copy).
    ///
    /// One pass over the page's sets, with the same effect as
    /// [`Cache::invalidate`] on each of its lines: a line is filled only
    /// after it missed, so it sits in at most one way, and clearing `valid`
    /// on every slot whose tag falls in the page drops exactly those lines.
    /// LRU stamps, dirty bits and counters are untouched; no writeback is
    /// reported.
    // tmprof-lint: allow(panic-reachability) — page_slots masks the first set to a multiple of PAGE_LINES below `sets` and slices PAGE_LINES sets of `ways` lines, or the whole array
    pub fn invalidate_page_lines(&mut self, page_first_line: u64) {
        let range = self.page_slots(page_first_line);
        for slot in &mut self.lines[range] {
            slot.valid &= slot.tag.wrapping_sub(page_first_line) >= PAGE_LINES;
        }
    }

    /// Number of valid lines of the page starting at `page_first_line`
    /// (diagnostics).
    // tmprof-lint: allow(panic-reachability) — page_slots masks the first set to a multiple of PAGE_LINES below `sets` and slices PAGE_LINES sets of `ways` lines, or the whole array
    pub(crate) fn page_lines_cached(&self, page_first_line: u64) -> usize {
        self.lines[self.page_slots(page_first_line)]
            .iter()
            .filter(|l| l.valid && l.tag.wrapping_sub(page_first_line) < PAGE_LINES)
            .count()
    }

    /// Physical line numbers of the valid lines (diagnostics).
    pub(crate) fn valid_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.lines.iter().filter(|l| l.valid).map(|l| l.tag)
    }

    /// Number of valid lines (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.valid_lines().count()
    }

    /// Reset hit/miss counters (per-epoch accounting).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

/// Dirty victim lines displaced from the private levels by a fill; the
/// owner (the machine) routes them outward (L2 → LLC → memory).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrivateVictims {
    /// Dirty line evicted from L1 (next stop: L2).
    pub from_l1: Option<u64>,
    /// Dirty line evicted from L2 (next stop: LLC).
    pub from_l2: Option<u64>,
}

/// The private portion of the hierarchy owned by a single core.
pub struct PrivateCaches {
    pub l1d: Cache,
    pub l2: Cache,
}

impl PrivateCaches {
    /// Zen2-like core-private geometry.
    pub fn zen2() -> Self {
        Self {
            l1d: Cache::new("L1D", 32 << 10, 8),
            l2: Cache::new("L2", 512 << 10, 8),
        }
    }

    /// Run an access through L1 and L2. Returns the serving level if one of
    /// the private levels hit (`None` means the access must go to the LLC)
    /// plus any dirty victims the promotion displaced.
    pub fn probe(&mut self, pa: PhysAddr, is_store: bool) -> (Option<CacheLevel>, PrivateVictims) {
        let line = pa.line();
        if self.l1d.probe(line, is_store) {
            return (Some(CacheLevel::L1), PrivateVictims::default());
        }
        if self.l2.probe(line, is_store) {
            // Promote to L1 (inclusive-ish fill path). A dirty L1 victim
            // is absorbed by L2 directly (it is private and always
            // reachable), so nothing escapes here.
            let out = self.l1d.fill(line, is_store);
            if let Some(victim) = out.writeback {
                self.l2.writeback_touch(victim);
            }
            return (Some(CacheLevel::L2), PrivateVictims::default());
        }
        (None, PrivateVictims::default())
    }

    /// After the shared level (or memory) supplied the line, install it in
    /// both private levels, returning dirty victims for the owner to route
    /// outward.
    pub fn fill_through(&mut self, pa: PhysAddr, is_store: bool) -> PrivateVictims {
        let line = pa.line();
        let o2 = self.l2.fill(line, is_store);
        let o1 = self.l1d.fill(line, is_store);
        let mut victims = PrivateVictims {
            from_l1: None,
            from_l2: o2.writeback,
        };
        if let Some(v1) = o1.writeback {
            // Try to land the L1 victim in L2 first.
            if !self.l2.writeback_touch(v1) {
                victims.from_l1 = Some(v1);
            }
        }
        victims
    }

    /// Scrub all lines of a migrating page.
    pub fn scrub_page(&mut self, page_first_line: u64) {
        self.l1d.invalidate_page_lines(page_first_line);
        self.l2.invalidate_page_lines(page_first_line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn geometry_zen2() {
        let pc = PrivateCaches::zen2();
        assert_eq!(pc.l1d.size_bytes(), 32 << 10);
        assert_eq!(pc.l2.size_bytes(), 512 << 10);
        let llc = Cache::new("LLC", 32 << 20, 16);
        assert_eq!(llc.size_bytes(), 32 << 20);
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = Cache::new("t", 4 << 10, 4);
        assert!(!c.probe(100, false));
        c.fill(100, false);
        assert!(c.probe(100, false));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        // 2 ways, 1 set of interest: lines 0, sets, 2*sets map to set 0.
        let mut c = Cache::new("t", 2 * 64, 2); // 2 lines total, 1 set
        c.fill(0, false);
        c.fill(1, false);
        c.probe(0, false); // 1 becomes LRU
        let out = c.fill(2, false);
        assert_eq!(out.writeback, None);
        assert!(c.probe(0, false));
        assert!(!c.probe(1, false));
        assert!(c.probe(2, false));
    }

    #[test]
    fn dirty_victim_reports_writeback() {
        let mut c = Cache::new("t", 2 * 64, 2);
        c.fill(10, true); // dirty
        c.fill(11, false);
        c.probe(11, false); // 10 is LRU
        let out = c.fill(12, false);
        assert_eq!(out.writeback, Some(10));
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = Cache::new("t", 2 * 64, 2);
        c.fill(5, false);
        assert!(c.probe(5, true));
        assert_eq!(c.invalidate(5), Some(true));
    }

    #[test]
    fn invalidate_page_lines_clears_whole_page() {
        let mut c = Cache::new("t", 64 << 10, 8);
        // Page 3 occupies lines 3*64 .. 4*64.
        for l in (3 * 64)..(4 * 64) {
            c.fill(l, false);
        }
        assert_eq!(c.occupancy(), 64);
        c.invalidate_page_lines(3 * 64);
        assert_eq!(c.occupancy(), 0);
    }

    /// The per-line scrub [`Cache::invalidate_page_lines`] replaced, kept
    /// as its oracle: one [`Cache::invalidate`] per line of the page.
    fn invalidate_page_lines_per_line(c: &mut Cache, page_first_line: u64) {
        for l in page_first_line..page_first_line + PAGE_LINES {
            c.invalidate(l);
        }
    }

    /// A slot's `(tag, valid, dirty, stamp)`.
    type Slot = (u64, bool, bool, u64);

    /// Every slot, plus clock and counters.
    fn state(c: &Cache) -> (Vec<Slot>, u64, u64, u64) {
        let slots = c
            .lines
            .iter()
            .map(|l| (l.tag, l.valid, l.dirty, l.stamp))
            .collect();
        (slots, c.clock, c.hits, c.misses)
    }

    #[derive(Clone, Debug)]
    enum CacheOp {
        /// Probe, then fill on a miss when `fill` is set.
        Access {
            page: u64,
            line: u64,
            store: bool,
            fill: bool,
        },
        WritebackTouch {
            page: u64,
            line: u64,
        },
        Scrub {
            page: u64,
        },
    }

    /// 48 pages in two groups of 24 that share their sets even in the
    /// 2,048-set LLC (page numbers 32 apart). Most accesses go to a page's
    /// first 4 lines, so up to 24 lines contend for each of those sets and
    /// every geometry sees conflict evictions, dirty victims and stale
    /// tags in invalid ways.
    const TEST_PAGES: u64 = 48;

    fn page_first_line(page: u64) -> u64 {
        ((page % 2) + 32 * (page / 2)) * PAGE_LINES
    }

    fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
        prop::collection::vec(
            prop_oneof![
                12 => (0..TEST_PAGES, line(), any::<bool>(), prop_oneof![3 => Just(true), 1 => Just(false)])
                    .prop_map(|(page, line, store, fill)| CacheOp::Access { page, line, store, fill }),
                2 => (0..TEST_PAGES, line())
                    .prop_map(|(page, line)| CacheOp::WritebackTouch { page, line }),
                1 => (0..TEST_PAGES).prop_map(|page| CacheOp::Scrub { page }),
            ],
            1..1000,
        )
    }

    fn line() -> impl Strategy<Value = u64> {
        prop_oneof![3 => 0..4u64, 1 => 0..PAGE_LINES]
    }

    /// Scrub `page` from `c` with the sweep, checking on a copy that the
    /// per-line oracle leaves every slot, the clock and the counters the
    /// same, and that `page_lines_cached` counted what the oracle dropped.
    fn scrub_and_check(c: &mut Cache, page: u64) {
        let first = page_first_line(page);
        let mut oracle = c.clone();
        invalidate_page_lines_per_line(&mut oracle, first);
        assert_eq!(
            c.page_lines_cached(first),
            c.occupancy() - oracle.occupancy()
        );
        c.invalidate_page_lines(first);
        assert!(state(c) == state(&oracle), "scrub of page {page} diverged");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The one-pass scrub leaves every slot exactly as the per-line
        /// loop does, on the L1 (8 sets), L2 (64 sets) and LLC (2,048
        /// sets) of the `scaled_down(16)` machine.
        #[test]
        fn page_sweep_matches_per_line_invalidate(ops in cache_ops()) {
            for (size, ways) in [(4u64 << 10, 8), (32 << 10, 8), (2 << 20, 16)] {
                let mut c = Cache::new("t", size, ways);
                for op in &ops {
                    match *op {
                        CacheOp::Access { page, line, store, fill } => {
                            let l = page_first_line(page) + line;
                            if !c.probe(l, store) && fill {
                                c.fill(l, store);
                            }
                        }
                        CacheOp::WritebackTouch { page, line } => {
                            c.writeback_touch(page_first_line(page) + line);
                        }
                        CacheOp::Scrub { page } => scrub_and_check(&mut c, page),
                    }
                }
                // From the final state, scrub each page on its own.
                for page in 0..TEST_PAGES {
                    scrub_and_check(&mut c.clone(), page);
                }
            }
        }
    }

    #[test]
    fn private_hierarchy_promotes_l2_hits() {
        let mut pc = PrivateCaches::zen2();
        let pa = PhysAddr(0x1000);
        assert_eq!(pc.probe(pa, false).0, None);
        pc.fill_through(pa, false);
        assert_eq!(pc.probe(pa, false).0, Some(CacheLevel::L1));
        // Evict from the 8-way L1 by filling 8 lines that conflict in its
        // 64-set index (stride 64 lines = 4096 B) but land in distinct sets
        // of the 1024-set L2, so the victim line survives in L2.
        for i in 1..=8u64 {
            pc.fill_through(PhysAddr(0x1000 + i * 4096), false);
        }
        assert_eq!(pc.probe(pa, false).0, Some(CacheLevel::L2));
        // And promoted back to L1 afterwards.
        assert_eq!(pc.probe(pa, false).0, Some(CacheLevel::L1));
    }

    #[test]
    fn dirty_l1_victim_is_absorbed_by_l2_on_promotion() {
        let mut pc = PrivateCaches::zen2();
        // Dirty a line, then evict it from L1 via conflicting fills.
        pc.fill_through(PhysAddr(0x1000), true);
        for i in 1..=8u64 {
            pc.fill_through(PhysAddr(0x1000 + i * 4096), false);
        }
        // The dirty line now lives (dirty) in L2 only.
        assert_eq!(pc.probe(PhysAddr(0x1000), false).0, Some(CacheLevel::L2));
        assert_eq!(pc.l2.invalidate(PhysAddr(0x1000).line()), Some(true));
    }

    #[test]
    fn writeback_touch_marks_dirty_without_stats() {
        let mut c = Cache::new("t", 4 << 10, 4);
        c.fill(10, false);
        let (h, m) = (c.hits(), c.misses());
        assert!(c.writeback_touch(10));
        assert!(!c.writeback_touch(11));
        assert_eq!((c.hits(), c.misses()), (h, m));
        assert_eq!(c.invalidate(10), Some(true));
    }

    #[test]
    fn capacity_misses_emerge_beyond_size() {
        // Working set 2x the cache: hit rate must be poor on re-scan.
        let mut c = Cache::new("t", 64 * 64, 4); // 64 lines
        for l in 0..128 {
            if !c.probe(l, false) {
                c.fill(l, false);
            }
        }
        c.reset_stats();
        for l in 0..128 {
            if !c.probe(l, false) {
                c.fill(l, false);
            }
        }
        assert!(c.misses() > 64, "sequential over-capacity scan must thrash");
    }
}
