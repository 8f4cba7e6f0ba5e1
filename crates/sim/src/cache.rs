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

/// Tag-word bit: the way holds a line.
const VALID: u64 = 1 << 63;
/// Tag-word bit: the line was written since it was filled.
const DIRTY: u64 = 1 << 62;
/// The physical line number in a tag word.
const LINE_MASK: u64 = !(VALID | DIRTY);

/// Most ways a [`Cache`] can have: a set's recency word holds one 4-bit
/// way index per way.
const MAX_WAYS: usize = 16;

/// A one in every nibble of a word.
const NIBBLES: u64 = 0x1111_1111_1111_1111;

/// Cache lines per 4 KiB page.
const PAGE_LINES: u64 = crate::addr::PAGE_SIZE >> LINE_SHIFT;

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
///
/// State is one 8-byte tag word per way and one 8-byte recency word per
/// set:
///
/// * a tag word is the line number plus a valid bit (bit 63) and a dirty
///   bit (bit 62); 0 is an empty way. The array is allocated zeroed, so the
///   host backs only the sets a run touches;
/// * a recency word lists the set's way indices as 4-bit nibbles, most
///   recently used first (unused high nibbles hold `0xF`). A hit or a fill
///   moves its way to the front, so the word orders the ways by their last
///   hit or fill — exact true LRU — and the victim of a full set is the
///   nibble at position `ways - 1`. Hence at most 16 ways.
#[derive(Clone)]
pub struct Cache {
    name: &'static str,
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    order: Vec<u64>,
}

/// The recency word of a set no access has touched: way `i` at position
/// `i`, `0xF` in the nibbles past the last way.
fn initial_order(ways: usize) -> u64 {
    (0..MAX_WAYS).fold(0, |word, pos| {
        let nibble = if pos < ways { pos as u64 } else { 0xF };
        word | (nibble << (4 * pos))
    })
}

/// Move `way` to the front of the recency word `order`.
///
/// The zero-nibble test on `order ^ way-in-every-nibble` flags the top bit
/// of the nibble that holds `way` (borrows only flag nibbles above a true
/// zero, and `way` appears once). The nibbles before it shift up by one.
#[inline]
fn to_front(order: u64, way: usize) -> u64 {
    let x = order ^ (way as u64 * NIBBLES);
    let flags = x.wrapping_sub(NIBBLES) & !x & (NIBBLES << 3);
    debug_assert_ne!(flags, 0, "way {way} missing from recency word {order:#x}");
    let through = u64::MAX >> (63 - flags.trailing_zeros());
    (order & !through) | ((order & (through >> 4)) << 4) | way as u64
}

impl Cache {
    /// Build a cache of `size_bytes` with `ways`-way associativity.
    ///
    /// # Panics
    /// If `ways` is 0 or above 16, the size holds less than one
    /// set, or the set count is not a power of two; the message names the
    /// cache.
    pub fn new(name: &'static str, size_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0, "{name}: zero ways");
        assert!(
            ways <= MAX_WAYS,
            "{name}: {ways} ways, but a recency word holds at most {MAX_WAYS}"
        );
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
            tags: vec![0; sets * ways],
            order: vec![initial_order(ways); sets],
        }
    }

    /// Human-readable identifier (diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The set `line` maps to.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// The tag words of set `set`.
    #[inline]
    fn slots(&self, set: usize) -> std::ops::Range<usize> {
        let start = set * self.ways;
        start..start + self.ways
    }

    /// Probe for `line`; on a hit, refresh LRU and (for stores) mark dirty.
    // tmprof-lint: allow(panic-reachability) — set_of masks the set index to sets - 1, so the set's `ways` tag words and its recency word are in bounds, and `way` is a position within that slice
    pub fn probe(&mut self, line: u64, is_store: bool) -> bool {
        let set = self.set_of(line);
        let range = self.slots(set);
        let tags = &mut self.tags[range];
        if let Some(way) = tags.iter().position(|&t| t & !DIRTY == line | VALID) {
            tags[way] |= DIRTY * u64::from(is_store);
            self.order[set] = to_front(self.order[set], way);
            true
        } else {
            false
        }
    }

    /// Install `line` after a miss: in the first empty way, else in place
    /// of the LRU way.
    // tmprof-lint: allow(panic-reachability) — set_of masks the set index to sets - 1, so the set's `ways` tag words and its recency word are in bounds; `way` is a position within the set or a recency nibble, and the word holds only way indices below `ways` in its first `ways` nibbles
    pub fn fill(&mut self, line: u64, is_store: bool) -> FillOutcome {
        debug_assert_eq!(line & !LINE_MASK, 0, "line {line:#x} overflows a tag word");
        let set = self.set_of(line);
        let range = self.slots(set);
        let order = self.order[set];
        let tags = &mut self.tags[range];
        let way = match tags.iter().position(|&t| t & VALID == 0) {
            Some(free) => free,
            None => ((order >> (4 * (self.ways - 1))) & 0xF) as usize,
        };
        let old = tags[way];
        let writeback = (old & (VALID | DIRTY) == VALID | DIRTY).then_some(old & LINE_MASK);
        tags[way] = line | VALID | (DIRTY * u64::from(is_store));
        self.order[set] = to_front(order, way);
        FillOutcome { writeback }
    }

    /// The tag word holding `line`, if it is cached.
    // tmprof-lint: allow(panic-reachability) — set_of masks the set index to sets - 1, so the slice is the set's `ways` tag words
    fn tag_of(&mut self, line: u64) -> Option<&mut u64> {
        let range = self.slots(self.set_of(line));
        self.tags[range]
            .iter_mut()
            .find(|t| **t & !DIRTY == line | VALID)
    }

    /// Absorb a writeback from an inner cache level: if `line` is present,
    /// mark it dirty (no demand-stat or LRU update — writebacks are not
    /// demand traffic). Returns false when the line is absent and the
    /// writeback must continue outward.
    pub fn writeback_touch(&mut self, line: u64) -> bool {
        self.tag_of(line).map(|t| *t |= DIRTY).is_some()
    }

    /// The slots that can hold a line of the page starting at
    /// `page_first_line`. A page's lines are consecutive line numbers, so
    /// with at least `PAGE_LINES` sets they fill `PAGE_LINES` contiguous
    /// sets; with fewer sets they cover every set.
    #[inline]
    fn page_slots(&self, page_first_line: u64) -> std::ops::Range<usize> {
        debug_assert_eq!(page_first_line % PAGE_LINES, 0, "not a page's first line");
        if self.sets >= PAGE_LINES as usize {
            let start = self.slots(self.set_of(page_first_line)).start;
            start..start + PAGE_LINES as usize * self.ways
        } else {
            0..self.tags.len()
        }
    }

    /// Drop every line of a physical page (used when a page migrates off
    /// the frame, so the frame is cold when it is reused, like hardware
    /// after a copy).
    ///
    /// One pass over the page's sets, with the same effect as invalidating
    /// each of its lines one at a time: a line is filled only
    /// after it missed, so it sits in at most one way, and clearing the
    /// valid bit of every tag word whose line falls in the page drops
    /// exactly those lines. Recency words and dirty bits are untouched; no
    /// writeback is reported.
    // tmprof-lint: allow(panic-reachability) — page_slots masks the first set to a multiple of PAGE_LINES below `sets` and slices PAGE_LINES sets of `ways` tag words, or the whole array
    pub fn invalidate_page_lines(&mut self, page_first_line: u64) {
        let range = self.page_slots(page_first_line);
        for t in &mut self.tags[range] {
            let in_page = (*t & LINE_MASK).wrapping_sub(page_first_line) < PAGE_LINES;
            *t &= !(VALID * u64::from(in_page));
        }
    }

    /// Number of valid lines of the page starting at `page_first_line`
    /// (diagnostics).
    // tmprof-lint: allow(panic-reachability) — page_slots masks the first set to a multiple of PAGE_LINES below `sets` and slices PAGE_LINES sets of `ways` tag words, or the whole array
    pub(crate) fn page_lines_cached(&self, page_first_line: u64) -> usize {
        self.tags[self.page_slots(page_first_line)]
            .iter()
            .filter(|&&t| {
                t & VALID != 0 && (t & LINE_MASK).wrapping_sub(page_first_line) < PAGE_LINES
            })
            .count()
    }

    /// Physical line numbers of the valid lines (diagnostics).
    pub(crate) fn valid_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags
            .iter()
            .filter(|&&t| t & VALID != 0)
            .map(|&t| t & LINE_MASK)
    }

    /// Number of valid lines (diagnostics).
    // tmprof-lint: allow(dead-surface) — capacity bound checked by sim/tests/props.rs and cache::tests
    pub fn occupancy(&self) -> usize {
        self.valid_lines().count()
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
    /// Run an access through L1 and L2. Returns the serving level if one of
    /// the private levels hit; `None` means the access must go to the LLC.
    /// An L2 hit promotes the line to L1, and L2 absorbs the dirty L1
    /// victim, so no victim leaves the private levels here.
    pub fn probe(&mut self, pa: PhysAddr, is_store: bool) -> Option<CacheLevel> {
        let line = pa.line();
        if self.l1d.probe(line, is_store) {
            return Some(CacheLevel::L1);
        }
        if self.l2.probe(line, is_store) {
            // Promote to L1 (inclusive-ish fill path). A dirty L1 victim
            // is absorbed by L2 directly (it is private and always
            // reachable), so nothing escapes here.
            let out = self.l1d.fill(line, is_store);
            if let Some(victim) = out.writeback {
                self.l2.writeback_touch(victim);
            }
            return Some(CacheLevel::L2);
        }
        None
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

    impl Cache {
        /// Cache capacity in bytes.
        fn size_bytes(&self) -> u64 {
            (self.sets * self.ways) as u64 * (1 << LINE_SHIFT)
        }

        /// Drop `line` if cached. Returns whether it was present and dirty.
        pub(crate) fn invalidate(&mut self, line: u64) -> Option<bool> {
            let t = self.tag_of(line)?;
            *t &= !VALID;
            Some(*t & DIRTY != 0)
        }
    }

    impl PrivateCaches {
        /// Zen2-like core-private geometry.
        fn zen2() -> Self {
            Self {
                l1d: Cache::new("L1D", 32 << 10, 8),
                l2: Cache::new("L2", 512 << 10, 8),
            }
        }
    }

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

    #[test]
    #[should_panic(expected = "LLC: 17 ways")]
    fn more_ways_than_a_recency_word_holds_panics_naming_the_cache() {
        Cache::new("LLC", 17 * 64 * 64, 17);
    }

    #[test]
    fn recency_word_moves_a_way_to_the_front() {
        assert_eq!(initial_order(16), 0xFEDC_BA98_7654_3210);
        assert_eq!(initial_order(2), 0xFFFF_FFFF_FFFF_FF10);
        let word = initial_order(16);
        assert_eq!(to_front(word, 0), word);
        assert_eq!(to_front(word, 5), 0xFEDC_BA98_7643_2105);
        assert_eq!(to_front(word, 15), 0xEDCB_A987_6543_210F);
        assert_eq!(to_front(initial_order(8), 7), 0xFFFF_FFFF_6543_2107);
    }

    /// The per-line scrub [`Cache::invalidate_page_lines`] replaced, kept
    /// as its oracle: one [`Cache::invalidate`] per line of the page.
    fn invalidate_page_lines_per_line(c: &mut Cache, page_first_line: u64) {
        for l in page_first_line..page_first_line + PAGE_LINES {
            c.invalidate(l);
        }
    }

    /// Every tag word and every recency word.
    fn state(c: &Cache) -> (Vec<u64>, Vec<u64>) {
        (c.tags.clone(), c.order.clone())
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
        Invalidate {
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
                1 => (0..TEST_PAGES, line())
                    .prop_map(|(page, line)| CacheOp::Invalidate { page, line }),
                1 => (0..TEST_PAGES).prop_map(|page| CacheOp::Scrub { page }),
            ],
            1..1000,
        )
    }

    fn line() -> impl Strategy<Value = u64> {
        prop_oneof![3 => 0..4u64, 1 => 0..PAGE_LINES]
    }

    /// Scrub `page` from `c` with the sweep, checking on a copy that the
    /// per-line oracle leaves every tag word and every recency word the
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

    /// One way of the stamped oracle: a 24-byte line with a 64-bit LRU
    /// stamp.
    #[derive(Clone, Copy)]
    struct Line {
        tag: u64,
        stamp: u64,
        valid: bool,
        dirty: bool,
    }

    /// The stamped cache, kept as the LRU oracle for [`Cache`]: a hit or
    /// fill stamps its line with a global clock, and a full set evicts the
    /// line with the smallest stamp.
    struct StampedCache {
        sets: usize,
        ways: usize,
        lines: Vec<Line>,
        clock: u64,
    }

    impl StampedCache {
        fn new(size_bytes: u64, ways: usize) -> Self {
            let sets = (size_bytes >> LINE_SHIFT) as usize / ways;
            let empty = Line {
                tag: 0,
                stamp: 0,
                valid: false,
                dirty: false,
            };
            Self {
                sets,
                ways,
                lines: vec![empty; sets * ways],
                clock: 0,
            }
        }

        fn set(&mut self, line: u64) -> &mut [Line] {
            let start = (line as usize & (self.sets - 1)) * self.ways;
            &mut self.lines[start..start + self.ways]
        }

        fn probe(&mut self, line: u64, is_store: bool) -> bool {
            self.clock += 1;
            let clock = self.clock;
            if let Some(slot) = self.set(line).iter_mut().find(|l| l.valid && l.tag == line) {
                slot.stamp = clock;
                slot.dirty |= is_store;
                true
            } else {
                false
            }
        }

        fn fill(&mut self, line: u64, is_store: bool) -> FillOutcome {
            self.clock += 1;
            let clock = self.clock;
            let set = self.set(line);
            let slot = match set.iter().position(|l| !l.valid) {
                Some(free) => &mut set[free],
                None => set.iter_mut().min_by_key(|l| l.stamp).unwrap(),
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

        fn writeback_touch(&mut self, line: u64) -> bool {
            let slot = self.set(line).iter_mut().find(|l| l.valid && l.tag == line);
            slot.map(|l| l.dirty = true).is_some()
        }

        fn invalidate(&mut self, line: u64) -> Option<bool> {
            let slot = self
                .set(line)
                .iter_mut()
                .find(|l| l.valid && l.tag == line)?;
            slot.valid = false;
            Some(slot.dirty)
        }

        fn invalidate_page_lines(&mut self, page_first_line: u64) {
            for l in page_first_line..page_first_line + PAGE_LINES {
                self.invalidate(l);
            }
        }
    }

    /// The valid `(line, dirty)` pairs of a cache, ascending.
    fn contents(c: &Cache) -> Vec<(u64, bool)> {
        let mut v: Vec<_> = c
            .tags
            .iter()
            .filter(|&&t| t & VALID != 0)
            .map(|&t| (t & LINE_MASK, t & DIRTY != 0))
            .collect();
        v.sort_unstable();
        v
    }

    fn stamped_contents(c: &StampedCache) -> Vec<(u64, bool)> {
        let mut v: Vec<_> = c
            .lines
            .iter()
            .filter(|l| l.valid)
            .map(|l| (l.tag, l.dirty))
            .collect();
        v.sort_unstable();
        v
    }

    /// Apply `ops` to a [`Cache`] and to the stamped oracle of the same
    /// geometry, requiring the same outcome from every call (a probe's hit
    /// or miss included) and the same valid lines (with their dirty bits)
    /// at every scrub and at the end.
    fn check_against_stamped(ops: &[CacheOp], sets: usize, ways: usize) {
        let size = ((sets * ways) as u64) << LINE_SHIFT;
        let mut c = Cache::new("t", size, ways);
        let mut r = StampedCache::new(size, ways);
        let at = |i: usize| format!("{sets} sets x {ways} ways, op {i}");
        for (i, op) in ops.iter().enumerate() {
            match *op {
                CacheOp::Access {
                    page,
                    line,
                    store,
                    fill,
                } => {
                    let l = page_first_line(page) + line;
                    let hit = c.probe(l, store);
                    assert_eq!(hit, r.probe(l, store), "probe, {}", at(i));
                    if !hit && fill {
                        assert_eq!(c.fill(l, store), r.fill(l, store), "fill, {}", at(i));
                    }
                }
                CacheOp::WritebackTouch { page, line } => {
                    let l = page_first_line(page) + line;
                    assert_eq!(
                        c.writeback_touch(l),
                        r.writeback_touch(l),
                        "writeback_touch, {}",
                        at(i)
                    );
                }
                CacheOp::Invalidate { page, line } => {
                    let l = page_first_line(page) + line;
                    assert_eq!(c.invalidate(l), r.invalidate(l), "invalidate, {}", at(i));
                }
                CacheOp::Scrub { page } => {
                    c.invalidate_page_lines(page_first_line(page));
                    r.invalidate_page_lines(page_first_line(page));
                    assert_eq!(contents(&c), stamped_contents(&r), "scrub, {}", at(i));
                }
            }
        }
        assert_eq!(
            contents(&c),
            stamped_contents(&r),
            "{sets} sets x {ways} ways, end"
        );
        let mut valid: Vec<u64> = c.valid_lines().collect();
        valid.sort_unstable();
        let want: Vec<u64> = stamped_contents(&r).iter().map(|&(l, _)| l).collect();
        assert_eq!(valid, want, "valid_lines, {sets} sets x {ways} ways");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The one-pass scrub leaves every tag word and recency word
        /// exactly as the per-line loop does, on the L1 (8 sets), L2 (64
        /// sets) and LLC (2,048 sets) of the simulated machine.
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
                        CacheOp::Invalidate { page, line } => {
                            c.invalidate(page_first_line(page) + line);
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

        /// Tag and recency words are exact true LRU: every probe, fill,
        /// writeback, invalidation and scrub gives what the stamped cache
        /// gives, on 1-, 8-, 64- and 2,048-set caches of 2, 4, 8 and 16
        /// ways.
        #[test]
        fn recency_words_match_stamped_lru(ops in cache_ops()) {
            for sets in [1, 8, 64, 2048] {
                for ways in [2, 4, 8, 16] {
                    check_against_stamped(&ops, sets, ways);
                }
            }
        }
    }

    #[test]
    fn private_hierarchy_promotes_l2_hits() {
        let mut pc = PrivateCaches::zen2();
        let pa = PhysAddr(0x1000);
        assert_eq!(pc.probe(pa, false), None);
        pc.fill_through(pa, false);
        assert_eq!(pc.probe(pa, false), Some(CacheLevel::L1));
        // Evict from the 8-way L1 by filling 8 lines that conflict in its
        // 64-set index (stride 64 lines = 4096 B) but land in distinct sets
        // of the 1024-set L2, so the victim line survives in L2.
        for i in 1..=8u64 {
            pc.fill_through(PhysAddr(0x1000 + i * 4096), false);
        }
        assert_eq!(pc.probe(pa, false), Some(CacheLevel::L2));
        // And promoted back to L1 afterwards.
        assert_eq!(pc.probe(pa, false), Some(CacheLevel::L1));
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
        assert_eq!(pc.probe(PhysAddr(0x1000), false), Some(CacheLevel::L2));
        assert_eq!(pc.l2.invalidate(PhysAddr(0x1000).line()), Some(true));
    }

    #[test]
    fn writeback_touch_marks_dirty_without_stats() {
        // A writeback dirties the line but is no access: the set's recency
        // word, which a hit would move, stays as it was.
        let mut c = Cache::new("t", 4 << 10, 4);
        c.fill(10, false);
        c.fill(10 + c.sets as u64, false);
        let order = c.order.clone();
        assert!(c.writeback_touch(10));
        assert!(!c.writeback_touch(11));
        assert_eq!(c.order, order);
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
        let mut misses = 0;
        for l in 0..128 {
            if !c.probe(l, false) {
                misses += 1;
                c.fill(l, false);
            }
        }
        assert!(misses > 64, "sequential over-capacity scan must thrash");
    }
}
