//! A 4-level radix page table, one per simulated process.
//!
//! This is the structure both hardware and software in the paper contend
//! over: the hardware page-table walker fills TLB entries from it (setting
//! A/D bits as it goes), while the A-bit profiler periodically performs an
//! `mm_walk`-style traversal that read-and-clears the A bits.
//!
//! The in-memory representation is a real radix tree (512-way, 4 levels,
//! lazily allocated) rather than a hash map, because the *cost* of the
//! software walk — proportional to the number of resident leaf tables and
//! PTEs — is one of the quantities the paper measures (Table I: "the more
//! PIDs are covered, the more overhead there is in traversing PTEs").
//!
//! Interior nodes additionally carry *summary* A words (one bit per
//! child, the PMD/PUD/PGD analogue of the leaf `a_words`): a summary bit
//! is a conservative superset flag saying the child's whole subtree *may*
//! contain a set A bit. The A-bit scan
//! ([`PageTable::scan_accessed_bounded`], Telescope-style) uses them to
//! prune entire cold subtrees in O(1) — charging the subtree's exact
//! walk footprint from per-node aggregates so cost accounting, budget
//! consumption, and resume cursors stay bit-identical to the per-PTE
//! [`PageTable::walk_present_bounded`].

use crate::addr::{Vpn, RADIX_BITS, RADIX_LEVELS};
#[allow(unused_imports)]
use crate::pte::bits as _pte_bits;
use crate::pte::Pte;
use tmprof_obs::metrics::{self, Metric};

const FANOUT: usize = 1 << RADIX_BITS;

/// Pages covered by one level-1 (2 MiB) huge mapping.
pub const HUGE_SPAN: u64 = FANOUT as u64;

/// `u64` words per leaf table's packed bitmaps (64 pages per word).
pub const SCAN_WORDS: usize = FANOUT / 64;

/// Set or clear `bit` in `word` according to `on`, branch-free.
#[inline]
fn set_bit(word: &mut u64, bit: u64, on: bool) {
    *word = (*word & !bit) | if on { bit } else { 0 };
}

/// A leaf table: 512 PTEs covering a 2 MiB-aligned virtual range.
///
/// Alongside the PTE array it keeps two packed bitmaps (one bit per
/// slot, 64 slots per `u64`), the structure behind the word-wise A-bit
/// scan:
///
/// * `present_words` — exact: bit set iff the slot holds a present PTE;
/// * `a_words` — a conservative *superset* of the slots whose PTE has the
///   A bit set. A bitmap bit may be stale-set (e.g. after `entry_mut`
///   handed out a `&mut Pte` that the caller never touched) but is never
///   stale-clear, so a word-wise scan over `a_words & present_words` can
///   skip clear words without ever missing an accessed page; the
///   per-candidate `test_and_clear_accessed` stays authoritative.
struct LeafTable {
    ptes: Box<[Pte; FANOUT]>,
    present: u16,
    present_words: [u64; SCAN_WORDS],
    a_words: [u64; SCAN_WORDS],
}

impl LeafTable {
    fn new() -> Self {
        Self {
            ptes: Box::new([Pte::NONE; FANOUT]),
            present: 0,
            present_words: [0; SCAN_WORDS],
            a_words: [0; SCAN_WORDS],
        }
    }

    /// Resynchronize slot `pi`'s bitmap bits exactly from its PTE.
    #[inline]
    // tmprof-lint: allow(panic-reachability) — pi < FANOUT: callers derive it from radix_index(0) or word/bit decomposition
    fn sync_slot(&mut self, pi: usize) {
        let w = pi >> 6;
        let bit = 1u64 << (pi & 63);
        let pte = self.ptes[pi];
        set_bit(&mut self.present_words[w], bit, pte.present());
        set_bit(&mut self.a_words[w], bit, pte.present() && pte.accessed());
    }

    /// Conservatively mark slot `pi` as a possible A candidate: callers of
    /// `entry_mut` (the hardware walker above all) may set the bit through
    /// the returned reference, so the bitmap must assume they do.
    #[inline]
    fn mark_slot_a(&mut self, pi: usize) {
        self.a_words[pi >> 6] |= 1u64 << (pi & 63);
    }
}

/// An interior node at level 1..=3.
///
/// Besides the child slots it carries the A-bit scan's metadata:
///
/// * `live_words` — exact bitmap of occupied child slots, the interior
///   twin of the leaf `present_words` (64 slots per word);
/// * `a_sum` — conservative summary superset: bit set when the child's
///   subtree *may* hold a present PTE with the A bit set. Like the leaf
///   bitmap it can be stale-set but never stale-clear, so a clear bit
///   proves the whole subtree is cold;
/// * `agg_*` — exact walk-unit aggregates for the subtree (a huge entry
///   counts as one PTE, exactly as the walk visits it; `agg_interiors`
///   includes the node itself; `agg_leaves` includes empty leaf tables
///   left behind by unmap, which the walk also touches). They let the
///   scan charge a skipped subtree's exact [`WalkFootprint`] without
///   descending into it.
struct Interior {
    children: Vec<Option<Node>>,
    live_words: [u64; SCAN_WORDS],
    a_sum: [u64; SCAN_WORDS],
    agg_ptes: u64,
    agg_leaves: u64,
    agg_interiors: u64,
}

enum Node {
    Interior(Box<Interior>),
    Leaf(Box<LeafTable>),
    /// A level-1 leaf: one PTE (PS bit set) covering 512 contiguous pages
    /// backed by 512 contiguous frames. A/D bits live at this granularity —
    /// the THP coarsening the paper's BadgerTrap discussion alludes to.
    Huge(Pte),
}

impl Interior {
    fn new() -> Self {
        let mut children = Vec::with_capacity(FANOUT);
        children.resize_with(FANOUT, || None);
        Self {
            children,
            live_words: [0; SCAN_WORDS],
            a_sum: [0; SCAN_WORDS],
            agg_ptes: 0,
            agg_leaves: 0,
            agg_interiors: 1,
        }
    }

    #[inline]
    fn set_live(&mut self, idx: usize) {
        self.live_words[idx >> 6] |= 1u64 << (idx & 63);
    }

    #[inline]
    fn clear_live(&mut self, idx: usize) {
        self.live_words[idx >> 6] &= !(1u64 << (idx & 63));
    }

    /// Conservatively mark child `idx` as a possible A candidate: the
    /// interior twin of [`LeafTable::mark_slot_a`], used on the
    /// `entry_mut` descent path because the caller may set the bit
    /// through the returned reference, and when a mapping installs an
    /// accessed PTE.
    #[inline]
    fn mark_child_a(&mut self, idx: usize) {
        self.a_sum[idx >> 6] |= 1u64 << (idx & 63);
    }

    /// Fold a mapping delta from a completed descent into the aggregates.
    #[inline]
    fn apply(&mut self, d: MapDelta) {
        self.agg_ptes += d.ptes;
        self.agg_leaves += d.leaves;
        self.agg_interiors += d.interiors;
    }
}

/// Nodes/PTEs newly created by a mapping descent, propagated back up so
/// every node on the path can update its subtree aggregates.
#[derive(Clone, Copy, Default)]
struct MapDelta {
    /// Newly present walk units (a huge entry counts as one).
    ptes: u64,
    leaves: u64,
    interiors: u64,
}

impl MapDelta {
    #[inline]
    fn absorb(&mut self, o: MapDelta) {
        self.ptes += o.ptes;
        self.leaves += o.leaves;
        self.interiors += o.interiors;
    }
}

/// Recompute the A summary for child `idx` exactly from the child's own
/// (possibly conservative) words. Called after a traversal processed the
/// child: the visit closure may have set *or* cleared bits, and a
/// stale-clear summary would make the scan skip a hot subtree, so every
/// traversal re-tightens summaries on the way out.
#[inline]
fn resync_summary(a_sum: &mut [u64; SCAN_WORDS], idx: usize, child: &Node) {
    set_bit(
        &mut a_sum[idx >> 6],
        1u64 << (idx & 63),
        child_may_be_accessed(child),
    );
}

/// Whether `child`'s subtree may hold a present PTE with the A bit set,
/// judged from the child's own summary/bitmap state (not a full descent).
#[inline]
fn child_may_be_accessed(child: &Node) -> bool {
    match child {
        Node::Interior(n) => n.a_sum.iter().any(|&w| w != 0),
        Node::Leaf(l) => l
            .a_words
            .iter()
            .zip(&l.present_words)
            .any(|(&a, &p)| a & p != 0),
        Node::Huge(p) => p.present() && p.accessed(),
    }
}

/// Exact walk-unit aggregates for a child subtree, as the walk would
/// charge them: (PTE visits, leaf tables, interior nodes).
#[inline]
fn child_aggregates(child: &Node) -> (u64, u64, u64) {
    match child {
        Node::Interior(n) => (n.agg_ptes, n.agg_leaves, n.agg_interiors),
        Node::Leaf(l) => (u64::from(l.present), 1, 0),
        Node::Huge(_) => (1, 0, 0),
    }
}

/// Per-scan pruning counters, exported as tmprof-obs metrics.
#[derive(Default)]
struct ScanStats {
    skipped: u64,
    descended: u64,
}

/// Statistics describing a software traversal of the table, used by the
/// profiler cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkFootprint {
    /// Leaf PTEs visited (present entries only).
    pub ptes_visited: u64,
    /// Leaf tables touched.
    pub leaf_tables: u64,
    /// Interior nodes touched (including the root).
    pub interior_nodes: u64,
}

/// Why a mapping could not be installed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapError {
    /// 4 KiB mappings already occupy part of the requested 2 MiB range.
    /// Recoverable: the caller falls back to base-page mapping, exactly
    /// what the kernel's THP allocator does on a failed collapse.
    HugeConflict {
        /// The (aligned) base of the rejected huge range.
        base: Vpn,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::HugeConflict { base } => {
                write!(
                    f,
                    "4 KiB mappings already occupy the huge range at {base:?}"
                )
            }
        }
    }
}

impl std::error::Error for MapError {}

/// A per-process 4-level radix page table.
pub struct PageTable {
    root: Interior,
    mapped_pages: u64,
}

impl PageTable {
    /// Create an empty address space.
    pub fn new() -> Self {
        Self {
            root: Interior::new(),
            mapped_pages: 0,
        }
    }

    /// Number of present leaf mappings.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Install a 2 MiB huge mapping: `base` must be 512-page aligned and
    /// `pte` must have the PS bit set and point at a 512-aligned run of
    /// frames. Fails with [`MapError::HugeConflict`] when 4 KiB mappings
    /// already exist in the range; the caller is expected to fall back to
    /// base-page mapping.
    pub fn map_huge(&mut self, base: Vpn, pte: Pte) -> Result<(), MapError> {
        assert!(base.0 % HUGE_SPAN == 0, "huge base {base:?} not aligned");
        assert!(pte.present() && pte.huge(), "huge PTE must be present+PS");
        let (delta, res) = Self::map_huge_rec(&mut self.root, RADIX_LEVELS - 1, base, pte);
        self.mapped_pages += delta.ptes * HUGE_SPAN;
        res
    }

    // tmprof-lint: allow(panic-reachability) — idx = radix_index(level) masks to FANOUT - 1
    fn map_huge_rec(
        node: &mut Interior,
        level: usize,
        base: Vpn,
        pte: Pte,
    ) -> (MapDelta, Result<(), MapError>) {
        let idx = base.radix_index(level);
        let mut delta = MapDelta::default();
        let res = if level > 1 {
            if node.children[idx].is_none() {
                node.children[idx] = Some(Node::Interior(Box::new(Interior::new())));
                node.set_live(idx);
                delta.interiors += 1;
            }
            let next = match node.children[idx].as_mut() {
                Some(Node::Interior(next)) => next,
                // tmprof-lint: allow(panic-reachability) — the slot was filled with an Interior just above; a Leaf/Huge at interior depth would mean the radix tree itself is corrupt
                _ => unreachable!("leaf at interior level"),
            };
            let (child_delta, res) = Self::map_huge_rec(next, level - 1, base, pte);
            delta.absorb(child_delta);
            res
        } else {
            match node.children[idx].as_mut() {
                None => {
                    node.children[idx] = Some(Node::Huge(pte));
                    node.set_live(idx);
                    delta.ptes += 1;
                    Ok(())
                }
                Some(Node::Huge(old)) => {
                    *old = pte;
                    Ok(())
                }
                Some(_) => Err(MapError::HugeConflict { base }),
            }
        };
        if res.is_ok() && pte.accessed() {
            node.mark_child_a(idx);
        }
        node.apply(delta);
        (delta, res)
    }

    /// Remove a huge mapping, returning its PTE.
    // tmprof-lint: allow(dead-surface) — the machine never unmaps; core/tests/dirty_props.rs and profilers/tests/scan_props.rs unmap mid-epoch to stress captures and scans
    pub fn unmap_huge(&mut self, base: Vpn) -> Option<Pte> {
        assert!(base.0 % HUGE_SPAN == 0);
        let old = Self::unmap_huge_rec(&mut self.root, RADIX_LEVELS - 1, base)?;
        self.mapped_pages -= HUGE_SPAN;
        Some(old)
    }

    fn unmap_huge_rec(node: &mut Interior, level: usize, base: Vpn) -> Option<Pte> {
        let idx = base.radix_index(level);
        let old = if level > 1 {
            match node.children[idx].as_mut()? {
                Node::Interior(next) => Self::unmap_huge_rec(next, level - 1, base)?,
                _ => return None,
            }
        } else {
            if !matches!(node.children[idx], Some(Node::Huge(_))) {
                return None;
            }
            let Some(Node::Huge(old)) = node.children[idx].take() else {
                return None;
            };
            node.clear_live(idx);
            old
        };
        // The summary bits are left as-is: a stale-set bit over the now
        // emptier subtree is conservative and re-tightens on the next scan.
        node.agg_ptes -= 1;
        Some(old)
    }

    /// Install (or replace) the translation for `vpn`.
    pub fn map(&mut self, vpn: Vpn, pte: Pte) {
        debug_assert!(pte.present(), "mapping a non-present PTE");
        debug_assert!(!pte.huge(), "use map_huge for PS mappings");
        let delta = Self::map_rec(&mut self.root, RADIX_LEVELS - 1, vpn, pte);
        self.mapped_pages += delta.ptes;
    }

    // tmprof-lint: allow(panic-reachability) — idx = radix_index(level) masks to FANOUT - 1
    fn map_rec(node: &mut Interior, level: usize, vpn: Vpn, pte: Pte) -> MapDelta {
        let idx = vpn.radix_index(level);
        let mut delta = MapDelta::default();
        if level > 1 {
            if node.children[idx].is_none() {
                node.children[idx] = Some(Node::Interior(Box::new(Interior::new())));
                node.set_live(idx);
                delta.interiors += 1;
            }
            let next = match node.children[idx].as_mut() {
                Some(Node::Interior(next)) => next,
                // tmprof-lint: allow(panic-reachability) — the slot was filled with an Interior just above; a Leaf/Huge at interior depth would mean the radix tree itself is corrupt
                _ => unreachable!("leaf at interior level"),
            };
            delta.absorb(Self::map_rec(next, level - 1, vpn, pte));
        } else {
            if node.children[idx].is_none() {
                node.children[idx] = Some(Node::Leaf(Box::new(LeafTable::new())));
                node.set_live(idx);
                delta.leaves += 1;
            }
            match node.children[idx].as_mut() {
                Some(Node::Leaf(leaf)) => {
                    let pi = vpn.radix_index(0);
                    if !leaf.ptes[pi].present() {
                        leaf.present += 1;
                        delta.ptes += 1;
                    }
                    leaf.ptes[pi] = pte;
                    leaf.sync_slot(pi);
                }
                // tmprof-lint: allow(panic-reachability) — mapping a 4 KiB page under a live huge mapping is a machine-level invariant breach: the walker would have hit the huge PTE instead of faulting, so no caller can reach this with a huge entry installed
                Some(Node::Huge(_)) => panic!("range already covered by a huge mapping"),
                // tmprof-lint: allow(panic-reachability) — level-1 slots only ever hold Leaf or Huge nodes; an Interior here would mean the radix tree itself is corrupt
                _ => unreachable!("interior at leaf level"),
            }
        }
        if pte.accessed() {
            node.mark_child_a(idx);
        }
        node.apply(delta);
        delta
    }

    /// Remove the translation for `vpn`, returning the prior entry.
    // tmprof-lint: allow(dead-surface) — the machine never unmaps; the dirty_props, scan_props and sim props suites unmap to stress captures, scans and walks
    pub fn unmap(&mut self, vpn: Vpn) -> Option<Pte> {
        let old = Self::unmap_rec(&mut self.root, RADIX_LEVELS - 1, vpn)?;
        self.mapped_pages -= 1;
        Some(old)
    }

    fn unmap_rec(node: &mut Interior, level: usize, vpn: Vpn) -> Option<Pte> {
        let idx = vpn.radix_index(level);
        let old = if level > 1 {
            match node.children[idx].as_mut()? {
                Node::Interior(next) => Self::unmap_rec(next, level - 1, vpn)?,
                _ => return None,
            }
        } else {
            match node.children[idx].as_mut()? {
                Node::Leaf(leaf) => {
                    let pi = vpn.radix_index(0);
                    if !leaf.ptes[pi].present() {
                        return None;
                    }
                    let old = leaf.ptes[pi];
                    leaf.ptes[pi] = Pte::NONE;
                    leaf.present -= 1;
                    leaf.sync_slot(pi);
                    old
                }
                _ => return None,
            }
        };
        // Empty leaf tables stay in the tree (and in `agg_leaves`), exactly
        // as the walk keeps touching them.
        node.agg_ptes -= 1;
        Some(old)
    }

    /// Read the entry for `vpn` (present or not-present). For a huge
    /// mapping this returns the covering level-1 PTE (check [`Pte::huge`];
    /// its `pfn` is the run base — use [`PageTable::resolve`] for the
    /// per-page frame).
    // tmprof-lint: allow(panic-reachability) — radix_index masks each level's index to FANOUT - 1
    pub fn get(&self, vpn: Vpn) -> Pte {
        let mut node = &self.root;
        for level in (1..RADIX_LEVELS).rev() {
            match &node.children[vpn.radix_index(level)] {
                Some(Node::Interior(next)) => node = next,
                Some(Node::Leaf(leaf)) => return leaf.ptes[vpn.radix_index(0)],
                Some(Node::Huge(pte)) => return *pte,
                None => return Pte::NONE,
            }
        }
        Pte::NONE
    }

    /// Resolve `vpn` to its backing frame, handling huge-page offsets.
    pub fn resolve(&self, vpn: Vpn) -> Option<crate::addr::Pfn> {
        let pte = self.get(vpn);
        if !pte.present() {
            return None;
        }
        Some(if pte.huge() {
            crate::addr::Pfn(pte.pfn().0 + (vpn.0 & (HUGE_SPAN - 1)))
        } else {
            pte.pfn()
        })
    }

    /// Mutable access to the entry for `vpn`, if a mapping exists for it.
    /// For huge mappings this is the covering level-1 PTE — A/D/poison
    /// bits are shared by all 512 pages, exactly the THP granularity.
    ///
    /// This is the primitive the hardware walker uses to set A/D bits and
    /// the software drivers use to poison/clear entries.
    // tmprof-lint: allow(panic-reachability) — radix_index masks each level's index to FANOUT - 1
    pub fn entry_mut(&mut self, vpn: Vpn) -> Option<&mut Pte> {
        let mut node = &mut self.root;
        for level in (2..RADIX_LEVELS).rev() {
            let idx = vpn.radix_index(level);
            // The caller may set A through the returned reference; mark
            // the whole descent path so the summaries stay supersets (a
            // stale-set bit on a failed lookup is conservative and fine).
            node.mark_child_a(idx);
            node = match node.children[idx].as_mut()? {
                Node::Interior(next) => next,
                _ => return None,
            };
        }
        let idx = vpn.radix_index(1);
        node.mark_child_a(idx);
        match node.children[idx].as_mut()? {
            Node::Leaf(leaf) => {
                let pi = vpn.radix_index(0);
                // Same marking at leaf granularity.
                leaf.mark_slot_a(pi);
                Some(&mut leaf.ptes[pi])
            }
            Node::Huge(pte) => Some(pte),
            Node::Interior(_) => None,
        }
    }

    /// `mm_walk`: visit every *present* PTE in ascending VPN order, with
    /// mutable access (the A-bit driver's `gather_a_history` callback runs
    /// here). Returns the traversal footprint for cost accounting.
    pub fn walk_present(&mut self, visit: impl FnMut(Vpn, &mut Pte)) -> WalkFootprint {
        self.walk_present_bounded(Vpn(0), u64::MAX, visit).0
    }

    /// Budgeted, resumable `mm_walk`: visit up to `limit` present PTEs in
    /// ascending VPN order, starting at `start` (inclusive). Returns the
    /// traversal footprint and the VPN to resume from next time (`None`
    /// when the walk reached the end of the address space).
    ///
    /// This is the primitive behind TMP's "restrictive mode" (§III-B-4,
    /// optimization 2): bounding the PTEs visited per scan keeps A-bit
    /// overhead stable regardless of footprint, at the cost of needing
    /// several intervals to cover a huge address space.
    pub fn walk_present_bounded(
        &mut self,
        start: Vpn,
        limit: u64,
        mut visit: impl FnMut(Vpn, &mut Pte),
    ) -> (WalkFootprint, Option<Vpn>) {
        let mut fp = WalkFootprint {
            interior_nodes: 1,
            ..Default::default()
        };
        let mut resume = None;
        if limit > 0 {
            Self::walk_node_bounded(
                &mut self.root,
                RADIX_LEVELS - 1,
                0,
                start,
                limit,
                &mut fp,
                &mut resume,
                &mut visit,
            );
        } else {
            resume = Some(start);
        }
        (fp, resume)
    }

    /// Recursive helper for the bounded walk. Returns true when the budget
    /// is exhausted (`resume` then holds the next VPN to visit).
    #[allow(clippy::too_many_arguments)]
    // tmprof-lint: allow(panic-reachability) — pi ranges over 0..FANOUT; child slots come from enumerate over the fixed arrays
    fn walk_node_bounded(
        node: &mut Interior,
        level: usize,
        prefix: u64,
        start: Vpn,
        limit: u64,
        fp: &mut WalkFootprint,
        resume: &mut Option<Vpn>,
        visit: &mut impl FnMut(Vpn, &mut Pte),
    ) -> bool {
        let Interior {
            children, a_sum, ..
        } = node;
        for (idx, child) in children.iter_mut().enumerate() {
            // Prune children strictly before the start prefix at this level.
            let child_prefix = (prefix << RADIX_BITS) | idx as u64;
            let span_bits = RADIX_BITS as usize * level;
            let child_first_vpn = child_prefix << span_bits;
            let child_last_vpn = child_first_vpn + (1u64 << span_bits) - 1;
            if child_last_vpn < start.0 {
                continue;
            }
            let Some(child) = child else { continue };
            let truncated = match child {
                Node::Interior(next) => {
                    fp.interior_nodes += 1;
                    Self::walk_node_bounded(
                        next,
                        level - 1,
                        child_prefix,
                        start,
                        limit,
                        fp,
                        resume,
                        visit,
                    )
                }
                Node::Leaf(leaf) => {
                    fp.leaf_tables += 1;
                    let mut trunc = false;
                    for pi in 0..FANOUT {
                        let vpn = Vpn((child_prefix << RADIX_BITS) | pi as u64);
                        if vpn.0 < start.0 || !leaf.ptes[pi].present() {
                            continue;
                        }
                        if fp.ptes_visited >= limit {
                            *resume = Some(vpn);
                            trunc = true;
                            break;
                        }
                        fp.ptes_visited += 1;
                        visit(vpn, &mut leaf.ptes[pi]);
                        leaf.sync_slot(pi);
                    }
                    trunc
                }
                Node::Huge(pte) => {
                    let vpn = Vpn(child_prefix << RADIX_BITS);
                    // Skip a huge entry wholly below the cursor. Without
                    // this check (mirroring the leaf arm's `vpn < start`
                    // skip) a resumed sweep whose cursor lands inside a
                    // huge span re-visits the entry, double-counting its
                    // footprint and re-clearing its A bit.
                    if vpn.0 < start.0 {
                        false
                    } else if fp.ptes_visited >= limit {
                        *resume = Some(vpn);
                        true
                    } else {
                        fp.ptes_visited += 1;
                        visit(vpn, pte);
                        false
                    }
                }
            };
            // Re-tighten this child's summary even on truncation: the
            // closure may have set or cleared bits before the budget ran
            // out, and a stale-clear summary must never survive.
            resync_summary(a_sum, idx, child);
            if truncated {
                return true;
            }
        }
        false
    }

    /// Budgeted, resumable A-bit scan behind `ABitScanner::scan_process`:
    /// the word-wise, subtree-pruning twin of
    /// [`PageTable::walk_present_bounded`].
    ///
    /// Traversal order, footprint accounting (`ptes_visited` counts every
    /// present PTE in the covered span, not just candidates), budget
    /// consumption, and resume-cursor semantics are all identical to the
    /// bounded walk. The difference is purely how candidates are found:
    ///
    /// * an interior child whose A-summary bit is clear holds no
    ///   candidates and is skipped in O(1) (Telescope-style tree
    ///   profiling), charged its exact aggregate [`WalkFootprint`] — but
    ///   only when it lies wholly at or after the cursor and its visit
    ///   count fits the remaining budget, since otherwise the walk's
    ///   cursor would stop inside it;
    /// * each leaf loads `a_words & present_words` one `u64` at a time —
    ///   64 pages per load — and iterates set bits via `trailing_zeros`.
    ///
    /// Because summaries and `a_words` are conservative supersets, `visit`
    /// only runs for PTEs that *may* have the A bit set and must confirm
    /// with `test_and_clear_accessed`; bitmaps and summaries are
    /// re-tightened from the PTEs after each visit.
    pub fn scan_accessed_bounded(
        &mut self,
        start: Vpn,
        limit: u64,
        mut visit: impl FnMut(Vpn, &mut Pte),
    ) -> (WalkFootprint, Option<Vpn>) {
        let mut fp = WalkFootprint {
            interior_nodes: 1,
            ..Default::default()
        };
        let mut resume = None;
        let mut stats = ScanStats::default();
        if limit > 0 {
            Self::scan_node(
                &mut self.root,
                RADIX_LEVELS - 1,
                0,
                start,
                limit,
                &mut fp,
                &mut resume,
                &mut stats,
                &mut visit,
            );
        } else {
            resume = Some(start);
        }
        metrics::add(Metric::SimHierSubtreesSkipped, stats.skipped);
        metrics::add(Metric::SimHierSubtreesDescended, stats.descended);
        (fp, resume)
    }

    /// Recursive helper for the scan. Occupied children are found via
    /// `live_words` (64 slots per load); a child whose summary bit is
    /// clear, whose span lies wholly at/after the cursor, and whose
    /// aggregate visit count fits the remaining budget is charged its
    /// exact footprint and skipped. Everything else descends into the
    /// leaf/huge arms, then re-tightens the summary bit on the way out.
    /// Returns true when the budget is exhausted (`resume` then holds the
    /// next VPN to visit).
    #[allow(clippy::too_many_arguments)]
    // tmprof-lint: allow(panic-reachability) — lw < SCAN_WORDS and idx = (lw << 6) | trailing_zeros(occ) < FANOUT
    fn scan_node(
        node: &mut Interior,
        level: usize,
        prefix: u64,
        start: Vpn,
        limit: u64,
        fp: &mut WalkFootprint,
        resume: &mut Option<Vpn>,
        stats: &mut ScanStats,
        visit: &mut impl FnMut(Vpn, &mut Pte),
    ) -> bool {
        let Interior {
            children,
            live_words,
            a_sum,
            ..
        } = node;
        let span_bits = RADIX_BITS as usize * level;
        for lw in 0..SCAN_WORDS {
            let mut occ = live_words[lw];
            while occ != 0 {
                let idx = (lw << 6) | occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let child_prefix = (prefix << RADIX_BITS) | idx as u64;
                let child_first_vpn = child_prefix << span_bits;
                let child_last_vpn = child_first_vpn + (1u64 << span_bits) - 1;
                if child_last_vpn < start.0 {
                    continue;
                }
                let Some(child) = children[idx].as_mut() else {
                    continue;
                };
                let cold = a_sum[lw] & (1u64 << (idx & 63)) == 0;
                let (agg_ptes, agg_leaves, agg_interiors) = child_aggregates(child);
                if cold && child_first_vpn >= start.0 && agg_ptes <= limit - fp.ptes_visited {
                    // Provably no candidates, wholly at/after the cursor,
                    // and the walk's cursor could not stop inside it:
                    // charge the exact footprint and prune the subtree.
                    fp.ptes_visited += agg_ptes;
                    fp.leaf_tables += agg_leaves;
                    fp.interior_nodes += agg_interiors;
                    stats.skipped += 1;
                    continue;
                }
                stats.descended += 1;
                let truncated = match child {
                    Node::Interior(next) => {
                        fp.interior_nodes += 1;
                        Self::scan_node(
                            next,
                            level - 1,
                            child_prefix,
                            start,
                            limit,
                            fp,
                            resume,
                            stats,
                            visit,
                        )
                    }
                    Node::Leaf(leaf) => {
                        fp.leaf_tables += 1;
                        Self::scan_leaf_words(leaf, child_prefix, start, limit, fp, resume, visit)
                    }
                    Node::Huge(pte) => {
                        Self::scan_huge_entry(pte, child_prefix, start, limit, fp, resume, visit)
                    }
                };
                // Re-tighten even on truncation: the closure may have
                // cleared bits before the budget ran out.
                resync_summary(a_sum, idx, child);
                if truncated {
                    return true;
                }
            }
        }
        false
    }

    /// The word-wise leaf scan. Returns true when the budget ran out
    /// inside this leaf (`resume` then holds the cursor).
    // tmprof-lint: allow(panic-reachability) — w < SCAN_WORDS and pi = (w << 6) | bit < FANOUT by construction
    fn scan_leaf_words(
        leaf: &mut LeafTable,
        child_prefix: u64,
        start: Vpn,
        limit: u64,
        fp: &mut WalkFootprint,
        resume: &mut Option<Vpn>,
        visit: &mut impl FnMut(Vpn, &mut Pte),
    ) -> bool {
        let base = child_prefix << RADIX_BITS;
        for w in 0..SCAN_WORDS {
            let word_base = base | ((w as u64) << 6);
            if word_base + 63 < start.0 {
                continue;
            }
            // Present slots at or after the cursor in this word.
            let mut live = leaf.present_words[w];
            if word_base < start.0 {
                live &= !0u64 << (start.0 - word_base);
            }
            if live == 0 {
                continue;
            }
            // The scalar walk consumes one budget unit per present PTE;
            // replicate that with a popcount, and truncate the word at the
            // slot where the budget runs out so the resume cursor lands
            // exactly where the scalar walk's would.
            let avail = u64::from(live.count_ones());
            let budget_left = limit - fp.ptes_visited;
            let span = if avail > budget_left {
                let mut rest = live;
                for _ in 0..budget_left {
                    rest &= rest - 1;
                }
                let resume_bit = u64::from(rest.trailing_zeros());
                *resume = Some(Vpn(word_base | resume_bit));
                live & ((1u64 << resume_bit) - 1)
            } else {
                live
            };
            let mut cand = leaf.a_words[w] & span;
            while cand != 0 {
                let bit = cand.trailing_zeros() as usize;
                cand &= cand - 1;
                let pi = (w << 6) | bit;
                visit(Vpn(word_base | bit as u64), &mut leaf.ptes[pi]);
                leaf.sync_slot(pi);
            }
            fp.ptes_visited += u64::from(span.count_ones());
            if resume.is_some() {
                return true;
            }
        }
        false
    }

    /// Scan-mode visit of one huge entry, which keeps its A bit at the
    /// PTE itself (one bit per 2 MiB). Returns true when the budget ran
    /// out before it.
    fn scan_huge_entry(
        pte: &mut Pte,
        child_prefix: u64,
        start: Vpn,
        limit: u64,
        fp: &mut WalkFootprint,
        resume: &mut Option<Vpn>,
        visit: &mut impl FnMut(Vpn, &mut Pte),
    ) -> bool {
        let vpn = Vpn(child_prefix << RADIX_BITS);
        if vpn.0 < start.0 {
            return false;
        }
        if fp.ptes_visited >= limit {
            *resume = Some(vpn);
            return true;
        }
        fp.ptes_visited += 1;
        if pte.accessed() {
            visit(vpn, pte);
        }
        false
    }
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Pfn;

    #[test]
    fn empty_table_returns_none() {
        let pt = PageTable::new();
        assert!(!pt.get(Vpn(0)).present());
        assert!(!pt.get(Vpn(0xFFFF_FFFF)).present());
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn map_then_get() {
        let mut pt = PageTable::new();
        pt.map(Vpn(0x1234), Pte::new(Pfn(0x99), true));
        let pte = pt.get(Vpn(0x1234));
        assert!(pte.present());
        assert_eq!(pte.pfn(), Pfn(0x99));
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn remap_does_not_double_count() {
        let mut pt = PageTable::new();
        pt.map(Vpn(7), Pte::new(Pfn(1), true));
        pt.map(Vpn(7), Pte::new(Pfn(2), true));
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(pt.get(Vpn(7)).pfn(), Pfn(2));
    }

    #[test]
    fn unmap_removes_translation() {
        let mut pt = PageTable::new();
        pt.map(Vpn(5), Pte::new(Pfn(50), false));
        let old = pt.unmap(Vpn(5)).unwrap();
        assert_eq!(old.pfn(), Pfn(50));
        assert!(!pt.get(Vpn(5)).present());
        assert_eq!(pt.mapped_pages(), 0);
        assert!(pt.unmap(Vpn(5)).is_none());
    }

    #[test]
    fn entries_in_distant_regions_coexist() {
        let mut pt = PageTable::new();
        // Spread across different PML4 entries.
        let vpns = [Vpn(0), Vpn(1 << 27), Vpn(5 << 27 | 123), Vpn((1 << 36) - 1)];
        for (i, &vpn) in vpns.iter().enumerate() {
            pt.map(vpn, Pte::new(Pfn(i as u64 + 1), true));
        }
        for (i, &vpn) in vpns.iter().enumerate() {
            assert_eq!(pt.get(vpn).pfn(), Pfn(i as u64 + 1), "{vpn:?}");
        }
    }

    #[test]
    fn entry_mut_mutates_in_place() {
        let mut pt = PageTable::new();
        pt.map(Vpn(10), Pte::new(Pfn(3), true));
        pt.entry_mut(Vpn(10)).unwrap().set(crate::pte::bits::A);
        assert!(pt.get(Vpn(10)).accessed());
    }

    #[test]
    fn walk_visits_in_vpn_order_and_counts() {
        let mut pt = PageTable::new();
        let mut expect: Vec<Vpn> = [900u64, 3, 512 * 7 + 1, 512, 77]
            .iter()
            .map(|&v| Vpn(v))
            .collect();
        for &vpn in &expect {
            pt.map(vpn, Pte::new(Pfn(vpn.0), true));
        }
        expect.sort();
        let mut seen = Vec::new();
        let fp = pt.walk_present(|vpn, _| seen.push(vpn));
        assert_eq!(seen, expect);
        assert_eq!(fp.ptes_visited, 5);
        assert!(fp.leaf_tables >= 2);
    }

    #[test]
    fn walk_can_clear_a_bits() {
        let mut pt = PageTable::new();
        for v in 0..100 {
            let mut pte = Pte::new(Pfn(v), true);
            if v % 2 == 0 {
                pte.set(crate::pte::bits::A);
            }
            pt.map(Vpn(v), pte);
        }
        let mut accessed = 0;
        pt.walk_present(|_, pte| {
            if pte.test_and_clear_accessed() {
                accessed += 1;
            }
        });
        assert_eq!(accessed, 50);
        let mut still = 0;
        pt.walk_present(|_, pte| {
            if pte.accessed() {
                still += 1;
            }
        });
        assert_eq!(still, 0);
    }

    #[test]
    fn bounded_walk_respects_budget_and_resumes() {
        let mut pt = PageTable::new();
        for v in 0..100u64 {
            pt.map(Vpn(v * 3), Pte::new(Pfn(v), true));
        }
        let mut seen = Vec::new();
        let (fp, resume) = pt.walk_present_bounded(Vpn(0), 40, |vpn, _| seen.push(vpn));
        assert_eq!(fp.ptes_visited, 40);
        assert_eq!(seen.len(), 40);
        assert_eq!(seen[39], Vpn(39 * 3));
        let resume = resume.expect("more pages remain");
        assert_eq!(resume, Vpn(40 * 3));
        // Resume picks up exactly where the budget ran out.
        let mut rest = Vec::new();
        let (fp2, resume2) = pt.walk_present_bounded(resume, 1000, |vpn, _| rest.push(vpn));
        assert_eq!(fp2.ptes_visited, 60);
        assert_eq!(rest[0], Vpn(40 * 3));
        assert_eq!(resume2, None, "walk completed");
    }

    #[test]
    fn bounded_walk_spanning_leaf_tables() {
        let mut pt = PageTable::new();
        // Pages in two distant leaf tables.
        for v in [0u64, 1, 2, 512 * 9, 512 * 9 + 1, 1 << 30] {
            pt.map(Vpn(v), Pte::new(Pfn(v), true));
        }
        let mut seen = Vec::new();
        let (_, resume) = pt.walk_present_bounded(Vpn(1), 3, |vpn, _| seen.push(vpn));
        assert_eq!(seen, vec![Vpn(1), Vpn(2), Vpn(512 * 9)]);
        assert_eq!(resume, Some(Vpn(512 * 9 + 1)));
        let mut rest = Vec::new();
        let (_, resume2) = pt.walk_present_bounded(resume.unwrap(), 10, |vpn, _| rest.push(vpn));
        assert_eq!(rest, vec![Vpn(512 * 9 + 1), Vpn(1 << 30)]);
        assert_eq!(resume2, None);
    }

    #[test]
    fn bounded_walk_zero_budget_visits_nothing() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Pte::new(Pfn(1), true));
        let (fp, resume) = pt.walk_present_bounded(Vpn(0), 0, |_, _| panic!("visited"));
        assert_eq!(fp.ptes_visited, 0);
        assert_eq!(resume, Some(Vpn(0)));
    }

    #[test]
    fn huge_mapping_roundtrip() {
        let mut pt = PageTable::new();
        let mut pte = Pte::new(Pfn(8192), true);
        pte.set(crate::pte::bits::PS);
        pt.map_huge(Vpn(1024), pte).unwrap();
        assert_eq!(pt.mapped_pages(), HUGE_SPAN);
        // Every covered page resolves to its offset frame.
        assert_eq!(pt.resolve(Vpn(1024)), Some(Pfn(8192)));
        assert_eq!(pt.resolve(Vpn(1024 + 300)), Some(Pfn(8192 + 300)));
        assert_eq!(pt.resolve(Vpn(1023)), None);
        assert_eq!(pt.resolve(Vpn(1024 + 512)), None);
        // Unmap returns the PTE and clears the range.
        let old = pt.unmap_huge(Vpn(1024)).unwrap();
        assert!(old.huge());
        assert_eq!(pt.mapped_pages(), 0);
        assert_eq!(pt.resolve(Vpn(1024)), None);
    }

    #[test]
    fn huge_entry_mut_is_shared_across_the_span() {
        let mut pt = PageTable::new();
        let mut pte = Pte::new(Pfn(0), true);
        pte.set(crate::pte::bits::PS);
        pt.map_huge(Vpn(0), pte).unwrap();
        pt.entry_mut(Vpn(77)).unwrap().set(crate::pte::bits::A);
        assert!(pt.get(Vpn(400)).accessed(), "A bit is span-wide");
    }

    #[test]
    fn walk_visits_huge_entry_once() {
        let mut pt = PageTable::new();
        let mut pte = Pte::new(Pfn(0), true);
        pte.set(crate::pte::bits::PS);
        pt.map_huge(Vpn(512), pte).unwrap();
        pt.map(Vpn(5), Pte::new(Pfn(5), true));
        let mut seen = Vec::new();
        let fp = pt.walk_present(|vpn, p| seen.push((vpn, p.huge())));
        assert_eq!(fp.ptes_visited, 2);
        assert_eq!(seen, vec![(Vpn(5), false), (Vpn(512), true)]);
    }

    #[test]
    fn bounded_walk_counts_huge_entry_as_one_pte() {
        let mut pt = PageTable::new();
        for r in 0..4u64 {
            let mut pte = Pte::new(Pfn(r * 512), true);
            pte.set(crate::pte::bits::PS);
            pt.map_huge(Vpn(r * 512), pte).unwrap();
        }
        let mut seen = 0;
        let (fp, resume) = pt.walk_present_bounded(Vpn(0), 2, |_, _| seen += 1);
        assert_eq!(fp.ptes_visited, 2);
        assert_eq!(seen, 2);
        assert_eq!(resume, Some(Vpn(1024)));
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn unaligned_huge_base_panics() {
        let mut pt = PageTable::new();
        let mut pte = Pte::new(Pfn(0), true);
        pte.set(crate::pte::bits::PS);
        let _ = pt.map_huge(Vpn(3), pte);
    }

    #[test]
    fn huge_over_base_pages_is_a_typed_conflict() {
        let mut pt = PageTable::new();
        pt.map(Vpn(512 + 7), Pte::new(Pfn(1), true));
        let mut pte = Pte::new(Pfn(0), true);
        pte.set(crate::pte::bits::PS);
        assert_eq!(
            pt.map_huge(Vpn(512), pte),
            Err(MapError::HugeConflict { base: Vpn(512) })
        );
        // The conflict is recoverable: the table is untouched and the 4 KiB
        // mapping still resolves.
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(pt.resolve(Vpn(512 + 7)), Some(Pfn(1)));
        // A disjoint range still accepts the huge mapping afterwards.
        pt.map_huge(Vpn(1024), pte).unwrap();
        assert_eq!(pt.mapped_pages(), 1 + HUGE_SPAN);
    }

    /// A tree exercising every node shape: dense base pages, sparse base
    /// pages, a huge mapping, and an empty leaf table left by unmap.
    fn mixed_shape_table() -> PageTable {
        let mut pt = PageTable::new();
        for v in 0..700u64 {
            pt.map(Vpn(v * 2), Pte::new(Pfn(v), true));
        }
        let mut huge = Pte::new(Pfn(1 << 14), true);
        huge.set(crate::pte::bits::PS);
        pt.map_huge(Vpn(4096), huge).unwrap();
        pt.map(Vpn(1 << 30), Pte::new(Pfn(9), true));
        pt.unmap(Vpn(1 << 30)); // empty leaf table stays in the tree
        pt.map(Vpn((1 << 30) + 700), Pte::new(Pfn(10), true));
        pt
    }

    #[test]
    fn bounded_walk_footprint_matches_unbounded_when_budget_exceeds() {
        // Regression (ROADMAP item 5 satellite): with start=0 and a budget
        // larger than the mapped set, the bounded walk must report the
        // exact same WalkFootprint as walk_present — visited PTEs, leaf
        // tables, and interior nodes alike.
        let mut pt = mixed_shape_table();
        let mut a = Vec::new();
        let unbounded = pt.walk_present(|vpn, _| a.push(vpn));
        let mut b = Vec::new();
        let (bounded, resume) = pt.walk_present_bounded(Vpn(0), u64::MAX, |vpn, _| b.push(vpn));
        assert_eq!(a, b, "visit order diverged");
        assert_eq!(unbounded, bounded, "footprint accounting drifted");
        assert_eq!(resume, None);
    }

    #[test]
    fn bounded_walk_skips_huge_entry_below_cursor() {
        // A cursor landing inside a huge span (possible after the region
        // is remapped between budgeted sweeps) must not re-visit the huge
        // entry whose base lies below it.
        let mut pt = PageTable::new();
        let mut huge = Pte::new(Pfn(0), true);
        huge.set(crate::pte::bits::PS | crate::pte::bits::A);
        pt.map_huge(Vpn(0), huge).unwrap();
        pt.map(Vpn(600), Pte::new(Pfn(1), true));
        let mut seen = Vec::new();
        let (fp, resume) = pt.walk_present_bounded(Vpn(5), 100, |vpn, _| seen.push(vpn));
        assert_eq!(seen, vec![Vpn(600)], "huge entry below cursor re-visited");
        assert_eq!(fp.ptes_visited, 1);
        assert_eq!(resume, None);
        assert!(pt.get(Vpn(0)).accessed(), "A bit must survive the skip");
    }

    #[test]
    fn packed_scan_matches_scalar_walk() {
        // Same table contents, same budget, same cursor: the word-wise scan
        // must observe the same accessed pages, clear the same bits, report
        // the same footprint, and leave the same resume cursor, across
        // budgets that truncate at every level.
        let build = || {
            let mut pt = mixed_shape_table();
            for v in [0u64, 63 * 2, 64 * 2, 511 * 2, 512 * 2, 699 * 2] {
                pt.entry_mut(Vpn(v)).unwrap().set(crate::pte::bits::A);
            }
            pt.entry_mut(Vpn(4096 + 17))
                .unwrap()
                .set(crate::pte::bits::A);
            pt
        };
        for budget in [1u64, 3, 64, 701, u64::MAX] {
            let (mut scalar_pt, mut packed_pt) = (build(), build());
            let mut cursor = Vpn(0);
            loop {
                let mut hits_s = Vec::new();
                let (fp_s, res_s) = scalar_pt.walk_present_bounded(cursor, budget, |vpn, pte| {
                    if pte.test_and_clear_accessed() {
                        hits_s.push(vpn);
                    }
                });
                let mut hits_p = Vec::new();
                let (fp_p, res_p) = packed_pt.scan_accessed_bounded(cursor, budget, |vpn, pte| {
                    if pte.test_and_clear_accessed() {
                        hits_p.push(vpn);
                    }
                });
                assert_eq!(hits_s, hits_p, "budget {budget}: observations diverged");
                assert_eq!(fp_s, fp_p, "budget {budget}: footprints diverged");
                assert_eq!(res_s, res_p, "budget {budget}: cursors diverged");
                match res_s {
                    Some(v) => cursor = v,
                    None => break,
                }
            }
            // Both tables end fully cleared.
            let mut left = 0;
            scalar_pt.walk_present(|_, pte| left += pte.accessed() as u32);
            packed_pt.walk_present(|_, pte| left += pte.accessed() as u32);
            assert_eq!(left, 0, "budget {budget}: stale A bits remain");
        }
    }

    #[test]
    fn hier_scan_matches_packed_scan() {
        // The summary-pruned scan must report exactly what a word-by-word
        // packed scan would, i.e. the scalar walk's result (see
        // packed_scan_matches_scalar_walk), also once earlier scans have
        // tightened the summaries so that whole cold subtrees are pruned.
        // Several epochs per budget, each re-heating a different page set
        // on both tables, keep observations, footprints, and cursors in
        // lockstep.
        let hot_sets: [&[u64]; 3] = [
            &[0, 63 * 2, 64 * 2, 511 * 2, 512 * 2, 699 * 2, 4096 + 17],
            &[4096 + 17, (1 << 30) + 700],
            &[300 * 2],
        ];
        let before_skipped = metrics::get(Metric::SimHierSubtreesSkipped);
        for budget in [1u64, 3, 64, 701, u64::MAX] {
            let (mut walked, mut scanned) = (mixed_shape_table(), mixed_shape_table());
            scanned.scan_accessed_bounded(Vpn(0), u64::MAX, |_, pte| {
                pte.test_and_clear_accessed();
            });
            for (epoch, hot) in hot_sets.iter().enumerate() {
                for pt in [&mut walked, &mut scanned] {
                    for &v in hot.iter() {
                        pt.entry_mut(Vpn(v)).unwrap().set(crate::pte::bits::A);
                    }
                }
                let mut cursor = Vpn(0);
                loop {
                    let mut hits_w = Vec::new();
                    let (fp_w, res_w) = walked.walk_present_bounded(cursor, budget, |vpn, pte| {
                        if pte.test_and_clear_accessed() {
                            hits_w.push(vpn);
                        }
                    });
                    let mut hits_s = Vec::new();
                    let (fp_s, res_s) =
                        scanned.scan_accessed_bounded(cursor, budget, |vpn, pte| {
                            if pte.test_and_clear_accessed() {
                                hits_s.push(vpn);
                            }
                        });
                    let at = format!("budget {budget}, epoch {epoch}");
                    assert_eq!(hits_w, hits_s, "{at}: observations diverged");
                    assert_eq!(fp_w, fp_s, "{at}: footprints diverged");
                    assert_eq!(res_w, res_s, "{at}: cursors diverged");
                    match res_w {
                        Some(v) => cursor = v,
                        None => break,
                    }
                }
                let mut left = 0;
                scanned.walk_present(|_, pte| left += pte.accessed() as u32);
                assert_eq!(
                    left, 0,
                    "budget {budget}, epoch {epoch}: stale A bits remain"
                );
            }
        }
        assert!(
            metrics::get(Metric::SimHierSubtreesSkipped) > before_skipped,
            "cold subtrees were not pruned"
        );
    }

    /// `n` contiguous present pages from VPN 0, none accessed.
    fn dense_table(n: u64) -> PageTable {
        let mut pt = PageTable::new();
        for v in 0..n {
            pt.map(Vpn(v), Pte::new(Pfn(v), true));
        }
        pt
    }

    #[test]
    fn scan_prunes_cold_subtrees_but_charges_exact_footprint() {
        // 4096 mapped pages in 8 leaf tables, one hot page: the scan must
        // find the one candidate, skip the 7 cold leaves without loading
        // their words, and still report the walk's exact footprint (the
        // cost model is unchanged).
        let mut pt = dense_table(4096);
        pt.entry_mut(Vpn(2049)).unwrap().set(crate::pte::bits::A);
        let (walk_fp, _) = dense_table(4096).walk_present_bounded(Vpn(0), u64::MAX, |_, _| {});
        let before_skipped = metrics::get(Metric::SimHierSubtreesSkipped);
        let mut hits = Vec::new();
        let (fp, resume) = pt.scan_accessed_bounded(Vpn(0), u64::MAX, |vpn, pte| {
            if pte.test_and_clear_accessed() {
                hits.push(vpn);
            }
        });
        assert_eq!(hits, vec![Vpn(2049)]);
        assert_eq!(fp.ptes_visited, 4096);
        assert_eq!(fp.leaf_tables, 8);
        assert_eq!(fp, walk_fp);
        assert_eq!(resume, None);
        // Second scan: everything is cold and summaries are tight (the
        // first scan re-tightened what entry_mut conservatively marked),
        // so the top-level subtree is pruned outright.
        let (fp2, _) = pt.scan_accessed_bounded(Vpn(0), u64::MAX, |_, _| {
            panic!("no candidates remain");
        });
        assert_eq!(fp2, fp, "pruned footprint drifted");
        assert!(
            metrics::get(Metric::SimHierSubtreesSkipped) > before_skipped,
            "cold subtrees were not pruned"
        );
    }

    #[test]
    fn scan_descends_stale_set_summaries() {
        // Regression: a stale-SET summary bit (entry_mut marked the path
        // but the caller never set A, then the page went cold) must make
        // the scan descend — probe the false candidate and charge the
        // walk's footprint, not a blind aggregate.
        let mut pt = dense_table(1024);
        // Touch without setting A: summaries along the path go stale-set
        // (and so does the leaf word).
        let _ = pt.entry_mut(Vpn(700)).unwrap();
        let (walk_fp, walk_res) =
            dense_table(1024).walk_present_bounded(Vpn(0), u64::MAX, |_, _| {});
        let mut cand = Vec::new();
        let (fp, res) = pt.scan_accessed_bounded(Vpn(0), u64::MAX, |vpn, pte| {
            assert!(!pte.test_and_clear_accessed());
            cand.push(vpn);
        });
        assert_eq!(cand, vec![Vpn(700)], "stale-set candidate not probed");
        assert_eq!(fp, walk_fp);
        assert_eq!(res, walk_res);
    }

    #[test]
    fn walk_closures_resync_summaries_for_the_hier_scan() {
        // Regression for the stale-CLEAR hazard: after a full scan leaves
        // every summary clear, a walk closure sets an A bit directly on the
        // PTE. The walk must re-tighten the summaries on its way out, or
        // the next scan would prune the now-hot subtree.
        let mut pt = dense_table(1024);
        pt.scan_accessed_bounded(Vpn(0), u64::MAX, |_, pte| {
            pte.test_and_clear_accessed();
        });
        pt.walk_present(|vpn, pte| {
            if vpn == Vpn(777) {
                pte.set(crate::pte::bits::A);
            }
        });
        let mut hits = Vec::new();
        pt.scan_accessed_bounded(Vpn(0), u64::MAX, |vpn, pte| {
            if pte.test_and_clear_accessed() {
                hits.push(vpn);
            }
        });
        assert_eq!(hits, vec![Vpn(777)], "scan missed a walk-set A bit");
    }

    #[test]
    fn scan_matches_walk_after_map_unmap_huge_churn() {
        // Aggregates must survive huge conflicts, unmaps, and remaps: the
        // unbounded scan footprint equals walk_present's.
        let build = || {
            let mut pt = mixed_shape_table();
            let mut huge = Pte::new(Pfn(1 << 15), true);
            huge.set(crate::pte::bits::PS);
            // Conflicts with the base pages at 0..1400: rejected, no change.
            assert!(pt.map_huge(Vpn(512), huge).is_err());
            pt.map_huge(Vpn(8192), huge).unwrap();
            pt.unmap_huge(Vpn(8192)).unwrap();
            pt.map_huge(Vpn(8192), huge).unwrap();
            for v in 200..260u64 {
                pt.unmap(Vpn(v * 2));
            }
            pt
        };
        let mut walked = build();
        let mut scanned = build();
        let walk_fp = walked.walk_present(|_, _| {});
        let (scan_fp, res) = scanned.scan_accessed_bounded(Vpn(0), u64::MAX, |_, _| {});
        assert_eq!(scan_fp, walk_fp, "aggregates drifted from the real tree");
        assert_eq!(res, None);
        assert_eq!(walked.mapped_pages(), scanned.mapped_pages());
    }

    #[test]
    fn scan_budget_lands_inside_cold_subtree() {
        // When the budget runs out inside a cold subtree the walk's cursor
        // stops there, so the scan must descend (the skip test fails) and
        // leave the identical mid-subtree cursor.
        let mut pt = dense_table(2048);
        pt.scan_accessed_bounded(Vpn(0), u64::MAX, |_, _| {}); // tighten
        let mut walked = dense_table(2048);
        for budget in [1u64, 100, 511, 512, 513, 1000] {
            let (fp_w, res_w) = walked.walk_present_bounded(Vpn(0), budget, |_, _| {});
            let (fp_s, res_s) = pt.scan_accessed_bounded(Vpn(0), budget, |_, _| {});
            assert_eq!(fp_w, fp_s, "budget {budget}");
            assert_eq!(res_w, res_s, "budget {budget}");
        }
    }

    #[test]
    fn packed_scan_skips_clear_words_but_counts_them() {
        // 4096 mapped pages, only one accessed: the packed scan still
        // charges the full footprint (the cost model is unchanged) while
        // visiting just the one candidate.
        let mut pt = dense_table(4096);
        pt.entry_mut(Vpn(2049)).unwrap().set(crate::pte::bits::A);
        let mut hits = Vec::new();
        let (fp, resume) = pt.scan_accessed_bounded(Vpn(0), u64::MAX, |vpn, pte| {
            if pte.test_and_clear_accessed() {
                hits.push(vpn);
            }
        });
        assert_eq!(hits, vec![Vpn(2049)]);
        assert_eq!(fp.ptes_visited, 4096);
        assert_eq!(fp.leaf_tables, 8);
        assert_eq!(resume, None);
    }

    #[test]
    fn packed_scan_resumes_mid_word() {
        // Budget runs out inside a word: the cursor must land on the next
        // present slot, exactly like the scalar walk.
        let mut pt = PageTable::new();
        for v in 60..70u64 {
            let mut pte = Pte::new(Pfn(v), true);
            pte.set(crate::pte::bits::A);
            pt.map(Vpn(v), pte);
        }
        let mut hits = Vec::new();
        let (fp, resume) = pt.scan_accessed_bounded(Vpn(0), 6, |vpn, pte| {
            if pte.test_and_clear_accessed() {
                hits.push(vpn);
            }
        });
        assert_eq!(fp.ptes_visited, 6);
        assert_eq!(hits, (60..66).map(Vpn).collect::<Vec<_>>());
        assert_eq!(resume, Some(Vpn(66)));
        let mut rest = Vec::new();
        let (_, resume2) = pt.scan_accessed_bounded(Vpn(66), 100, |vpn, pte| {
            if pte.test_and_clear_accessed() {
                rest.push(vpn);
            }
        });
        assert_eq!(rest, (66..70).map(Vpn).collect::<Vec<_>>());
        assert_eq!(resume2, None);
    }

    #[test]
    fn walk_footprint_scales_with_density() {
        // Dense region: 4096 contiguous pages -> 8 leaf tables.
        let mut pt = PageTable::new();
        for v in 0..4096u64 {
            pt.map(Vpn(v), Pte::new(Pfn(v), true));
        }
        let fp = pt.walk_present(|_, _| {});
        assert_eq!(fp.ptes_visited, 4096);
        assert_eq!(fp.leaf_tables, 8);
    }
}
