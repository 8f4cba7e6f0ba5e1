//! Hotness ranking (paper §IV, step 1).
//!
//! TMP "aggregates memory-access statistics for each page from multiple
//! profiling methods into a single hotness rank". Fig. 2 establishes that
//! the A-bit and trace-sample populations are the same order of magnitude,
//! so the rank is computed as their plain sum — no per-source weighting —
//! and that rule is exposed here along with single-source variants used by
//! the paper's "piecemeal" comparisons (Fig. 6: A-bit alone, IBS alone,
//! TMP combined).

use tmprof_sim::keymap::KeyMap;
use tmprof_sim::pagedesc::{PageDescTable, PageKey};

/// Which profiling statistics feed the rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RankSource {
    /// A-bit observations only.
    ABit,
    /// Trace (IBS/PEBS) samples only.
    Trace,
    /// TMP: sum of A-bit and trace (the paper's rule).
    Combined,
}

impl RankSource {
    /// The paper's three sources, in Fig. 6's order. This drives the
    /// default grid schedule and must not grow — the committed CSVs'
    /// 7-cells-per-ratio layout depends on it.
    pub const ALL: [RankSource; 3] = [RankSource::ABit, RankSource::Trace, RankSource::Combined];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            RankSource::ABit => "A-bit",
            RankSource::Trace => "IBS",
            RankSource::Combined => "TMP",
        }
    }
}

/// A page with its hotness rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankedPage {
    pub key: PageKey,
    pub rank: u64,
}

/// Snapshot of one epoch's per-page profiler observations, keyed by packed
/// [`PageKey`]. This is what the Fig. 6 replay stores per epoch.
#[derive(Clone, Debug, Default)]
pub struct EpochProfile {
    /// A-bit observations per page.
    pub abit: KeyMap<u64, u64>,
    /// Trace samples per page.
    pub trace: KeyMap<u64, u64>,
}

impl EpochProfile {
    /// Extract the current epoch's observations from the descriptor table.
    ///
    /// Walks only the table's dirty list — frames that actually received
    /// observations this epoch — so epoch close costs O(touched pages)
    /// instead of O(total frames). Equivalent to [`Self::capture_full_scan`]
    /// (property-tested in `tests/dirty_props.rs`). A first pass counts
    /// each source's pages, so each map is allocated once at its final
    /// size and filling it never rehashes.
    pub fn capture(descs: &PageDescTable) -> Self {
        let touched = descs.touched_frames();
        let (mut abit, mut trace) = (0, 0);
        for &pfn in &touched {
            let d = descs.get(pfn);
            if d.owner.is_some() {
                abit += usize::from(d.abit_epoch > 0);
                trace += usize::from(d.trace_epoch > 0);
            }
        }
        let mut out = Self {
            abit: KeyMap::with_capacity_and_hasher(abit, Default::default()),
            trace: KeyMap::with_capacity_and_hasher(trace, Default::default()),
        };
        for pfn in touched {
            let d = descs.get(pfn);
            let Some(owner) = d.owner else { continue };
            let k = owner.pack();
            if d.abit_epoch > 0 {
                out.abit.insert(k, d.abit_epoch);
            }
            if d.trace_epoch > 0 {
                out.trace.insert(k, d.trace_epoch);
            }
        }
        out
    }

    /// Reference implementation of [`Self::capture`]: a full scan over
    /// every owned frame. O(total frames); kept for the dirty-list
    /// equivalence tests and as the semantic definition of a capture.
    // tmprof-lint: allow(dead-surface) — identity oracle of core/tests/dirty_props.rs (dirty_capture_equals_full_scan and its siblings)
    pub fn capture_full_scan(descs: &PageDescTable) -> Self {
        let mut out = Self::default();
        for (_pfn, d) in descs.iter_owned() {
            let Some(owner) = d.owner else { continue };
            let k = owner.pack();
            if d.abit_epoch > 0 {
                out.abit.insert(k, d.abit_epoch);
            }
            if d.trace_epoch > 0 {
                out.trace.insert(k, d.trace_epoch);
            }
        }
        out
    }

    /// Rank value of a page under `source`.
    pub fn rank_of(&self, key: u64, source: RankSource) -> u64 {
        match source {
            RankSource::ABit => self.abit.get(&key).copied().unwrap_or(0),
            RankSource::Trace => self.trace.get(&key).copied().unwrap_or(0),
            RankSource::Combined => {
                self.abit.get(&key).copied().unwrap_or(0)
                    + self.trace.get(&key).copied().unwrap_or(0)
            }
        }
    }

    /// The total order shared by [`Self::ranked`] and [`Self::top_k`]:
    /// rank descending, ties broken by page key ascending. Total over
    /// distinct pages, so stable and unstable sorts agree.
    #[inline]
    fn rank_order(a: &RankedPage, b: &RankedPage) -> std::cmp::Ordering {
        b.rank.cmp(&a.rank).then(a.key.pack().cmp(&b.key.pack()))
    }

    /// All pages with a nonzero rank under `source`, in arbitrary order
    /// (deduplicated; callers impose the total order).
    fn entries(&self, source: RankSource) -> Vec<RankedPage> {
        let keys: Vec<u64> = match source {
            RankSource::ABit => self.abit.keys().copied().collect(),
            RankSource::Trace => self.trace.keys().copied().collect(),
            RankSource::Combined => {
                // The pre-sort exists only to dedup the two-source union;
                // the single-source branches need no sort at all (the
                // caller's total order makes the output deterministic).
                let mut k: Vec<u64> = self.abit.keys().chain(self.trace.keys()).copied().collect();
                k.sort_unstable();
                k.dedup();
                k
            }
        };
        keys.into_iter()
            .map(|k| RankedPage {
                key: PageKey::unpack(k),
                rank: self.rank_of(k, source),
            })
            .filter(|r| r.rank > 0)
            .collect()
    }

    /// All pages with a nonzero rank under `source`, hottest first.
    /// Ties are broken by page key for determinism. This is the reference
    /// ranking; [`Self::top_k`] must agree with its prefix.
    pub fn ranked(&self, source: RankSource) -> Vec<RankedPage> {
        let mut out = self.entries(source);
        out.sort_unstable_by(Self::rank_order);
        out
    }

    /// The `k` hottest pages under `source`, hottest first — exactly
    /// `self.ranked(source).truncate(k)`, computed with partial selection:
    /// O(n + k log k) instead of O(n log n). This is the policy-facing
    /// fast path ("selection proportional to *selected* pages"): capacity
    /// is typically a small fraction of the profiled population.
    pub fn top_k(&self, source: RankSource, k: usize) -> Vec<RankedPage> {
        if k == 0 {
            return Vec::new();
        }
        let mut out = self.entries(source);
        if k < out.len() {
            out.select_nth_unstable_by(k - 1, Self::rank_order);
            out.truncate(k);
        }
        out.sort_unstable_by(Self::rank_order);
        out
    }

    /// Number of pages observed by each source and by both
    /// (the per-epoch contribution to Table IV's columns).
    // tmprof-lint: allow(dead-surface) — the Table IV partition checked by rank::tests::detection_counts_partition_the_combined_set and core/tests/props.rs
    pub fn detection_counts(&self) -> (usize, usize, usize) {
        let both = self
            .abit
            .keys()
            .filter(|k| self.trace.contains_key(k))
            .count();
        (self.abit.len(), self.trace.len(), both)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::addr::{Pfn, Vpn};

    fn table_with(entries: &[(u64, u32, u32)]) -> PageDescTable {
        // entries: (vpn, abit, trace) for pid 1, frame = vpn.
        let mut t = PageDescTable::new(1024);
        for &(vpn, abit, trace) in entries {
            let key = PageKey {
                pid: 1,
                vpn: Vpn(vpn),
            };
            t.set_owner(Pfn(vpn), key);
            for _ in 0..abit {
                t.bump_abit(Pfn(vpn));
            }
            for _ in 0..trace {
                t.bump_trace(Pfn(vpn));
            }
        }
        t
    }

    #[test]
    fn combined_rank_is_plain_sum() {
        let t = table_with(&[(1, 3, 5)]);
        let p = EpochProfile::capture(&t);
        let k = PageKey {
            pid: 1,
            vpn: Vpn(1),
        }
        .pack();
        assert_eq!(p.rank_of(k, RankSource::ABit), 3);
        assert_eq!(p.rank_of(k, RankSource::Trace), 5);
        assert_eq!(p.rank_of(k, RankSource::Combined), 8);
    }

    #[test]
    fn ranked_sorts_hottest_first_with_deterministic_ties() {
        let t = table_with(&[(1, 1, 0), (2, 5, 0), (3, 1, 0)]);
        let p = EpochProfile::capture(&t);
        let r = p.ranked(RankSource::ABit);
        assert_eq!(r[0].key.vpn, Vpn(2));
        assert_eq!(r[1].key.vpn, Vpn(1), "tie broken by key");
        assert_eq!(r[2].key.vpn, Vpn(3));
    }

    #[test]
    fn single_source_rankings_ignore_other_source() {
        let t = table_with(&[(1, 10, 0), (2, 0, 10)]);
        let p = EpochProfile::capture(&t);
        let abit = p.ranked(RankSource::ABit);
        assert_eq!(abit.len(), 1);
        assert_eq!(abit[0].key.vpn, Vpn(1));
        let trace = p.ranked(RankSource::Trace);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].key.vpn, Vpn(2));
        let combined = p.ranked(RankSource::Combined);
        assert_eq!(combined.len(), 2);
    }

    #[test]
    fn combined_sees_union_of_sources() {
        let t = table_with(&[(1, 2, 0), (2, 0, 3), (3, 1, 1)]);
        let p = EpochProfile::capture(&t);
        let (a, tr, both) = p.detection_counts();
        assert_eq!(a, 3 - 1); // pages 1 and 3
        assert_eq!(tr, 2); // pages 2 and 3
        assert_eq!(both, 1); // page 3
        assert_eq!(p.ranked(RankSource::Combined).len(), 3);
    }

    #[test]
    fn pages_without_observations_are_excluded() {
        let mut t = table_with(&[(1, 1, 1)]);
        t.set_owner(
            Pfn(9),
            PageKey {
                pid: 1,
                vpn: Vpn(9),
            },
        );
        let p = EpochProfile::capture(&t);
        assert_eq!(p.ranked(RankSource::Combined).len(), 1);
    }

    #[test]
    fn ranked_ordering_is_total_and_deterministic() {
        // Invariant: ranked() is sorted by (rank desc, key asc) with no
        // duplicates, so any two captures of the same table agree exactly.
        let t = table_with(&[(7, 2, 1), (3, 3, 0), (9, 0, 3), (1, 1, 2), (5, 3, 0)]);
        let p = EpochProfile::capture(&t);
        for source in RankSource::ALL {
            let r = p.ranked(source);
            for w in r.windows(2) {
                let (a, b) = (&w[0], &w[1]);
                assert!(
                    a.rank > b.rank || (a.rank == b.rank && a.key.pack() < b.key.pack()),
                    "{source:?}: ordering violated between {a:?} and {b:?}"
                );
            }
            let again = p.ranked(source);
            assert_eq!(r, again, "{source:?}: ranked() not reproducible");
        }
    }

    #[test]
    fn rank_of_agrees_with_ranked_everywhere() {
        // Invariant: the rank attached to each ranked entry is exactly
        // rank_of(), and Combined = ABit + Trace for every page.
        let t = table_with(&[(2, 4, 1), (4, 0, 6), (6, 2, 2)]);
        let p = EpochProfile::capture(&t);
        for source in RankSource::ALL {
            for r in p.ranked(source) {
                assert_eq!(r.rank, p.rank_of(r.key.pack(), source));
            }
        }
        for r in p.ranked(RankSource::Combined) {
            let k = r.key.pack();
            assert_eq!(
                r.rank,
                p.rank_of(k, RankSource::ABit) + p.rank_of(k, RankSource::Trace),
                "combined rank is not the plain sum"
            );
        }
    }

    #[test]
    fn detection_counts_partition_the_combined_set() {
        // Invariant: |A| + |T| - |both| = |Combined ranked set|, and the
        // single-source ranked lengths match the counts.
        let t = table_with(&[(1, 2, 0), (2, 0, 3), (3, 1, 1), (4, 5, 2), (5, 0, 1)]);
        let p = EpochProfile::capture(&t);
        let (a, tr, both) = p.detection_counts();
        assert_eq!(a, p.ranked(RankSource::ABit).len());
        assert_eq!(tr, p.ranked(RankSource::Trace).len());
        assert!(both <= a.min(tr));
        assert_eq!(a + tr - both, p.ranked(RankSource::Combined).len());
    }

    #[test]
    fn labels() {
        assert_eq!(RankSource::Combined.label(), "TMP");
        assert_eq!(RankSource::ABit.label(), "A-bit");
        assert_eq!(RankSource::Trace.label(), "IBS");
        assert_eq!(RankSource::ALL.len(), 3, "Fig. 6 schedule is pinned");
    }
}
