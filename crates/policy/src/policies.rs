//! Placement policies (paper §IV, Table II).
//!
//! Policies are epoch-based: at each epoch horizon they nominate the set of
//! logical pages that should occupy tier 1 during the coming epoch, and the
//! page mover migrates in batch (one shootdown per epoch — §IV's first
//! reason for epoch granularity).
//!
//! * [`HistoryPolicy`] — "brings the previous epoch's hottest pages into
//!   tier 1" — simple, reactive, deployable.
//! * [`FirstTouchPolicy`] — the paper's baseline: pages stay wherever
//!   first-come-first-allocate put them; never migrates.
//!
//! The Oracle policy of Table II needs future knowledge, so it exists only
//! in the offline replay evaluator (`crate::hitrate`), exactly as in the
//! paper (Fig. 6 is computed from recorded profiling data).

use tmprof_core::rank::{EpochProfile, RankSource};

/// A policy's nomination for the coming epoch.
#[derive(Clone, Debug, Default)]
pub struct Placement {
    /// Packed [`tmprof_sim::pagedesc::PageKey`]s that should be resident in
    /// tier 1, hottest first, already truncated to capacity.
    pub tier1_pages: Vec<u64>,
}

/// An epoch-based placement policy.
pub trait PlacementPolicy {
    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// Nominate tier-1 residents for the coming epoch, given the profile
    /// observed over the epoch that just closed and the tier-1 capacity in
    /// pages.
    fn select(&mut self, closed_epoch: &EpochProfile, capacity: usize) -> Placement;
}

/// Table II "History": top-ranked pages of the previous epoch.
pub struct HistoryPolicy {
    source: RankSource,
}

impl HistoryPolicy {
    /// History over the given profiling source (Fig. 6 compares A-bit
    /// alone, IBS alone, and TMP combined).
    pub fn new(source: RankSource) -> Self {
        Self { source }
    }
}

impl PlacementPolicy for HistoryPolicy {
    fn name(&self) -> &'static str {
        "History"
    }

    fn select(&mut self, closed_epoch: &EpochProfile, capacity: usize) -> Placement {
        // Partial selection: capacity is typically a small fraction of the
        // profiled population, so avoid the full O(n log n) sort.
        Placement {
            tier1_pages: closed_epoch
                .top_k(self.source, capacity)
                .into_iter()
                .map(|r| r.key.pack())
                .collect(),
        }
    }
}

/// The NUMA-like first-come-first-allocate baseline (§VI-C): no migration,
/// ever. Selecting nothing leaves the mover idle and pages where the
/// allocator put them.
pub struct FirstTouchPolicy;

impl PlacementPolicy for FirstTouchPolicy {
    fn name(&self) -> &'static str {
        "First-touch"
    }

    fn select(&mut self, _closed_epoch: &EpochProfile, _capacity: usize) -> Placement {
        Placement::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::addr::{Pfn, Vpn};
    use tmprof_sim::pagedesc::{PageDescTable, PageKey};

    fn profile(entries: &[(u64, u32, u32)]) -> EpochProfile {
        let mut t = PageDescTable::new(256);
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
        EpochProfile::capture(&t)
    }

    #[test]
    fn history_takes_top_capacity_by_source() {
        let p = profile(&[(1, 5, 0), (2, 1, 9), (3, 3, 3)]);
        let mut hist = HistoryPolicy::new(RankSource::Combined);
        let sel = hist.select(&p, 2);
        // Combined ranks: vpn2=10, vpn3=6, vpn1=5.
        let vpns: Vec<u64> = sel
            .tier1_pages
            .iter()
            .map(|&k| PageKey::unpack(k).vpn.0)
            .collect();
        assert_eq!(vpns, vec![2, 3]);
    }

    #[test]
    fn history_respects_source_blindness() {
        let p = profile(&[(1, 5, 0), (2, 0, 9)]);
        let mut abit_only = HistoryPolicy::new(RankSource::ABit);
        let sel = abit_only.select(&p, 10);
        assert_eq!(
            sel.tier1_pages.len(),
            1,
            "IBS-only page invisible to A-bit policy"
        );
        assert_eq!(PageKey::unpack(sel.tier1_pages[0]).vpn, Vpn(1));
    }

    #[test]
    fn history_with_zero_capacity_selects_nothing() {
        let p = profile(&[(1, 5, 0)]);
        let mut hist = HistoryPolicy::new(RankSource::Combined);
        assert!(hist.select(&p, 0).tier1_pages.is_empty());
    }

    #[test]
    fn first_touch_never_nominates() {
        let p = profile(&[(1, 5, 5), (2, 5, 5)]);
        let mut ft = FirstTouchPolicy;
        assert!(ft.select(&p, 100).tier1_pages.is_empty());
        assert_eq!(ft.name(), "First-touch");
    }
}
