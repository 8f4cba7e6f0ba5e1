//! Write-aware placement (extension; paper §IV cites CLOCK-DWF \[32\]).
//!
//! NVM write asymmetry — slower, more power-hungry, endurance-limited
//! writes — motivates policies that weight *write* heat above read heat
//! when choosing what stays in DRAM. The paper's policy study sticks to
//! read-oriented History/Oracle but cites the CLOCK-DWF line of work; this
//! module provides that variant on top of TMP's profile plus the PML
//! dirty-page log, so the trade-off is explorable here.
//!
//! Rank rule: `score = read_rank + write_weight * writes`, where
//! `read_rank` comes from the configured [`RankSource`] and `writes` from
//! a dirty-event map (typically `PmlTracker::ranked_dirty_frames` folded
//! to logical pages). With `write_weight = 0` this degenerates to plain
//! History.

use tmprof_core::rank::{EpochProfile, RankSource};
use tmprof_sim::keymap::KeyMap;

use crate::policies::{Placement, PlacementPolicy};

/// CLOCK-DWF-style write-biased History policy.
pub struct WriteAwarePolicy {
    read_source: RankSource,
    write_weight: u64,
    /// Write (dirty) events per packed page key for the closed epoch.
    write_counts: KeyMap<u64, u64>,
}

impl WriteAwarePolicy {
    /// Policy reading `read_source` for read heat, weighting writes by
    /// `write_weight`.
    pub fn new(read_source: RankSource, write_weight: u64) -> Self {
        Self {
            read_source,
            write_weight,
            write_counts: KeyMap::default(),
        }
    }

    /// Install the epoch's write counts (from the PML driver) before
    /// calling [`PlacementPolicy::select`].
    pub fn set_write_counts(&mut self, counts: KeyMap<u64, u64>) {
        self.write_counts = counts;
    }

    fn score(&self, key: u64, profile: &EpochProfile) -> u64 {
        profile.rank_of(key, self.read_source)
            + self.write_weight * self.write_counts.get(&key).copied().unwrap_or(0)
    }
}

impl PlacementPolicy for WriteAwarePolicy {
    fn name(&self) -> &'static str {
        "Write-aware History"
    }

    fn select(&mut self, closed_epoch: &EpochProfile, capacity: usize) -> Placement {
        // Candidates: anything with read heat or write heat.
        let mut keys: Vec<u64> = closed_epoch
            .abit
            .keys()
            .chain(closed_epoch.trace.keys())
            .chain(self.write_counts.keys())
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut scored: Vec<(u64, u64)> = keys
            .into_iter()
            .map(|k| (k, self.score(k, closed_epoch)))
            .filter(|&(_, s)| s > 0)
            .collect();
        // Partial selection on the (score desc, key asc) total order:
        // only the nominated prefix needs sorting, not every candidate.
        let cmp = |a: &(u64, u64), b: &(u64, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        if capacity == 0 {
            return Placement::default();
        }
        if capacity < scored.len() {
            scored.select_nth_unstable_by(capacity - 1, cmp);
            scored.truncate(capacity);
        }
        scored.sort_unstable_by(cmp);
        Placement {
            tier1_pages: scored.into_iter().map(|(k, _)| k).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::addr::Vpn;
    use tmprof_sim::pagedesc::PageKey;

    fn key(vpn: u64) -> u64 {
        PageKey {
            pid: 1,
            vpn: Vpn(vpn),
        }
        .pack()
    }

    fn profile(reads: &[(u64, u64)]) -> EpochProfile {
        let mut p = EpochProfile::default();
        for &(vpn, r) in reads {
            p.trace.insert(key(vpn), r);
        }
        p
    }

    #[test]
    fn zero_weight_degenerates_to_read_ranking() {
        let p = profile(&[(1, 10), (2, 5)]);
        let mut policy = WriteAwarePolicy::new(RankSource::Trace, 0);
        policy.set_write_counts([(key(2), 1000)].into_iter().collect());
        let sel = policy.select(&p, 1);
        assert_eq!(sel.tier1_pages, vec![key(1)], "writes ignored at weight 0");
    }

    #[test]
    fn write_heavy_page_wins_with_weight() {
        let p = profile(&[(1, 10), (2, 5)]);
        let mut policy = WriteAwarePolicy::new(RankSource::Trace, 10);
        policy.set_write_counts([(key(2), 3)].into_iter().collect());
        // score(1) = 10; score(2) = 5 + 30 = 35.
        let sel = policy.select(&p, 1);
        assert_eq!(sel.tier1_pages, vec![key(2)]);
    }

    #[test]
    fn write_only_pages_are_candidates() {
        // A page invisible to the read profile but hot in the PML log must
        // still be nominated (its writes are what NVM should not absorb).
        let p = profile(&[(1, 1)]);
        let mut policy = WriteAwarePolicy::new(RankSource::Trace, 5);
        policy.set_write_counts([(key(9), 4)].into_iter().collect());
        let sel = policy.select(&p, 2);
        assert!(sel.tier1_pages.contains(&key(9)));
        assert!(sel.tier1_pages.contains(&key(1)));
    }

    #[test]
    fn capacity_respected_and_sorted() {
        let p = profile(&[(1, 1), (2, 2), (3, 3), (4, 4)]);
        let mut policy = WriteAwarePolicy::new(RankSource::Trace, 1);
        let sel = policy.select(&p, 2);
        assert_eq!(sel.tier1_pages, vec![key(4), key(3)]);
        assert_eq!(policy.name(), "Write-aware History");
        assert_eq!(policy.write_weight, 1);
    }

    #[test]
    fn stale_write_counts_are_replaced() {
        let p = profile(&[(1, 1)]);
        let mut policy = WriteAwarePolicy::new(RankSource::Trace, 100);
        policy.set_write_counts([(key(7), 9)].into_iter().collect());
        policy.set_write_counts(KeyMap::default()); // fresh epoch, no writes
        let sel = policy.select(&p, 5);
        assert_eq!(sel.tier1_pages, vec![key(1)]);
    }
}
