//! Reporting interfaces: detection statistics, CDFs, and the
//! `numa_maps`-style textual snapshot (paper §III-B-3).

use tmprof_sim::machine::Machine;
use tmprof_sim::tlb::Pid;

/// Cumulative page-detection counts — one Table IV cell group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectionStats {
    /// Pages ever observed by the A-bit driver.
    pub abit: usize,
    /// Pages ever observed by the trace driver.
    pub trace: usize,
    /// Pages observed by both within the same epoch, accumulated.
    pub both: usize,
}

/// Empirical CDF over per-page access counts (Fig. 5).
///
/// Input: each page's observation count. Output: sorted
/// `(count, cumulative_fraction_of_pages)` points.
pub fn cdf_points(counts: impl IntoIterator<Item = u64>) -> Vec<(u64, f64)> {
    let mut sorted: Vec<u64> = counts.into_iter().collect();
    sorted.sort_unstable();
    let n = sorted.len();
    if n == 0 {
        return Vec::new();
    }
    let mut out: Vec<(u64, f64)> = Vec::new();
    for (i, v) in sorted.iter().enumerate() {
        let frac = (i + 1) as f64 / n as f64;
        match out.last_mut() {
            Some(last) if last.0 == *v => last.1 = frac,
            _ => out.push((*v, frac)),
        }
    }
    out
}

/// Fraction of total observations captured by the hottest
/// `page_fraction` of pages (the "hottest pages are a minor portion of the
/// footprint" statistic of §VI-B).
pub fn heat_concentration(counts: impl IntoIterator<Item = u64>, page_fraction: f64) -> f64 {
    let mut sorted: Vec<u64> = counts.into_iter().collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = sorted.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let k = ((sorted.len() as f64 * page_fraction).ceil() as usize).clamp(1, sorted.len());
    let top: u64 = sorted[..k].iter().sum();
    top as f64 / total as f64
}

/// Render a `numa_maps`-style snapshot of one process: every mapped page
/// with its frame, tier, and accumulated profiler counts. This is the
/// user-space interface the paper grafts onto `/proc/<pid>/numa_maps`.
pub fn numa_maps(machine: &mut Machine, pid: Pid) -> String {
    use std::fmt::Write;
    let layout = machine.memory().clone();
    let mut rows: Vec<(u64, u64, String, u64, u64)> = Vec::new();
    if let Some((pt, descs)) = machine.scan_parts(pid) {
        pt.walk_present(|vpn, pte| {
            let pfn = pte.pfn();
            let d = descs.get(pfn);
            let tier = layout.tier_of(pfn).label();
            rows.push((vpn.0, pfn.0, tier, d.abit_total, d.trace_total));
        });
    }
    let mut out = String::new();
    let _ = writeln!(out, "# pid {pid}: {} mapped pages", rows.len());
    let _ = writeln!(out, "# vpn pfn tier abit_total trace_total");
    for (vpn, pfn, tier, abit, trace) in rows {
        let _ = writeln!(out, "{vpn:#x} {pfn:#x} {tier} {abit} {trace}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::{EpochProfile, RankSource};
    use tmprof_sim::pagedesc::PageKey;
    use tmprof_sim::prelude::*;

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let points = cdf_points([5u64, 1, 1, 3, 2]);
        assert_eq!(points.first().unwrap().0, 1);
        assert_eq!(points.last().unwrap().0, 5);
        assert!((points.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn cdf_merges_duplicate_counts() {
        let points = cdf_points([2u64, 2, 2, 2]);
        assert_eq!(points, vec![(2, 1.0)]);
    }

    #[test]
    fn cdf_of_empty_is_empty() {
        assert!(cdf_points(std::iter::empty()).is_empty());
    }

    #[test]
    fn heat_concentration_detects_skew() {
        // One page with 90 of 100 observations.
        let skewed = heat_concentration([90u64, 2, 2, 2, 2, 2], 0.2);
        assert!(skewed > 0.85);
        let flat = heat_concentration([10u64; 10], 0.2);
        assert!((flat - 0.2).abs() < 1e-9);
    }

    #[test]
    fn heat_concentration_zero_safe() {
        assert_eq!(heat_concentration(std::iter::empty(), 0.1), 0.0);
        assert_eq!(heat_concentration([0u64, 0], 0.1), 0.0);
    }

    #[test]
    fn numa_maps_lists_mapped_pages_with_tiers() {
        let mut m = Machine::new(MachineConfig::scaled(1, 4, 64, 1 << 20));
        m.add_process(7);
        for i in 0..6u64 {
            m.touch(0, 7, VirtAddr(i * PAGE_SIZE));
        }
        let text = numa_maps(&mut m, 7);
        assert!(text.contains("6 mapped pages"));
        assert_eq!(text.matches("tier1").count(), 4, "tier 1 is 4 frames");
        assert_eq!(text.matches("tier2").count(), 2);
    }

    #[test]
    fn numa_maps_of_unknown_pid_is_empty_header() {
        let mut m = Machine::new(MachineConfig::scaled(1, 4, 4, 1 << 20));
        let text = numa_maps(&mut m, 42);
        assert!(text.contains("0 mapped pages"));
    }

    /// Top-N pages under the combined rank, with their rank values.
    fn hottest_pages(machine: &Machine, n: usize) -> Vec<(PageKey, u64)> {
        EpochProfile::capture(machine.descs())
            .ranked(RankSource::Combined)
            .into_iter()
            .take(n)
            .map(|r| (r.key, r.rank))
            .collect()
    }

    #[test]
    fn hottest_pages_orders_by_combined_rank() {
        let mut m = Machine::new(MachineConfig::scaled(1, 64, 64, 1 << 20));
        m.add_process(1);
        m.touch(0, 1, VirtAddr(0x1000));
        m.touch(0, 1, VirtAddr(0x2000));
        let pfn_hot = m.frame_of(1, Vpn(2)).unwrap();
        let pfn_cold = m.frame_of(1, Vpn(1)).unwrap();
        m.descs_mut().bump_trace(pfn_hot);
        m.descs_mut().bump_trace(pfn_hot);
        m.descs_mut().bump_abit(pfn_cold);
        let top = hottest_pages(&m, 10);
        assert_eq!(top[0].0.vpn, Vpn(2));
        assert_eq!(top[0].1, 2);
        assert_eq!(top[1].0.vpn, Vpn(1));
    }
}
