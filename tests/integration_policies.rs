//! Cross-crate integration: recorded profiles → replay evaluator → policies.
//!
//! Runs real workloads through the experiment harness, then checks the
//! Fig. 6 replay machinery on the resulting logs: structural invariants,
//! capacity monotonicity, and the paper's qualitative ordering claims.

use tmprof_bench::harness::{run_workload, RunOptions};
use tmprof_bench::scale::Scale;
use tmprof_core::rank::RankSource;
use tmprof_policy::hitrate::{hitrate_grid, replay_hitrate, ReplayPolicy, PAPER_RATIOS};
use tmprof_workloads::spec::WorkloadKind;

fn log_for(kind: WorkloadKind) -> tmprof_policy::hitrate::ReplayLog {
    run_workload(kind, &RunOptions::new(Scale::quick()).dense()).log
}

#[test]
fn hitrates_are_probabilities_everywhere() {
    let log = log_for(WorkloadKind::DataCaching);
    for cell in hitrate_grid(&log, &PAPER_RATIOS) {
        assert!(
            (0.0..=1.0).contains(&cell.hitrate),
            "{:?}/{:?} 1/{} -> {}",
            cell.policy,
            cell.source,
            cell.ratio_denominator,
            cell.hitrate
        );
    }
}

#[test]
fn larger_tier1_never_hurts_oracle() {
    let log = log_for(WorkloadKind::WebServing);
    let footprint = log.footprint_pages();
    let mut prev = 0.0;
    for denom in [128u32, 64, 32, 16, 8] {
        let cap = (footprint / denom as usize).max(1);
        let h = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Combined, cap);
        assert!(
            h + 1e-12 >= prev,
            "hitrate decreased when capacity grew (1/{denom}: {h} < {prev})"
        );
        prev = h;
    }
}

#[test]
fn oracle_with_combined_data_dominates_piecemeal_on_average() {
    // The paper's Fig. 6 claim, averaged over workloads and ratios: the
    // combined profile gives the Oracle policy at least as much hitrate as
    // either single source.
    let mut combined_total = 0.0;
    let mut piecemeal_total = 0.0;
    let mut cells = 0;
    for kind in [
        WorkloadKind::Gups,
        WorkloadKind::XsBench,
        WorkloadKind::DataCaching,
        WorkloadKind::WebServing,
    ] {
        let log = log_for(kind);
        let footprint = log.footprint_pages();
        for denom in PAPER_RATIOS {
            let cap = (footprint / denom as usize).max(1);
            let c = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Combined, cap);
            let a = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::ABit, cap);
            let t = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Trace, cap);
            combined_total += c;
            piecemeal_total += a.max(t);
            cells += 1;
        }
    }
    assert!(cells > 0);
    assert!(
        combined_total >= piecemeal_total * 0.99,
        "combined {combined_total} vs best piecemeal {piecemeal_total}"
    );
}

#[test]
fn combined_beats_single_sources_where_they_split() {
    // XSBench: IBS sees the giant grid, A-bit sees the budget window.
    // Combined must beat each individual source at most ratios.
    let log = log_for(WorkloadKind::XsBench);
    let footprint = log.footprint_pages();
    let mut wins = 0;
    let mut cells = 0;
    for denom in PAPER_RATIOS {
        let cap = (footprint / denom as usize).max(1);
        let c = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Combined, cap);
        let a = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::ABit, cap);
        let t = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Trace, cap);
        cells += 1;
        if c >= a && c >= t {
            wins += 1;
        }
    }
    assert!(wins * 2 > cells, "combined won only {wins}/{cells} cells");
}

#[test]
fn first_touch_is_insensitive_to_source() {
    let log = log_for(WorkloadKind::Graph500);
    let cap = (log.footprint_pages() / 8).max(1);
    let a = replay_hitrate(&log, ReplayPolicy::FirstTouch, RankSource::ABit, cap);
    let b = replay_hitrate(&log, ReplayPolicy::FirstTouch, RankSource::Trace, cap);
    let c = replay_hitrate(&log, ReplayPolicy::FirstTouch, RankSource::Combined, cap);
    assert_eq!(a, b);
    assert_eq!(b, c);
}

#[test]
fn replay_log_structure_is_sound() {
    let log = log_for(WorkloadKind::DataAnalytics);
    assert_eq!(log.epochs.len(), Scale::quick().epochs as usize);
    assert!(log.footprint_pages() > 0);
    let accesses: u64 = log
        .epochs
        .iter()
        .map(|e| e.truth_mem.iter().map(|&(_, c)| c).sum::<u64>())
        .sum();
    assert!(accesses > 0);
    assert!(!log.first_touch_order.is_empty());
    // First-touch order contains no duplicates.
    let mut seen = std::collections::HashSet::new();
    for &k in &log.first_touch_order {
        assert!(seen.insert(k), "page {k:#x} first-touched twice");
    }
    // Every truth page appears in the first-touch order (it must have been
    // allocated to be accessed).
    let order: std::collections::HashSet<u64> = log.first_touch_order.iter().copied().collect();
    for e in &log.epochs {
        for (k, _) in &e.truth_mem {
            assert!(
                order.contains(k),
                "page {k:#x} accessed but never allocated"
            );
        }
    }
}
