//! Grid-identity check: the rank-cached, parallel `hitrate_grid` must be
//! float-identical (`f64::to_bits`) to the seed's serial per-cell replay on
//! real recorded logs, not just on synthetic proptest inputs. This is the
//! CI gate behind the Fig. 6 replay-engine rework: any caching or
//! fan-out bug that changes a single ULP fails here.

use tmprof_bench::harness::{run_workload, RunOptions};
use tmprof_bench::scale::Scale;
use tmprof_core::rank::RankSource;
use tmprof_policy::hitrate::{
    hitrate_grid, hitrate_grid_full, hitrate_grid_serial, HitrateCell, PAPER_RATIOS,
};
use tmprof_workloads::spec::WorkloadKind;

fn log_for(kind: WorkloadKind) -> tmprof_policy::hitrate::ReplayLog {
    run_workload(kind, &RunOptions::new(Scale::quick()).dense()).log
}

fn assert_bit_identical(reference: &[HitrateCell], candidate: &[HitrateCell], label: &str) {
    assert_eq!(reference.len(), candidate.len(), "{label}: cell count");
    for (a, b) in reference.iter().zip(candidate) {
        assert_eq!(a.policy, b.policy, "{label}: cell order");
        assert_eq!(a.source, b.source, "{label}: cell order");
        assert_eq!(
            a.ratio_denominator, b.ratio_denominator,
            "{label}: cell order"
        );
        assert_eq!(
            a.hitrate.to_bits(),
            b.hitrate.to_bits(),
            "{label}: {:?}/{:?}/1:{} drifted ({} vs {})",
            a.policy,
            a.source,
            a.ratio_denominator,
            a.hitrate,
            b.hitrate
        );
    }
}

#[test]
fn parallel_grid_matches_serial_on_recorded_logs() {
    for kind in [
        WorkloadKind::Gups,
        WorkloadKind::DataCaching,
        WorkloadKind::XsBench,
    ] {
        let log = log_for(kind);
        let serial = hitrate_grid_serial(&log, &PAPER_RATIOS);
        for workers in [1usize, 2, 8] {
            let fast = hitrate_grid_full(&log, &PAPER_RATIOS, &RankSource::ALL, Some(workers));
            assert_bit_identical(&serial, &fast, &format!("{kind:?} at {workers} workers"));
        }
        // The knob-driven default entry point agrees too.
        let default = hitrate_grid(&log, &PAPER_RATIOS);
        assert_bit_identical(&serial, &default, &format!("{kind:?} default workers"));
    }
}

#[test]
fn grid_is_reproducible_across_calls() {
    // Worker scheduling must not leak into results: two runs of the
    // parallel grid on the same log are byte-for-byte the same.
    let log = log_for(WorkloadKind::WebServing);
    let a = hitrate_grid_full(&log, &PAPER_RATIOS, &RankSource::ALL, Some(4));
    let b = hitrate_grid_full(&log, &PAPER_RATIOS, &RankSource::ALL, Some(4));
    assert_bit_identical(&a, &b, "repeat call");
}
