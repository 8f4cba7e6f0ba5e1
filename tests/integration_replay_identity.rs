//! Grid-identity check: the rank-cached, parallel `hitrate_grid` must be
//! float-identical (`f64::to_bits`) to the seed's serial per-cell replay on
//! real recorded logs, not just on synthetic proptest inputs. This is the
//! CI gate behind the Fig. 6 replay-engine rework: any caching or
//! fan-out bug that changes a single ULP fails here. Besides the
//! harness's two-tier runs, the logs include TMP runs recorded on 2-, 3-
//! and 4-tier machines.

use tmprof_bench::harness::{run_workload, RunOptions};
use tmprof_bench::scale::Scale;
use tmprof_core::profiler::{Tmp, TmpConfig};
use tmprof_policy::hitrate::{
    hitrate_grid, hitrate_grid_full, hitrate_grid_serial, HitrateCell, ReplayEpoch, ReplayLog,
    PAPER_RATIOS,
};
use tmprof_sim::prelude::*;
use tmprof_sim::tier::MemTopology;
use tmprof_workloads::spec::WorkloadKind;

fn log_for(kind: WorkloadKind) -> ReplayLog {
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

/// Record 6 epochs of 30,000 Zipf-skewed touches over 512 pages under
/// TMP. The fast tier holds 64 frames, so most pages live in the slower
/// tiers.
fn record_zipf_run(memory: MemTopology) -> ReplayLog {
    let mut m = Machine::new(MachineConfig::scaled_topology(2, memory, 256));
    m.add_process(1);
    let mut tmp = Tmp::new(TmpConfig::paper_defaults(256), &mut m);
    let mut rng = Rng::new(17);
    let zipf = Zipf::new(512, 0.9);
    let mut log = ReplayLog::default();
    for _ in 0..6 {
        for i in 0..30_000u64 {
            let page = zipf.sample(&mut rng);
            m.touch(0, 1, VirtAddr(page * PAGE_SIZE + (i * 64) % PAGE_SIZE));
        }
        let report = tmp.end_epoch(&mut m);
        log.epochs.push(ReplayEpoch {
            profile: report.profile,
            truth_mem: report.truth.mem_accesses,
        });
    }
    log.first_touch_order = m.first_touch_order().to_vec();
    log
}

#[test]
fn parallel_grid_matches_serial_on_recorded_logs() {
    let mut logs: Vec<(String, ReplayLog)> = [
        WorkloadKind::Gups,
        WorkloadKind::DataCaching,
        WorkloadKind::XsBench,
    ]
    .into_iter()
    .map(|kind| (format!("{kind:?}"), log_for(kind)))
    .collect();
    let topologies = [
        MemTopology::with_frames(64, 960),
        MemTopology::from_specs(vec![
            TierSpec::dram(64),
            TierSpec::cxl(480),
            TierSpec::nvm(480),
        ]),
        MemTopology::from_specs(vec![
            TierSpec::dram(64),
            TierSpec::cxl(320),
            TierSpec::nvm(320),
            TierSpec::nvm(320),
        ]),
    ];
    for memory in topologies {
        let label = format!("Zipf on {} tiers", memory.num_tiers());
        logs.push((label, record_zipf_run(memory)));
    }
    for (label, log) in &logs {
        let serial = hitrate_grid_serial(log, &PAPER_RATIOS);
        for workers in [1usize, 2, 8] {
            let fast = hitrate_grid_full(log, &PAPER_RATIOS, Some(workers));
            assert_bit_identical(&serial, &fast, &format!("{label} at {workers} workers"));
        }
        // The knob-driven default entry point agrees too.
        let default = hitrate_grid(log, &PAPER_RATIOS);
        assert_bit_identical(&serial, &default, &format!("{label} default workers"));
    }
}

#[test]
fn grid_is_reproducible_across_calls() {
    // Worker scheduling must not leak into results: two runs of the
    // parallel grid on the same log are byte-for-byte the same.
    let log = log_for(WorkloadKind::WebServing);
    let a = hitrate_grid_full(&log, &PAPER_RATIOS, Some(4));
    let b = hitrate_grid_full(&log, &PAPER_RATIOS, Some(4));
    assert_bit_identical(&a, &b, "repeat call");
}
