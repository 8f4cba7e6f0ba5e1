//! Grid-identity check: the rank-cached, parallel `hitrate_grid` must be
//! float-identical (`f64::to_bits`) to the seed's serial per-cell replay on
//! real recorded logs, not just on synthetic proptest inputs. This is the
//! CI gate behind the Fig. 6 replay-engine rework: any caching or
//! fan-out bug that changes a single ULP fails here.
//!
//! The device-side sketch is held to the same standard: arming its stream
//! must leave a two-tier run, and so its Fig. 6 replay, bit-identical.

use tmprof_bench::harness::{run_workload, RunOptions};
use tmprof_bench::scale::Scale;
use tmprof_core::profiler::{Tmp, TmpConfig};
use tmprof_core::rank::RankSource;
use tmprof_policy::hitrate::{
    hitrate_grid, hitrate_grid_full, hitrate_grid_serial, HitrateCell, ReplayEpoch, ReplayLog,
    PAPER_RATIOS,
};
use tmprof_profilers::devsketch::DevSketchConfig;
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

/// Record 6 epochs of 30,000 Zipf-skewed touches over 512 pages under
/// TMP, with the device stream armed or not; returns the replay log and
/// the machine's cycles. The fast tier holds 64 frames, so most pages
/// live behind the device and the sketch has a stream to watch.
fn record_sketch_run(memory: MemTopology, devsketch: bool) -> (ReplayLog, u64) {
    let mut m = Machine::new(MachineConfig::scaled_topology(2, memory, 256));
    m.add_process(1);
    let mut cfg = TmpConfig::paper_defaults(256);
    cfg.devsketch = devsketch.then(DevSketchConfig::default);
    let mut tmp = Tmp::new(cfg, &mut m);
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
    (log, m.aggregate_counts().cycles)
}

fn sketch_reported(log: &ReplayLog) -> bool {
    log.epochs.iter().any(|e| !e.profile.devsketch.is_empty())
}

#[test]
fn arming_the_devsketch_leaves_a_two_tier_run_bit_identical() {
    let (plain, plain_cycles) = record_sketch_run(MemTopology::with_frames(64, 960), false);
    let (armed, armed_cycles) = record_sketch_run(MemTopology::with_frames(64, 960), true);
    assert!(sketch_reported(&armed), "the armed sketch never reported");
    assert_eq!(plain.epochs.len(), armed.epochs.len());
    for (e, (a, b)) in plain.epochs.iter().zip(&armed.epochs).enumerate() {
        assert_eq!(a.profile.abit, b.profile.abit, "epoch {e}: A-bit profile");
        assert_eq!(a.profile.trace, b.profile.trace, "epoch {e}: trace profile");
        assert_eq!(a.truth_mem, b.truth_mem, "epoch {e}: truth");
    }
    assert_eq!(plain.first_touch_order, armed.first_touch_order);
    assert_eq!(plain_cycles, armed_cycles, "machine cycles");
    assert_bit_identical(
        &hitrate_grid(&plain, &PAPER_RATIOS),
        &hitrate_grid(&armed, &PAPER_RATIOS),
        "devsketch armed",
    );
}

#[test]
fn the_devsketch_reports_on_three_and_four_tier_layouts() {
    let three = vec![TierSpec::dram(64), TierSpec::cxl(480), TierSpec::nvm(480)];
    let four = vec![
        TierSpec::dram(64),
        TierSpec::cxl(320),
        TierSpec::nvm(320),
        TierSpec::nvm(320),
    ];
    for specs in [three, four] {
        let tiers = specs.len();
        let (log, _) = record_sketch_run(MemTopology::from_specs(specs), true);
        assert!(
            sketch_reported(&log),
            "{tiers} tiers: the sketch never reported"
        );
    }
}
