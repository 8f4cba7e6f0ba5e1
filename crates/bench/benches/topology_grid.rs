//! Fig. 6-style hitrate sweep across N-tier topologies, with the
//! device-side sketch ranked alongside the CPU-side profiling sources.
//!
//! Each cell records a skewed workload on a machine with a given tier
//! layout (2-tier DRAM+NVM, 3-tier DRAM+CXL+NVM, 4-tier with a second NVM
//! rank), profiles it with TMP *plus* the devsketch tracker, and replays
//! the recorded run over the paper's capacity ratios and all four ranking
//! sources (`RankSource::ALL_WITH_DEVSKETCH`). The simulation is hoisted
//! out of the timed body; the timed work is the replay grid itself, so
//! `topology_grid/*` cells compare the grid's cost as the source count and
//! topology depth grow.
//!
//! Setup also asserts the tentpole's compatibility contract, untimed:
//! on the default two-tier layout, a run recorded with the device stream
//! armed replays bit-identically to one recorded without it — the sketch
//! is pure observation, so today's Fig. 6 output is unchanged.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use tmprof_core::profiler::{Tmp, TmpConfig};
use tmprof_core::rank::RankSource;
use tmprof_policy::hitrate::{
    hitrate_grid, hitrate_grid_full, ReplayEpoch, ReplayLog, PAPER_RATIOS,
};
use tmprof_profilers::devsketch::DevSketchConfig;
use tmprof_sim::prelude::*;
use tmprof_sim::tier::MemTopology;

/// Epochs recorded per run; enough for History to have a past.
const EPOCHS: u32 = 6;
/// Memory ops per epoch.
const OPS: u64 = 30_000;
/// Pages the workload touches (must exceed every fast tier below).
const FOOTPRINT: u64 = 512;

/// The swept layouts: same total capacity, deeper slow hierarchies. The
/// fast tier holds 1/8 of the footprint, so most pages live behind the
/// device and the sketch has a stream to watch.
fn layouts() -> Vec<(&'static str, MemTopology)> {
    vec![
        (
            "2tier",
            MemTopology::from_specs(vec![TierSpec::dram(64), TierSpec::nvm(960)]),
        ),
        (
            "3tier",
            MemTopology::from_specs(vec![
                TierSpec::dram(64),
                TierSpec::cxl(480),
                TierSpec::nvm(480),
            ]),
        ),
        (
            "4tier",
            MemTopology::from_specs(vec![
                TierSpec::dram(64),
                TierSpec::cxl(320),
                TierSpec::nvm(320),
                TierSpec::nvm(320),
            ]),
        ),
    ]
}

/// Record one run: Zipf-skewed accesses, TMP profiling each epoch, the
/// devsketch armed (or not) over the slow-tier stream.
fn record_run(memory: MemTopology, devsketch: bool) -> ReplayLog {
    let mut m = Machine::new(MachineConfig::scaled_topology(2, memory, 256));
    m.add_process(1);
    let mut cfg = TmpConfig::paper_defaults(256);
    if devsketch {
        cfg.devsketch = Some(DevSketchConfig::default());
    }
    let mut tmp = Tmp::new(cfg, &mut m);
    let mut rng = Rng::new(17);
    let zipf = Zipf::new(FOOTPRINT, 0.9);
    let mut log = ReplayLog::default();
    for _ in 0..EPOCHS {
        for i in 0..OPS {
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

fn bench_topology_grid(c: &mut Criterion) {
    // Compatibility contract (untimed): arming the device stream on the
    // default two-tier layout must not perturb the classic Fig. 6 replay.
    let baseline = record_run(MemTopology::with_frames(64, 960), false);
    let with_sketch = record_run(MemTopology::with_frames(64, 960), true);
    let grid_base = hitrate_grid(&baseline, &PAPER_RATIOS);
    let grid_sketch = hitrate_grid(&with_sketch, &PAPER_RATIOS);
    assert_eq!(grid_base.len(), grid_sketch.len());
    for (a, b) in grid_base.iter().zip(&grid_sketch) {
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.source, b.source);
        assert_eq!(
            a.hitrate.to_bits(),
            b.hitrate.to_bits(),
            "devsketch perturbed the default two-tier grid at {:?}/{:?}/1:{}",
            a.policy,
            a.source,
            a.ratio_denominator
        );
    }

    let mut group = c.benchmark_group("topology_grid");
    group.sample_size(10);
    for (label, memory) in layouts() {
        let log = record_run(memory, true);
        // The sketch saw the slow-tier stream on every layout.
        assert!(
            log.epochs.iter().any(|e| !e.profile.devsketch.is_empty()),
            "{label}: devsketch never reported"
        );
        group.bench_function(format!("{label}_4sources"), |b| {
            b.iter(|| {
                black_box(
                    hitrate_grid_full(&log, &PAPER_RATIOS, &RankSource::ALL_WITH_DEVSKETCH, None)
                        .len(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_topology_grid);
criterion_main!(benches);
