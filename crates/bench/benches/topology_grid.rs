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
//! That arming the sketch leaves the two-tier replay bit-identical, and
//! that the sketch reports on every deeper layout, are tier-1 tests
//! (`tests/integration_replay_identity.rs`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use tmprof_core::profiler::{Tmp, TmpConfig};
use tmprof_core::rank::RankSource;
use tmprof_policy::hitrate::{hitrate_grid_full, ReplayEpoch, ReplayLog, PAPER_RATIOS};
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
/// devsketch armed over the slow-tier stream.
fn record_run(memory: MemTopology) -> ReplayLog {
    let mut m = Machine::new(MachineConfig::scaled_topology(2, memory, 256));
    m.add_process(1);
    let mut cfg = TmpConfig::paper_defaults(256);
    cfg.devsketch = Some(DevSketchConfig::default());
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
    let mut group = c.benchmark_group("topology_grid");
    group.sample_size(10);
    for (label, memory) in layouts() {
        let log = record_run(memory);
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
