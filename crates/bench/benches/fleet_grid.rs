//! Fleet-scale sweep: tenant count × worker count over the worker pool.
//!
//! Each cell builds a churning tenant population
//! (`tmprof_workloads::fleet::FleetScenario`) and runs every tenant's
//! epoch chain through `FleetRunner` at a given worker count, one pool
//! item per tenant shard. Two numbers come out of every cell:
//!
//! * the criterion wall-clock timing of the whole fleet run (setup —
//!   spawning tenant machines and streams — is untimed via
//!   `iter_batched`), and
//! * an untimed report of the schedule's *simulated-cycle* accounting:
//!   total unit cost, per-epoch critical path (makespan: chain costs
//!   assigned in shard order to the least-loaded worker), and the
//!   resulting schedule speedup (`total / makespan`). Both depend only
//!   on the simulated work, so they repeat exactly from run to run; the
//!   wall-clock columns show what the host's cores actually deliver
//!   (on a single-core host, pool overhead rather than parallelism).
//!
//! That 2–8 workers decide exactly what one worker decides is checked by
//! the tier-1 test `policy/tests/fleet_identity.rs`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use tmprof_policy::fleet::{FleetConfig, FleetRunner, FleetTenant};
use tmprof_workloads::fleet::FleetScenario;

/// Fleet epochs per run: enough for churn (spawns/exits) to matter.
const EPOCHS: u32 = 2;
/// Churn-population seed shared by every cell.
const SEED: u64 = 0xF1EE7;
/// Scan-unit carve budget: each pid's A-bit walk splits into resumable
/// pieces of at most this many PTEs.
const SCAN_UNIT_PTES: u64 = 256;

/// The sweep: tenant count × per-tenant ops per active epoch. Ops shrink
/// as the population grows so every cell stays benchable; within a cell
/// the work is identical across worker counts, which is what the
/// cross-worker comparison needs.
const CELLS: &[(usize, u64)] = &[(10, 20_000), (100, 5_000), (1_000, 1_000), (10_000, 500)];

/// Worker counts swept per cell (1 = every shard on the calling thread).
const WORKERS: &[usize] = &[1, 2, 4, 8];

fn build(n: usize, ops: u64, workers: usize) -> FleetRunner {
    let cfg = FleetConfig {
        epochs: EPOCHS,
        scan_unit_pte_budget: Some(SCAN_UNIT_PTES),
        ..FleetConfig::default()
    }
    .with_workers(workers);
    let tenants: Vec<FleetTenant> = FleetScenario::churn(n, EPOCHS, SEED)
        .tenants
        .iter()
        .map(|plan| FleetTenant {
            stream: plan.spawn_stream(),
            ops: plan.ops_plan(EPOCHS, ops),
        })
        .collect();
    FleetRunner::new(cfg, tenants)
}

fn bench_fleet_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_grid");
    for &(n, ops) in CELLS {
        // The 10 000-tenant cell is tens of seconds per run (and ~10 000
        // machines resident at once); two samples bound the sweep's
        // wall-clock without losing the cross-worker comparison.
        group.sample_size(if n >= 10_000 { 2 } else { 10 });
        for &w in WORKERS {
            // Untimed: the schedule's simulated-cycle accounting for this
            // cell — the throughput numbers EXPERIMENTS.md reports.
            let report = build(n, ops, w).run();
            let moved: u64 = report
                .shards
                .iter()
                .flatten()
                .map(|e| e.moves.promoted + e.moves.demoted)
                .sum();
            println!(
                "fleet_grid {n}x{w}w: units={} moved={} total_cycles={} makespan={} sched_speedup={:.2}",
                report.units_executed(),
                moved,
                report.total_cost(),
                report.makespan(),
                report.schedule_speedup(),
            );
            group.bench_function(format!("{n}tenants_{w}workers"), |b| {
                b.iter_batched(
                    || build(n, ops, w),
                    |runner| runner.run(),
                    BatchSize::PerIteration,
                )
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fleet_grid);
criterion_main!(benches);
