//! Epoch-length sensitivity (ablation of §IV's "epoch of 1 second").
//!
//! The paper fixes a 1-second epoch and motivates epoch-granular movement
//! with shootdown batching and migration-cost amortization. This ablation
//! sweeps the epoch length (in ops) for the live History policy and
//! reports steady-state tier-1 hitrate and migration traffic per epoch
//! length: too-short epochs chase noise (migration churn, sparse
//! profiles), too-long epochs react late to phase changes.

use tmprof_bench::harness::scaled_config;
use tmprof_bench::scale::Scale;
use tmprof_bench::sweep::Sweep;
use tmprof_bench::table::{pct, Table};
use tmprof_core::profiler::{Tmp, TmpConfig};
use tmprof_core::rank::RankSource;
use tmprof_policy::epoch::EpochRunner;
use tmprof_policy::mover::PageMover;
use tmprof_policy::policies::HistoryPolicy;
use tmprof_sim::machine::{Machine, MachineConfig};
use tmprof_sim::runner::OpStream;
use tmprof_sim::tlb::Pid;
use tmprof_workloads::spec::WorkloadKind;

/// Epoch lengths in ops per stream, shortest to longest: the scale's
/// epoch × {1/16, 1/4, 1, 4} (2^15 … 2^21 at default scale).
fn epoch_lengths(scale: &Scale) -> [u64; 4] {
    let e = scale.ops_per_epoch;
    [e / 16, e / 4, e, e * 4]
}

struct Cell {
    hitrate: f64,
    promoted_per_mop: f64,
}

fn run_one(kind: WorkloadKind, scale: &Scale, epoch_ops: u64) -> Cell {
    let cfg = scaled_config(kind, scale).scaled_footprint(1, 2);
    let total = cfg.total_pages();
    let mut machine = Machine::new(MachineConfig::scaled(
        scale.cores,
        total / 8,
        total * 2,
        scale.dense_period,
    ));
    let mut gens = cfg.spawn();
    let pids: Vec<Pid> = (1..=gens.len() as Pid).collect();
    for &pid in &pids {
        machine.add_process(pid);
    }
    let mut tmp = Tmp::new(TmpConfig::paper_defaults(scale.dense_period), &mut machine);
    let mut policy = HistoryPolicy::new(RankSource::Combined);
    let mut runner = EpochRunner::with_machine_capacity(&machine, PageMover::default());
    // Every length shares one op budget per stream, so runs are
    // comparable; at least 2 epochs, so a steady state exists.
    let budget = scale.epochs as u64 * scale.ops_per_epoch;
    let epochs = (budget / epoch_ops).max(2) as u32;
    for _ in 0..epochs {
        let mut streams: Vec<(Pid, &mut dyn OpStream)> = gens
            .iter_mut()
            .enumerate()
            .map(|(i, g)| (pids[i], &mut **g as &mut dyn OpStream))
            .collect();
        runner.run_epoch(&mut machine, &mut tmp, &mut policy, &mut streams, epoch_ops);
    }
    let promoted: u64 = runner.metrics().iter().map(|m| m.moves.promoted).sum();
    // The ops this cell ran: past the budget when 2 epochs overshoot it.
    let ran = epochs as u64 * epoch_ops * pids.len() as u64;
    Cell {
        hitrate: runner.steady_state_hitrate(),
        promoted_per_mop: promoted as f64 / (ran as f64 / 1e6),
    }
}

pub fn run(shared: &crate::Shared) {
    // Phase-heavy + stable workloads for contrast.
    let workloads = [
        WorkloadKind::DataCaching,    // stable Zipf heat
        WorkloadKind::Graph500,       // pulsing BFS frontiers
        WorkloadKind::GraphAnalytics, // buffer-swapping supersteps
        WorkloadKind::WebServing,     // stable hot set
    ];

    let lengths = epoch_lengths(&shared.scale);
    let cells = Sweep::grid(workloads.to_vec(), lengths.to_vec())
        .run(|&kind, &len| run_one(kind, &shared.scale, len));
    cells.log_summary("epoch_sensitivity");

    let mut table = Table::new(vec![
        "Workload",
        "epoch (ops)",
        "steady hitrate",
        "promotions / Mop",
    ]);
    for kind in workloads {
        for len in lengths {
            let cell = cells.value(&kind, &len);
            table.row(vec![
                kind.name().to_string(),
                format!("2^{}", len.trailing_zeros()),
                pct(cell.hitrate),
                format!("{:.1}", cell.promoted_per_mop),
            ]);
        }
    }
    println!("Epoch-length sensitivity, History policy over TMP data\n");
    print!("{}", table.render());
    println!(
        "\nShort epochs track phase changes (Graph500's pulsing frontiers) \
         but pay one to two orders of magnitude more migration traffic per \
         useful op; long epochs are cheap but stale. The paper's 1-second \
         epoch is a point on this responsiveness/churn trade-off (§IV)."
    );
    let path = table.write_csv("epoch_sensitivity");
    println!("\nCSV written to {}", path.display());
}
