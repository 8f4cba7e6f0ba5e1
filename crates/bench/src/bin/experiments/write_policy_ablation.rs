//! Extension ablation: read-only History vs write-aware placement on an
//! NVM with asymmetric write cost.
//!
//! The paper's policy study is read-oriented; it cites the CLOCK-DWF
//! family \[32\] for write-history-aware placement. This experiment gives
//! tier 2 a strongly asymmetric write penalty (NVM writes are slower and
//! endurance-limited) and compares:
//!
//! * `History` — promotes by read heat (A-bit + IBS samples);
//! * `Write-aware` — same, plus PML dirty-log counts weighted in.
//!
//! Reported per workload: total cycles, tier-2 *store* traffic (the
//! endurance/energy proxy), and the write-aware variant's deltas.

use tmprof_bench::harness::scaled_config;
use tmprof_bench::scale::Scale;
use tmprof_bench::sweep::Sweep;
use tmprof_bench::table::{f, pct, Table};
use tmprof_core::profiler::{Tmp, TmpConfig};
use tmprof_core::rank::RankSource;
use tmprof_policy::mover::PageMover;
use tmprof_policy::policies::{HistoryPolicy, PlacementPolicy};
use tmprof_policy::write_aware::WriteAwarePolicy;
use tmprof_profilers::pml::PmlTracker;
use tmprof_sim::keymap::KeyMap;
use tmprof_sim::machine::{Machine, MachineConfig};
use tmprof_sim::runner::{OpStream, Runner};
use tmprof_sim::tier::{MemTopology, Tier, TierSpec};
use tmprof_sim::tlb::Pid;
use tmprof_workloads::spec::WorkloadKind;

/// Write weight for the write-aware variant.
const WRITE_WEIGHT: u64 = 4;

struct RunResult {
    cycles: u64,
    tier2_store_accesses: u64,
}

fn asymmetric_machine(cores: usize, t1: u64, t2: u64, period: u64) -> Machine {
    Machine::new(MachineConfig::scaled_topology(
        cores,
        MemTopology::new(
            TierSpec::dram(t1),
            // NVM: 3.75x slower reads, 12.5x slower writes (PCM-like).
            TierSpec {
                frames: t2,
                load_latency: 1200,
                store_latency: 4000,
            },
        ),
        period,
    ))
}

fn run_one(kind: WorkloadKind, scale: &Scale, write_aware: bool) -> RunResult {
    let cfg = scaled_config(kind, scale).scaled_footprint(1, 2);
    let total = cfg.total_pages();
    let mut machine = asymmetric_machine(scale.cores, total / 8, total * 2, scale.dense_period);
    let mut gens = cfg.spawn();
    let pids: Vec<Pid> = (1..=gens.len() as Pid).collect();
    for &pid in &pids {
        machine.add_process(pid);
    }
    let mut tmp = Tmp::new(TmpConfig::paper_defaults(scale.dense_period), &mut machine);
    let mut pml = PmlTracker::new(&mut machine);
    let mut history = HistoryPolicy::new(RankSource::Combined);
    let mut wa = WriteAwarePolicy::new(RankSource::Combined, WRITE_WEIGHT);
    let mut mover = PageMover::default();
    let capacity = machine.memory().spec(Tier::Tier1).frames as usize;

    let mut tier2_stores = 0u64;
    for _ in 0..scale.epochs {
        let before = machine.aggregate_counts();
        {
            let streams: Vec<(Pid, &mut dyn OpStream)> = gens
                .iter_mut()
                .enumerate()
                .map(|(i, g)| (pids[i], &mut **g as &mut dyn OpStream))
                .collect();
            Runner::new(streams).run(&mut machine, scale.ops_per_epoch / 2);
        }
        let delta = machine.aggregate_counts().delta_since(&before);
        // NVM writes = demand stores served by tier 2 + dirty writebacks
        // landing in tier 2.
        tier2_stores += delta.tier2_stores + delta.tier2_writebacks;

        // Fold the PML log into logical-page write counts before the
        // profiler's epoch reset clears descriptor owners' epoch stats.
        pml.drain(&mut machine);
        let mut write_counts: KeyMap<u64, u64> = KeyMap::default();
        for (pfn, count) in pml.ranked_dirty_frames() {
            if let Some(owner) = machine.descs().get(pfn).owner {
                *write_counts.entry(owner.pack()).or_insert(0) += count;
            }
        }

        let report = tmp.end_epoch(&mut machine);
        let placement = if write_aware {
            wa.set_write_counts(write_counts);
            wa.select(&report.profile, capacity)
        } else {
            history.select(&report.profile, capacity)
        };
        mover.apply(&mut machine, &placement);
    }
    RunResult {
        cycles: machine.aggregate_counts().cycles,
        tier2_store_accesses: tier2_stores,
    }
}

pub fn run(shared: &crate::Shared) {
    // Write-heavy subset: RMW / SET / aggregation traffic.
    let workloads = [
        WorkloadKind::Gups,
        WorkloadKind::DataCaching,
        WorkloadKind::DataAnalytics,
        WorkloadKind::Lulesh,
    ];

    let sweep = Sweep::over(workloads.to_vec()).run(|&kind, _| {
        let h = run_one(kind, &shared.scale, false);
        let w = run_one(kind, &shared.scale, true);
        (h, w)
    });
    sweep.log_summary("write_policy_ablation");

    let mut table = Table::new(vec![
        "Workload",
        "History cycles (M)",
        "WA cycles (M)",
        "speedup",
        "History NVM writes",
        "WA NVM writes",
        "NVM-write delta",
    ]);
    for (kind, _, (h, w)) in sweep.successes() {
        let speedup = h.cycles as f64 / w.cycles as f64;
        let store_delta = if h.tier2_store_accesses > 0 {
            w.tier2_store_accesses as f64 / h.tier2_store_accesses as f64 - 1.0
        } else {
            0.0
        };
        table.row(vec![
            kind.name().to_string(),
            (h.cycles / 1_000_000).to_string(),
            (w.cycles / 1_000_000).to_string(),
            format!("{}x", f(speedup, 3)),
            h.tier2_store_accesses.to_string(),
            w.tier2_store_accesses.to_string(),
            pct(store_delta),
        ]);
    }
    println!(
        "Write-aware placement ablation (tier-2 stores cost 12.5x tier-1; \
         write weight {WRITE_WEIGHT})\n"
    );
    print!("{}", table.render());
    println!(
        "\nNegative NVM-write delta = the write-aware policy kept more of the \
         write-hot set in DRAM (CLOCK-DWF's goal, ref 32)."
    );
    let path = table.write_csv("write_policy_ablation");
    println!("\nCSV written to {}", path.display());
}
