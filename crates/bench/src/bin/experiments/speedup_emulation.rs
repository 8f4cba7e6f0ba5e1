//! §VI-C — end-to-end speedup on the NVM-emulation testbed.
//!
//! For every workload: run the first-come-first-allocate baseline and the
//! TMP + History placement on the emulated tiered machine (fast : slow
//! capacity 1 : 15, the paper's 4 GB : 60 GB, with the paper's latency
//! constants) and report the speedup. Paper result: 1.04x average, 1.13x
//! best case.

use tmprof_bench::harness::scaled_config;
use tmprof_bench::scale::Scale;
use tmprof_bench::sweep::Sweep;
use tmprof_bench::table::{f, pct, Table};
use tmprof_core::profiler::TmpConfig;
use tmprof_emul::emulator::EmulConfig;
use tmprof_emul::experiment::{emulation_machine, run_emulated, speedup, EmulPolicy};
use tmprof_sim::runner::OpStream;
use tmprof_sim::tlb::Pid;
use tmprof_workloads::spec::WorkloadKind;

fn one_run(kind: WorkloadKind, scale: &Scale, policy: EmulPolicy) -> tmprof_emul::EmulRunResult {
    let cfg = scaled_config(kind, scale);
    // Fast : slow = 1 : 15 (4 GB : 60 GB). Slow sized to hold the whole
    // footprint with slack, mirroring the paper's memory-rich slow tier.
    let total = cfg.total_pages();
    let t2 = (total * 3 / 2).max(512);
    let t1 = (t2 / 15).max(64);
    let mut machine = emulation_machine(scale.cores, t1, t2, scale.base_period / 4);
    let mut gens = cfg.spawn();
    let pids: Vec<Pid> = (1..=gens.len() as Pid).collect();
    for &pid in &pids {
        machine.add_process(pid);
    }
    let mut streams: Vec<(Pid, &mut dyn OpStream)> = gens
        .iter_mut()
        .enumerate()
        .map(|(i, g)| (pids[i], &mut **g as &mut dyn OpStream))
        .collect();
    run_emulated(
        &mut machine,
        &mut streams,
        policy,
        EmulConfig::default(),
        TmpConfig::paper_defaults(scale.base_period),
        scale.epochs,
        scale.ops_per_epoch,
    )
}

pub fn run(shared: &crate::Shared) {
    let sweep = Sweep::over(WorkloadKind::ALL.to_vec()).run(|&kind, _| {
        let base = one_run(kind, &shared.scale, EmulPolicy::FirstTouch);
        let opt = one_run(kind, &shared.scale, EmulPolicy::TmpHistory);
        (base, opt)
    });
    sweep.log_summary("speedup_emulation");

    let mut table = Table::new(vec![
        "Workload",
        "baseline hitrate",
        "TMP hitrate",
        "baseline slow faults",
        "TMP slow faults",
        "migrations",
        "speedup",
    ]);
    let mut speedups = Vec::new();
    for (kind, _, (base, opt)) in sweep.successes() {
        let s = speedup(base, opt);
        speedups.push(s);
        table.row(vec![
            kind.name().to_string(),
            pct(base.tier1_hitrate),
            pct(opt.tier1_hitrate),
            base.slow_faults.to_string(),
            opt.slow_faults.to_string(),
            opt.migrations.to_string(),
            format!("{}x", f(s, 3)),
        ]);
    }
    println!("§VI-C — end-to-end speedup, TMP+History vs first-touch baseline");
    println!("(fast:slow = 1:15; 50 µs migration, 10 µs slow fault, +13 µs hot)\n");
    print!("{}", table.render());

    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let best = speedups.iter().cloned().fold(f64::MIN, f64::max);
    println!("\nAverage speedup: {}x (paper: 1.04x)", f(avg, 3));
    println!("Best speedup:    {}x (paper: 1.13x)", f(best, 3));

    let path = table.write_csv("speedup_emulation");
    println!("\nCSV written to {}", path.display());
}
