//! §III-B-4 ablations: the four design choices behind TMP's low overhead,
//! each run with the choice on and off.
//!
//! 1. clearing A bits without vs with TLB shootdowns,
//! 2. HWPC gating on vs off across one busy epoch and three idle ones,
//! 3. unbounded vs budgeted ("restrictive mode") A-bit scans, at two
//!    footprints,
//! 4. process filtering on vs off with seven idle processes.
//!
//! Every number is simulated — cycles charged to profiling, PTEs visited,
//! A bits found set — so the table repeats exactly. The scenarios have
//! fixed sizes (~0.1 s together) and do not follow `TMPROF_SCALE`.

use tmprof_bench::table::Table;
use tmprof_core::daemon::{FilterConfig, ProcessFilter};
use tmprof_core::gating::GatingConfig;
use tmprof_core::profiler::{Tmp, TmpConfig};
use tmprof_profilers::abit::{ABitConfig, ABitScanner, ABitStats};
use tmprof_sim::prelude::*;

/// `procs` processes, each having touched `pages` pages once; every page
/// fits in the fast tier.
fn working_machine(pages: u64, procs: u32) -> Machine {
    let frames = pages * 2 * procs as u64;
    let mut m = Machine::new(MachineConfig::scaled(2, frames, 0, 1 << 20));
    for pid in 1..=procs {
        m.add_process(pid);
        for i in 0..pages {
            m.touch(0, pid, VirtAddr(i * PAGE_SIZE));
        }
    }
    m
}

/// The profiling cycles `body` charges to `m`.
fn charged(m: &mut Machine, body: impl FnOnce(&mut Machine)) -> u64 {
    let before = m.aggregate_counts().profiling_cycles;
    body(m);
    m.aggregate_counts().profiling_cycles - before
}

/// Ablation 1: four intervals, each re-touching 4,096 pages and scanning.
fn shootdown(shootdown: bool) -> (ABitStats, u64) {
    let mut m = working_machine(4096, 1);
    let mut sc = ABitScanner::new(ABitConfig {
        shootdown,
        ..ABitConfig::unbounded()
    });
    let cycles = charged(&mut m, |m| {
        for _ in 0..4 {
            for i in 0..4096 {
                m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
            }
            sc.scan_process(m, 1);
        }
    });
    (sc.stats(), cycles)
}

/// Ablation 2: TMP over one epoch of memory pressure (which sets the
/// gate's maxima), then three cache-resident epochs; the profiling cycles
/// of each epoch.
fn gating(always_on: bool) -> (ABitStats, [u64; 4]) {
    let mut m = Machine::new(MachineConfig::scaled(2, 8192, 0, 512));
    m.add_process(1);
    let mut cfg = TmpConfig::paper_defaults(512);
    cfg.gating = GatingConfig {
        always_on,
        ..GatingConfig::default()
    };
    let mut tmp = Tmp::new(cfg, &mut m);
    let epochs = [0, 1, 2, 3].map(|e| {
        charged(&mut m, |m| {
            for i in 0..30_000 {
                let page = if e == 0 { i % 4096 } else { 1 };
                m.touch(0, 1, VirtAddr(page * PAGE_SIZE));
            }
            tmp.end_epoch(m);
        })
    });
    (tmp.abit_stats(), epochs)
}

/// Ablation 3: one scan over a `pages`-page footprint.
fn budget(abit: ABitConfig, pages: u64) -> (ABitStats, u64) {
    let mut m = working_machine(pages, 1);
    let mut sc = ABitScanner::new(abit);
    let cycles = charged(&mut m, |m| sc.scan_process(m, 1));
    (sc.stats(), cycles)
}

/// Ablation 4: eight processes, of which only pid 1 runs after the
/// filter's baseline interval; scan the pids the filter passes, or all.
fn filter(on: bool) -> (ABitStats, u64) {
    let mut m = working_machine(2048, 8);
    let mut filter = ProcessFilter::new(FilterConfig {
        min_mem_share: 1.1, // memory-share test off: isolate the CPU filter
        ..FilterConfig::default()
    });
    let _ = filter.tracked_pids(&m);
    for i in 0..20_000 {
        m.touch(0, 1, VirtAddr((i % 2048) * PAGE_SIZE));
    }
    let pids: Vec<_> = if on {
        filter.tracked_pids(&m)
    } else {
        m.pids().collect()
    };
    let mut sc = ABitScanner::new(ABitConfig::unbounded());
    let cycles = charged(&mut m, |m| sc.scan(m, &pids));
    (sc.stats(), cycles)
}

pub fn run(_shared: &crate::Shared) {
    let mut table = Table::new(vec![
        "Ablation",
        "configuration",
        "processes",
        "pages per process",
        "process scans",
        "PTEs visited",
        "A-bit observations",
        "shootdown batches",
        "profiling cycles",
        "busy epoch cycles",
        "idle epoch 1 cycles",
        "idle epoch 2 cycles",
        "idle epoch 3 cycles",
    ]);
    let mut row = |ablation: &str,
                   config: &str,
                   (procs, pages): (u32, u64),
                   s: ABitStats,
                   cycles: u64,
                   epochs: Option<[u64; 4]>| {
        let mut cells = vec![ablation.to_string(), config.to_string()];
        let (scans, ptes, obs) = (s.scans, s.ptes_visited, s.observations);
        let counts = [procs.into(), pages, scans, ptes, obs, s.shootdowns, cycles];
        cells.extend(counts.map(|n: u64| n.to_string()));
        match epochs {
            Some(e) => cells.extend(e.map(|c| c.to_string())),
            None => cells.extend(["-"; 4].map(String::from)),
        }
        table.row(cells);
    };
    for (config, on) in [("off (paper default)", false), ("on", true)] {
        let (stats, cycles) = shootdown(on);
        row("shootdown", config, (1, 4096), stats, cycles, None);
    }
    for (config, always_on) in [
        ("on (paper default)", false),
        ("off (always profiling)", true),
    ] {
        let (stats, epochs) = gating(always_on);
        let cycles = epochs.iter().sum();
        row("gating", config, (1, 4096), stats, cycles, Some(epochs));
    }
    for pages in [4096, 65536] {
        for (config, abit) in [
            ("unbounded", ABitConfig::unbounded()),
            ("restrictive(4096)", ABitConfig::restrictive(4096)),
        ] {
            let (stats, cycles) = budget(abit, pages);
            row("scan budget", config, (1, pages), stats, cycles, None);
        }
    }
    for (config, on) in [
        ("on (paper default)", true),
        ("off (scan every pid)", false),
    ] {
        let (stats, cycles) = filter(on);
        row("process filter", config, (8, 2048), stats, cycles, None);
    }

    println!("§III-B-4 ablations — simulated profiling cost per design choice\n");
    print!("{}", table.render());
    println!(
        "\nShootdowns add IPIs to every scan that clears a bit; gating stops \
         profiling one epoch after the memory subsystem goes idle; a \
         restrictive budget caps the PTEs a scan visits whatever the \
         footprint; filtering scans only the busy process."
    );
    let path = table.write_csv("ablations");
    println!("\nCSV written to {}", path.display());
}
