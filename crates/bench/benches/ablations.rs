//! Ablation benches for the design choices §III-B-4 calls out:
//!
//! 1. clearing A bits **without** vs **with** TLB shootdowns,
//! 2. HWPC gating on vs off across an active/idle phase mix,
//! 3. unbounded vs budgeted ("restrictive mode") A-bit scans,
//! 4. process filtering on vs off with many idle processes.
//!
//! Each ablation measures whole-pipeline simulated *cycles charged to
//! profiling*, not wall-clock alone — the quantity the paper's overhead
//! claims are about — by running the configuration to completion inside
//! the iteration.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use tmprof_core::daemon::{FilterConfig, ProcessFilter};
use tmprof_profilers::abit::{ABitConfig, ABitScanner};
use tmprof_sim::prelude::*;

fn working_machine(pages: u64, procs: u32) -> Machine {
    let mut m = Machine::new(MachineConfig::scaled(
        2,
        pages * 2 * procs as u64,
        0,
        1 << 20,
    ));
    for pid in 1..=procs {
        m.add_process(pid);
        for i in 0..pages {
            m.touch(0, pid, VirtAddr(i * PAGE_SIZE));
        }
    }
    m
}

/// Ablation 1: shootdown-free A-bit clearing (the paper's optimization 3).
fn ablation_shootdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_shootdown");
    group.sample_size(20);
    for (label, cfg) in [
        ("off_paper_default", ABitConfig::unbounded()),
        (
            "on",
            ABitConfig {
                shootdown: true,
                ..ABitConfig::unbounded()
            },
        ),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || working_machine(4096, 1),
                |mut m| {
                    let mut sc = ABitScanner::new(cfg);
                    for _ in 0..4 {
                        // Re-touch so bits are set again (shootdown mode
                        // forces walks; the free variant sees stale bits).
                        for i in 0..4096u64 {
                            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
                        }
                        sc.scan_process(&mut m, 1);
                    }
                    black_box(m.aggregate_counts().profiling_cycles)
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Ablation 3: unbounded vs restrictive scans over a huge footprint.
fn ablation_budget(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_scan_budget");
    group.sample_size(20);
    for (label, cfg) in [
        ("unbounded", ABitConfig::unbounded()),
        ("restrictive_4096", ABitConfig::restrictive(4096)),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || working_machine(65536, 1),
                |mut m| {
                    let mut sc = ABitScanner::new(cfg);
                    sc.scan_process(&mut m, 1);
                    black_box(sc.stats().overhead_cycles)
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Ablation 4: scanning every PID vs only filter-passing PIDs.
fn ablation_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_process_filter");
    group.sample_size(20);
    // 8 processes, only one of which is busy after warm-up.
    let setup = || {
        let mut m = working_machine(2048, 8);
        let mut filter = ProcessFilter::new(FilterConfig {
            min_mem_share: 1.1, // memory share test off: isolate CPU filter
            ..FilterConfig::default()
        });
        let _ = filter.tracked_pids(&m); // baseline interval
        for i in 0..20_000u64 {
            m.exec_op(
                0,
                1,
                WorkOp::Mem {
                    va: VirtAddr((i % 2048) * PAGE_SIZE),
                    store: false,
                    site: 0,
                },
            );
        }
        (m, filter)
    };
    group.bench_function("filter_on", |b| {
        b.iter_batched(
            setup,
            |(mut m, mut filter)| {
                let pids = filter.tracked_pids(&m);
                let mut sc = ABitScanner::new(ABitConfig::unbounded());
                sc.scan(&mut m, &pids);
                black_box((pids.len(), sc.stats().ptes_visited))
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("filter_off_scan_all", |b| {
        b.iter_batched(
            setup,
            |(mut m, _filter)| {
                let pids: Vec<_> = m.pids().collect();
                let mut sc = ABitScanner::new(ABitConfig::unbounded());
                sc.scan(&mut m, &pids);
                black_box(sc.stats().ptes_visited)
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// Ablation 2: HWPC gating across an active/idle phase mix.
fn ablation_gating(c: &mut Criterion) {
    use tmprof_core::gating::GatingConfig;
    use tmprof_core::profiler::{Tmp, TmpConfig};

    let mut group = c.benchmark_group("ablation_gating");
    group.sample_size(20);
    for (label, always_on) in [("on_paper_default", false), ("off_always_profiling", true)] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let mut m = Machine::new(MachineConfig::scaled(2, 8192, 0, 512));
                    m.add_process(1);
                    let mut cfg = TmpConfig::paper_defaults(512);
                    cfg.gating = GatingConfig {
                        always_on,
                        ..GatingConfig::default()
                    };
                    let tmp = Tmp::new(cfg, &mut m);
                    (m, tmp)
                },
                |(mut m, mut tmp)| {
                    // Epoch 0: memory pressure (establishes maxima).
                    for i in 0..30_000u64 {
                        m.exec_op(
                            0,
                            1,
                            WorkOp::Mem {
                                va: VirtAddr((i % 4096) * PAGE_SIZE),
                                store: false,
                                site: 0,
                            },
                        );
                    }
                    tmp.end_epoch(&mut m);
                    // Epochs 1-3: cache-resident (idle memory subsystem).
                    for _ in 0..3 {
                        for _ in 0..30_000u64 {
                            m.touch(0, 1, VirtAddr(0x1000));
                        }
                        tmp.end_epoch(&mut m);
                    }
                    black_box(m.aggregate_counts().profiling_cycles)
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablation_shootdown,
    ablation_gating,
    ablation_budget,
    ablation_filter
);
criterion_main!(benches);
