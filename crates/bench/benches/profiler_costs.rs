//! Profiler-cost microbenchmarks: what the paper's Table I trade-offs cost
//! in this implementation — A-bit scan cost versus resident-set size and
//! budget, trace-drain cost versus sampling rate, HWPC gate cost.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use tmprof_core::gating::{Gating, GatingConfig};
use tmprof_profilers::abit::{ABitConfig, ABitScanner};
use tmprof_profilers::trace::{TraceConfig, TraceProfiler};
use tmprof_sim::prelude::*;

fn touched_machine(pages: u64) -> Machine {
    let mut m = Machine::new(MachineConfig::scaled(2, pages * 2, 0, 1 << 20));
    m.add_process(1);
    for i in 0..pages {
        m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
    }
    m
}

/// A-bit scan cost grows with the resident set (Table I's disadvantage).
fn bench_abit_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("abit_scan");
    for pages in [1024u64, 8192, 65536] {
        group.bench_with_input(BenchmarkId::new("unbounded", pages), &pages, |b, &pages| {
            let mut m = touched_machine(pages);
            let mut sc = ABitScanner::new(ABitConfig::unbounded());
            b.iter(|| {
                sc.scan_process(&mut m, 1);
                black_box(sc.stats().ptes_visited)
            });
        });
    }
    // The restrictive mode caps the cost regardless of footprint.
    for pages in [8192u64, 65536] {
        group.bench_with_input(
            BenchmarkId::new("budget_2048", pages),
            &pages,
            |b, &pages| {
                let mut m = touched_machine(pages);
                let mut sc = ABitScanner::new(ABitConfig::restrictive(2048));
                b.iter(|| {
                    sc.scan_process(&mut m, 1);
                    black_box(sc.stats().ptes_visited)
                });
            },
        );
    }
    group.finish();
}

/// Trace collection cost per op at different sampling rates.
fn bench_trace_rates(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_poll");
    group.sample_size(20);
    for rate in [1u64, 4, 8] {
        group.bench_with_input(BenchmarkId::new("rate", rate), &rate, |b, &rate| {
            b.iter_batched(
                || {
                    let mut m = Machine::new(MachineConfig::scaled(1, 4096, 0, 1 << 20));
                    m.add_process(1);
                    let prof = TraceProfiler::new(TraceConfig::ibs(1024).at_rate(rate), &mut m);
                    (m, prof)
                },
                |(mut m, mut prof)| {
                    let mut rng = Rng::new(3);
                    for _ in 0..20_000 {
                        let va = VirtAddr(rng.below(2048) * PAGE_SIZE);
                        m.exec_op(
                            0,
                            1,
                            WorkOp::Mem {
                                va,
                                store: false,
                                site: 0,
                            },
                        );
                    }
                    prof.poll(&mut m);
                    black_box(prof.stats().counted_samples)
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// One gate evaluation reads the counters and is nearly free — why TMP can
/// keep the gate running while the profilers it switches are off.
fn bench_gating(c: &mut Criterion) {
    c.bench_function("gating_evaluate", |b| {
        let mut m = Machine::new(MachineConfig::scaled(2, 1024, 0, 1 << 20));
        m.add_process(1);
        m.touch(0, 1, VirtAddr(0x1000));
        let mut gate = Gating::new(GatingConfig::default(), &m);
        b.iter(|| black_box(gate.evaluate(&m)));
    });
}

criterion_group!(benches, bench_abit_scan, bench_trace_rates, bench_gating);
criterion_main!(benches);
