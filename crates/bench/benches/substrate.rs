//! Microbenchmarks of the machine substrate: the raw cost of the
//! structures everything else is built on (page-table ops, TLB probes,
//! cache probes, full op execution).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use tmprof_sim::prelude::*;
use tmprof_sim::tlb::TlbLevel;

fn bench_pagetable(c: &mut Criterion) {
    let mut group = c.benchmark_group("pagetable");
    group.bench_function("map_1000", |b| {
        b.iter_batched(
            PageTable::new,
            |mut pt| {
                for v in 0..1000u64 {
                    pt.map(Vpn(v * 7), Pte::new(Pfn(v), true));
                }
                pt
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("get_hit", |b| {
        let mut pt = PageTable::new();
        for v in 0..4096u64 {
            pt.map(Vpn(v), Pte::new(Pfn(v), true));
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            black_box(pt.get(Vpn(i)))
        });
    });
    for pages in [1024u64, 16384, 262144] {
        group.bench_with_input(BenchmarkId::new("full_walk", pages), &pages, |b, &pages| {
            let mut pt = PageTable::new();
            for v in 0..pages {
                pt.map(Vpn(v), Pte::new(Pfn(v), true));
            }
            b.iter(|| {
                let mut n = 0u64;
                pt.walk_present(|_, _| n += 1);
                black_box(n)
            });
        });
    }
    group.finish();
}

/// The machine's TLB: a 16-entry DTLB over a 32-set x 16-way STLB.
fn machine_tlb() -> Tlb {
    Tlb::new(TlbLevel::new(1, 16), TlbLevel::new(32, 16))
}

fn bench_tlb(c: &mut Criterion) {
    let mut group = c.benchmark_group("tlb");
    group.bench_function("hit", |b| {
        let mut tlb = machine_tlb();
        tlb.fill(tmprof_sim::tlb::TlbEntry {
            pid: 1,
            vpn: Vpn(5),
            pfn: Pfn(5),
            writable: true,
            dirty: false,
            huge: false,
        });
        b.iter(|| black_box(tlb.access(1, Vpn(5), false).is_some()));
    });
    group.bench_function("miss_fill_cycle", |b| {
        let mut tlb = machine_tlb();
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            if tlb.access(1, Vpn(v % 10_000), false).is_none() {
                tlb.fill(tmprof_sim::tlb::TlbEntry {
                    pid: 1,
                    vpn: Vpn(v % 10_000),
                    pfn: Pfn(v),
                    writable: true,
                    dirty: false,
                    huge: false,
                });
            }
        });
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.bench_function("llc_probe_fill", |b| {
        let mut llc = Cache::new("LLC", 2 << 20, 16);
        let mut line = 0u64;
        b.iter(|| {
            line += 97;
            if !llc.probe(line % 100_000, false) {
                llc.fill(line % 100_000, false);
            }
        });
    });
    group.finish();
}

fn bench_exec(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_exec");
    group.bench_function("hot_loop_op", |b| {
        let mut m = Machine::new(MachineConfig::scaled(1, 1024, 0, 1 << 20));
        m.add_process(1);
        m.touch(0, 1, VirtAddr(0x1000));
        b.iter(|| {
            black_box(m.exec_op(
                0,
                1,
                WorkOp::Mem {
                    va: VirtAddr(0x1000),
                    store: false,
                    site: 0,
                },
            ))
        });
    });
    group.bench_function("random_op_with_misses", |b| {
        let mut m = Machine::new(MachineConfig::scaled(1, 1 << 15, 0, 1 << 20));
        m.add_process(1);
        let mut rng = Rng::new(1);
        b.iter(|| {
            let va = VirtAddr(rng.below(1 << 14) * PAGE_SIZE);
            black_box(m.exec_op(
                0,
                1,
                WorkOp::Mem {
                    va,
                    store: false,
                    site: 0,
                },
            ))
        });
    });
    // A full runner quantum (DEFAULT_BATCH ops) over a TLB-resident hot
    // set with occasional cold pages, stores and computes — the op mix the
    // batched pipeline is built for. `quantum_op_loop` feeds it op by op
    // through `exec_op`; `quantum_batch` hands the whole slice to
    // `exec_batch`, which runs the same per-op code with the process
    // lookup hoisted.
    // Reported time is per quantum; divide by DEFAULT_BATCH for per-op cost.
    let ops = quantum_ops(DEFAULT_BATCH as usize);
    group.bench_function("quantum_op_loop", |b| {
        let mut m = quantum_machine(&ops);
        b.iter(|| {
            for &op in &ops {
                m.exec_op(0, 1, op);
            }
            black_box(m.epoch())
        });
    });
    group.bench_function("quantum_batch", |b| {
        let mut m = quantum_machine(&ops);
        b.iter(|| {
            m.exec_batch(0, 1, &ops);
            black_box(m.epoch())
        });
    });
    group.finish();
}

/// Deterministic hot-phase quantum: ~20% computes, ~10% stores, memory
/// ops hit a 12-page hot set — resident in the scaled machine's 16-entry
/// L1 DTLB, few lines per page so the data stays cache-resident — with a
/// ~1.5% cold-page tail that keeps evicting TLB entries. This is the
/// regime batching targets, the translation-and-bookkeeping-bound inner
/// loop of a hot phase; the miss-dominated regime is covered by
/// `random_op_with_misses`.
fn quantum_ops(len: usize) -> Vec<WorkOp> {
    let mut rng = Rng::new(7);
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let r = rng.below(10);
        if r < 2 {
            ops.push(WorkOp::Compute);
            continue;
        }
        let page = if rng.below(64) == 0 {
            64 + rng.below(1 << 10)
        } else {
            rng.below(12)
        };
        ops.push(WorkOp::Mem {
            va: VirtAddr(page * PAGE_SIZE + rng.below(4) * 64),
            store: r == 2,
            site: 0,
        });
    }
    ops
}

fn quantum_machine(ops: &[WorkOp]) -> Machine {
    let mut m = Machine::new(MachineConfig::scaled(1, 2048, 0, 1 << 20));
    m.add_process(1);
    // Warm: map every page, dirty the stores, fill TLB and caches.
    for &op in ops {
        m.exec_op(0, 1, op);
    }
    m
}

criterion_group!(benches, bench_pagetable, bench_tlb, bench_cache, bench_exec);
criterion_main!(benches);
