//! Policy-side microbenchmarks: ranking, selection, replay evaluation and
//! page-mover cost as functions of footprint — the epoch-horizon budget a
//! deployment has to fit into.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use tmprof_core::rank::{EpochProfile, RankSource};
use tmprof_policy::hitrate::{replay_hitrate, ReplayEpoch, ReplayLog, ReplayPolicy};
use tmprof_policy::mover::PageMover;
use tmprof_policy::policies::{HistoryPolicy, PlacementPolicy};
use tmprof_sim::prelude::*;

fn synthetic_profile(pages: u64) -> EpochProfile {
    let mut p = EpochProfile::default();
    let mut rng = Rng::new(7);
    for v in 0..pages {
        let key = PageKey {
            pid: 1,
            vpn: Vpn(v),
        }
        .pack();
        p.abit.insert(key, 1 + rng.below(8));
        if rng.chance(0.3) {
            p.trace.insert(key, 1 + rng.below(50));
        }
    }
    p
}

fn bench_ranking(c: &mut Criterion) {
    let mut group = c.benchmark_group("ranking");
    for pages in [4096u64, 65536] {
        let profile = synthetic_profile(pages);
        group.bench_with_input(
            BenchmarkId::new("combined_sort", pages),
            &profile,
            |b, profile| {
                b.iter(|| black_box(profile.ranked(RankSource::Combined).len()));
            },
        );
    }
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let profile = synthetic_profile(65536);
    c.bench_function("history_select_top_8k", |b| {
        let mut policy = HistoryPolicy::new(RankSource::Combined);
        b.iter(|| black_box(policy.select(&profile, 8192).tier1_pages.len()));
    });
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay");
    group.sample_size(20);
    for pages in [4096u64, 32768] {
        let mut log = ReplayLog::default();
        let mut rng = Rng::new(11);
        for _ in 0..8 {
            let profile = synthetic_profile(pages);
            let truth = (0..pages)
                .map(|v| {
                    let key = PageKey {
                        pid: 1,
                        vpn: Vpn(v),
                    };
                    (key.pack(), 1 + rng.below(100))
                })
                .collect();
            log.epochs.push(ReplayEpoch {
                profile,
                truth_mem: truth,
            });
        }
        log.first_touch_order = (0..pages)
            .map(|v| {
                PageKey {
                    pid: 1,
                    vpn: Vpn(v),
                }
                .pack()
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("oracle_cell", pages), &log, |b, log| {
            b.iter(|| {
                black_box(replay_hitrate(
                    log,
                    ReplayPolicy::Oracle,
                    RankSource::Combined,
                    (pages / 8) as usize,
                ))
            });
        });
    }
    group.finish();
}

fn bench_mover(c: &mut Criterion) {
    c.bench_function("mover_promote_512", |b| {
        b.iter_batched(
            || {
                let mut m = Machine::new(MachineConfig::scaled(2, 1024, 8192, 1 << 20));
                m.add_process(1);
                for v in 0..4096u64 {
                    m.touch(0, 1, VirtAddr(v * PAGE_SIZE));
                }
                // Nominate 512 tier-2 residents.
                let placement = tmprof_policy::policies::Placement {
                    tier1_pages: (2048..2560u64)
                        .map(|v| {
                            PageKey {
                                pid: 1,
                                vpn: Vpn(v),
                            }
                            .pack()
                        })
                        .collect(),
                };
                (m, placement)
            },
            |(mut m, placement)| {
                let mut mover = PageMover::default();
                black_box(mover.apply(&mut m, &placement))
            },
            criterion::BatchSize::LargeInput,
        );
    });
}

criterion_group!(
    benches,
    bench_ranking,
    bench_selection,
    bench_replay,
    bench_mover
);
criterion_main!(benches);
