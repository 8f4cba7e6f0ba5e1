//! Microbenchmarks for the epoch-close → ranking → replay pipeline: the
//! three hot paths reworked by the incremental-epoch-close PR. Cell names
//! are stable across the seed and the reworked tree so the interleaved
//! A/B harness (EXPERIMENTS.md) can compare them directly:
//!
//! * `epoch_close/*` — `EpochProfile::capture` + `PageDescTable::reset_epoch`
//!   on a sparsely-touched table (dirty-list walk vs full-frame scan), and
//!   `capture` of a table whose every frame was observed (a warm-up close);
//! * `rank/*` — full `ranked()` sort vs `top_k` partial selection;
//! * `replay/*` — the Fig. 6 `hitrate_grid` (rank-cached + parallel vs
//!   one serial sort per cell per epoch).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use tmprof_core::rank::{EpochProfile, RankSource};
use tmprof_policy::hitrate::{hitrate_grid, ReplayEpoch, ReplayLog, PAPER_RATIOS};
use tmprof_sim::addr::{Pfn, Vpn};
use tmprof_sim::keymap::KeyMap;
use tmprof_sim::pagedesc::{PageDescTable, PageKey};
use tmprof_sim::rng::Rng;

fn key(vpn: u64) -> u64 {
    PageKey {
        pid: 1,
        vpn: Vpn(vpn),
    }
    .pack()
}

/// A table of `frames` frames, frame `f` owned by page `f` of pid 1.
fn owned_table(frames: u64) -> PageDescTable {
    let mut t = PageDescTable::new(frames);
    for f in 0..frames {
        t.set_owner(
            Pfn(f),
            PageKey {
                pid: 1,
                vpn: Vpn(f),
            },
        );
    }
    t
}

/// A big, fully-allocated table where only a small working set saw
/// observations this epoch — the steady-state shape epoch close runs
/// against (default scale: ~10² touched pages in ~10⁵ owned frames).
fn sparse_table(frames: u64, touched: u64) -> PageDescTable {
    let mut t = owned_table(frames);
    let mut rng = Rng::new(11);
    for i in 0..touched {
        let pfn = Pfn(rng.below(frames));
        t.bump_abit(pfn);
        if i % 3 == 0 {
            t.bump_trace(pfn);
        }
    }
    t
}

/// A table whose every frame saw an A-bit observation this epoch — the
/// warm-up close, where the first scan finds every mapped page accessed
/// (`sparse_footprint`'s first close captures 2²¹ such frames).
fn dense_table(frames: u64) -> PageDescTable {
    let mut t = owned_table(frames);
    for f in 0..frames {
        t.bump_abit(Pfn(f));
    }
    t
}

/// A profile wide enough that full sorting dominates selection.
fn wide_profile(pages: u64) -> EpochProfile {
    let mut p = EpochProfile::default();
    let mut rng = Rng::new(5);
    for v in 0..pages {
        p.abit.insert(key(v), 1 + rng.below(100));
        if v % 2 == 0 {
            p.trace.insert(key(v), 1 + rng.below(100));
        }
    }
    p
}

/// A recorded run with skewed per-epoch heat, sized so the grid does real
/// work without swamping the bench wall-clock.
fn synthetic_log(epochs: usize, pages: u64) -> ReplayLog {
    let mut rng = Rng::new(9);
    let mut log = ReplayLog {
        first_touch_order: (0..pages).map(key).collect(),
        ..ReplayLog::default()
    };
    for _ in 0..epochs {
        let mut ep = ReplayEpoch::default();
        let mut truth: KeyMap<u64, u64> = KeyMap::default();
        for _ in 0..pages / 2 {
            // Quadratic skew: a hot head and a long cold tail.
            let v = (rng.below(pages) * rng.below(pages)) / pages.max(1);
            let k = key(v);
            *truth.entry(k).or_insert(0) += 1 + rng.below(8);
            if rng.below(4) > 0 {
                *ep.profile.abit.entry(k).or_insert(0) += 1;
            }
            if rng.below(3) > 0 {
                *ep.profile.trace.entry(k).or_insert(0) += 1;
            }
        }
        ep.truth_mem = truth.into_iter().collect();
        log.epochs.push(ep);
    }
    log
}

fn bench_epoch_close(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch_close");
    let t = sparse_table(1 << 17, 512);
    group.bench_function("capture_512_of_128k", |b| {
        b.iter(|| black_box(EpochProfile::capture(&t)));
    });
    let dense = dense_table(1 << 20);
    group.bench_function("capture_1m_of_1m", |b| {
        b.iter(|| black_box(EpochProfile::capture(&dense)));
    });
    group.bench_function("reset_epoch_512_of_128k", |b| {
        b.iter_batched(
            || sparse_table(1 << 17, 512),
            |mut t| {
                t.reset_epoch();
                t
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("rank");
    let p = wide_profile(1 << 15);
    group.bench_function("ranked_32k", |b| {
        b.iter(|| black_box(p.ranked(RankSource::Combined).len()));
    });
    group.bench_function("top_256_of_32k", |b| {
        b.iter(|| black_box(p.top_k(RankSource::Combined, 256).len()));
    });
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay");
    let log = synthetic_log(16, 4096);
    group.bench_function("grid_16ep_4k_pages", |b| {
        b.iter(|| black_box(hitrate_grid(&log, &PAPER_RATIOS).len()));
    });
    group.finish();
}

criterion_group!(benches, bench_epoch_close, bench_rank, bench_replay);
criterion_main!(benches);
