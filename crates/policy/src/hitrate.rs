//! Offline hitrate replay — the Fig. 6 evaluator.
//!
//! The paper computes tier-1 hitrate "based on the profiling data from the
//! real hardware": per-epoch profiles are recorded during a run, and each
//! policy × profiling-source × capacity combination is evaluated by
//! replaying those records against the ground-truth access counts. No
//! migration feedback is modelled (placement does not change what the
//! workload touches), which is exactly the paper's methodology and lets one
//! recorded run score every configuration.
//!
//! * **Oracle** selects by the *upcoming* epoch's profiled counts (future
//!   knowledge of what the chosen monitoring source would report).
//! * **History** selects by the *previous* epoch's profiled counts.
//! * **First-touch** pins whichever pages were touched first, forever.
//!
//! Hitrate for an epoch = true memory accesses to tier-1-resident pages /
//! all true memory accesses; the run-level number is access-weighted.

use tmprof_core::pool;
use tmprof_core::rank::{EpochProfile, RankSource};
use tmprof_sim::keymap::{KeyMap, KeySet};

/// One recorded epoch: what the profilers saw + what really happened.
#[derive(Clone, Debug, Default)]
pub struct ReplayEpoch {
    /// Per-page profiler observations.
    pub profile: EpochProfile,
    /// True memory-level accesses as `(packed page key, count)`, under
    /// [`tmprof_sim::stats::EpochTruth`]'s list contract: each key at most
    /// once, every count > 0.
    pub truth_mem: Vec<(u64, u64)>,
}

/// A full recorded run.
#[derive(Clone, Debug, Default)]
pub struct ReplayLog {
    pub epochs: Vec<ReplayEpoch>,
    /// Pages in first-touch order (allocation order), for the baseline.
    pub first_touch_order: Vec<u64>,
}

impl ReplayLog {
    /// Total distinct pages that ever saw a memory access.
    pub fn footprint_pages(&self) -> usize {
        let mut set = KeySet::default();
        for e in &self.epochs {
            set.extend(e.truth_mem.iter().map(|&(page, _)| page));
        }
        set.len()
    }
}

/// The policies Fig. 6 evaluates (plus the §VI-C baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReplayPolicy {
    Oracle,
    History,
    FirstTouch,
}

impl ReplayPolicy {
    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            ReplayPolicy::Oracle => "Oracle",
            ReplayPolicy::History => "History",
            ReplayPolicy::FirstTouch => "First-touch",
        }
    }
}

/// Select the top-`capacity` pages from `profile` under `source`.
/// Partial selection via [`EpochProfile::top_k`]; agrees with
/// `ranked().take(capacity)` by construction (property-tested).
fn top_pages(profile: &EpochProfile, source: RankSource, capacity: usize) -> KeySet<u64> {
    profile
        .top_k(source, capacity)
        .into_iter()
        .map(|r| r.key.pack())
        .collect()
}

/// Evaluate one configuration over a recorded run. Returns the
/// access-weighted tier-1 hitrate in `[0, 1]`.
///
/// `capacity` is the number of tier-1 page slots (the paper sweeps
/// footprint/8 … footprint/128).
pub fn replay_hitrate(
    log: &ReplayLog,
    policy: ReplayPolicy,
    source: RankSource,
    capacity: usize,
) -> f64 {
    let mut hits: u64 = 0;
    let mut total: u64 = 0;
    // First-touch residency is static: first `capacity` pages ever touched.
    let first_touch_set: KeySet<u64> = log
        .first_touch_order
        .iter()
        .take(capacity)
        .copied()
        .collect();
    for (i, epoch) in log.epochs.iter().enumerate() {
        // Borrow the static first-touch set instead of cloning it per epoch;
        // `scratch` holds per-epoch top-K sets alive for the borrow.
        let scratch: KeySet<u64>;
        let resident: &KeySet<u64> = match policy {
            ReplayPolicy::Oracle => {
                scratch = top_pages(&epoch.profile, source, capacity);
                &scratch
            }
            ReplayPolicy::History => {
                if i == 0 {
                    // No history yet: first-touch placement for epoch 0.
                    &first_touch_set
                } else {
                    scratch = top_pages(&log.epochs[i - 1].profile, source, capacity);
                    &scratch
                }
            }
            ReplayPolicy::FirstTouch => &first_touch_set,
        };
        for &(page, accesses) in &epoch.truth_mem {
            total += accesses;
            if resident.contains(&page) {
                hits += accesses;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// A row of the Fig. 6 grid: one policy × source at one capacity ratio.
#[derive(Clone, Copy, Debug)]
pub struct HitrateCell {
    pub policy: ReplayPolicy,
    pub source: RankSource,
    /// Tier-1 capacity as footprint / `ratio_denominator`.
    pub ratio_denominator: u32,
    pub hitrate: f64,
}

/// Shared per-run rank cache: every grid cell at (epoch, source) consults
/// the same top-K ordering, just truncated at a different capacity — Oracle
/// and History are the same sets offset by one epoch. So rank each epoch's
/// profile exactly once at the sweep's *largest* capacity and store each
/// page's position; a cell at capacity `c` tests `position < c`.
///
/// Positions are `u64`: the old `u32` maps silently truncated with `i as
/// u32`, so position 2³² wrapped to 0 and a page far outside every capacity
/// scored as resident (see `positions_beyond_u32_do_not_wrap`).
struct RankCache {
    /// `positions[epoch][si]` for source index `si` in
    /// [`RankSource::ALL`]: packed key → 0-based position in the (rank
    /// desc, key asc) order, present for the top `max_capacity` pages only.
    positions: Vec<Vec<KeyMap<u64, u64>>>,
    /// Packed key → first-occurrence index in first-touch order; membership
    /// of `first_touch_order.take(c)` is `position < c`.
    first_touch_pos: KeyMap<u64, u64>,
}

impl RankCache {
    fn build(log: &ReplayLog, max_capacity: usize) -> Self {
        let positions = log
            .epochs
            .iter()
            .map(|e| {
                RankSource::ALL
                    .iter()
                    .map(|&s| {
                        e.profile
                            .top_k(s, max_capacity)
                            .iter()
                            .enumerate()
                            .map(|(i, r)| (r.key.pack(), i as u64))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut first_touch_pos = KeyMap::default();
        for (i, &key) in log.first_touch_order.iter().enumerate() {
            first_touch_pos.entry(key).or_insert(i as u64);
        }
        Self {
            positions,
            first_touch_pos,
        }
    }

    /// One cell against the cache (`si` indexes [`RankSource::ALL`];
    /// ignored by FirstTouch). Float-identical to
    /// [`replay_hitrate`]: hits/total accumulate as `u64`
    /// (order-independent) and the hitrate is the same single `f64`
    /// division.
    fn hitrate(&self, log: &ReplayLog, policy: ReplayPolicy, si: usize, capacity: usize) -> f64 {
        let mut hits: u64 = 0;
        let mut total: u64 = 0;
        for (i, epoch) in log.epochs.iter().enumerate() {
            let resident: &KeyMap<u64, u64> = match policy {
                ReplayPolicy::Oracle => &self.positions[i][si],
                ReplayPolicy::History if i == 0 => &self.first_touch_pos,
                ReplayPolicy::History => &self.positions[i - 1][si],
                ReplayPolicy::FirstTouch => &self.first_touch_pos,
            };
            for &(page, accesses) in &epoch.truth_mem {
                total += accesses;
                if resident
                    .get(&page)
                    .is_some_and(|&pos| pos < capacity as u64)
                {
                    hits += accesses;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// The grid's cell schedule, in the canonical (serial) emission order:
/// `(policy, source, source index, ratio denominator, capacity)`. The
/// first-touch baseline is emitted once per ratio (nominal source
/// `Combined`, which its static placement ignores).
fn grid_cells(
    footprint: usize,
    ratio_denominators: &[u32],
) -> Vec<(ReplayPolicy, RankSource, usize, u32, usize)> {
    let mut cells = Vec::new();
    for &denom in ratio_denominators {
        let capacity = (footprint / denom as usize).max(1);
        for policy in [ReplayPolicy::Oracle, ReplayPolicy::History] {
            for (si, &source) in RankSource::ALL.iter().enumerate() {
                cells.push((policy, source, si, denom, capacity));
            }
        }
        cells.push((
            ReplayPolicy::FirstTouch,
            RankSource::Combined,
            0,
            denom,
            capacity,
        ));
    }
    cells
}

/// Sweep the full Fig. 6 grid over a recorded run: policies × sources ×
/// capacity ratios (1/8 … 1/128 by default).
///
/// Each epoch's profile is ranked once (see `RankCache`) and cells fan
/// out over [`tmprof_core::pool`], sized by `TMPROF_WORKERS` (default:
/// available parallelism). Output order and every float are identical to
/// [`hitrate_grid_serial`], the seed reference implementation
/// (property-tested in `tests/props.rs`).
pub fn hitrate_grid(log: &ReplayLog, ratio_denominators: &[u32]) -> Vec<HitrateCell> {
    hitrate_grid_full(log, ratio_denominators, None)
}

/// [`hitrate_grid`] with an explicit worker count (`None` defers to
/// [`tmprof_core::pool::workers`]); the parallel-identity tests pin it.
pub fn hitrate_grid_full(
    log: &ReplayLog,
    ratio_denominators: &[u32],
    workers: Option<usize>,
) -> Vec<HitrateCell> {
    let footprint = log.footprint_pages().max(1);
    let mut cells = grid_cells(footprint, ratio_denominators);
    let max_capacity = cells.iter().map(|c| c.4).max().unwrap_or(1);
    let cache = RankCache::build(log, max_capacity);

    let workers = workers.unwrap_or_else(pool::workers);
    let rates = pool::run(
        &mut cells,
        workers,
        |_, &mut (policy, _, si, _, capacity)| cache.hitrate(log, policy, si, capacity),
    );

    cells
        .into_iter()
        .zip(rates)
        .map(|((policy, source, _, denom, _), hitrate)| HitrateCell {
            policy,
            source,
            ratio_denominator: denom,
            hitrate,
        })
        .collect()
}

/// The seed's serial grid: one [`replay_hitrate`] call per cell, no cache,
/// no pool. Kept as the reference implementation the cached/parallel
/// [`hitrate_grid`] is verified against (proptest + CI grid-identity check).
// tmprof-lint: allow(dead-surface) — identity oracle of policy/tests/props.rs, tests/integration_replay_identity.rs and hitrate::tests::cached_parallel_grid_matches_serial_reference
pub fn hitrate_grid_serial(log: &ReplayLog, ratio_denominators: &[u32]) -> Vec<HitrateCell> {
    let footprint = log.footprint_pages().max(1);
    grid_cells(footprint, ratio_denominators)
        .into_iter()
        .map(|(policy, source, _, denom, capacity)| HitrateCell {
            policy,
            source,
            ratio_denominator: denom,
            hitrate: replay_hitrate(log, policy, source, capacity),
        })
        .collect()
}

/// The paper's capacity sweep.
pub const PAPER_RATIOS: [u32; 5] = [8, 16, 32, 64, 128];

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::addr::Vpn;
    use tmprof_sim::pagedesc::PageKey;

    fn key(vpn: u64) -> u64 {
        PageKey {
            pid: 1,
            vpn: Vpn(vpn),
        }
        .pack()
    }

    /// A run where page heat rotates each epoch: page e is hot in epoch e.
    fn rotating_log(epochs: usize) -> ReplayLog {
        let mut log = ReplayLog::default();
        for e in 0..epochs {
            let mut ep = ReplayEpoch::default();
            // Hot page e: 100 accesses, seen by both profilers.
            ep.truth_mem.push((key(e as u64), 100));
            ep.profile.abit.insert(key(e as u64), 10);
            ep.profile.trace.insert(key(e as u64), 10);
            // Background page 99: 10 accesses, every epoch.
            ep.truth_mem.push((key(99), 10));
            ep.profile.abit.insert(key(99), 1);
            log.epochs.push(ep);
        }
        log.first_touch_order = vec![key(0), key(99)];
        log
    }

    #[test]
    fn oracle_beats_history_on_rotating_heat() {
        let log = rotating_log(10);
        let oracle = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Combined, 1);
        let history = replay_hitrate(&log, ReplayPolicy::History, RankSource::Combined, 1);
        // Oracle always holds the epoch's hot page; History is one epoch
        // behind and never catches the rotation.
        assert!((oracle - 100.0 / 110.0).abs() < 1e-9, "oracle {oracle}");
        assert!(history < 0.2, "history {history}");
    }

    #[test]
    fn history_matches_oracle_on_stable_heat() {
        let mut log = ReplayLog::default();
        for _ in 0..10 {
            let mut ep = ReplayEpoch::default();
            ep.truth_mem.push((key(1), 100));
            ep.truth_mem.push((key(2), 1));
            ep.profile.trace.insert(key(1), 50);
            ep.profile.trace.insert(key(2), 1);
            log.epochs.push(ep);
        }
        log.first_touch_order = vec![key(2), key(1)];
        let oracle = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Trace, 1);
        let history = replay_hitrate(&log, ReplayPolicy::History, RankSource::Trace, 1);
        // History loses only epoch 0 (first-touch had the cold page).
        assert!(oracle > history);
        assert!(history > 0.85);
    }

    #[test]
    fn combined_source_beats_piecemeal_when_sources_split() {
        // Two hot pages: one visible only to A-bit, one only to IBS.
        let mut log = ReplayLog::default();
        for _ in 0..5 {
            let mut ep = ReplayEpoch::default();
            ep.truth_mem.push((key(1), 50));
            ep.truth_mem.push((key(2), 50));
            ep.truth_mem.push((key(3), 5));
            ep.profile.abit.insert(key(1), 10);
            ep.profile.trace.insert(key(2), 10);
            ep.profile.abit.insert(key(3), 1);
            log.epochs.push(ep);
        }
        log.first_touch_order = vec![key(3)];
        let combined = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Combined, 2);
        let abit_only = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::ABit, 2);
        let ibs_only = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Trace, 2);
        assert!(combined > abit_only, "{combined} vs {abit_only}");
        assert!(combined > ibs_only, "{combined} vs {ibs_only}");
        assert!((combined - 100.0 / 105.0).abs() < 1e-9);
    }

    #[test]
    fn first_touch_is_static() {
        let log = rotating_log(10);
        let ft = replay_hitrate(&log, ReplayPolicy::FirstTouch, RankSource::Combined, 1);
        // Holds page 0 forever: hits epoch 0's hot page only.
        assert!((ft - 100.0 / 1100.0).abs() < 1e-9);
    }

    #[test]
    fn bigger_capacity_never_hurts() {
        let log = rotating_log(8);
        let small = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Combined, 1);
        let large = replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Combined, 2);
        assert!(large >= small);
    }

    #[test]
    fn grid_covers_all_cells() {
        let log = rotating_log(4);
        let grid = hitrate_grid(&log, &PAPER_RATIOS);
        // 5 ratios × (2 policies × 3 sources + 1 baseline).
        assert_eq!(grid.len(), 5 * 7);
        for cell in &grid {
            assert!((0.0..=1.0).contains(&cell.hitrate));
        }
    }

    #[test]
    fn cached_parallel_grid_matches_serial_reference() {
        let log = rotating_log(6);
        let serial = hitrate_grid_serial(&log, &PAPER_RATIOS);
        for workers in [1, 4] {
            let fast = hitrate_grid_full(&log, &PAPER_RATIOS, Some(workers));
            assert_eq!(serial.len(), fast.len());
            for (a, b) in serial.iter().zip(&fast) {
                assert_eq!(a.policy, b.policy);
                assert_eq!(a.source, b.source);
                assert_eq!(a.ratio_denominator, b.ratio_denominator);
                assert_eq!(
                    a.hitrate.to_bits(),
                    b.hitrate.to_bits(),
                    "{:?}/{:?}/{} drifted at {workers} workers",
                    a.policy,
                    a.source,
                    a.ratio_denominator
                );
            }
        }
    }

    #[test]
    fn first_touch_duplicates_do_not_inflate_capacity() {
        // A duplicated first-touch entry consumes a take(capacity) slot in
        // the reference; the cache's first-occurrence positions must agree.
        let mut log = rotating_log(3);
        log.first_touch_order = vec![key(0), key(0), key(99)];
        for capacity in 1..=3 {
            let serial = replay_hitrate(
                &log,
                ReplayPolicy::FirstTouch,
                RankSource::Combined,
                capacity,
            );
            let cache = RankCache::build(&log, capacity);
            let cached = cache.hitrate(&log, ReplayPolicy::FirstTouch, 0, capacity);
            assert_eq!(serial.to_bits(), cached.to_bits(), "capacity {capacity}");
        }
    }

    #[test]
    fn positions_beyond_u32_do_not_wrap() {
        // Regression for the `i as u32` truncation: a page ranked at
        // position 2³² used to wrap to position 0 and score as tier-1
        // resident at every capacity. Building a 4-billion-entry rank is
        // not testable, so pin the comparison path directly with a
        // synthetic cache holding a position just past u32::MAX.
        let mut log = ReplayLog::default();
        let mut ep = ReplayEpoch::default();
        ep.truth_mem.push((key(1), 10));
        log.epochs.push(ep);
        let far = u32::MAX as u64 + 1;
        let mut positions = KeyMap::default();
        positions.insert(key(1), far);
        let cache = RankCache {
            positions: vec![vec![positions]],
            first_touch_pos: KeyMap::default(),
        };
        let small = cache.hitrate(&log, ReplayPolicy::Oracle, 0, 4);
        assert_eq!(small.to_bits(), 0.0f64.to_bits(), "wrapped position hit");
        let huge = cache.hitrate(&log, ReplayPolicy::Oracle, 0, (far + 1) as usize);
        assert_eq!(huge.to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn empty_log_scores_zero() {
        let log = ReplayLog::default();
        assert_eq!(
            replay_hitrate(&log, ReplayPolicy::Oracle, RankSource::Combined, 4),
            0.0
        );
        assert_eq!(log.footprint_pages(), 0);
    }
}
