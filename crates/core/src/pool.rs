//! The workspace's one worker pool.
//!
//! [`run`] calls `f(i, &mut items[i])` for every item on up to `workers`
//! scoped threads. Each thread claims the next unclaimed index from a
//! shared counter, so a long item never holds back the items queued
//! behind it and no static split has to guess costs up front. Results
//! come back in index order, whichever thread ran them.
//!
//! Callers: the experiment sweep engine (one item per grid cell), the
//! Fig. 6 replay grid (one item per policy × source × capacity cell) and
//! the multi-tenant fleet (one item per tenant shard, which steps its
//! whole Exec → Scan… → Finish chain). Each item is independent of every
//! other, so any worker count computes exactly what the inline path does.
//!
//! # Observability contract
//!
//! Metrics and the event journal are thread-local. Each worker brackets
//! its run with [`Snapshot`] and the caller folds the per-worker counter
//! deltas back into its own thread in worker-index order
//! ([`tmprof_obs::metrics::fold_delta`]); counters commute, so totals
//! equal what the inline path records. Journal events recorded on a
//! worker thread are *dropped* by design — schedule-dependent interleaved
//! timelines are worse than no timeline. An item that needs an event
//! journaled must return it as data and let the caller record it after
//! [`run`] returns, in index order (the fleet runner does this for
//! admission rejections).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tmprof_obs::metrics::{self, Snapshot};

use crate::knobs::{InvalidKnob, WORKERS};

/// Run `f(i, &mut items[i])` for every item on up to `workers` threads and
/// return the results in index order.
///
/// Runs inline on the calling thread when `workers <= 1` or there is at
/// most one item, with metrics and journal writes landing exactly where a
/// plain loop puts them. A panic in `f` on a worker thread is re-raised
/// on the caller once every worker has joined.
pub fn run<T, R, F>(items: &mut [T], workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Each index is claimed exactly once, so every lock is uncontended;
    // the mutex only hands one `&mut T` to whichever thread claimed it.
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let before = Snapshot::take();
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter publishes no data; each
                        // item is reached through its own mutex.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        let mut item = slot
                            .lock()
                            // tmprof-lint: allow(panic-reachability) — each index is claimed once, so no other thread ever held this lock
                            .expect("an unclaimed item's lock is never poisoned");
                        done.push((i, f(i, &mut item)));
                    }
                    (done, Snapshot::take().delta_since(&before))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut results = Vec::with_capacity(n);
    let mut panicked = None;
    for outcome in joined {
        match outcome {
            Ok((done, delta)) => {
                metrics::fold_delta(&delta);
                results.extend(done);
            }
            Err(payload) => {
                panicked.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Worker threads for callers that do not pin a count: the
/// `TMPROF_WORKERS` knob, or the host's available parallelism when it is
/// unset. Panics with an [`InvalidKnob`] on any other value.
pub fn workers() -> usize {
    match WORKERS.get() {
        Some(raw) => parse_workers(&raw).unwrap_or_else(|e| panic!("{e}")),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Parse a `TMPROF_WORKERS` value: a positive integer.
pub fn parse_workers(raw: &str) -> Result<usize, InvalidKnob> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(InvalidKnob {
            name: WORKERS.name,
            value: raw.to_string(),
            accepts: WORKERS.accepts,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::ThreadId;

    /// Each item logs the index it was called with; results echo it.
    fn run_logged(n: usize, workers: usize) -> (Vec<Vec<usize>>, Vec<usize>) {
        let mut items = vec![Vec::new(); n];
        let results = run(&mut items, workers, |i, log: &mut Vec<usize>| {
            log.push(i);
            i * 10
        });
        (items, results)
    }

    #[test]
    fn serial_runs_items_in_order_to_completion() {
        let calls = Mutex::new(Vec::new());
        let mut items = vec![0u32; 23];
        let results = run(&mut items, 1, |i, c| {
            calls.lock().unwrap().push(i);
            *c += 1;
            i * 10
        });
        let want: Vec<usize> = (0..23).collect();
        assert_eq!(calls.into_inner().unwrap(), want, "call order");
        assert_eq!(items, [1; 23], "every item ran exactly once");
        let want: Vec<usize> = want.iter().map(|i| i * 10).collect();
        assert_eq!(results, want);
    }

    #[test]
    fn parallel_preserves_index_order() {
        for workers in [2, 3, 8] {
            let (items, results) = run_logged(23, workers);
            for (i, log) in items.iter().enumerate() {
                assert_eq!(log, &[i], "item {i} at {workers} workers");
            }
            let want: Vec<usize> = (0..23).map(|i| i * 10).collect();
            assert_eq!(results, want, "index order at {workers} workers");
        }
    }

    #[test]
    fn more_workers_than_items_is_clamped() {
        let (items, results) = run_logged(2, 16);
        assert_eq!(items, [vec![0], vec![1]]);
        assert_eq!(results, [0, 10]);
    }

    #[test]
    fn empty_and_single_item_run_inline() {
        let caller = std::thread::current().id();
        let mut empty: Vec<u8> = Vec::new();
        let out: Vec<ThreadId> = run(&mut empty, 4, |_, _| std::thread::current().id());
        assert!(out.is_empty());
        let mut one = vec![0u8];
        let out = run(&mut one, 4, |_, _| std::thread::current().id());
        assert_eq!(out, [caller], "a single item runs on the caller");
        let mut many = vec![0u8; 5];
        let out = run(&mut many, 1, |_, _| std::thread::current().id());
        assert!(out.iter().all(|&t| t == caller), "1 worker runs inline");
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn worker_metric_deltas_fold_back_to_the_caller() {
        use tmprof_obs::metrics::{add, get, Metric};
        let before = get(Metric::SimBatchOps);
        let mut items = vec![0u64; 6];
        run(&mut items, 4, |_, c| {
            // A counter bump from whatever thread runs the item.
            add(Metric::SimBatchOps, 10);
            *c += 1;
        });
        assert_eq!(items, [1; 6]);
        assert_eq!(
            get(Metric::SimBatchOps) - before,
            60,
            "all worker-side counter increments folded back"
        );
    }

    #[test]
    fn worker_panic_reraises_on_the_caller() {
        let mut items = vec![0u32; 8];
        let err = catch_unwind(AssertUnwindSafe(|| {
            run(&mut items, 3, |i, c| {
                if i == 5 {
                    panic!("injected failure (expected in test output)");
                }
                *c = 1;
            })
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .expect("the worker's own payload is re-raised");
        assert!(msg.contains("injected failure"), "{msg}");
        assert_eq!(items[5], 0);
        assert_eq!(items.iter().sum::<u32>(), 7, "the other items all ran");
    }

    #[test]
    fn one_long_item_among_many_trivial_ones() {
        // Item 0 loops far longer than the rest; the other workers keep
        // claiming the trivial items meanwhile, and every item completes.
        let mut items = vec![0u64; 8];
        let results = run(&mut items, 4, |i, c| {
            let steps = if i == 0 { 5000 } else { 1 };
            for _ in 0..steps {
                *c += 1;
            }
            steps
        });
        assert_eq!(items[0], 5000);
        assert!(items[1..].iter().all(|&c| c == 1));
        assert_eq!(results.iter().sum::<u64>(), 5000 + 7);
    }

    #[test]
    fn parse_workers_accepts_positive_integers_only() {
        assert_eq!(parse_workers("1"), Ok(1));
        assert_eq!(parse_workers(" 12 "), Ok(12));
        for bad in ["0", "abc", "", "-2", "1.5"] {
            let err = parse_workers(bad).unwrap_err();
            assert_eq!(err.value, bad);
            let msg = err.to_string();
            assert!(msg.contains("TMPROF_WORKERS"), "{msg}");
            assert!(msg.contains(&format!("{bad:?}")), "{msg}");
            assert!(msg.contains("positive integer"), "{msg}");
        }
    }
}
