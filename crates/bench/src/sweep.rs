//! Shared parallel sweep engine for the experiment binaries.
//!
//! Every `src/bin/*` artifact runs a grid of (workload × configuration)
//! cells. This module centralizes the fan-out that used to be hand-rolled
//! per binary:
//!
//! * cells run on [`tmprof_core::pool`], whose worker threads claim cells
//!   one at a time (bounded by [`Sweep::workers`] or the `TMPROF_WORKERS`
//!   environment variable, defaulting to the machine's parallelism);
//! * each cell is timed individually;
//! * a panicking cell is captured as a [`CellFailure`] instead of tearing
//!   down the whole sweep — every other cell still completes, and
//!   [`SweepResults::log_summary`] then fails the binary naming every
//!   failed cell.
//!
//! Results come back in deterministic row-major grid order (workload-major,
//! then parameter), independent of which worker finished first.
//!
//! ```no_run
//! use tmprof_bench::sweep::Sweep;
//!
//! let results = Sweep::grid(vec!["a", "b"], vec![1u64, 4, 8])
//!     .run(|w, r| format!("{w}@{r}"));
//! results.log_summary("demo");
//! for (w, r, out) in results.successes() {
//!     println!("{w} {r} -> {out}");
//! }
//! ```

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use tmprof_core::pool;
use tmprof_obs::metrics::Snapshot;

/// A grid of (workload × parameter) experiment cells.
pub struct Sweep<W, P> {
    workloads: Vec<W>,
    params: Vec<P>,
    workers: Option<usize>,
}

impl<W> Sweep<W, ()> {
    /// Single-axis sweep: one cell per workload.
    pub fn over(workloads: impl Into<Vec<W>>) -> Self {
        Self::grid(workloads, vec![()])
    }
}

impl<W, P> Sweep<W, P> {
    /// Two-axis sweep: one cell per (workload, parameter) pair.
    pub fn grid(workloads: impl Into<Vec<W>>, params: impl Into<Vec<P>>) -> Self {
        Self {
            workloads: workloads.into(),
            params: params.into(),
            workers: None,
        }
    }

    /// Cap the worker pool (overrides `TMPROF_WORKERS`).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n.max(1));
        self
    }
}

impl<W, P> Sweep<W, P>
where
    W: Clone + PartialEq + Debug + Sync,
    P: Clone + PartialEq + Debug + Sync,
{
    /// Run `cell` for every grid point on the worker pool.
    pub fn run<T, F>(self, cell: F) -> SweepResults<W, P, T>
    where
        T: Send,
        F: Fn(&W, &P) -> T + Sync,
    {
        let mut points: Vec<(&W, &P)> = self
            .workloads
            .iter()
            .flat_map(|w| self.params.iter().map(move |p| (w, p)))
            .collect();
        let workers = self
            .workers
            .unwrap_or_else(pool::workers)
            .min(points.len())
            .max(1);
        // tmprof-lint: allow(determinism-taint) — harness wall time feeds only the elapsed-seconds progress line; simulated results are cycle-counted, not timed
        let started = Instant::now();

        let outcomes = pool::run(&mut points, workers, |_, &mut (w, p)| {
            // tmprof-lint: allow(determinism-taint) — harness wall time feeds only the elapsed-seconds progress line; simulated results are cycle-counted, not timed
            let cell_start = Instant::now();
            // Metrics are thread-local, so bracketing the cell on the
            // worker thread yields this cell's own delta even though the
            // thread runs many cells back to back.
            let before = Snapshot::take();
            let outcome = catch_unwind(AssertUnwindSafe(|| cell(w, p)))
                .map_err(|payload| panic_message(payload.as_ref()));
            let metrics = Snapshot::take().delta_since(&before);
            (cell_start.elapsed(), metrics, outcome)
        });
        let cells = points
            .into_iter()
            .zip(outcomes)
            .map(|((w, p), (elapsed, metrics, outcome))| SweepCell {
                workload: w.clone(),
                param: p.clone(),
                elapsed,
                metrics,
                outcome,
            })
            .collect();

        SweepResults {
            cells,
            workers,
            wall_time: started.elapsed(),
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked with a non-string payload".to_string()
    }
}

/// One completed grid point.
pub struct SweepCell<W, P, T> {
    pub workload: W,
    pub param: P,
    pub elapsed: Duration,
    /// Thread-local observability delta recorded while the cell ran
    /// (all-zero when the workspace is built with `obs-off`).
    pub metrics: Snapshot,
    /// `Ok(output)` or the captured panic message.
    pub outcome: Result<T, String>,
}

/// A failed cell, for reporting.
#[derive(Clone, Debug, PartialEq)]
pub struct CellFailure {
    pub label: String,
    pub message: String,
    pub elapsed: Duration,
}

/// All cells of a finished sweep, in row-major grid order.
pub struct SweepResults<W, P, T> {
    cells: Vec<SweepCell<W, P, T>>,
    workers: usize,
    wall_time: Duration,
}

impl<W, P, T> SweepResults<W, P, T>
where
    W: PartialEq + Debug,
    P: PartialEq + Debug,
{
    /// Number of grid points (including failures).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Worker threads the sweep actually used.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// End-to-end wall time of the sweep.
    pub fn wall_time(&self) -> Duration {
        self.wall_time
    }

    /// All cells, successes and failures, in grid order.
    pub fn cells(&self) -> &[SweepCell<W, P, T>] {
        &self.cells
    }

    /// Successful cells in grid order.
    pub fn successes(&self) -> impl Iterator<Item = (&W, &P, &T)> {
        self.cells
            .iter()
            .filter_map(|c| c.outcome.as_ref().ok().map(|t| (&c.workload, &c.param, t)))
    }

    /// Captured failures in grid order.
    pub fn failures(&self) -> Vec<CellFailure> {
        self.cells
            .iter()
            .filter_map(|c| {
                c.outcome.as_ref().err().map(|msg| CellFailure {
                    label: format!("{:?}/{:?}", c.workload, c.param),
                    message: msg.clone(),
                    elapsed: c.elapsed,
                })
            })
            .collect()
    }

    /// Output of one cell, if it ran and succeeded.
    pub fn get(&self, workload: &W, param: &P) -> Option<&T> {
        self.cells
            .iter()
            .find(|c| c.workload == *workload && c.param == *param)
            .and_then(|c| c.outcome.as_ref().ok())
    }

    /// Output of one cell; panics with the captured cell error if the cell
    /// failed or does not exist.
    pub fn value(&self, workload: &W, param: &P) -> &T {
        let cell = self
            .cells
            .iter()
            .find(|c| c.workload == *workload && c.param == *param)
            .unwrap_or_else(|| panic!("no sweep cell {workload:?}/{param:?}"));
        match &cell.outcome {
            Ok(t) => t,
            Err(msg) => panic!("sweep cell {workload:?}/{param:?} failed: {msg}"),
        }
    }

    /// Long-form CSV of every cell's metric delta: one row per
    /// (cell, metric), all metrics in registry order, cells in grid order,
    /// so sidecars from identical runs are byte-identical.
    pub fn metrics_csv(&self) -> String {
        let mut out = String::from("workload,param,metric,value\n");
        for c in &self.cells {
            for (m, v) in c.metrics.iter() {
                out.push_str(&format!(
                    "{:?},{:?},{},{}\n",
                    c.workload,
                    c.param,
                    m.name(),
                    v
                ));
            }
        }
        out
    }

    /// Sum of all cells' metric deltas (the whole sweep's footprint).
    pub fn metrics_total(&self) -> Snapshot {
        let mut total = Snapshot::default();
        for c in &self.cells {
            total.merge(&c.metrics);
        }
        total
    }

    /// Write the per-cell metrics sidecar into `dir` as
    /// `<name>.metrics.csv`. Returns the path written.
    pub fn write_metrics_sidecar(
        &self,
        dir: &std::path::Path,
        name: &str,
    ) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.metrics.csv"));
        std::fs::write(&path, self.metrics_csv())?;
        Ok(path)
    }

    /// Print a one-line timing summary (plus any failures) to stderr.
    ///
    /// # Panics
    ///
    /// After printing every failure, panics with a message naming the
    /// failed cells. The binaries call this before their first CSV write,
    /// so a failed cell writes no partial CSV and exits non-zero.
    pub fn log_summary(&self, name: &str) {
        let slowest = self.cells.iter().max_by_key(|c| c.elapsed);
        let slowest = slowest
            .map(|c| {
                format!(
                    " (slowest {:?}/{:?}: {:.2}s)",
                    c.workload,
                    c.param,
                    c.elapsed.as_secs_f64()
                )
            })
            .unwrap_or_default();
        eprintln!(
            "[sweep {name}] {} cells on {} workers in {:.2}s{}",
            self.cells.len(),
            self.workers,
            self.wall_time.as_secs_f64(),
            slowest
        );
        let failures = self.failures();
        for failure in &failures {
            eprintln!(
                "[sweep {name}] FAILED cell {} after {:.2}s: {}",
                failure.label,
                failure.elapsed.as_secs_f64(),
                failure.message
            );
        }
        if let Some(dir) = tmprof_core::knobs::OBS_DIR.get() {
            match self.write_metrics_sidecar(std::path::Path::new(&dir), name) {
                Ok(path) => eprintln!("[sweep {name}] metrics sidecar: {}", path.display()),
                Err(e) => eprintln!("[sweep {name}] metrics sidecar write failed: {e}"),
            }
        }
        if !failures.is_empty() {
            let labels: Vec<&str> = failures.iter().map(|f| f.label.as_str()).collect();
            panic!(
                "[sweep {name}] {} of {} cells failed: {}",
                failures.len(),
                self.cells.len(),
                labels.join(", ")
            );
        }
    }
}

impl<W, T> SweepResults<W, (), T>
where
    W: PartialEq + Debug,
{
    /// Single-axis accessor (parameter axis is `()`).
    pub fn value_for(&self, workload: &W) -> &T {
        self.value(workload, &())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn grid_covers_every_cell_in_row_major_order() {
        let results = Sweep::grid(vec!["a", "b", "c"], vec![1u64, 2]).run(|w, p| format!("{w}{p}"));
        assert_eq!(results.len(), 6);
        let order: Vec<String> = results.successes().map(|(_, _, v)| v.clone()).collect();
        assert_eq!(order, ["a1", "a2", "b1", "b2", "c1", "c2"]);
        assert_eq!(results.value(&"b", &2), "b2");
        assert!(results.failures().is_empty());
    }

    #[test]
    fn panicking_cell_is_captured_and_others_complete() {
        let results = Sweep::grid(vec![1u32, 2, 3], vec![10u32, 20]).run(|&w, &p| {
            if w == 2 && p == 20 {
                panic!("injected failure (expected in test output)");
            }
            w * p
        });
        // The sweep finished; five of six cells succeeded.
        assert_eq!(results.len(), 6);
        assert_eq!(results.successes().count(), 5);
        let failures = results.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].label, "2/20");
        assert!(failures[0].message.contains("injected failure"));
        // Neighbors of the failed cell are intact.
        assert_eq!(*results.value(&2, &10), 20);
        assert_eq!(*results.value(&3, &20), 60);
        assert_eq!(results.get(&2, &20), None);
    }

    #[test]
    fn value_panics_with_captured_message_for_failed_cell() {
        let results = Sweep::over(vec![7u32])
            .run(|_, _| -> u32 { panic!("injected failure (expected in test output)") });
        let err = catch_unwind(AssertUnwindSafe(|| results.value_for(&7))).unwrap_err();
        let msg = panic_message(&*err);
        assert!(msg.contains("injected failure"), "{msg}");
    }

    #[test]
    fn log_summary_panics_naming_every_failed_cell() {
        let results = Sweep::grid(vec![1u32, 2], vec![10u32, 20]).run(|&w, &p| {
            if p == 20 {
                panic!("injected failure (expected in test output)");
            }
            w * p
        });
        let err = catch_unwind(AssertUnwindSafe(|| results.log_summary("unit"))).unwrap_err();
        let msg = panic_message(&*err);
        assert!(msg.contains("2 of 4 cells failed"), "{msg}");
        assert!(msg.contains("1/20") && msg.contains("2/20"), "{msg}");
        assert!(!msg.contains("1/10"), "{msg}");
        let ok = Sweep::over(vec![1u32]).run(|&w, _| w);
        ok.log_summary("unit");
    }

    #[test]
    fn worker_knob_bounds_concurrency() {
        static LIVE: AtomicU32 = AtomicU32::new(0);
        static PEAK: AtomicU32 = AtomicU32::new(0);
        let results = Sweep::grid(vec![0u32, 1, 2, 3], vec![0u32, 1])
            .workers(2)
            .run(|&w, &p| {
                let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(live, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                LIVE.fetch_sub(1, Ordering::SeqCst);
                w * 2 + p
            });
        assert_eq!(results.workers(), 2);
        assert!(PEAK.load(Ordering::SeqCst) <= 2);
        let seen: HashSet<u32> = results.successes().map(|(_, _, &v)| v).collect();
        assert_eq!(seen.len(), 8);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn per_cell_metric_deltas_are_isolated() {
        use tmprof_obs::metrics::{add, Metric};
        // Serial so every cell shares one worker thread: the bracketing
        // must still attribute each cell only its own increments.
        let results = Sweep::over(vec![1u64, 2, 3]).workers(1).run(|&w, _| {
            add(Metric::SimBatchOps, 10 * w);
            w
        });
        for cell in results.cells() {
            assert_eq!(cell.metrics.get(Metric::SimBatchOps), 10 * cell.workload);
            assert_eq!(cell.metrics.iter_nonzero().count(), 1);
        }
        assert_eq!(results.metrics_total().get(Metric::SimBatchOps), 60);
        let csv = results.metrics_csv();
        assert!(csv.starts_with("workload,param,metric,value\n"));
        assert!(csv.contains("2,(),sim.batch_ops,20\n"));
        assert_eq!(
            csv.lines().count(),
            1 + 3 * Metric::COUNT,
            "one row per (cell, metric) plus the header"
        );
    }

    #[test]
    fn metrics_sidecar_writes_grid_ordered_csv() {
        let results = Sweep::over(vec![1u32, 2]).run(|&w, _| w);
        let dir = std::env::temp_dir().join("tmprof-sweep-sidecar-test");
        let path = results
            .write_metrics_sidecar(&dir, "unit")
            .expect("sidecar written");
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, results.metrics_csv());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_cell_timing_is_recorded() {
        let results = Sweep::over(vec![1u32, 2]).run(|&w, _| {
            std::thread::sleep(Duration::from_millis(4 * w as u64));
            w
        });
        for cell in results.cells() {
            assert!(cell.elapsed >= Duration::from_millis(3));
        }
        assert!(results.wall_time() >= Duration::from_millis(3));
    }
}
