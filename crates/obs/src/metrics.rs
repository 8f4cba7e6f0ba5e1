//! Static counter/gauge registry.
//!
//! Every metric the workspace records is declared once in the
//! `metrics!` table below, which expands to the [`Metric`] enum
//! plus its name/help lookup. Storage is one thread-local array of plain
//! `Cell<u64>` indexed by the enum discriminant — an increment is a bounds-
//! checked load/add/store with no synchronization, and with `obs-off` the
//! accessors compile to empty inline functions (the array itself is not
//! even declared).
//!
//! Counters use [`add`]/[`inc`]; gauges (point-in-time values such as the
//! daemon's tracked-process count) use [`set`]. [`Snapshot`] captures the
//! calling thread's cells so callers can diff before/after an experiment
//! cell ([`Snapshot::delta_since`]) and export the result.

macro_rules! metrics {
    ($($variant:ident => $name:literal, $help:literal;)+) => {
        /// One registered metric. The discriminant is the cell index.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(usize)]
        pub enum Metric {
            $($variant,)+
        }

        impl Metric {
            /// Number of registered metrics.
            pub const COUNT: usize = [$(Metric::$variant),+].len();

            /// Every metric, in registry (display) order.
            pub const ALL: [Metric; Metric::COUNT] = [$(Metric::$variant),+];

            /// Stable dotted name (`layer.metric`).
            pub fn name(self) -> &'static str {
                match self { $(Metric::$variant => $name,)+ }
            }

            /// What the metric counts.
            pub fn help(self) -> &'static str {
                match self { $(Metric::$variant => $help,)+ }
            }
        }
    };
}

metrics! {
    // -- sim: machine + batched exec path -------------------------------
    SimBatchOps => "sim.batch_ops",
        "ops executed through Machine::exec_batch";
    SimShootdowns => "sim.shootdowns",
        "TLB shootdown broadcasts issued";
    SimShootdownPages => "sim.shootdown_pages",
        "pages invalidated across all shootdown broadcasts";
    SimHugeFallbacks => "sim.huge_fallbacks",
        "THP first-touch mappings that fell back to base pages (HugeConflict)";
    SimMigrations => "sim.migrations",
        "pages physically moved between tiers";
    SimEpochs => "sim.epochs",
        "machine epoch horizons crossed";
    SimHierSubtreesSkipped => "sim.hier_subtrees_skipped",
        "page-table subtrees pruned by the A-bit scan";
    SimHierSubtreesDescended => "sim.hier_subtrees_descended",
        "page-table children the A-bit scan had to descend into";
    SimDescChunksResident => "sim.desc_chunks_resident",
        "page-descriptor chunks materialized by first touch (gauge)";
    // -- profilers ------------------------------------------------------
    TraceSamplesCounted => "trace.samples_counted",
        "trace samples aggregated into page heat";
    TraceSamplesFiltered => "trace.samples_filtered",
        "trace samples discarded by the demand-load/memory-source filters";
    TraceSamplesDropped => "trace.samples_dropped",
        "trace samples lost to hardware buffer overflow";
    AbitPtesScanned => "abit.ptes_scanned",
        "PTEs visited by A-bit scans";
    AbitObservations => "abit.observations",
        "A bits found set during scans";
    // -- core: gating + daemon + epoch engine ---------------------------
    GateEvaluations => "gate.evaluations",
        "HWPC gate evaluation periods";
    GateFlips => "gate.flips",
        "gate decisions that changed a mechanism's on/off state";
    GateTraceOnPeriods => "gate.trace_on_periods",
        "evaluation periods that left trace sampling enabled";
    GateAbitOnPeriods => "gate.abit_on_periods",
        "evaluation periods that left A-bit scanning enabled";
    DaemonFilterRuns => "daemon.filter_runs",
        "process-filter re-evaluations";
    DaemonTrackedPids => "daemon.tracked_pids",
        "processes currently selected by the filter (gauge)";
    CoreEpochsClosed => "core.epochs_closed",
        "epochs closed by the TMP engine";
    // -- policy ---------------------------------------------------------
    PolicyPagesPromoted => "policy.pages_promoted",
        "pages promoted into tier 1 by the mover";
    PolicyPagesDemoted => "policy.pages_demoted",
        "pages demoted to tier 2 by the mover";
    PolicyMigrationCycles => "policy.migration_cycles",
        "cycles charged for migration copies and batched shootdowns";
    PolicyDemotionsFailed => "policy.demotions_failed",
        "nominations skipped because no frame could be freed down the waterfall";
    // -- fleet scheduler + admission control -----------------------------
    SchedAdmitRejected => "sched.admit_rejected",
        "migrations blocked by per-tenant admission-control token buckets";
    SchedUnitsExecuted => "sched.units_executed",
        "fleet work units (Exec, Scan, Finish steps of a shard's epoch) executed";
}

impl Metric {
    /// Whether this metric is a point-in-time gauge (written with [`set`])
    /// rather than a monotonically accumulating counter. Gauges do not
    /// commute across threads, so [`fold_delta`] skips them when a pool
    /// worker's cells are folded back into the caller's.
    pub fn is_gauge(self) -> bool {
        matches!(
            self,
            Metric::SimDescChunksResident | Metric::DaemonTrackedPids
        )
    }
}

#[cfg(not(feature = "obs-off"))]
thread_local! {
    static CELLS: [std::cell::Cell<u64>; Metric::COUNT] =
        const { [const { std::cell::Cell::new(0) }; Metric::COUNT] };
}

/// Fold a worker thread's bracketed counter deltas into the calling
/// thread's cells. Counters commute — the sum over workers equals what a
/// serial run would have recorded on one thread — so the worker pool
/// (`tmprof_core::pool`) brackets each worker with
/// [`Snapshot::take`]/[`Snapshot::delta_since`] and the caller applies the
/// deltas here in deterministic (worker index) order. Gauges are skipped:
/// a worker's point-in-time value has no meaningful sum.
pub fn fold_delta(delta: &Snapshot) {
    for (m, v) in delta.iter() {
        if v != 0 && !m.is_gauge() {
            add(m, v);
        }
    }
}

/// Add `n` to a counter on the calling thread.
#[inline]
// tmprof-lint: allow(panic-reachability) — Metric discriminants are < Metric::COUNT, the length of the cells array
pub fn add(metric: Metric, n: u64) {
    #[cfg(not(feature = "obs-off"))]
    CELLS.with(|cells| {
        let cell = &cells[metric as usize];
        cell.set(cell.get().wrapping_add(n));
    });
    #[cfg(feature = "obs-off")]
    let _ = (metric, n);
}

/// Increment a counter by one.
#[inline]
pub fn inc(metric: Metric) {
    add(metric, 1);
}

/// Set a gauge to `value` (overwrites, does not accumulate).
#[inline]
// tmprof-lint: allow(panic-reachability) — Metric discriminants are < Metric::COUNT, the length of the cells array
pub fn set(metric: Metric, value: u64) {
    #[cfg(not(feature = "obs-off"))]
    CELLS.with(|cells| cells[metric as usize].set(value));
    #[cfg(feature = "obs-off")]
    let _ = (metric, value);
}

/// Current value of one metric on the calling thread.
#[inline]
pub fn get(metric: Metric) -> u64 {
    #[cfg(not(feature = "obs-off"))]
    return CELLS.with(|cells| cells[metric as usize].get());
    #[cfg(feature = "obs-off")]
    {
        let _ = metric;
        0
    }
}

/// Zero every cell on the calling thread (test/CLI hygiene).
pub fn reset() {
    #[cfg(not(feature = "obs-off"))]
    CELLS.with(|cells| {
        for cell in cells {
            cell.set(0);
        }
    });
}

/// A point-in-time copy of the calling thread's metric cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    values: [u64; Metric::COUNT],
}

impl Default for Snapshot {
    fn default() -> Self {
        Self {
            values: [0; Metric::COUNT],
        }
    }
}

impl Snapshot {
    /// Capture the calling thread's current values (all zero with `obs-off`).
    pub fn take() -> Self {
        let mut snap = Self::default();
        for m in Metric::ALL {
            snap.values[m as usize] = get(m);
        }
        snap
    }

    /// Value of one metric in this snapshot.
    // tmprof-lint: allow(panic-reachability) — Metric discriminants are < Metric::COUNT, the length of the cells array
    pub fn get(&self, metric: Metric) -> u64 {
        self.values[metric as usize]
    }

    /// Per-metric difference `self - earlier` (wrapping), for bracketing a
    /// unit of work with two [`Snapshot::take`] calls.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Self::default();
        let pairs = self.values.iter().zip(&earlier.values);
        for (o, (now, then)) in out.values.iter_mut().zip(pairs) {
            *o = now.wrapping_sub(*then);
        }
        out
    }

    /// `(metric, value)` pairs in registry order.
    // tmprof-lint: allow(panic-reachability) — Metric discriminants are < Metric::COUNT, the length of the cells array
    pub fn iter(&self) -> impl Iterator<Item = (Metric, u64)> + '_ {
        Metric::ALL.iter().map(|&m| (m, self.values[m as usize]))
    }

    /// Nonzero `(metric, value)` pairs in registry order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Metric, u64)> + '_ {
        self.iter().filter(|&(_, v)| v != 0)
    }

    /// CSV dump (`metric,value` with a header), every metric in registry
    /// order so files from different runs are line-comparable.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        for (m, v) in self.iter() {
            out.push_str(&format!("{},{}\n", m.name(), v));
        }
        out
    }

    /// JSON object dump (registry order, stable formatting).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for (m, v) in self.iter() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("  \"{}\": {}", m.name(), v));
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        for n in &names {
            assert!(n.contains('.'), "{n} is not layer.metric");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::COUNT, "duplicate metric names");
        for m in Metric::ALL {
            assert!(!m.help().is_empty(), "{} has no help", m.name());
        }
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn add_set_get_roundtrip_on_this_thread() {
        reset();
        inc(Metric::SimShootdowns);
        add(Metric::SimShootdownPages, 41);
        add(Metric::SimShootdownPages, 1);
        set(Metric::DaemonTrackedPids, 3);
        set(Metric::DaemonTrackedPids, 2);
        assert_eq!(get(Metric::SimShootdowns), 1);
        assert_eq!(get(Metric::SimShootdownPages), 42);
        assert_eq!(get(Metric::DaemonTrackedPids), 2, "gauge overwrites");
        reset();
        assert_eq!(get(Metric::SimShootdownPages), 0);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn snapshot_delta_brackets_work() {
        reset();
        add(Metric::SimBatchOps, 10);
        let before = Snapshot::take();
        add(Metric::SimBatchOps, 7);
        inc(Metric::SimEpochs);
        let delta = Snapshot::take().delta_since(&before);
        assert_eq!(delta.get(Metric::SimBatchOps), 7);
        assert_eq!(delta.get(Metric::SimEpochs), 1);
        assert_eq!(delta.iter_nonzero().count(), 2);
        reset();
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn fold_delta_adds_counters_and_skips_gauges() {
        reset();
        set(Metric::DaemonTrackedPids, 9);
        add(Metric::SchedUnitsExecuted, 3);
        // A "worker" delta carrying both a counter and a gauge value.
        let mut delta = Snapshot::default();
        delta.values[Metric::SchedUnitsExecuted as usize] = 5;
        delta.values[Metric::SchedAdmitRejected as usize] = 2;
        delta.values[Metric::DaemonTrackedPids as usize] = 7;
        fold_delta(&delta);
        assert_eq!(get(Metric::SchedUnitsExecuted), 8, "counters sum");
        assert_eq!(get(Metric::SchedAdmitRejected), 2);
        assert_eq!(get(Metric::DaemonTrackedPids), 9, "gauge untouched");
        assert!(Metric::DaemonTrackedPids.is_gauge());
        assert!(!Metric::SchedAdmitRejected.is_gauge());
        reset();
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn exports_are_stable_and_complete() {
        reset();
        add(Metric::PolicyPagesPromoted, 5);
        let snap = Snapshot::take();
        let csv = snap.to_csv();
        assert!(csv.starts_with("metric,value\n"));
        assert!(csv.contains("policy.pages_promoted,5\n"));
        // One line per metric plus the header.
        assert_eq!(csv.lines().count(), Metric::COUNT + 1);
        let json = snap.to_json();
        assert!(json.contains("\"policy.pages_promoted\": 5"));
        assert_eq!(snap.to_csv(), Snapshot::take().to_csv(), "dump is stable");
        reset();
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn obs_off_compiles_everything_to_noops() {
        add(Metric::SimBatchOps, 10);
        set(Metric::DaemonTrackedPids, 3);
        assert_eq!(get(Metric::SimBatchOps), 0);
        assert_eq!(Snapshot::take().iter_nonzero().count(), 0);
        assert!(!crate::ENABLED);
    }
}
