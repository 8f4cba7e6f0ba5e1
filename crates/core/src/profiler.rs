//! The TMP engine (paper §III, Fig. 1).
//!
//! [`Tmp`] wires the pieces of the paper's architecture together: the
//! IBS/PEBS driver and the A-bit driver feed per-page counts into the page
//! descriptors; the user-space daemon's process filter chooses which page
//! tables the A-bit driver traverses; the HWPC gate switches both expensive
//! mechanisms on and off; and at every epoch horizon the engine publishes a
//! profile snapshot (per-page observations + ranked hotness) to whatever
//! policy sits above it.

use tmprof_profilers::abit::{ABitConfig, ABitScanner, ABitStats};
use tmprof_profilers::trace::{TraceConfig, TraceProfiler, TraceStats};
use tmprof_sim::keymap::PageSet;
use tmprof_sim::machine::Machine;
use tmprof_sim::stats::EpochTruth;

use crate::daemon::{FilterConfig, ProcessFilter};
use crate::gating::{GateDecision, Gating, GatingConfig};
use crate::rank::EpochProfile;

/// Full TMP configuration.
#[derive(Clone, Copy, Debug)]
pub struct TmpConfig {
    pub trace: TraceConfig,
    pub abit: ABitConfig,
    pub gating: GatingConfig,
}

impl TmpConfig {
    /// Paper-shaped defaults for a given base IBS period: 4x sampling (the
    /// rate §VI-A settles on), shootdown-free budgeted A-bit scans, 5%/10%
    /// process filter, 20% gating.
    pub fn paper_defaults(base_period: u64) -> Self {
        Self {
            trace: TraceConfig::ibs(base_period).at_rate(4),
            abit: ABitConfig::default(),
            gating: GatingConfig::default(),
        }
    }
}

/// What TMP publishes at each epoch horizon.
#[derive(Debug)]
pub struct TmpEpochReport {
    /// Epoch index that just closed.
    pub epoch: u32,
    /// Per-page profiler observations for the epoch.
    pub profile: EpochProfile,
    /// Ground truth for the epoch (evaluation only — a real system never
    /// sees this; it is exposed for Oracle policies and accuracy studies).
    pub truth: EpochTruth,
    /// Pages detected by the A-bit driver this epoch.
    pub abit_pages: usize,
    /// Pages detected by the trace driver this epoch.
    pub trace_pages: usize,
    /// Pages detected by both in this same epoch.
    pub both_pages: usize,
    /// The gate decision applied for the *next* epoch.
    pub gate: GateDecision,
}

/// The composed profiler.
pub struct Tmp {
    trace: TraceProfiler,
    abit: ABitScanner,
    filter: ProcessFilter,
    gating: Gating,
    /// Union over epochs of per-epoch both-detected sets (Table IV "Both";
    /// see DESIGN.md §7 on the interpretation).
    both_seen: PageSet,
}

impl Tmp {
    /// Build and arm the profiler on `machine`.
    pub fn new(cfg: TmpConfig, machine: &mut Machine) -> Self {
        let trace = TraceProfiler::new(cfg.trace, machine);
        let abit = ABitScanner::new(cfg.abit);
        let gating = Gating::new(cfg.gating, machine);
        Self {
            trace,
            abit,
            filter: ProcessFilter::new(FilterConfig::default()),
            gating,
            both_seen: PageSet::new(),
        }
    }

    /// Close the current epoch: poll hardware, scan PTEs, snapshot the
    /// profile, evaluate gating, reset per-epoch counters, and advance the
    /// machine's epoch clock.
    ///
    /// Expressed through the staged close —
    /// [`Tmp::begin_epoch_close`] / [`Tmp::scan_epoch_pid`] /
    /// [`Tmp::finish_epoch_close`] — which the fleet runner steps as work
    /// units; running the stages back-to-back here is exactly what one
    /// fleet shard does, so the two paths are identical by construction.
    pub fn end_epoch(&mut self, machine: &mut Machine) -> TmpEpochReport {
        // 1–2. Poll, filter, and walk every tracked page table in order.
        let pids = self.begin_epoch_close(machine);
        for pid in pids {
            self.scan_epoch_pid(machine, pid);
        }
        // 3–6. Snapshot, account, gate, and cross the horizon.
        self.finish_epoch_close(machine)
    }

    /// Stage 1 of the epoch close: drain the trace buffers (kernel-module
    /// poll) and re-evaluate the process filter. Returns the tracked pids
    /// whose page tables stage 2 must scan (in this order) before
    /// [`Tmp::finish_epoch_close`] runs.
    pub fn begin_epoch_close(&mut self, machine: &mut Machine) -> Vec<tmprof_sim::tlb::Pid> {
        self.trace.poll(machine);
        self.filter.tracked_pids(machine)
    }

    /// Stage 2 of the epoch close, one work unit per call: A-bit-scan one
    /// tracked pid's page table under the configured budget. Units for
    /// different pids are independent; units for the same pid resume from
    /// the scan cursor and must stay in order.
    pub fn scan_epoch_pid(&mut self, machine: &mut Machine, pid: tmprof_sim::tlb::Pid) {
        self.abit.scan_process(machine, pid);
    }

    /// Stage 2 variant with an explicit per-unit PTE budget, for carving
    /// one pid's scan into several resumable units. Returns `true` while
    /// the walk stopped mid-table (more units needed to spend the rest of
    /// the pid's epoch budget).
    pub fn scan_epoch_pid_unit(
        &mut self,
        machine: &mut Machine,
        pid: tmprof_sim::tlb::Pid,
        budget: u64,
    ) -> bool {
        self.abit.scan_process_unit(machine, pid, budget)
    }

    /// Stages 3–6 of the epoch close: snapshot the profile, build the
    /// detection sets, evaluate gating, reset per-epoch counters, and
    /// advance the machine's epoch clock.
    pub fn finish_epoch_close(&mut self, machine: &mut Machine) -> TmpEpochReport {
        let epoch = machine.epoch();

        // 3. Snapshot per-page observations before the counters reset.
        let profile = EpochProfile::capture(machine.descs());

        // 4. Per-epoch detection sets (Table IV accounting).
        let abit_set = self.abit.take_epoch_pages();
        let trace_set = self.trace.take_epoch_pages();
        let both: Vec<u64> = abit_set.intersection(&trace_set).collect();
        let both_pages = both.len();
        self.both_seen.merge_unsorted(both);

        // 5. Gate the expensive mechanisms for the next epoch.
        let gate = self.gating.evaluate(machine);
        self.trace.set_enabled(machine, gate.trace_active);
        self.abit.set_enabled(gate.abit_active);

        // 6. Epoch horizon: reset per-epoch descriptor counters, advance
        //    the clock, and hand the closed epoch's ground truth out.
        machine.descs_mut().reset_epoch();
        let truth = machine.advance_epoch();
        tmprof_obs::metrics::inc(tmprof_obs::metrics::Metric::CoreEpochsClosed);

        TmpEpochReport {
            epoch,
            profile,
            truth,
            abit_pages: abit_set.len(),
            trace_pages: trace_set.len(),
            both_pages,
            gate,
        }
    }

    /// Cumulative pages detected by the A-bit driver (Table IV column).
    // tmprof-lint: allow(dead-surface) — the cumulative-set check of tests/integration_pipeline.rs and profiler::tests::both_accounting_accumulates
    pub fn abit_pages_total(&self) -> usize {
        self.abit.seen_pages().len()
    }

    /// Cumulative pages detected by the trace driver (Table IV column).
    // tmprof-lint: allow(dead-surface) — the cumulative-set check of tests/integration_pipeline.rs and profiler::tests::both_accounting_accumulates
    pub fn trace_pages_total(&self) -> usize {
        self.trace.seen_pages().len()
    }

    /// Cumulative same-epoch both-detected pages (Table IV "Both").
    // tmprof-lint: allow(dead-surface) — the cumulative-set check of tests/integration_pipeline.rs and profiler::tests::both_accounting_accumulates
    pub fn both_pages_total(&self) -> usize {
        self.both_seen.len()
    }

    /// Naive intersection of the cumulative sets (the alternative "Both"
    /// interpretation; DESIGN.md §7).
    // tmprof-lint: allow(dead-surface) — the cumulative-set check of tests/integration_pipeline.rs and profiler::tests::both_accounting_accumulates
    pub fn both_pages_cumulative_intersection(&self) -> usize {
        self.trace
            .seen_pages()
            .intersection_count(self.abit.seen_pages())
    }

    /// Trace-driver totals.
    pub fn trace_stats(&self) -> TraceStats {
        self.trace.stats()
    }

    /// A-bit-driver totals.
    pub fn abit_stats(&self) -> ABitStats {
        self.abit.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::RankSource;
    use tmprof_sim::prelude::*;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::scaled(2, 512, 2048, 64));
        m.add_process(1);
        m
    }

    fn strided(m: &mut Machine, pages: u64, ops: u64) {
        for i in 0..ops {
            m.exec_op(
                0,
                1,
                WorkOp::Mem {
                    va: VirtAddr((i % pages) * PAGE_SIZE + (i / pages * 64) % PAGE_SIZE),
                    store: false,
                    site: 0,
                },
            );
        }
    }

    #[test]
    fn end_epoch_produces_profile_and_truth() {
        #[cfg(not(feature = "obs-off"))]
        use tmprof_obs::metrics::{get, Metric};
        let mut m = machine();
        let mut tmp = Tmp::new(TmpConfig::paper_defaults(64), &mut m);
        strided(&mut m, 128, 20_000);
        #[cfg(not(feature = "obs-off"))]
        let closed = get(Metric::CoreEpochsClosed);
        let report = tmp.end_epoch(&mut m);
        assert_eq!(report.epoch, 0);
        assert!(report.abit_pages > 100, "A-bit saw the pages");
        assert!(report.trace_pages > 0, "IBS saw samples");
        assert!(report.truth.total_mem_accesses() > 0);
        assert!(!report.profile.ranked(RankSource::Combined).is_empty());
        assert_eq!(m.epoch(), 1);
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(get(Metric::CoreEpochsClosed), closed + 1);
    }

    #[test]
    fn epoch_counters_reset_at_horizon() {
        let mut m = machine();
        let mut tmp = Tmp::new(TmpConfig::paper_defaults(64), &mut m);
        strided(&mut m, 64, 10_000);
        tmp.end_epoch(&mut m);
        // Without new activity the next epoch is empty.
        let r2 = tmp.end_epoch(&mut m);
        assert_eq!(r2.profile.ranked(RankSource::Combined).len(), 0);
        assert_eq!(r2.truth.total_mem_accesses(), 0);
    }

    #[test]
    fn both_accounting_accumulates() {
        let mut m = machine();
        let mut tmp = Tmp::new(TmpConfig::paper_defaults(16), &mut m);
        strided(&mut m, 64, 30_000);
        tmp.end_epoch(&mut m);
        assert!(tmp.both_pages_total() > 0, "hot pages seen by both");
        assert!(tmp.both_pages_total() <= tmp.abit_pages_total());
        assert!(tmp.both_pages_total() <= tmp.trace_pages_total());
        // Same-epoch coincidence is at most the cumulative intersection.
        assert!(tmp.both_pages_total() <= tmp.both_pages_cumulative_intersection());
    }

    #[test]
    fn gating_disables_profilers_in_quiet_epochs() {
        let mut m = machine();
        let mut tmp = Tmp::new(TmpConfig::paper_defaults(64), &mut m);
        strided(&mut m, 256, 30_000);
        let r1 = tmp.end_epoch(&mut m);
        assert!(r1.gate.trace_active);
        // Quiet epoch: everything cache-resident.
        for _ in 0..20_000 {
            m.touch(0, 1, VirtAddr(0x1000));
        }
        let r2 = tmp.end_epoch(&mut m);
        assert!(!r2.gate.trace_active, "trace gated off after quiet epoch");
        // A quiet epoch with profilers off adds no observations.
        for _ in 0..20_000 {
            m.touch(0, 1, VirtAddr(0x1000));
        }
        let r3 = tmp.end_epoch(&mut m);
        assert_eq!(r3.trace_pages, 0);
        assert_eq!(r3.abit_pages, 0);
    }

    #[test]
    fn overhead_is_bounded_fraction_of_cycles() {
        let mut m = machine();
        // Base period 4096 (effective 1024 at 4x): the realistic regime
        // where the paper's <5% overhead claim lives.
        let mut tmp = Tmp::new(TmpConfig::paper_defaults(4096), &mut m);
        strided(&mut m, 256, 100_000);
        tmp.end_epoch(&mut m);
        let counts = m.aggregate_counts();
        let overhead = counts.profiling_overhead();
        assert!(overhead > 0.0);
        assert!(
            overhead < 0.05,
            "overhead {overhead} above the paper's bound"
        );
    }
}
