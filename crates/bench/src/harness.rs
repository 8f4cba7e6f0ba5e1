//! The experiment harness: run one workload under a configurable profiling
//! setup and collect everything the paper's tables and figures need.
//!
//! This mirrors `tmprof_core::profiler::Tmp`'s epoch loop but exposes each
//! mechanism independently, because the paper's experiments compare
//! piecemeal configurations (A-bit only, IBS only, different rates, gating
//! on/off) that the production profiler deliberately fuses.

use tmprof_core::rank::EpochProfile;
use tmprof_core::report::DetectionStats;
use tmprof_policy::hitrate::{ReplayEpoch, ReplayLog};
use tmprof_profilers::abit::{ABitConfig, ABitScanner, ABitStats};
use tmprof_profilers::trace::{TraceConfig, TraceProfiler, TraceStats};
use tmprof_sim::addr::Pfn;
use tmprof_sim::counters::EventCounts;
use tmprof_sim::keymap::PageSet;
use tmprof_sim::machine::{Machine, MachineConfig};
use tmprof_sim::runner::{OpStream, Runner};
use tmprof_sim::tlb::Pid;
use tmprof_workloads::spec::{WorkloadConfig, WorkloadKind};

use crate::scale::Scale;

/// Which profiling mechanisms are armed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfMode {
    /// Nothing (baseline for overhead measurement).
    None,
    /// A-bit scanning only.
    ABitOnly,
    /// Trace sampling only.
    TraceOnly,
    /// Both (TMP's configuration).
    Both,
}

/// Harness options.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    pub scale: Scale,
    pub mode: ProfMode,
    /// IBS rate multiplier (1, 4, 8 in the paper).
    pub rate: u64,
    /// Use PEBS-style event sampling instead of IBS op sampling.
    pub pebs: bool,
    /// A-bit scanner configuration.
    pub abit: ABitConfig,
    /// Record (epoch, pfn) heat points for Figs. 3–4.
    pub record_heat: bool,
    /// Override the base (1x) sampling period. Coverage experiments pass
    /// `scale.dense_period`; overhead experiments keep the sparse
    /// `scale.base_period` (see `Scale::dense_period`).
    pub base_period: Option<u64>,
    /// Back every process with transparent huge pages (2 MiB mappings).
    pub thp: bool,
}

impl RunOptions {
    /// TMP-shaped defaults at the given scale.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            mode: ProfMode::Both,
            rate: 4,
            pebs: false,
            abit: ABitConfig::restrictive(scale.abit_budget),
            record_heat: false,
            base_period: None,
            thp: false,
        }
    }

    /// Enable transparent huge pages for every process.
    pub fn with_thp(mut self) -> Self {
        self.thp = true;
        self
    }

    /// Use the scale's dense sampling period (coverage experiments).
    pub fn dense(mut self) -> Self {
        self.base_period = Some(self.scale.dense_period);
        self
    }

    /// Override the base (1x) sampling period explicitly.
    pub fn with_base_period(mut self, period: u64) -> Self {
        self.base_period = Some(period);
        self
    }

    /// Set the profiling mode.
    pub fn with_mode(mut self, mode: ProfMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the IBS rate multiplier.
    pub fn with_rate(mut self, rate: u64) -> Self {
        self.rate = rate;
        self
    }

    /// Enable heat recording.
    pub fn recording(mut self) -> Self {
        self.record_heat = true;
        self
    }
}

/// Everything a run produced.
pub struct WorkloadRun {
    pub kind: WorkloadKind,
    /// Cumulative detection counts (Table IV cells).
    pub detection: DetectionStats,
    /// Final aggregate PMU counters.
    pub counts: EventCounts,
    /// Per-epoch profiles + ground truth, for the Fig. 6 replay.
    pub log: ReplayLog,
    /// Trace heat points (Fig. 3).
    pub heat_trace: Vec<(u32, Pfn)>,
    /// A-bit heat points (Fig. 4).
    pub heat_abit: Vec<(u32, Pfn)>,
    /// Per-page cumulative A-bit observation counts (Fig. 5 CDFs).
    pub abit_page_counts: Vec<u64>,
    /// Per-page cumulative trace sample counts (Fig. 5 CDFs).
    pub trace_page_counts: Vec<u64>,
    /// Driver totals.
    pub trace_stats: TraceStats,
    pub abit_stats: ABitStats,
    /// Total physical frames of the machine (heatmap axis).
    pub total_frames: u64,
    /// Epochs executed.
    pub epochs: u32,
}

/// Size a machine for a workload: a DRAM-only box (everything tier 1, like
/// the paper's 64 GB testbed) big enough for the scaled footprint.
pub fn profiling_machine(cfg: &WorkloadConfig, scale: &Scale, rate_hint_period: u64) -> Machine {
    profiling_machine_with_slack(cfg, scale, rate_hint_period, false)
}

/// As [`profiling_machine`], with extra physical slack for THP runs (2 MiB
/// rounding can inflate each region to the next 512-page boundary).
pub fn profiling_machine_with_slack(
    cfg: &WorkloadConfig,
    scale: &Scale,
    rate_hint_period: u64,
    thp: bool,
) -> Machine {
    let mut frames = (cfg.total_pages() * 3 / 2).max(1024);
    if thp {
        // Up to 4 regions per process, each rounded up to a huge page.
        frames += cfg.processes as u64 * 4 * 512;
    }
    let mut mc = MachineConfig::scaled(scale.cores, frames, 0, rate_hint_period);
    mc.memory = tmprof_sim::tier::MemTopology::with_frames(frames, 0);
    Machine::new(mc)
}

/// Apply the scale's footprint multiplier to a workload's default config.
pub fn scaled_config(kind: WorkloadKind, scale: &Scale) -> WorkloadConfig {
    kind.default_config()
        .scaled_footprint(scale.footprint_mul.0, scale.footprint_mul.1)
}

/// Run one workload under `opts` and collect everything.
pub fn run_workload(kind: WorkloadKind, opts: &RunOptions) -> WorkloadRun {
    let cfg = scaled_config(kind, &opts.scale);
    let base_period = opts.base_period.unwrap_or(opts.scale.base_period);
    let trace_cfg = {
        let base = if opts.pebs {
            TraceConfig::pebs(base_period)
        } else {
            TraceConfig::ibs(base_period)
        };
        let base = base.at_rate(opts.rate);
        if opts.record_heat {
            base.recording()
        } else {
            base
        }
    };
    let mut machine = profiling_machine_with_slack(&cfg, &opts.scale, trace_cfg.period(), opts.thp);

    // Spawn processes + streams.
    let mut gens = cfg.spawn();
    let pids: Vec<Pid> = (1..=gens.len() as Pid).collect();
    for &pid in &pids {
        machine.add_process(pid);
        if opts.thp {
            machine.set_thp(pid, true);
        }
    }

    // Arm the requested mechanisms.
    let mut trace = match opts.mode {
        ProfMode::TraceOnly | ProfMode::Both => Some(TraceProfiler::new(trace_cfg, &mut machine)),
        _ => {
            // Leave the engines disabled.
            for core in 0..machine.num_cores() {
                machine.trace_engine_mut(core).set_enabled(false);
            }
            None
        }
    };
    let mut abit = match opts.mode {
        ProfMode::ABitOnly | ProfMode::Both => {
            let mut c = opts.abit;
            c.record_samples = opts.record_heat;
            Some(ABitScanner::new(c))
        }
        _ => None,
    };

    let mut log = ReplayLog::default();
    let mut both_seen = PageSet::new();

    for _epoch in 0..opts.scale.epochs {
        {
            let mut streams: Vec<(Pid, &mut dyn OpStream)> = gens
                .iter_mut()
                .enumerate()
                .map(|(i, g)| (pids[i], &mut **g as &mut dyn OpStream))
                .collect();
            Runner::new(std::mem::take(&mut streams)).run(&mut machine, opts.scale.ops_per_epoch);
        }
        if let Some(t) = trace.as_mut() {
            t.poll(&mut machine);
        }
        if let Some(a) = abit.as_mut() {
            a.scan(&mut machine, &pids);
        }
        let profile = EpochProfile::capture(machine.descs());
        let abit_set = abit
            .as_mut()
            .map(|a| a.take_epoch_pages())
            .unwrap_or_default();
        let trace_set = trace
            .as_mut()
            .map(|t| t.take_epoch_pages())
            .unwrap_or_default();
        both_seen.merge_unsorted(abit_set.intersection(&trace_set).collect());
        machine.descs_mut().reset_epoch();
        let truth = machine.advance_epoch();
        log.epochs.push(ReplayEpoch {
            profile,
            truth_mem: truth.mem_accesses,
        });
    }
    log.first_touch_order = machine.first_touch_order().to_vec();

    // Per-page cumulative counts for the CDFs.
    let mut abit_page_counts = Vec::new();
    let mut trace_page_counts = Vec::new();
    for (_pfn, d) in machine.descs().iter_owned() {
        if d.abit_total > 0 {
            abit_page_counts.push(d.abit_total);
        }
        if d.trace_total > 0 {
            trace_page_counts.push(d.trace_total);
        }
    }

    let detection = DetectionStats {
        abit: abit.as_ref().map_or(0, |a| a.seen_pages().len()),
        trace: trace.as_ref().map_or(0, |t| t.seen_pages().len()),
        both: both_seen.len(),
    };

    WorkloadRun {
        kind,
        detection,
        counts: machine.aggregate_counts(),
        heat_trace: trace
            .as_ref()
            .map(|t| t.heat_points().iter().map(|h| (h.epoch, h.pfn)).collect())
            .unwrap_or_default(),
        heat_abit: abit
            .as_ref()
            .map(|a| a.heat_points().iter().map(|h| (h.epoch, h.pfn)).collect())
            .unwrap_or_default(),
        abit_page_counts,
        trace_page_counts,
        trace_stats: trace.as_ref().map(|t| t.stats()).unwrap_or_default(),
        abit_stats: abit.as_ref().map(|a| a.stats()).unwrap_or_default(),
        total_frames: machine.memory().total_frames(),
        epochs: opts.scale.epochs,
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunOptions {
        RunOptions::new(Scale::quick())
    }

    #[test]
    fn both_mode_detects_with_both_mechanisms() {
        let run = run_workload(WorkloadKind::Gups, &quick());
        assert!(run.detection.abit > 0, "A-bit detected nothing");
        assert!(run.detection.trace > 0, "IBS detected nothing");
        assert_eq!(run.log.epochs.len(), quick().scale.epochs as usize);
        assert!(run.counts.llc_misses > 0);
    }

    #[test]
    fn none_mode_has_zero_profiling_overhead() {
        let run = run_workload(WorkloadKind::Lulesh, &quick().with_mode(ProfMode::None));
        assert_eq!(run.counts.profiling_cycles, 0);
        assert_eq!(run.detection.abit, 0);
        assert_eq!(run.detection.trace, 0);
    }

    #[test]
    fn single_modes_only_use_their_mechanism() {
        let a = run_workload(
            WorkloadKind::WebServing,
            &quick().with_mode(ProfMode::ABitOnly),
        );
        assert!(a.detection.abit > 0);
        assert_eq!(a.detection.trace, 0);
        let t = run_workload(
            WorkloadKind::WebServing,
            &quick().with_mode(ProfMode::TraceOnly),
        );
        assert_eq!(t.detection.abit, 0);
        assert!(t.detection.trace > 0);
    }

    #[test]
    fn heat_recording_produces_points() {
        let run = run_workload(WorkloadKind::Gups, &quick().recording());
        assert!(!run.heat_trace.is_empty());
        assert!(!run.heat_abit.is_empty());
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_workload(WorkloadKind::DataCaching, &quick());
        let b = run_workload(WorkloadKind::DataCaching, &quick());
        assert_eq!(a.detection, b.detection);
        assert_eq!(a.counts.llc_misses, b.counts.llc_misses);
        assert_eq!(a.counts.cycles, b.counts.cycles);
    }
}
