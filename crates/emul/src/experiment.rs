//! The §VI-C end-to-end experiment harness.
//!
//! Reproduces the paper's final measurement: run a workload on the
//! emulation testbed (fast tier + fault-emulated slow tier, 4 GB : 60 GB
//! ratio scaled down) under (a) the NUMA-like first-come-first-allocate
//! baseline and (b) TMP-driven History placement, and compare end-to-end
//! runtimes. The paper reports an average speedup of 1.04x and a best case
//! of 1.13x.

use tmprof_core::profiler::{Tmp, TmpConfig};
use tmprof_core::rank::RankSource;
use tmprof_policy::mover::{MoverConfig, PageMover};
use tmprof_policy::policies::{HistoryPolicy, PlacementPolicy};
use tmprof_sim::machine::{CacheProfile, LatencyConfig, Machine, MachineConfig};
use tmprof_sim::runner::{OpStream, Runner};
use tmprof_sim::tier::{MemTopology, Tier, TierSpec};
use tmprof_sim::tlb::Pid;
use tmprof_sim::trace_engine::TraceMode;

use crate::emulator::{EmulConfig, NvmEmulator};

/// Placement regimes compared in §VI-C.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmulPolicy {
    /// First-come-first-allocate, never migrates (the baseline).
    FirstTouch,
    /// TMP profiling + History placement each epoch.
    TmpHistory,
}

impl EmulPolicy {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EmulPolicy::FirstTouch => "first-touch baseline",
            EmulPolicy::TmpHistory => "TMP + History",
        }
    }
}

/// Outcome of one emulated run.
#[derive(Clone, Copy, Debug)]
pub struct EmulRunResult {
    /// Total cycles across cores (the runtime proxy; identical op counts
    /// make this directly comparable between regimes). It includes the
    /// mover's batched shootdown IPIs but not the per-page migration copy
    /// cost (`MoverConfig::per_page_cycles`), which the mover books only in
    /// its `MoveReport::cycles`.
    pub cycles: u64,
    /// Slow-page faults taken.
    pub slow_faults: u64,
    /// Faults that paid the hot-in-slow penalty.
    pub hot_faults: u64,
    /// Pages migrated (promotions + demotions).
    pub migrations: u64,
    /// Tier-1 hitrate over the run.
    pub tier1_hitrate: f64,
}

/// Build the emulation machine: both tiers run at DRAM latency (slowness is
/// fault-injected, as on the paper's testbed), capacity split
/// `t1_frames` : `t2_frames` (the paper's is 4 GB : 60 GB, i.e. 1 : 15).
pub fn emulation_machine(cores: usize, t1_frames: u64, t2_frames: u64, period: u64) -> Machine {
    let dram = |frames| TierSpec {
        frames,
        load_latency: 320,
        store_latency: 320,
        epoch_bytes_budget: None,
    };
    Machine::new(MachineConfig {
        cores,
        caches: CacheProfile::scaled_down(16),
        latency: LatencyConfig::default(),
        memory: MemTopology::new(dram(t1_frames), dram(t2_frames)),
        trace_mode: TraceMode::IbsOp { period },
    })
}

/// Run one regime for `epochs` epochs of `ops_per_stream` ops each.
///
/// The machine must have one registered process per stream. Returns the
/// run's cost metrics; compute speedup as `baseline.cycles / this.cycles`.
pub fn run_emulated(
    machine: &mut Machine,
    streams: &mut [(Pid, &mut dyn OpStream)],
    policy: EmulPolicy,
    emul_cfg: EmulConfig,
    tmp_cfg: TmpConfig,
    epochs: u32,
    ops_per_stream: u64,
) -> EmulRunResult {
    let (mut emu, handler) = NvmEmulator::new(emul_cfg);
    machine.set_fault_policy(Some(handler));
    let mut tmp = Tmp::new(tmp_cfg, machine);
    let mut history = HistoryPolicy::new(RankSource::Combined);
    let mut mover = PageMover::new(MoverConfig {
        per_page_cycles: emul_cfg.migration_cycles(),
    });
    let t1_capacity = machine.memory().spec(Tier::Tier1).frames as usize;

    for _ in 0..epochs {
        {
            let borrowed: Vec<(Pid, &mut dyn OpStream)> = streams
                .iter_mut()
                .map(|(pid, s)| (*pid, &mut **s as &mut dyn OpStream))
                .collect();
            Runner::new(borrowed).run(machine, ops_per_stream);
        }
        let report = tmp.end_epoch(machine);

        if policy == EmulPolicy::TmpHistory {
            let placement = history.select(&report.profile, t1_capacity);
            // Hot classification for the +13 µs penalty: the pages TMP
            // currently ranks hot (whatever portion stays in slow memory
            // pays the contention penalty).
            emu.set_hot_pages(placement.tier1_pages.iter().copied());
            mover.apply(machine, &placement);
        } else {
            // The +13 µs models device-side contention on hot lines, which
            // slow memory imposes under any policy, so the baseline, having
            // no profiler to rank pages, classifies hot pages by true heat.
            // Each page is listed once, so (count desc, key asc) is a
            // total order and the unstable in-place sort is exact.
            let mut hot = report.truth.mem_accesses;
            hot.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            emu.set_hot_pages(hot.into_iter().take(t1_capacity).map(|(k, _)| k));
        }

        // Periodic re-protection of everything in the slow region.
        emu.protect_slow_pages(machine);
    }

    let counts = machine.aggregate_counts();
    let totals = mover.totals();
    EmulRunResult {
        cycles: counts.cycles,
        slow_faults: emu.slow_faults(),
        hot_faults: emu.hot_faults(),
        migrations: totals.promoted + totals.demoted,
        tier1_hitrate: counts.tier1_hitrate(),
    }
}

/// Convenience: speedup of `optimized` over `baseline`.
pub fn speedup(baseline: &EmulRunResult, optimized: &EmulRunResult) -> f64 {
    baseline.cycles as f64 / optimized.cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::prelude::*;

    /// Hot-set-in-slow-memory stream: touches `cold` pages first (filling
    /// the fast tier), then hammers a hot set that landed in slow memory.
    struct SkewStream {
        rng: Rng,
        cold: u64,
        hot: u64,
        i: u64,
    }

    impl OpStream for SkewStream {
        fn next_op(&mut self) -> WorkOp {
            self.i += 1;
            let page = if self.i <= self.cold {
                self.i - 1
            } else {
                self.cold + self.rng.below(self.hot)
            };
            WorkOp::Mem {
                va: VirtAddr(page * PAGE_SIZE + (self.i * 64) % PAGE_SIZE),
                store: false,
                site: 0,
            }
        }
    }

    fn one_run(policy: EmulPolicy) -> EmulRunResult {
        let mut m = emulation_machine(1, 64, 960, 64);
        m.add_process(1);
        let mut s = SkewStream {
            rng: Rng::new(3),
            cold: 64,
            hot: 48,
            i: 0,
        };
        let mut streams: Vec<(Pid, &mut dyn OpStream)> = vec![(1, &mut s)];
        run_emulated(
            &mut m,
            &mut streams,
            policy,
            EmulConfig::default(),
            TmpConfig::paper_defaults(64),
            6,
            20_000,
        )
    }

    #[test]
    fn tmp_history_beats_first_touch_on_skew() {
        let base = one_run(EmulPolicy::FirstTouch);
        let opt = one_run(EmulPolicy::TmpHistory);
        let s = speedup(&base, &opt);
        assert!(s > 1.0, "speedup {s}");
        assert!(opt.tier1_hitrate > base.tier1_hitrate);
        assert!(opt.migrations > 0);
        assert!(
            opt.slow_faults < base.slow_faults,
            "{} vs {}",
            opt.slow_faults,
            base.slow_faults
        );
    }

    #[test]
    fn baseline_never_migrates() {
        let base = one_run(EmulPolicy::FirstTouch);
        assert_eq!(base.migrations, 0);
        assert!(base.slow_faults > 0, "slow tier must be exercised");
    }

    #[test]
    fn labels() {
        assert_eq!(EmulPolicy::FirstTouch.label(), "first-touch baseline");
        assert_eq!(EmulPolicy::TmpHistory.label(), "TMP + History");
    }
}
