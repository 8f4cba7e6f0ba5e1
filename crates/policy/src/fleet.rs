//! The multi-tenant fleet pipeline: sharded epochs over the worker pool.
//!
//! A production node runs the TMP daemon for every tenant at once; this
//! module models that fleet as independent *shards* — one tenant each,
//! with its own [`Machine`], [`Tmp`] profiler, [`HistoryPolicy`],
//! [`PageMover`], and per-tenant [`AdmissionControl`] — and runs all of
//! their epoch pipelines on [`tmprof_core::pool`], one pool item per
//! shard. Each fleet epoch, a shard steps a chain of work units, in order:
//!
//! 1. **Exec** — run the tenant's quantum of ops (idle tenants contribute
//!    an empty quantum) and open the epoch close (trace poll + process
//!    filter).
//! 2. **Scan** — one unit per tracked pid, or several when
//!    [`FleetConfig::scan_unit_pte_budget`] carves a pid's A-bit walk
//!    into budgeted resumable pieces (the scan cursor keeps same-pid
//!    units in order).
//! 3. **Finish** — close the epoch, hand the profile to the policy, and
//!    apply the migration batch under admission control.
//!
//! This is the paper's TMP daemon sequence (trace drain → A-bit scan →
//! rank → migrate), so a chain's units can never run in parallel with
//! each other: the whole chain is the unit of parallelism. Shards share
//! no mutable state, so any worker count is *decision-identical* to one
//! worker: same migrations, same rankings, same gate flips (the
//! `fleet_identity` proptest pins this).
//!
//! Observability follows the pool's contract: worker-side counters fold
//! back into the caller, and admission rejections — which must be
//! journaled, but never from a worker thread — are buffered per shard and
//! recorded here after each fleet epoch, in shard order.

use tmprof_core::pool;
use tmprof_core::profiler::{Tmp, TmpConfig};
use tmprof_core::rank::RankSource;
use tmprof_obs::journal::{self, EventKind};
use tmprof_obs::metrics::{self, Metric};
use tmprof_sim::machine::{Machine, MachineConfig};
use tmprof_sim::runner::{OpStream, Runner};
use tmprof_sim::tier::Tier;
use tmprof_sim::tlb::Pid;

use crate::admission::{AdmissionConfig, AdmissionControl};
use crate::mover::{MoveReport, PageMover, PidMoveStats};
use crate::policies::{HistoryPolicy, PlacementPolicy};

/// Fleet-wide configuration. Every shard gets an identically shaped
/// machine; tenants differ only in their op streams and activity plans.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Fast-tier frames per shard machine.
    pub tier1_frames: u64,
    /// Slow-tier frames per shard machine.
    pub tier2_frames: u64,
    /// Base IBS period for each shard's profiler.
    pub ibs_period: u64,
    /// Fleet epochs to run.
    pub epochs: u32,
    /// Worker threads the shards run on (default 1: every shard on the
    /// calling thread). Any count makes the same decisions.
    pub workers: usize,
    /// Carve each pid's A-bit scan into units of at most this many PTEs;
    /// `None` keeps one unit per pid.
    pub scan_unit_pte_budget: Option<u64>,
    /// Per-tenant migration quotas (default unlimited).
    pub admission: AdmissionConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            tier1_frames: 64,
            tier2_frames: 1024,
            ibs_period: 64,
            epochs: 4,
            workers: 1,
            scan_unit_pte_budget: None,
            // The registered TMPROF_ADMIT_* knobs; unset means unlimited,
            // which never consults a bucket.
            admission: AdmissionConfig::from_env(),
        }
    }
}

impl FleetConfig {
    /// Set the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enable per-tenant admission quotas.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }
}

/// One tenant's contribution to the fleet: its op stream plus a per-epoch
/// activity plan. `ops[e]` is the quantum for fleet epoch `e`; epochs past
/// the end of the plan are idle (an exited tenant simply stops running —
/// its pages stay mapped, exactly like a process that went quiescent).
pub struct FleetTenant {
    /// The tenant's access-pattern generator.
    pub stream: Box<dyn OpStream + Send>,
    /// Ops to execute per fleet epoch; missing entries mean idle.
    pub ops: Vec<u64>,
}

impl FleetTenant {
    /// A tenant running `ops` every epoch for the whole run.
    pub fn steady(stream: Box<dyn OpStream + Send>, ops: u64, epochs: u32) -> Self {
        Self {
            stream,
            ops: vec![ops; epochs as usize],
        }
    }
}

/// One shard's per-epoch decision record — the identity surface the
/// fleet proptest compares across worker counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardEpoch {
    /// Machine epoch that closed.
    pub epoch: u32,
    /// Pages the policy nominated.
    pub nominated: usize,
    /// The hottest ranked page keys (up to 8), hottest first — a compact
    /// witness that the *ranking* matched, not just the move counts.
    pub hottest: Vec<u64>,
    /// Whether the trace driver stays on next epoch.
    pub gate_trace: bool,
    /// Whether the A-bit driver stays on next epoch.
    pub gate_abit: bool,
    /// What the mover did.
    pub moves: MoveReport,
    /// Admission rejections drained this epoch, `(pid, pages)` by pid.
    pub admit_rejected: Vec<(Pid, u64)>,
}

/// How many ranked keys each [`ShardEpoch::hottest`] witness keeps.
const HOTTEST_WITNESS: usize = 8;

/// One tenant's isolated pipeline state; one pool item.
struct Shard {
    pid: Pid,
    machine: Machine,
    tmp: Tmp,
    policy: HistoryPolicy,
    mover: PageMover,
    admission: AdmissionControl,
    stream: Box<dyn OpStream + Send>,
    ops: Vec<u64>,
    capacity: usize,
    scan_budget: Option<u64>,
    epoch_idx: u32,
    epochs: Vec<ShardEpoch>,
}

impl Shard {
    /// Step this fleet epoch's whole chain — Exec, Scan…, Finish — and
    /// return its work-unit count and its cost: the shard machine's
    /// *simulated* cycle delta, which no schedule can change, so the
    /// fleet's makespan is measured in the simulator's own currency
    /// rather than host wall-clock.
    fn run_chain(&mut self) -> ChainStats {
        let clock_before = self.machine.clock();
        let ops = self.ops.get(self.epoch_idx as usize).copied().unwrap_or(0);
        if ops > 0 {
            Runner::new(vec![(self.pid, &mut *self.stream)]).run(&mut self.machine, ops);
        }
        let pids = self.tmp.begin_epoch_close(&mut self.machine);
        let mut units = 2; // Exec + Finish
        for pid in pids {
            match self.scan_budget {
                Some(budget) => loop {
                    units += 1;
                    if !self.tmp.scan_epoch_pid_unit(&mut self.machine, pid, budget) {
                        break;
                    }
                },
                None => {
                    units += 1;
                    self.tmp.scan_epoch_pid(&mut self.machine, pid);
                }
            }
        }
        self.finish_epoch();
        ChainStats {
            units,
            cost: self.machine.clock() - clock_before,
        }
    }

    /// The Finish unit: close the epoch, decide, move, refill quotas.
    fn finish_epoch(&mut self) {
        let report = self.tmp.finish_epoch_close(&mut self.machine);
        let placement = self.policy.select(&report.profile, self.capacity);
        let moves = self.mover.apply_with_admission(
            &mut self.machine,
            &placement,
            Some(&mut self.admission),
        );
        self.admission.refill_epoch();
        let hottest = report
            .profile
            .top_k(RankSource::Combined, HOTTEST_WITNESS)
            .iter()
            .map(|r| r.key.pack())
            .collect();
        self.epochs.push(ShardEpoch {
            epoch: report.epoch,
            nominated: placement.tier1_pages.len(),
            hottest,
            gate_trace: report.gate.trace_active,
            gate_abit: report.gate.abit_active,
            moves,
            admit_rejected: self.admission.take_rejections(),
        });
        self.epoch_idx += 1;
    }
}

/// One shard chain's accounting for one fleet epoch.
struct ChainStats {
    units: u64,
    cost: u64,
}

/// One fleet epoch's accounting.
#[derive(Clone, Debug)]
struct EpochStats {
    /// Work units (Exec, Scan…, Finish) executed across every shard.
    units_executed: u64,
    /// Simulated cycles of every unit; the same at every worker count.
    total_cost: u64,
    /// The epoch's critical path in simulated cycles (see [`makespan`]).
    makespan: u64,
}

impl EpochStats {
    fn new(chains: &[ChainStats], workers: usize) -> Self {
        Self {
            units_executed: chains.iter().map(|c| c.units).sum(),
            total_cost: chains.iter().map(|c| c.cost).sum(),
            makespan: makespan(chains.iter().map(|c| c.cost), workers),
        }
    }
}

/// The critical path of running chains of these costs on `workers`
/// threads: each cost, in order, is added to the least-loaded of `workers`
/// bins, and the fullest bin is the makespan. That is how the pool's claim
/// counter assigns shards when host time tracks simulated cycles, and it
/// depends on nothing but its inputs.
fn makespan(costs: impl Iterator<Item = u64>, workers: usize) -> u64 {
    let mut bins = vec![0u64; workers.max(1)];
    for cost in costs {
        if let Some(bin) = bins.iter_mut().min() {
            *bin += cost;
        }
    }
    bins.into_iter().max().unwrap_or(0)
}

/// What a fleet run hands back.
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// Per-shard decision records, one inner vec per fleet epoch — the
    /// surface the decision-identity proptest compares.
    pub shards: Vec<Vec<ShardEpoch>>,
    /// Per-tenant mover attribution, summed over the whole run.
    pub per_pid_moves: Vec<(usize, Vec<(Pid, PidMoveStats)>)>,
    /// Schedule accounting, one per fleet epoch.
    epoch_stats: Vec<EpochStats>,
}

impl FleetReport {
    /// Total pages migrated (promotions + demotions) across the fleet.
    pub fn pages_moved(&self) -> u64 {
        self.shards
            .iter()
            .flatten()
            .map(|e| e.moves.promoted + e.moves.demoted)
            .sum()
    }

    /// Total migrations rejected by admission control.
    pub fn pages_rejected(&self) -> u64 {
        self.shards
            .iter()
            .flatten()
            .map(|e| e.moves.admit_rejected)
            .sum()
    }

    /// Total work units executed (exec + scan + finish).
    pub fn units_executed(&self) -> u64 {
        self.epoch_stats.iter().map(|s| s.units_executed).sum()
    }

    /// Units that moved between workers by theft: always 0, because the
    /// pool claims whole shard chains and never steals.
    pub fn units_stolen(&self) -> u64 {
        0
    }

    /// Total simulated cycles of all executed units, summed over the run.
    /// Schedule-invariant: identical at every worker count.
    pub fn total_cost(&self) -> u64 {
        self.epoch_stats.iter().map(|s| s.total_cost).sum()
    }

    /// The run's critical path in simulated cycles: fleet epochs are
    /// barriers, so the whole-run makespan is the sum of each epoch's.
    pub fn makespan(&self) -> u64 {
        self.epoch_stats.iter().map(|s| s.makespan).sum()
    }

    /// `total_cost / makespan`: the schedule's speedup over one worker in
    /// simulated-cycle terms (1.0 at one worker).
    pub fn schedule_speedup(&self) -> f64 {
        let makespan = self.makespan();
        if makespan == 0 {
            1.0
        } else {
            self.total_cost() as f64 / makespan as f64
        }
    }

    /// The decision surface, flattened for cheap equality checks: every
    /// shard's every epoch record, in shard order.
    pub fn decisions(&self) -> &[Vec<ShardEpoch>] {
        &self.shards
    }
}

/// Drives a whole fleet of tenant shards epoch by epoch.
pub struct FleetRunner {
    cfg: FleetConfig,
    shards: Vec<Shard>,
    epoch_stats: Vec<EpochStats>,
}

impl FleetRunner {
    /// Build one shard per tenant. Every shard machine is identically
    /// shaped; tenant `i` runs as pid 1 on its own machine (shard = home
    /// node, so pids never collide across shards and per-tenant admission
    /// keys stay local).
    pub fn new(cfg: FleetConfig, tenants: Vec<FleetTenant>) -> Self {
        let shards = tenants
            .into_iter()
            .map(|t| {
                let mut machine = Machine::new(MachineConfig::scaled(
                    1,
                    cfg.tier1_frames,
                    cfg.tier2_frames,
                    cfg.ibs_period,
                ));
                let pid: Pid = 1;
                machine.add_process(pid);
                let tmp = Tmp::new(TmpConfig::paper_defaults(cfg.ibs_period), &mut machine);
                let capacity = machine.memory().spec(Tier::Tier1).frames as usize;
                Shard {
                    pid,
                    machine,
                    tmp,
                    policy: HistoryPolicy::new(RankSource::Combined),
                    mover: PageMover::default(),
                    admission: AdmissionControl::new(cfg.admission),
                    stream: t.stream,
                    ops: t.ops,
                    capacity,
                    scan_budget: cfg.scan_unit_pte_budget,
                    epoch_idx: 0,
                    epochs: Vec::new(),
                }
            })
            .collect();
        Self {
            cfg,
            shards,
            epoch_stats: Vec::new(),
        }
    }

    /// Run one fleet epoch: every shard's chain on the worker pool, then
    /// journal the buffered admission rejections in shard order.
    pub fn run_epoch(&mut self) {
        let workers = self.cfg.workers;
        let chains = pool::run(&mut self.shards, workers, |_, shard| shard.run_chain());
        let stats = EpochStats::new(&chains, workers);
        metrics::add(Metric::SchedUnitsExecuted, stats.units_executed);
        self.epoch_stats.push(stats);

        // Deferred journaling: the rejection *events* are recorded here on
        // the calling thread, in shard order, stamped with each
        // shard's own deterministic clock — never from a worker.
        for shard in &self.shards {
            if let Some(ep) = shard.epochs.last() {
                for &(pid, pages) in &ep.admit_rejected {
                    journal::record(
                        EventKind::AdmitRejected,
                        shard.machine.clock(),
                        ep.epoch,
                        pid as u64,
                        pages,
                    );
                }
            }
        }
    }

    /// Run the configured number of fleet epochs and report.
    pub fn run(mut self) -> FleetReport {
        for _ in 0..self.cfg.epochs {
            self.run_epoch();
        }
        self.into_report()
    }

    /// Finish early (or after `run_epoch` loops) and hand out the report.
    pub fn into_report(self) -> FleetReport {
        FleetReport {
            per_pid_moves: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| (i, s.mover.pid_totals()))
                .collect(),
            shards: self.shards.into_iter().map(|s| s.epochs).collect(),
            epoch_stats: self.epoch_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::prelude::*;

    /// A skewed stream: a hot set the shard's tier 1 can hold, behind a
    /// cold prefix that grabs tier 1 first (so migrations must happen).
    struct SkewStream {
        rng: Rng,
        hot_pages: u64,
        cold_pages: u64,
        i: u64,
    }

    impl SkewStream {
        fn new(seed: u64, hot: u64, cold: u64) -> Self {
            Self {
                rng: Rng::new(seed),
                hot_pages: hot,
                cold_pages: cold,
                i: 0,
            }
        }
    }

    impl OpStream for SkewStream {
        fn next_op(&mut self) -> WorkOp {
            self.i += 1;
            let page = if self.i <= self.cold_pages {
                self.i - 1
            } else {
                self.cold_pages + self.rng.below(self.hot_pages)
            };
            let line = (self.i * 64) % PAGE_SIZE;
            WorkOp::Mem {
                va: VirtAddr(page * PAGE_SIZE + line),
                store: false,
                site: 0,
            }
        }
    }

    fn tenants(n: usize, epochs: u32) -> Vec<FleetTenant> {
        (0..n)
            .map(|i| {
                FleetTenant::steady(
                    Box::new(SkewStream::new(0xF1EE7 + i as u64, 24, 64)),
                    20_000,
                    epochs,
                )
            })
            .collect()
    }

    #[test]
    fn fleet_runs_and_migrates_for_every_tenant() {
        let cfg = FleetConfig::default().with_workers(1);
        let report = FleetRunner::new(cfg, tenants(3, 4)).run();
        assert_eq!(report.shards.len(), 3);
        for (i, shard) in report.shards.iter().enumerate() {
            assert_eq!(shard.len(), 4, "shard {i} closed every epoch");
            let promoted: u64 = shard.iter().map(|e| e.moves.promoted).sum();
            assert!(promoted > 0, "shard {i} never promoted its hot set");
        }
        assert!(report.units_executed() > 0);
        assert_eq!(report.units_stolen(), 0, "the pool never steals");
    }

    #[test]
    fn parallel_fleet_is_decision_identical_to_serial() {
        let serial = FleetRunner::new(FleetConfig::default().with_workers(1), tenants(6, 3)).run();
        for workers in [2, 4] {
            let par =
                FleetRunner::new(FleetConfig::default().with_workers(workers), tenants(6, 3)).run();
            assert_eq!(
                serial.decisions(),
                par.decisions(),
                "decisions diverged at {workers} workers"
            );
            assert_eq!(serial.units_executed(), par.units_executed());
            assert_eq!(
                serial.total_cost(),
                par.total_cost(),
                "unit cycle costs are schedule-invariant"
            );
            assert!(
                par.makespan() <= serial.makespan(),
                "a parallel schedule's critical path never exceeds serial"
            );
        }
    }

    #[test]
    fn makespan_fills_the_least_loaded_bin_in_order() {
        // One worker carries every chain; three split them greedily in
        // order ([10,20,30] -> [50,70,90]); spare workers leave the
        // longest chain as the critical path.
        let costs = [10, 20, 30, 40, 50, 60];
        assert_eq!(makespan(costs.into_iter(), 1), 210);
        assert_eq!(makespan(costs.into_iter(), 3), 90);
        assert_eq!(makespan(costs.into_iter(), 8), 60);
        assert_eq!(makespan(costs.into_iter(), 0), 210, "0 workers runs inline");
        assert_eq!(makespan(std::iter::empty(), 2), 0);
    }

    #[test]
    fn makespan_is_reproducible_and_one_worker_makespan_is_the_total() {
        let run = |workers| {
            FleetRunner::new(FleetConfig::default().with_workers(workers), tenants(5, 3)).run()
        };
        let (a, b) = (run(2), run(2));
        assert_eq!(a.makespan(), b.makespan(), "no race moves the makespan");
        assert!(a.makespan() < a.total_cost());
        let serial = run(1);
        assert_eq!(serial.makespan(), serial.total_cost());
        assert!((serial.schedule_speedup() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn scan_unit_budget_changes_the_schedule_not_the_decisions() {
        let whole = FleetRunner::new(FleetConfig::default().with_workers(1), tenants(2, 3)).run();
        let mut cfg = FleetConfig::default().with_workers(1);
        cfg.scan_unit_pte_budget = Some(16);
        let carved = FleetRunner::new(cfg, tenants(2, 3)).run();
        assert_eq!(whole.decisions(), carved.decisions());
        assert!(
            carved.units_executed() > whole.units_executed(),
            "budgeted scans split into more units"
        );
    }

    #[test]
    fn idle_epochs_close_but_do_no_work() {
        // A tenant whose plan ends after epoch 0 still gets its remaining
        // epochs closed (profilers keep running over a quiescent address
        // space) without executing ops.
        let tenant = FleetTenant {
            stream: Box::new(SkewStream::new(7, 16, 16)),
            ops: vec![10_000],
        };
        let mut cfg = FleetConfig::default().with_workers(1);
        cfg.epochs = 3;
        let report = FleetRunner::new(cfg, vec![tenant]).run();
        assert_eq!(report.shards[0].len(), 3);
        let late_moves: u64 = report.shards[0][2].moves.promoted;
        assert_eq!(late_moves, 0, "an idle epoch nominates nothing new");
    }

    #[test]
    fn admission_quotas_reject_and_journal_in_shard_order() {
        let cfg = FleetConfig::default()
            .with_workers(4)
            .with_admission(AdmissionConfig {
                promo_quota: Some(2),
                demo_quota: None,
                burst: 1,
            });
        let report = FleetRunner::new(cfg, tenants(4, 3)).run();
        assert!(report.pages_rejected() > 0, "tight quota must reject");
        // Per-epoch promoted never exceeds the quota (cap = quota here).
        for shard in &report.shards {
            for ep in shard {
                assert!(ep.moves.promoted <= 2, "quota enforced");
            }
        }
        // Rejections surfaced as data on the right shard and pid.
        let rejected_shards = report
            .shards
            .iter()
            .filter(|s| s.iter().any(|e| !e.admit_rejected.is_empty()))
            .count();
        assert!(rejected_shards > 0);
        for shard in &report.shards {
            for ep in shard {
                for &(pid, pages) in &ep.admit_rejected {
                    assert_eq!(pid, 1, "each shard's tenant runs as pid 1");
                    assert!(pages > 0);
                }
            }
        }
    }

    #[test]
    fn per_pid_attribution_sums_to_the_move_reports() {
        let report = FleetRunner::new(FleetConfig::default().with_workers(2), tenants(3, 3)).run();
        for (shard_idx, totals) in &report.per_pid_moves {
            let from_epochs: u64 = report.shards[*shard_idx]
                .iter()
                .map(|e| e.moves.promoted)
                .sum();
            let from_attribution: u64 = totals.iter().map(|(_, s)| s.promoted).sum();
            assert_eq!(from_epochs, from_attribution, "shard {shard_idx}");
        }
    }
}
