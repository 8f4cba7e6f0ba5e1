//! The four benchmark workloads, each driven epoch by epoch through the
//! library's public API.
//!
//! Every workload runs in one of three passes:
//!
//! * [`Pass::Coarse`] — the untraced measurement, through the library's
//!   own entry points: `run_emulated` per kind, `FleetRunner::run_epoch` at
//!   two workers, or per epoch `Runner::run` then `Tmp::end_epoch` (or
//!   `run_workload`'s poll/scan/capture sequence).
//! * [`Pass::Serial`] — the fleet at one worker, the serial schedule that
//!   the two-worker wall time is compared against.
//! * [`Pass::Fine`] — the traced split. The same epochs go through finer
//!   public calls so each layer can be timed on its own: `Runner::run`'s
//!   round robin is reproduced to separate `fill_batch` from
//!   `exec_batch`, the epoch close runs as its staged calls, and the fleet
//!   runs its shards serially with the same per-shard calls as
//!   `policy::fleet`. A fine pass must reproduce the coarse pass's
//!   simulated outputs exactly; the caller checks their digests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tmprof_bench::harness::{profiling_machine_with_slack, scaled_config};
use tmprof_bench::scale::Scale;
use tmprof_bench::table::pct;
use tmprof_core::profiler::{Tmp, TmpConfig, TmpEpochReport};
use tmprof_core::rank::{EpochProfile, RankSource};
use tmprof_emul::emulator::{EmulConfig, NvmEmulator};
use tmprof_emul::experiment::{emulation_machine, run_emulated, EmulPolicy, EmulRunResult};
use tmprof_policy::admission::AdmissionControl;
use tmprof_policy::fleet::{FleetConfig, FleetReport, FleetRunner, FleetTenant, ShardEpoch};
use tmprof_policy::hitrate::{
    hitrate_grid, HitrateCell, ReplayEpoch, ReplayLog, ReplayPolicy, PAPER_RATIOS,
};
use tmprof_policy::mover::{MoverConfig, PageMover};
use tmprof_policy::policies::{HistoryPolicy, PlacementPolicy};
use tmprof_profilers::abit::{ABitConfig, ABitScanner, ABitStats};
use tmprof_profilers::trace::{TraceConfig, TraceProfiler, TraceStats};
use tmprof_sim::addr::{VirtAddr, PAGE_SIZE};
use tmprof_sim::keymap::PageSet;
use tmprof_sim::machine::{Machine, MachineConfig, WorkOp};
use tmprof_sim::rng::Rng;
use tmprof_sim::runner::{OpStream, Runner, DEFAULT_BATCH};
use tmprof_sim::tier::Tier;
use tmprof_sim::tlb::Pid;
use tmprof_workloads::fleet::FleetScenario;
use tmprof_workloads::spec::{WorkloadConfig, WorkloadKind};

use crate::spans::{Layer, Tracer};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ProfileReplay,
    PlacementEmul,
    SparseFootprint,
    Fleet1k,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ProfileReplay,
        Workload::PlacementEmul,
        Workload::SparseFootprint,
        Workload::Fleet1k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProfileReplay => "profile_replay",
            Workload::PlacementEmul => "placement_emul",
            Workload::SparseFootprint => "sparse_footprint",
            Workload::Fleet1k => "fleet_1k",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `Full` is the benchmark; `Tiny` is a miniature of every workload for
/// the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    Coarse,
    Serial,
    Fine,
}

/// Pass/fail tallies of the output checks.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn verify(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// FNV-1a over the simulated outputs a pass must reproduce.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Simulated work the per-layer metrics are normalized by.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    /// Simulated cycles charged inside `exec_batch` (fine passes only).
    pub exec_cycles: u64,
    pub trace_counted: u64,
    pub trace_attempts: u64,
    pub trace_cycles: u64,
    pub abit_scans: u64,
    pub abit_ptes: u64,
    pub abit_obs: u64,
    pub abit_cycles: u64,
    pub mover_pages: u64,
    pub mover_cycles: u64,
    pub slow_faults: u64,
}

impl LayerCounts {
    fn add_trace(&mut self, now: TraceStats, before: TraceStats) {
        let counted = now.counted_samples - before.counted_samples;
        self.trace_counted += counted;
        self.trace_attempts += counted
            + (now.filtered_samples - before.filtered_samples)
            + (now.wasted_tags - before.wasted_tags)
            + (now.dropped_samples - before.dropped_samples);
        self.trace_cycles += now.overhead_cycles - before.overhead_cycles;
    }

    fn add_abit(&mut self, now: ABitStats, before: ABitStats) {
        self.abit_scans += now.scans - before.scans;
        self.abit_ptes += now.ptes_visited - before.ptes_visited;
        self.abit_obs += now.observations - before.observations;
        self.abit_cycles += now.overhead_cycles - before.overhead_cycles;
    }
}

/// The fleet scheduler's view of a coarse pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedSummary {
    pub units: u64,
    pub stolen: u64,
    pub sim_speedup: f64,
}

/// Per-kind results of the §VI-C placement, as `speedup_emulation` prints them.
#[derive(Clone, Copy, Debug)]
pub struct EmulRow {
    pub kind: WorkloadKind,
    pub tier1_hitrate: f64,
    pub slow_faults: u64,
    pub migrations: u64,
}

/// Outputs the seed-0 checks compare against the committed result CSVs.
#[derive(Debug, Default)]
pub enum Golden {
    #[default]
    None,
    Replay(Vec<(WorkloadKind, Vec<HitrateCell>)>),
    Emul(Vec<EmulRow>),
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Digest of every simulated output the pass produced; identical
    /// across passes of one seed, whatever the pass kind.
    pub digest: u64,
    pub sim_ops: u64,
    pub sim_cycles: u64,
    /// Tier-1 hitrate of the placement under test, where the pass sees it.
    pub hitrate: Option<f64>,
    pub counts: LayerCounts,
    pub checks: Checks,
    pub golden: Golden,
    pub sched: Option<SchedSummary>,
}

/// A workload's inputs, built before the timed pass.
pub enum State {
    Replay(Vec<ProfiledKind>),
    Emul(Vec<EmulKind>),
    Sparse(Box<SparseState>),
    Fleet(Box<FleetRunner>, FleetTotals),
    Shards(Vec<Shard>, FleetTotals),
}

type Streams = Vec<(Pid, Box<dyn OpStream + Send>)>;

/// Build a workload's inputs from `seed`. Seed 0 keeps the repository's
/// default generator seeds, so its outputs match the committed CSVs.
pub fn setup(w: Workload, seed: u64, size: Size, pass: Pass) -> State {
    match w {
        Workload::ProfileReplay => State::Replay(setup_replay(seed, size)),
        Workload::PlacementEmul => State::Emul(setup_emul(seed, size)),
        Workload::SparseFootprint => State::Sparse(Box::new(setup_sparse(seed, size))),
        Workload::Fleet1k => setup_fleet(seed, size, pass),
    }
}

/// Run the timed pass over `state`.
pub fn run(state: State, size: Size, tr: &mut Tracer, pass: Pass) -> Outcome {
    let fine = pass == Pass::Fine;
    match state {
        State::Replay(kinds) => run_replay(kinds, &paper_scale(size), tr, fine),
        State::Emul(kinds) => run_emul(kinds, &paper_scale(size), tr, fine),
        State::Sparse(s) => run_sparse(*s, tr, fine),
        State::Fleet(runner, totals) => run_fleet(*runner, totals, tr),
        State::Shards(shards, totals) => run_shards(shards, totals, tr),
    }
}

// --- shared epoch steps ------------------------------------------------

/// One epoch's quantum of ops for every stream. Coarse passes call
/// `Runner::run`; fine passes reproduce its round robin (stream `i` on core
/// `i % cores`, [`DEFAULT_BATCH`]-op quanta) so generation and execution
/// are timed apart.
fn run_quantum(
    machine: &mut Machine,
    streams: &mut Streams,
    ops_per_stream: u64,
    tr: &mut Tracer,
    fine: bool,
    exec_cycles: &mut u64,
) {
    if !fine {
        let borrowed: Vec<(Pid, &mut dyn OpStream)> = streams
            .iter_mut()
            .map(|(pid, s)| (*pid, &mut **s as &mut dyn OpStream))
            .collect();
        Runner::new(borrowed).run(machine, ops_per_stream);
        return;
    }
    let cores = machine.num_cores();
    let n = streams.len();
    let mut remaining = vec![ops_per_stream; n];
    let mut total_left = ops_per_stream * n as u64;
    let mut buf = vec![WorkOp::Compute; DEFAULT_BATCH.min(ops_per_stream).max(1) as usize];
    let mut cursors = vec![0usize; cores];
    while total_left > 0 {
        for (core, cursor) in cursors.iter_mut().enumerate() {
            let assigned = (n + cores - 1 - core) / cores;
            let pick = (0..assigned)
                .map(|k| (*cursor + k) % assigned)
                .map(|slot| (core + slot * cores, slot))
                .find(|&(idx, _)| idx < n && remaining[idx] > 0);
            let Some((idx, slot)) = pick else { continue };
            *cursor = (slot + 1) % assigned;
            let quota = DEFAULT_BATCH.min(remaining[idx]);
            let (pid, stream) = &mut streams[idx];
            let batch = &mut buf[..quota as usize];
            tr.timed(Layer::Workloads, || stream.fill_batch(batch));
            let before = machine.clock();
            tr.timed(Layer::Sim, || machine.exec_batch(core, *pid, batch));
            *exec_cycles += machine.clock() - before;
            remaining[idx] -= quota;
            total_left -= quota;
        }
    }
}

/// Close an epoch: `Tmp::end_epoch`, or its staged calls on fine passes.
fn close_epoch(
    tmp: &mut Tmp,
    machine: &mut Machine,
    tr: &mut Tracer,
    fine: bool,
) -> TmpEpochReport {
    if !fine {
        return tmp.end_epoch(machine);
    }
    let pids = tr.timed(Layer::ProfTrace, || tmp.begin_epoch_close(machine));
    for pid in pids {
        tr.timed(Layer::ProfAbit, || tmp.scan_epoch_pid(machine, pid));
    }
    tr.timed(Layer::Core, || tmp.finish_epoch_close(machine))
}

fn spawn(cfg: &WorkloadConfig, machine: &mut Machine) -> Streams {
    cfg.spawn()
        .into_iter()
        .zip(1..)
        .map(|(stream, pid)| {
            machine.add_process(pid);
            (pid, stream)
        })
        .collect()
}

/// The 8 Table III kinds at the experiment binaries' default scale
/// (`Tiny`: two kinds, a few small epochs).
fn paper_kinds(size: Size) -> &'static [WorkloadKind] {
    match size {
        Size::Full => &WorkloadKind::ALL,
        Size::Tiny => &[WorkloadKind::Gups, WorkloadKind::WebServing],
    }
}

fn paper_scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale::default_scale(),
        Size::Tiny => Scale {
            cores: 2,
            ops_per_epoch: 1 << 12,
            epochs: 3,
            footprint_mul: (1, 32),
            dense_period: 256,
            abit_budget: 1024,
            ..Scale::quick()
        },
    }
}

/// A Table III kind at `scale`, re-seeded as `seed ^ kind` unless `seed`
/// is 0.
fn paper_config(kind: WorkloadKind, scale: &Scale, seed: u64) -> WorkloadConfig {
    let cfg = scaled_config(kind, scale);
    if seed == 0 {
        cfg
    } else {
        cfg.with_seed(seed ^ kind as u64)
    }
}

// --- profile_replay ----------------------------------------------------

/// One kind's profiling run, armed as `fig6_hitrate` arms it: dense
/// sampling at 4x, restrictive budgeted A-bit scans.
pub struct ProfiledKind {
    kind: WorkloadKind,
    machine: Machine,
    streams: Streams,
    trace: TraceProfiler,
    abit: ABitScanner,
}

fn setup_replay(seed: u64, size: Size) -> Vec<ProfiledKind> {
    let scale = paper_scale(size);
    paper_kinds(size)
        .iter()
        .map(|&kind| {
            let cfg = paper_config(kind, &scale, seed);
            let trace_cfg = TraceConfig::ibs(scale.dense_period).at_rate(4);
            let mut machine = profiling_machine_with_slack(&cfg, &scale, trace_cfg.period(), false);
            let streams = spawn(&cfg, &mut machine);
            let trace = TraceProfiler::new(trace_cfg, &mut machine);
            ProfiledKind {
                kind,
                machine,
                streams,
                trace,
                abit: ABitScanner::new(ABitConfig::restrictive(scale.abit_budget)),
            }
        })
        .collect()
}

/// `run_workload`'s epoch loop (which takes no seed) followed by the Fig. 6
/// replay grid, per kind.
fn run_replay(kinds: Vec<ProfiledKind>, scale: &Scale, tr: &mut Tracer, fine: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut digest = Digest::new();
    let mut grids = Vec::new();
    let mut hitrates = Vec::new();
    for mut k in kinds {
        let pids: Vec<Pid> = k.streams.iter().map(|(pid, _)| *pid).collect();
        let mut log = ReplayLog::default();
        let mut both_seen = PageSet::new();
        for _ in 0..scale.epochs {
            tr.begin_epoch();
            run_quantum(
                &mut k.machine,
                &mut k.streams,
                scale.ops_per_epoch,
                tr,
                fine,
                &mut out.counts.exec_cycles,
            );
            tr.timed(Layer::ProfTrace, || k.trace.poll(&mut k.machine));
            tr.timed(Layer::ProfAbit, || k.abit.scan(&mut k.machine, &pids));
            tr.timed(Layer::Core, || {
                let profile = EpochProfile::capture(k.machine.descs());
                let abit_set = PageSet::from_unsorted(k.abit.take_epoch_pages_raw());
                let trace_set = PageSet::from_unsorted(k.trace.take_epoch_pages_raw());
                k.machine.descs_mut().reset_epoch();
                let truth = k.machine.advance_epoch();
                both_seen.merge_unsorted(abit_set.intersection(&trace_set).collect());
                log.epochs.push(ReplayEpoch {
                    profile,
                    truth_mem: truth.mem_accesses,
                });
            });
            tr.end_epoch();
        }
        log.first_touch_order = k.machine.first_touch_order().to_vec();
        let grid = tr.timed(Layer::PolicyReplay, || hitrate_grid(&log, &PAPER_RATIOS));

        let counts = k.machine.aggregate_counts();
        let quota = k.streams.len() as u64 * scale.ops_per_epoch * u64::from(scale.epochs);
        out.checks.verify(
            counts.retired_ops == quota
                && grid.len() == 7 * PAPER_RATIOS.len()
                && grid.iter().all(|c| (0.0..=1.0).contains(&c.hitrate)),
            || {
                format!(
                    "profile_replay: {} retired {} of {quota} ops or left the grid incomplete",
                    k.kind.name(),
                    counts.retired_ops
                )
            },
        );
        out.sim_ops += counts.retired_ops;
        out.sim_cycles += counts.cycles;
        out.counts.add_trace(k.trace.stats(), TraceStats::default());
        out.counts.add_abit(k.abit.stats(), ABitStats::default());
        for v in [counts.cycles, counts.retired_ops, both_seen.len() as u64] {
            digest.mix(v);
        }
        for cell in &grid {
            digest.mix(cell.hitrate.to_bits());
        }
        hitrates.extend(
            grid.iter()
                .filter(|c| {
                    c.policy == ReplayPolicy::History
                        && c.source == RankSource::Combined
                        && c.ratio_denominator == 32
                })
                .map(|c| c.hitrate),
        );
        grids.push((k.kind, grid));
    }
    out.digest = digest.0;
    out.hitrate = Some(mean(&hitrates));
    out.golden = Golden::Replay(grids);
    out
}

/// The grid in `results/fig6_hitrate.csv`'s exact format.
fn fig6_csv(grids: &[(WorkloadKind, Vec<HitrateCell>)]) -> String {
    let mut csv = String::from("workload,ratio,policy,source,hitrate\n");
    for (kind, grid) in grids {
        for (&denom, cells) in PAPER_RATIOS.iter().zip(grid.chunks(7)) {
            for (i, cell) in cells.iter().enumerate() {
                let source = if i < 6 { cell.source.label() } else { "-" };
                csv.push_str(&format!(
                    "{},{},{},{},{:.6}\n",
                    kind.name(),
                    denom,
                    cell.policy.label(),
                    source,
                    cell.hitrate
                ));
            }
        }
    }
    csv
}

// --- seed-0 output checks ----------------------------------------------

const FIG6_CSV: &str = include_str!("../../results/fig6_hitrate.csv");
const EMUL_CSV: &str = include_str!("../../results/speedup_emulation.csv");
/// Seed-0 digests of the two workloads no committed CSV covers, recorded
/// when the benchmark was defined. A change to their simulated behaviour
/// must record them again.
const SPARSE_GOLDEN: u64 = 0xa90a_59bc_4fcf_12a8;
const FLEET_GOLDEN: u64 = 0x9eb6_7e63_0b35_d7d3;

/// At seed 0 and full size, compare a coarse pass with the repository's
/// committed outputs: `profile_replay` with `results/fig6_hitrate.csv` row
/// for row, `placement_emul` with the TMP columns of
/// `results/speedup_emulation.csv`, the other two with their digests.
pub fn check_golden(w: Workload, seed: u64, size: Size, out: &Outcome, checks: &mut Checks) {
    if seed != 0 || size != Size::Full {
        return;
    }
    match &out.golden {
        Golden::Replay(grids) => {
            let ours = fig6_csv(grids);
            checks.verify(ours == FIG6_CSV, || {
                let line = ours.lines().zip(FIG6_CSV.lines()).position(|(a, b)| a != b);
                format!(
                    "profile_replay: grid differs from results/fig6_hitrate.csv (line {line:?})"
                )
            });
        }
        Golden::Emul(rows) => {
            for row in rows {
                let committed: Vec<&str> = EMUL_CSV
                    .lines()
                    .find(|l| l.split(',').next() == Some(row.kind.name()))
                    .map(|l| l.split(',').collect())
                    .unwrap_or_default();
                let expected = [2, 4, 5].map(|i| committed.get(i).copied().unwrap_or("?"));
                let ours = [
                    pct(row.tier1_hitrate),
                    row.slow_faults.to_string(),
                    row.migrations.to_string(),
                ];
                checks.verify(ours == expected, || {
                    format!(
                        "placement_emul: {} (TMP hitrate, slow faults, migrations) = {ours:?}, \
                         results/speedup_emulation.csv has {expected:?}",
                        row.kind.name()
                    )
                });
            }
        }
        Golden::None => {
            let golden = match w {
                Workload::SparseFootprint => SPARSE_GOLDEN,
                Workload::Fleet1k => FLEET_GOLDEN,
                _ => return,
            };
            checks.verify(out.digest == golden, || {
                format!(
                    "{}: seed-0 digest {:#x} != recorded {golden:#x}",
                    w.name(),
                    out.digest
                )
            });
        }
    }
}

// --- placement_emul ----------------------------------------------------

/// One kind on `speedup_emulation`'s 1:15 emulated tiered machine.
pub struct EmulKind {
    kind: WorkloadKind,
    machine: Machine,
    streams: Streams,
}

fn setup_emul(seed: u64, size: Size) -> Vec<EmulKind> {
    let scale = paper_scale(size);
    paper_kinds(size)
        .iter()
        .map(|&kind| {
            let cfg = paper_config(kind, &scale, seed);
            let t2 = (cfg.total_pages() * 3 / 2).max(512);
            let t1 = (t2 / 15).max(64);
            let mut machine = emulation_machine(scale.cores, t1, t2, scale.base_period / 4);
            let streams = spawn(&cfg, &mut machine);
            EmulKind {
                kind,
                machine,
                streams,
            }
        })
        .collect()
}

/// `run_emulated(.., EmulPolicy::TmpHistory, ..)` per kind; fine passes run
/// its epoch loop as separately timed calls instead.
fn run_emul(kinds: Vec<EmulKind>, scale: &Scale, tr: &mut Tracer, fine: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut digest = Digest::new();
    let mut rows = Vec::new();
    for mut k in kinds {
        let res = if fine {
            emul_fine(&mut k, scale, tr, &mut out)
        } else {
            let mut streams: Vec<(Pid, &mut dyn OpStream)> = k
                .streams
                .iter_mut()
                .map(|(pid, s)| (*pid, &mut **s as &mut dyn OpStream))
                .collect();
            run_emulated(
                &mut k.machine,
                &mut streams,
                EmulPolicy::TmpHistory,
                EmulConfig::default(),
                TmpConfig::paper_defaults(scale.base_period),
                scale.epochs,
                scale.ops_per_epoch,
            )
        };

        let counts = k.machine.aggregate_counts();
        let quota = k.streams.len() as u64 * scale.ops_per_epoch * u64::from(scale.epochs);
        out.checks.verify(counts.retired_ops == quota, || {
            format!(
                "placement_emul: {} retired {} of {quota} ops",
                k.kind.name(),
                counts.retired_ops
            )
        });
        out.sim_ops += counts.retired_ops;
        out.sim_cycles += res.cycles;
        for v in [
            res.cycles,
            res.slow_faults,
            res.hot_faults,
            res.migrations,
            res.tier1_hitrate.to_bits(),
        ] {
            digest.mix(v);
        }
        rows.push(EmulRow {
            kind: k.kind,
            tier1_hitrate: res.tier1_hitrate,
            slow_faults: res.slow_faults,
            migrations: res.migrations,
        });
    }
    out.digest = digest.0;
    out.hitrate = Some(mean(
        &rows.iter().map(|r| r.tier1_hitrate).collect::<Vec<_>>(),
    ));
    out.golden = Golden::Emul(rows);
    out
}

/// `run_emulated`'s TMP + History epoch loop with every call timed apart.
/// The caller's digest check pins it to the library's results.
fn emul_fine(k: &mut EmulKind, scale: &Scale, tr: &mut Tracer, out: &mut Outcome) -> EmulRunResult {
    let emul_cfg = EmulConfig::default();
    let (mut emu, handler) = NvmEmulator::new(emul_cfg);
    k.machine.set_fault_policy(Some(handler));
    let mut tmp = Tmp::new(TmpConfig::paper_defaults(scale.base_period), &mut k.machine);
    let mut history = HistoryPolicy::new(RankSource::Combined);
    let mut mover = PageMover::new(MoverConfig {
        per_page_cycles: emul_cfg.migration_cycles(),
    });
    let capacity = k.machine.memory().spec(Tier::Tier1).frames as usize;
    let mut epoch_moves = 0;
    for _ in 0..scale.epochs {
        tr.begin_epoch();
        run_quantum(
            &mut k.machine,
            &mut k.streams,
            scale.ops_per_epoch,
            tr,
            true,
            &mut out.counts.exec_cycles,
        );
        let report = close_epoch(&mut tmp, &mut k.machine, tr, true);
        let placement = tr.timed(Layer::PolicyRank, || {
            history.select(&report.profile, capacity)
        });
        tr.timed(Layer::Emul, || {
            emu.set_hot_pages(placement.tier1_pages.iter().copied())
        });
        let moves = tr.timed(Layer::PolicyMover, || {
            mover.apply(&mut k.machine, &placement)
        });
        epoch_moves += moves.promoted + moves.demoted;
        tr.timed(Layer::Emul, || emu.protect_slow_pages(&mut k.machine));
        tr.end_epoch();
    }

    let counts = k.machine.aggregate_counts();
    let moved = mover.totals();
    let migrations = moved.promoted + moved.demoted;
    out.checks.verify(migrations == epoch_moves, || {
        format!(
            "placement_emul: {} epochs moved {epoch_moves} pages, the mover's totals say {migrations}",
            k.kind.name()
        )
    });
    out.counts
        .add_trace(tmp.trace_stats(), TraceStats::default());
    out.counts.add_abit(tmp.abit_stats(), ABitStats::default());
    out.counts.mover_pages += migrations;
    out.counts.mover_cycles += moved.cycles;
    out.counts.slow_faults += emu.slow_faults();
    EmulRunResult {
        cycles: counts.cycles,
        slow_faults: emu.slow_faults(),
        hot_faults: emu.hot_faults(),
        migrations,
        tier1_hitrate: counts.tier1_hitrate(),
    }
}

// --- sparse_footprint --------------------------------------------------

const SPARSE_PROCS: u64 = 2;
/// Generator seed when the benchmark runs at seed 0.
const SPARSE_SEED: u64 = 0x5BA_25E;
/// First mapped VPN, as the Table III generators lay out their regions.
const SPARSE_BASE_VPN: u64 = 0x10000;

struct SparseShape {
    pages: u64,
    hot: u64,
    epochs: u32,
    ops: u64,
}

fn sparse_shape(size: Size) -> SparseShape {
    match size {
        Size::Full => SparseShape {
            pages: 1 << 20,
            hot: 64,
            epochs: 1000,
            ops: 1024,
        },
        Size::Tiny => SparseShape {
            pages: 1 << 12,
            hot: 16,
            epochs: 20,
            ops: 256,
        },
    }
}

/// Touches `pages` pages once each, in order.
struct FirstTouch {
    next: u64,
}

impl OpStream for FirstTouch {
    fn next_op(&mut self) -> WorkOp {
        let vpn = SPARSE_BASE_VPN + self.next;
        self.next += 1;
        WorkOp::Mem {
            va: VirtAddr(vpn * PAGE_SIZE),
            store: false,
            site: 0,
        }
    }
}

/// Random lines of a fixed random hot set; one op in four is a store.
struct HotSet {
    rng: Rng,
    vpns: Vec<u64>,
}

impl OpStream for HotSet {
    fn next_op(&mut self) -> WorkOp {
        let pick = self.rng.below(self.vpns.len() as u64) as usize;
        let vpn = self.vpns.get(pick).copied().unwrap_or(SPARSE_BASE_VPN);
        let line = self.rng.below(PAGE_SIZE / 64) * 64;
        WorkOp::Mem {
            va: VirtAddr(vpn * PAGE_SIZE + line),
            store: self.rng.below(4) == 0,
            site: 1,
        }
    }
}

/// Two processes with every page mapped and a small hot set: the mapped ≫
/// hot regime where unbounded A-bit scans dominate.
pub struct SparseState {
    machine: Machine,
    tmp: Tmp,
    streams: Streams,
    shape: SparseShape,
    warmed: bool,
    trace_before: TraceStats,
    abit_before: ABitStats,
    clock_before: u64,
    retired_before: u64,
}

fn setup_sparse(seed: u64, size: Size) -> SparseState {
    let shape = sparse_shape(size);
    let base_period = Scale::default_scale().base_period;
    let frames = SPARSE_PROCS * shape.pages + 4096;
    let mut machine = Machine::new(MachineConfig::scaled(
        SPARSE_PROCS as usize,
        frames,
        0,
        base_period,
    ));
    let mut cfg = TmpConfig::paper_defaults(base_period);
    cfg.abit = ABitConfig::unbounded();
    // Every epoch must scan: the workload measures scan cost, which the
    // HWPC gate would otherwise switch off once the hot set is TLB-resident.
    cfg.gating.always_on = true;
    let mut tmp = Tmp::new(cfg, &mut machine);

    let mut sweep: Streams = (1..=SPARSE_PROCS as Pid)
        .map(|pid| {
            machine.add_process(pid);
            (
                pid,
                Box::new(FirstTouch { next: 0 }) as Box<dyn OpStream + Send>,
            )
        })
        .collect();
    let mut unused = 0;
    run_quantum(
        &mut machine,
        &mut sweep,
        shape.pages,
        &mut Tracer::new(false),
        false,
        &mut unused,
    );
    // Consume the sweep's A bits so measured epochs see only the hot set.
    let warmed = (0..4).any(|_| tmp.end_epoch(&mut machine).abit_pages == 0);

    let mut master = Rng::new(if seed == 0 { SPARSE_SEED } else { seed });
    let streams = (1..=SPARSE_PROCS as Pid)
        .map(|pid| {
            let mut rng = master.fork();
            let vpns = (0..shape.hot)
                .map(|_| SPARSE_BASE_VPN + rng.below(shape.pages))
                .collect();
            (
                pid,
                Box::new(HotSet { rng, vpns }) as Box<dyn OpStream + Send>,
            )
        })
        .collect();
    SparseState {
        trace_before: tmp.trace_stats(),
        abit_before: tmp.abit_stats(),
        clock_before: machine.clock(),
        retired_before: machine.aggregate_counts().retired_ops,
        machine,
        tmp,
        streams,
        shape,
        warmed,
    }
}

fn run_sparse(mut s: SparseState, tr: &mut Tracer, fine: bool) -> Outcome {
    let mut out = Outcome::default();
    let (mut abit_pages, mut trace_pages) = (0u64, 0u64);
    for _ in 0..s.shape.epochs {
        tr.begin_epoch();
        run_quantum(
            &mut s.machine,
            &mut s.streams,
            s.shape.ops,
            tr,
            fine,
            &mut out.counts.exec_cycles,
        );
        let report = close_epoch(&mut s.tmp, &mut s.machine, tr, fine);
        abit_pages += report.abit_pages as u64;
        trace_pages += report.trace_pages as u64;
        tr.end_epoch();
    }
    out.counts.add_trace(s.tmp.trace_stats(), s.trace_before);
    out.counts.add_abit(s.tmp.abit_stats(), s.abit_before);
    out.sim_ops = s.machine.aggregate_counts().retired_ops - s.retired_before;
    out.sim_cycles = s.machine.clock() - s.clock_before;
    let quota = SPARSE_PROCS * s.shape.ops * u64::from(s.shape.epochs);
    out.checks.verify(out.sim_ops == quota, || {
        format!("sparse_footprint: retired {} of {quota} ops", out.sim_ops)
    });
    out.checks.verify(s.warmed, || {
        "sparse_footprint: warm-up left sweep A bits unconsumed".into()
    });
    let expected = u64::from(s.shape.epochs) * SPARSE_PROCS;
    out.checks.verify(out.counts.abit_scans == expected, || {
        format!(
            "sparse_footprint: {} A-bit scans, expected one per process per epoch ({expected})",
            out.counts.abit_scans
        )
    });
    let mut digest = Digest::new();
    for v in [
        out.sim_cycles,
        out.counts.abit_ptes,
        out.counts.abit_obs,
        out.counts.trace_counted,
        abit_pages,
        trace_pages,
    ] {
        digest.mix(v);
    }
    out.digest = digest.0;
    out
}

// --- fleet_1k ----------------------------------------------------------

const FLEET_WORKERS: usize = 2;
/// Scan-unit carve budget, as in the `fleet_grid` bench.
const FLEET_SCAN_UNIT_PTES: u64 = 256;
/// Churn seed when the benchmark runs at seed 0 (the `fleet_grid` bench's).
const FLEET_SEED: u64 = 0xF1EE7;
/// Ranked keys per decision witness, as `policy::fleet` keeps them.
const HOTTEST_WITNESS: usize = 8;

/// Fleet size and the simulated work its plan schedules.
#[derive(Debug)]
pub struct FleetTotals {
    epochs: u32,
    ops: u64,
    /// Ops the tenants' streams have handed out, across the fleet.
    pulled: Arc<AtomicU64>,
}

/// A tenant's stream that counts the ops taken from it. `FleetRunner`
/// keeps its shards' machines private, so the untraced pass counts the
/// ops its shards execute here rather than in `retired_ops`.
struct Counted {
    inner: Box<dyn OpStream + Send>,
    ops: Arc<AtomicU64>,
}

impl OpStream for Counted {
    fn next_op(&mut self) -> WorkOp {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.inner.next_op()
    }

    fn fill_batch(&mut self, buf: &mut [WorkOp]) {
        self.ops.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.fill_batch(buf);
    }
}

fn fleet_plan(seed: u64, size: Size) -> (FleetConfig, Vec<FleetTenant>, FleetTotals) {
    let (n, epochs, ops_per_epoch) = match size {
        Size::Full => (1000, 20, 4000),
        Size::Tiny => (16, 3, 2000),
    };
    let seed = if seed == 0 { FLEET_SEED } else { seed };
    let cfg = FleetConfig {
        epochs,
        scan_unit_pte_budget: Some(FLEET_SCAN_UNIT_PTES),
        ..FleetConfig::default()
    };
    let mut ops = 0;
    let pulled = Arc::new(AtomicU64::new(0));
    let tenants = FleetScenario::churn(n, epochs, seed)
        .tenants
        .iter()
        .map(|plan| {
            let plan_ops = plan.ops_plan(epochs, ops_per_epoch);
            ops += plan_ops.iter().sum::<u64>();
            FleetTenant {
                stream: Box::new(Counted {
                    inner: plan.spawn_stream(),
                    ops: Arc::clone(&pulled),
                }),
                ops: plan_ops,
            }
        })
        .collect();
    (
        cfg,
        tenants,
        FleetTotals {
            epochs,
            ops,
            pulled,
        },
    )
}

/// The pass ran every op the plan schedules.
fn verify_fleet_ops(checks: &mut Checks, ran: u64, totals: &FleetTotals) {
    checks.verify(ran == totals.ops, || {
        format!("fleet_1k: ran {ran} of the {} planned ops", totals.ops)
    });
}

fn setup_fleet(seed: u64, size: Size, pass: Pass) -> State {
    let (cfg, tenants, totals) = fleet_plan(seed, size);
    match pass {
        Pass::Coarse | Pass::Serial => {
            let workers = if pass == Pass::Coarse {
                FLEET_WORKERS
            } else {
                1
            };
            let runner = FleetRunner::new(cfg.with_workers(workers), tenants);
            State::Fleet(Box::new(runner), totals)
        }
        Pass::Fine => State::Shards(
            tenants.into_iter().map(|t| Shard::new(&cfg, t)).collect(),
            totals,
        ),
    }
}

fn fleet_digest(decisions: &[Vec<ShardEpoch>], total_cost: u64, units: u64) -> u64 {
    let mut d = Digest::new();
    d.mix(total_cost);
    d.mix(units);
    for e in decisions.iter().flatten() {
        let m = e.moves;
        for v in [
            u64::from(e.epoch),
            e.nominated as u64,
            u64::from(e.gate_trace),
            u64::from(e.gate_abit),
            m.promoted,
            m.demoted,
            m.already_placed,
            m.unmapped,
            m.demote_failed,
            m.admit_rejected,
            m.cycles,
        ] {
            d.mix(v);
        }
        e.hottest.iter().for_each(|&k| d.mix(k));
        for &(pid, pages) in &e.admit_rejected {
            d.mix(u64::from(pid));
            d.mix(pages);
        }
    }
    d.0
}

fn run_fleet(mut runner: FleetRunner, totals: FleetTotals, tr: &mut Tracer) -> Outcome {
    for _ in 0..totals.epochs {
        tr.begin_epoch();
        runner.run_epoch();
        tr.end_epoch();
    }
    let report: FleetReport = runner.into_report();
    let units = report.units_executed();
    let ran = totals.pulled.load(Ordering::Relaxed);
    let mut checks = Checks::default();
    verify_fleet_epochs(&mut checks, report.decisions(), totals.epochs);
    verify_fleet_ops(&mut checks, ran, &totals);
    Outcome {
        checks,
        digest: fleet_digest(report.decisions(), report.total_cost(), units),
        sim_ops: ran,
        sim_cycles: report.total_cost(),
        sched: Some(SchedSummary {
            units,
            stolen: report.units_stolen(),
            sim_speedup: report.schedule_speedup(),
        }),
        ..Outcome::default()
    }
}

/// One tenant's pipeline, built exactly as `FleetRunner::new` builds its
/// shards, and stepped serially through the same calls as `policy::fleet`.
pub struct Shard {
    machine: Machine,
    tmp: Tmp,
    policy: HistoryPolicy,
    mover: PageMover,
    admission: AdmissionControl,
    streams: Streams,
    ops: Vec<u64>,
    capacity: usize,
    decisions: Vec<ShardEpoch>,
}

impl Shard {
    fn new(cfg: &FleetConfig, tenant: FleetTenant) -> Self {
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
            machine,
            tmp,
            policy: HistoryPolicy::new(RankSource::Combined),
            mover: PageMover::default(),
            admission: AdmissionControl::new(cfg.admission),
            streams: vec![(pid, tenant.stream)],
            ops: tenant.ops,
            capacity,
            decisions: Vec::new(),
        }
    }

    /// One fleet epoch: the Exec, Scan and Finish units of `policy::fleet`,
    /// back to back. Returns the number of scheduler units it spans.
    fn step_epoch(&mut self, epoch: usize, tr: &mut Tracer, exec_cycles: &mut u64) -> u64 {
        let ops = self.ops.get(epoch).copied().unwrap_or(0);
        if ops > 0 {
            run_quantum(
                &mut self.machine,
                &mut self.streams,
                ops,
                tr,
                true,
                exec_cycles,
            );
        }
        let pids = tr.timed(Layer::ProfTrace, || {
            self.tmp.begin_epoch_close(&mut self.machine)
        });
        let mut units = 2; // Exec + Finish
        for pid in pids {
            loop {
                units += 1;
                let more = tr.timed(Layer::ProfAbit, || {
                    self.tmp
                        .scan_epoch_pid_unit(&mut self.machine, pid, FLEET_SCAN_UNIT_PTES)
                });
                if !more {
                    break;
                }
            }
        }
        let report = tr.timed(Layer::Core, || {
            self.tmp.finish_epoch_close(&mut self.machine)
        });
        let placement = tr.timed(Layer::PolicyRank, || {
            self.policy.select(&report.profile, self.capacity)
        });
        let moves = tr.timed(Layer::PolicyMover, || {
            let moves = self.mover.apply_with_admission(
                &mut self.machine,
                &placement,
                Some(&mut self.admission),
            );
            self.admission.refill_epoch();
            moves
        });
        let hottest = tr.timed(Layer::PolicyRank, || {
            report
                .profile
                .top_k(RankSource::Combined, HOTTEST_WITNESS)
                .iter()
                .map(|r| r.key.pack())
                .collect()
        });
        self.decisions.push(ShardEpoch {
            epoch: report.epoch,
            nominated: placement.tier1_pages.len(),
            hottest,
            gate_trace: report.gate.trace_active,
            gate_abit: report.gate.abit_active,
            moves,
            admit_rejected: self.admission.take_rejections(),
        });
        units
    }
}

fn run_shards(mut shards: Vec<Shard>, totals: FleetTotals, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let clock_before: u64 = shards.iter().map(|s| s.machine.clock()).sum();
    let retired = |shards: &[Shard]| -> u64 {
        shards
            .iter()
            .map(|s| s.machine.aggregate_counts().retired_ops)
            .sum()
    };
    let retired_before = retired(&shards);
    let mut units = 0;
    for epoch in 0..totals.epochs as usize {
        tr.begin_epoch();
        for shard in &mut shards {
            units += shard.step_epoch(epoch, tr, &mut out.counts.exec_cycles);
        }
        tr.end_epoch();
    }
    let total_cost = shards.iter().map(|s| s.machine.clock()).sum::<u64>() - clock_before;
    out.sim_ops = retired(&shards) - retired_before;
    verify_fleet_ops(&mut out.checks, out.sim_ops, &totals);
    let mut hitrates = Vec::with_capacity(shards.len());
    for s in &shards {
        out.counts
            .add_trace(s.tmp.trace_stats(), TraceStats::default());
        out.counts
            .add_abit(s.tmp.abit_stats(), ABitStats::default());
        let moved = s.mover.totals();
        out.counts.mover_pages += moved.promoted + moved.demoted;
        out.counts.mover_cycles += moved.cycles;
        hitrates.push(s.machine.aggregate_counts().tier1_hitrate());
    }
    let decisions: Vec<Vec<ShardEpoch>> = shards.into_iter().map(|s| s.decisions).collect();
    verify_fleet_epochs(&mut out.checks, &decisions, totals.epochs);
    out.digest = fleet_digest(&decisions, total_cost, units);
    out.sim_cycles = total_cost;
    out.hitrate = Some(mean(&hitrates));
    out
}

/// Every shard closed every fleet epoch.
fn verify_fleet_epochs(checks: &mut Checks, decisions: &[Vec<ShardEpoch>], epochs: u32) {
    let closed = decisions
        .iter()
        .filter(|d| d.len() == epochs as usize)
        .count();
    checks.verify(closed == decisions.len(), || {
        format!(
            "fleet_1k: {closed} of {} shards closed all {epochs} epochs",
            decisions.len()
        )
    });
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
