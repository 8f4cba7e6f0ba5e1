//! The simulated multi-core machine.
//!
//! [`Machine`] glues the substrates together — per-core private caches and
//! TLBs, a shared LLC, per-process radix page tables walked by a hardware
//! page-table walker, tiered physical memory, per-core trace-sampling and
//! PML engines, PMU counters, and an omniscient ground-truth recorder.
//!
//! The execution model is op-granular: callers feed [`WorkOp`]s to
//! [`Machine::exec_op`], or a quantum at a time to [`Machine::exec_batch`]
//! (usually through `runner::Runner`, which handles scheduling), and the
//! machine plays each op through translation and the cache hierarchy,
//! charging a cycle cost assembled from [`LATENCY`].
//! Everything the paper's profiling mechanisms observe — A/D bit updates,
//! TLB fills, LLC miss data sources, sample records — is produced here as a
//! side effect of ordinary execution, never synthesized separately. That is
//! the point of the substrate: profilers can only be as right as what the
//! hardware exposes.

use crate::addr::{phys_addr, Pfn, PhysAddr, VirtAddr, Vpn};
use crate::cache::{Cache, CacheLevel, PrivateCaches};
use crate::counters::EventCounts;
use crate::frame::{FrameAllocator, OutOfMemory};
use crate::keymap::KeyMap;
use crate::pagedesc::{PageDescTable, PageKey, PID_LIMIT};
use crate::pagetable::PageTable;
use crate::pml::PmlEngine;
use crate::pte::{bits, Pte};
use crate::stats::{EpochTruth, GroundTruth};
use crate::tier::{MemTopology, Tier};
use crate::tlb::{Pid, Tlb, TlbEntry, TlbHit, TlbLevel};
use crate::trace_engine::{TagOutcome, TraceEngine, TraceMode, TraceSample};
use tmprof_obs::journal::EventKind as ObsEvent;
use tmprof_obs::metrics::Metric as ObsMetric;

/// Cycle costs of the microarchitectural events the machine charges.
///
/// Values approximate a ~4 GHz Zen2-class core; what matters for the
/// reproduction is their *relative* magnitudes (LLC miss >> L2 hit, fault >>
/// miss, IPI >> walk), which set the same trade-offs the paper measures.
#[derive(Clone, Copy, Debug)]
pub struct LatencyConfig {
    /// Base cost of any retired op.
    pub base_op: u64,
    /// Extra stall for an L1D hit (pipelined loads: none).
    pub l1_hit: u64,
    /// Extra stall for an L2 hit.
    pub l2_hit: u64,
    /// Extra stall for an LLC hit.
    pub llc_hit: u64,
    /// Hardware page-table walk.
    pub ptw: u64,
    /// Minor (first-touch) page fault.
    pub minor_fault: u64,
    /// Protection fault delivered to software (BadgerTrap/emulation traps).
    pub protection_fault: u64,
    /// D-bit write-back forced by a store through a clean TLB entry.
    pub dirty_writeback: u64,
    /// Per-core cost of receiving a TLB-shootdown IPI.
    pub shootdown_ipi: u64,
    /// Cost, per sample record, of the profiler's collection interrupt.
    pub sample_interrupt: u64,
    /// Software cost of visiting one PTE during an A-bit scan.
    pub pte_visit: u64,
}

/// The machine's cycle-cost table.
pub const LATENCY: LatencyConfig = LatencyConfig {
    base_op: 1,
    l1_hit: 0,
    l2_hit: 12,
    llc_hit: 38,
    ptw: 100,
    minor_fault: 2500,
    protection_fault: 4000,
    dirty_writeback: 30,
    shootdown_ipi: 4000,
    sample_interrupt: 1200,
    pte_visit: 12,
};

/// Machine construction parameters.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of cores (the paper's testbed has 6).
    pub cores: usize,
    /// Physical memory layout.
    pub memory: MemTopology,
    /// Trace-engine mode installed at reset.
    pub trace_mode: TraceMode,
}

impl MachineConfig {
    /// A scaled-down machine suitable for fast experiments:
    /// `t1_frames`/`t2_frames` of tiered memory, IBS period `period`. The
    /// `TMPROF_TOPOLOGY` knob reshapes the layout (same totals, slow
    /// frames split across the named slow tiers); unset means the default
    /// two-tier DRAM+NVM machine.
    pub fn scaled(cores: usize, t1_frames: u64, t2_frames: u64, period: u64) -> Self {
        Self::scaled_topology(
            cores,
            MemTopology::scaled_from_env(t1_frames, t2_frames),
            period,
        )
    }

    /// A scaled-down machine over an arbitrary N-tier memory layout.
    pub fn scaled_topology(cores: usize, memory: MemTopology, period: u64) -> Self {
        Self {
            cores,
            memory,
            trace_mode: TraceMode::IbsOp { period },
        }
    }
}

/// One unit of work offered to a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkOp {
    /// A demand load or store to a virtual address. `site` is a synthetic
    /// instruction pointer identifying the issuing code location.
    Mem {
        va: VirtAddr,
        store: bool,
        site: u32,
    },
    /// A non-memory op (ALU work): contributes to retired-op counts and
    /// IBS tagging denominators only.
    Compute,
}

/// Everything that happened while executing one op (test/emulation hook).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOutcome {
    /// Serving level for a memory op.
    pub source: Option<CacheLevel>,
    /// Serving tier when `source == Memory`.
    pub tier: Option<Tier>,
    /// Translation outcome for a memory op.
    pub tlb: Option<TlbHit>,
    /// Cycles charged (base + stalls + faults).
    pub cycles: u64,
    /// A minor (first-touch) fault was taken.
    pub minor_fault: bool,
    /// A protection fault was delivered to the fault policy.
    pub protection_fault: bool,
    /// The trace engine selected this op.
    pub sampled: bool,
}

/// A protection fault delivered to the installed [`FaultPolicy`].
#[derive(Clone, Copy, Debug)]
pub struct PoisonFault {
    pub core: u32,
    pub pid: Pid,
    pub vpn: Vpn,
    pub pte: Pte,
    pub is_store: bool,
    pub epoch: u32,
}

/// What the fault handler wants done before the access retries.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultAction {
    /// Clear the POISON bit before retrying the walk.
    pub unpoison: bool,
    /// Clear the PROT_NONE bit before retrying the walk.
    pub unprotect: bool,
    /// Re-set POISON after the TLB has been filled (BadgerTrap's repoison:
    /// the cached translation keeps working; the *next* walk faults again).
    pub repoison: bool,
    /// Extra stall cycles injected by the handler (latency emulation).
    pub extra_cycles: u64,
}

/// Software fault handler for poisoned / prot-none pages. Implemented by
/// BadgerTrap and AutoNUMA's hinting-fault handler (profilers crate) and
/// the NVM latency emulator (emul crate).
pub trait FaultPolicy: Send {
    /// Decide how to resolve `fault`.
    fn handle(&mut self, fault: &PoisonFault) -> FaultAction;
}

struct Core {
    caches: PrivateCaches,
    tlb: Tlb,
    counts: EventCounts,
    trace: TraceEngine,
    pml: PmlEngine,
}

/// One simulated process: an address space plus usage accounting.
pub struct Process {
    pub pid: Pid,
    pub page_table: PageTable,
    /// Ops this process has retired (daemon CPU-share signal).
    pub ops_executed: u64,
    /// Transparent huge pages: first-touch faults try to allocate and map
    /// 2 MiB regions (falling back to 4 KiB when no contiguous run is
    /// free), like the kernel's THP for large anonymous mappings.
    pub thp: bool,
}

/// Errors from page-migration mechanics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrateError {
    /// The virtual page is not mapped.
    NotMapped,
    /// The page is part of a 2 MiB huge mapping; the mover does not split
    /// or relocate huge pages (matching common kernel policy).
    HugePage,
    /// The page already resides in the destination tier.
    AlreadyThere,
    /// The destination tier has no free frames.
    NoFrames(OutOfMemory),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::NotMapped => write!(f, "page not mapped"),
            MigrateError::HugePage => write!(f, "page backed by a huge mapping"),
            MigrateError::AlreadyThere => write!(f, "page already in destination tier"),
            MigrateError::NoFrames(oom) => write!(f, "migration failed: {oom}"),
        }
    }
}

impl std::error::Error for MigrateError {}

/// The simulated machine. See the module docs for the execution model.
pub struct Machine {
    cfg: MachineConfig,
    cores: Vec<Core>,
    llc: Cache,
    /// Processes sorted by PID; `pid_index` maps PID -> position. A dense
    /// vec + fast-hash index keeps the per-op process lookup off the
    /// `BTreeMap` pointer-chase that used to dominate `exec_op`.
    processes: Vec<Process>,
    pid_index: KeyMap<Pid, usize>,
    frames: FrameAllocator,
    descs: PageDescTable,
    truth: GroundTruth,
    epoch: u32,
    fault_policy: Option<Box<dyn FaultPolicy>>,
    /// Packed [`PageKey`]s in the order they were first touched (minor
    /// faults). Feeds the first-come-first-allocate baseline evaluation.
    first_touch_log: Vec<u64>,
}

impl Machine {
    /// Build a machine from `cfg`, with all memory free and no processes.
    ///
    /// Every machine has one cache and TLB geometry: the paper's Zen2
    /// testbed (Ryzen 5 3600X) shrunk 16× for the scaled-down footprints.
    /// Caches keep Zen2's ways: L1D 4 KiB 8-way, L2 32 KiB 8-way, LLC 2 MiB
    /// 16-way. TLB reach scales with pages, not bytes, so the TLBs shrink
    /// by the square root of 16: a 16-entry fully associative DTLB and a
    /// 32-set × 16-way STLB.
    ///
    /// # Panics
    /// If `cfg` has no core, or more frames than the narrowest cache tag
    /// word can name: 2^27 frames (512 GiB), set by the 8-set L1D's 30
    /// tag bits (`Cache::frame_limit`). The message names the limit.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.cores > 0, "machine needs at least one core");
        let cores: Vec<Core> = (0..cfg.cores)
            .map(|_| Core {
                caches: PrivateCaches {
                    l1d: Cache::new("L1D", 4 << 10, 8),
                    l2: Cache::new("L2", 32 << 10, 8),
                },
                tlb: Tlb::new(TlbLevel::new(1, 16), TlbLevel::new(32, 16)),
                counts: EventCounts::default(),
                trace: TraceEngine::new(cfg.trace_mode),
                pml: PmlEngine::new(),
            })
            .collect();
        let llc = Cache::new("LLC", 2 << 20, 16);
        let total = cfg.memory.total_frames();
        for cache in [&cores[0].caches.l1d, &cores[0].caches.l2, &llc] {
            let limit = cache.frame_limit();
            assert!(
                total <= limit,
                "a memory layout of {total} frames is past the frame limit 2^{} ({limit}): the {}'s tag words name no line beyond it",
                limit.trailing_zeros(),
                cache.name()
            );
        }
        let frames = FrameAllocator::new(&cfg.memory);
        let descs = PageDescTable::new(total);
        let truth = GroundTruth::new(total);
        Self {
            cfg,
            cores,
            llc,
            processes: Vec::new(),
            pid_index: KeyMap::default(),
            frames,
            descs,
            truth,
            epoch: 0,
            fault_policy: None,
            first_touch_log: Vec::new(),
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cfg.cores
    }

    /// Physical memory layout.
    pub fn memory(&self) -> &MemTopology {
        &self.cfg.memory
    }

    /// Current epoch index.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The machine's aggregate sim clock: total cycles across all cores.
    /// Deterministic for identical runs; used to stamp journal events.
    #[inline]
    pub fn clock(&self) -> u64 {
        self.cores.iter().map(|c| c.counts.cycles).sum()
    }

    /// Install (or remove) the protection-fault handler.
    pub fn set_fault_policy(&mut self, policy: Option<Box<dyn FaultPolicy>>) {
        self.fault_policy = policy;
    }

    /// Register a new (empty) process.
    ///
    /// # Panics
    /// If the PID is already registered, or is not below [`PID_LIMIT`]
    /// (2^28, the PID field of a packed [`PageKey`]).
    pub fn add_process(&mut self, pid: Pid) {
        assert!(
            !self.pid_index.contains_key(&pid),
            "pid {pid} already exists"
        );
        assert!(
            pid < PID_LIMIT,
            "pid {pid} is not below the pid limit 2^28 ({PID_LIMIT}): a page key packs the pid into 28 bits"
        );
        let pos = self.processes.partition_point(|p| p.pid < pid);
        self.processes.insert(
            pos,
            Process {
                pid,
                page_table: PageTable::new(),
                ops_executed: 0,
                thp: false,
            },
        );
        // Reindex the (rare) insertion and everything it shifted.
        for (i, p) in self.processes.iter().enumerate().skip(pos) {
            self.pid_index.insert(p.pid, i);
        }
    }

    /// Position of `pid` in the dense process table.
    #[inline]
    fn proc_idx(&self, pid: Pid) -> usize {
        // tmprof-lint: allow(panic-reachability) — callers pass PIDs they registered via add_process; an unknown PID is a harness bug, not a runtime condition
        *self.pid_index.get(&pid).expect("unknown pid")
    }

    /// Enable or disable transparent huge pages for a process. Affects
    /// only future first-touch faults.
    pub fn set_thp(&mut self, pid: Pid, enabled: bool) {
        let idx = self.proc_idx(pid);
        self.processes[idx].thp = enabled;
    }

    /// Registered PIDs, ascending. Borrows instead of allocating; collect
    /// when a snapshot must outlive machine mutation.
    pub fn pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.processes.iter().map(|p| p.pid)
    }

    /// Split borrows for a software PTE scan over `pid`: page table and
    /// descriptor table. This is the entry point the A-bit driver uses
    /// (`mm_walk` + `phys_to_page`).
    pub fn scan_parts(&mut self, pid: Pid) -> Option<(&mut PageTable, &mut PageDescTable)> {
        let idx = *self.pid_index.get(&pid)?;
        let proc = &mut self.processes[idx];
        Some((&mut proc.page_table, &mut self.descs))
    }

    /// The per-core trace engine (driver MSR access).
    // tmprof-lint: allow(panic-reachability) — core is a valid core id by caller contract (bounded by cores.len())
    pub fn trace_engine_mut(&mut self, core: usize) -> &mut TraceEngine {
        &mut self.cores[core].trace
    }

    /// The per-core PML engine.
    // tmprof-lint: allow(panic-reachability) — core is a valid core id by caller contract (bounded by cores.len())
    pub fn pml_engine_mut(&mut self, core: usize) -> &mut PmlEngine {
        &mut self.cores[core].pml
    }

    /// Per-core PMU counters.
    // tmprof-lint: allow(panic-reachability) — core is a valid core id by caller contract (bounded by cores.len())
    pub fn counts(&self, core: usize) -> &EventCounts {
        &self.cores[core].counts
    }

    /// Per-core counters, core order, without the aggregate copy. Callers
    /// that only need one or two fields fold this instead of paying
    /// [`Machine::aggregate_counts`].
    pub fn counts_iter(&self) -> impl Iterator<Item = &EventCounts> {
        self.cores.iter().map(|c| &c.counts)
    }

    /// Sum of all cores' counters.
    pub fn aggregate_counts(&self) -> EventCounts {
        let mut total = EventCounts::default();
        for c in self.counts_iter() {
            total.add(c);
        }
        total
    }

    /// The machine-wide page-descriptor table.
    pub fn descs(&self) -> &PageDescTable {
        &self.descs
    }

    /// Mutable descriptor table (drivers accumulate stats here).
    pub fn descs_mut(&mut self) -> &mut PageDescTable {
        &mut self.descs
    }

    /// Frame allocator (placement inspection).
    pub fn frames(&self) -> &FrameAllocator {
        &self.frames
    }

    /// Close the current epoch: bump the epoch index and return the
    /// epoch's ground truth (Oracle / evaluation only — profilers never
    /// see it), leaving every frame's count at 0.
    pub fn advance_epoch(&mut self) -> EpochTruth {
        let clock = self.clock();
        tmprof_obs::metrics::inc(ObsMetric::SimEpochs);
        tmprof_obs::journal::record(ObsEvent::EpochEnd, clock, self.epoch, 0, 0);
        self.epoch += 1;
        tmprof_obs::journal::record(ObsEvent::EpochStart, clock, self.epoch, 0, 0);
        self.truth.take_epoch()
    }

    /// Charge profiling work to a core's clock (scan costs, drain interrupts).
    // tmprof-lint: allow(panic-reachability) — core is a valid core id by caller contract (bounded by cores.len())
    pub fn charge_profiling(&mut self, core: usize, cycles: u64) {
        let c = &mut self.cores[core];
        c.counts.cycles += cycles;
        c.counts.profiling_cycles += cycles;
    }

    /// TLB shootdown for a batch of pages of one process: invalidates the
    /// translations on every core and charges each core one IPI, optionally
    /// booked as profiling overhead. Returns total cycles charged.
    pub fn shootdown(&mut self, pid: Pid, vpns: &[Vpn], as_profiling: bool) -> u64 {
        if vpns.is_empty() {
            return 0;
        }
        let ipi = LATENCY.shootdown_ipi;
        let mut charged = 0;
        for core in &mut self.cores {
            for &vpn in vpns {
                core.tlb.invalidate_page(pid, vpn);
            }
            core.counts.cycles += ipi;
            if as_profiling {
                core.counts.profiling_cycles += ipi;
            }
            charged += ipi;
        }
        tmprof_obs::metrics::inc(ObsMetric::SimShootdowns);
        tmprof_obs::metrics::add(ObsMetric::SimShootdownPages, vpns.len() as u64);
        tmprof_obs::journal::record(
            ObsEvent::TlbShootdown,
            self.clock(),
            self.epoch,
            vpns.len() as u64,
            as_profiling as u64,
        );
        charged
    }

    /// Invalidate translations on every core WITHOUT charging IPI costs.
    ///
    /// Used by evaluation plumbing (e.g. the NVM latency emulator's
    /// periodic re-protection pass) whose own cost must not perturb the
    /// runtimes being compared.
    pub fn shootdown_silent(&mut self, pid: Pid, vpns: &[Vpn]) {
        for core in &mut self.cores {
            for &vpn in vpns {
                core.tlb.invalidate_page(pid, vpn);
            }
        }
    }

    /// Page-migration mechanics: move (`pid`, `vpn`) into `dest` tier.
    ///
    /// Updates the PTE, moves descriptor state and the page's ground-truth
    /// count, scrubs the vacated frame's lines from every cache,
    /// invalidates the page's (now dangling) translations on every core,
    /// frees the vacated frame, and returns `(old_pfn, new_pfn)`. The
    /// scrub is one pass over the sets the vacated frame maps to in each
    /// core's L1 and L2 and in the LLC; the destination needs none,
    /// because a frame on a free list is cold (it was never mapped, or
    /// this scrub emptied it before freeing it) and its truth count is 0.
    /// The invalidation is a *correctness* action and is modelled free
    /// (the kernel's migration entry + local flush); the cost of the
    /// batched IPI broadcast — the paper's one-shootdown-per-epoch design
    /// (§IV step 2, reason 1) — is charged by the page mover via
    /// [`Machine::shootdown`] once per batch.
    pub fn migrate_page(
        &mut self,
        pid: Pid,
        vpn: Vpn,
        dest: Tier,
    ) -> Result<(Pfn, Pfn), MigrateError> {
        let layout = &self.cfg.memory;
        let idx = *self.pid_index.get(&pid).ok_or(MigrateError::NotMapped)?;
        let proc = &mut self.processes[idx];
        let pte_ref = proc
            .page_table
            .entry_mut(vpn)
            .filter(|p| p.present())
            .ok_or(MigrateError::NotMapped)?;
        if pte_ref.huge() {
            return Err(MigrateError::HugePage);
        }
        let old_pfn = pte_ref.pfn();
        if layout.tier_of(old_pfn) == dest {
            return Err(MigrateError::AlreadyThere);
        }
        let new_pfn = self.frames.alloc_in(dest).map_err(MigrateError::NoFrames)?;
        *pte_ref = pte_ref.with_pfn(new_pfn);
        self.descs.migrate(old_pfn, new_pfn);
        self.truth.migrate(old_pfn, new_pfn, PageKey { pid, vpn });
        debug_assert_eq!(
            self.cached_lines_of(new_pfn),
            0,
            "free frame {new_pfn:?} holds cached lines"
        );
        // The copy invalidates the old location's lines, so the frame goes
        // back to its free list cold.
        let first_line = old_pfn.base().line();
        for core in &mut self.cores {
            core.caches.scrub_page(first_line);
        }
        self.llc.invalidate_page_lines(first_line);
        // Correctness: the old translation must die before the frame is
        // reused. This models the migration entry + flush the kernel
        // installs; the batched IPI *cost* is charged by the mover.
        self.shootdown_silent(pid, &[vpn]);
        self.frames.free(&self.cfg.memory, old_pfn);
        tmprof_obs::metrics::inc(ObsMetric::SimMigrations);
        Ok((old_pfn, new_pfn))
    }

    /// Every core's L1 and L2, then the LLC.
    fn caches(&self) -> impl Iterator<Item = &Cache> {
        self.cores
            .iter()
            .flat_map(|c| [&c.caches.l1d, &c.caches.l2])
            .chain(std::iter::once(&self.llc))
    }

    /// Valid lines of frame `pfn` in any cache (the free-frame assertion).
    fn cached_lines_of(&self, pfn: Pfn) -> usize {
        let first_line = pfn.base().line();
        self.caches().map(|c| c.page_lines_cached(first_line)).sum()
    }

    /// Frames with at least one valid line in some core's L1 or L2 or in
    /// the LLC, ascending (diagnostics: no frame on a free list may appear).
    // tmprof-lint: allow(dead-surface) — the free-frames-are-cold invariant of sim/tests/machine_props.rs
    pub fn cached_frames(&self) -> Vec<Pfn> {
        let mut frames: Vec<Pfn> = self
            .caches()
            .flat_map(Cache::valid_lines)
            .map(|line| PhysAddr(line << crate::addr::LINE_SHIFT).pfn())
            .collect();
        frames.sort_unstable();
        frames.dedup();
        frames
    }

    /// Execute one op on `core` on behalf of `pid`.
    ///
    /// # Panics
    /// If `pid` is unknown, or a protection fault occurs with no handler
    /// installed (or the handler declines to resolve it).
    pub fn exec_op(&mut self, core: usize, pid: Pid, op: WorkOp) -> ExecOutcome {
        let proc_idx = self.proc_idx(pid);
        self.exec_at(core, proc_idx, pid, op)
    }

    /// Execute a scheduling quantum of `ops` on `core` on behalf of `pid`.
    ///
    /// Exactly `for &op in ops { machine.exec_op(core, pid, op) }`, with the
    /// process lookup resolved once and `sim.batch_ops` added once per
    /// quantum; `tests/batch_props.rs` checks the identity across scans,
    /// shootdowns, migrations and epochs.
    ///
    /// # Panics
    /// As [`Machine::exec_op`].
    pub fn exec_batch(&mut self, core: usize, pid: Pid, ops: &[WorkOp]) {
        let proc_idx = self.proc_idx(pid);
        for &op in ops {
            self.exec_at(core, proc_idx, pid, op);
        }
        tmprof_obs::metrics::add(ObsMetric::SimBatchOps, ops.len() as u64);
    }

    /// The one op-execution path, with the process index pre-resolved:
    /// retirement, translation, the cache hierarchy, cycle charging, the
    /// trace-sampling offer and ground truth. [`Machine::exec_op`] runs one
    /// op through it; [`Machine::exec_batch`] runs a quantum.
    #[inline]
    // tmprof-lint: allow(panic-reachability) — core < cores.len() by the scheduler contract, and proc_idx comes from proc_idx(pid)
    fn exec_at(&mut self, core_idx: usize, proc_idx: usize, pid: Pid, op: WorkOp) -> ExecOutcome {
        let lat = LATENCY;
        let mut out = ExecOutcome {
            cycles: lat.base_op,
            ..Default::default()
        };

        // --- bookkeeping: retirement ---
        self.processes[proc_idx].ops_executed += 1;
        let core = &mut self.cores[core_idx];
        core.counts.retired_ops += 1;
        let (va, store, site) = match op {
            WorkOp::Compute => {
                core.counts.cycles += lat.base_op;
                out.sampled = core.trace.offer_compute() == TagOutcome::Tagged;
                return out;
            }
            WorkOp::Mem { va, store, site } => (va, store, site),
        };
        debug_assert!(va.is_canonical(), "non-canonical {va:?}");
        if store {
            core.counts.stores += 1;
        } else {
            core.counts.loads += 1;
        }

        // --- address translation ---
        let vpn = va.vpn();
        let (pfn, tlb_hit) = self.translate(core_idx, proc_idx, pid, vpn, store, &mut out);
        out.tlb = Some(tlb_hit);

        // --- cache hierarchy ---
        let pa = phys_addr(pfn, va.page_offset());
        let core = &mut self.cores[core_idx];
        let source;
        let mut tier = None;
        if let Some(level) = core.caches.probe(pa, store) {
            source = level;
            out.cycles += match level {
                CacheLevel::L1 => lat.l1_hit,
                CacheLevel::L2 => {
                    core.counts.l1d_misses += 1;
                    lat.l2_hit
                }
                // tmprof-lint: allow(panic-reachability) — PrivateCaches::probe only reports L1/L2 hits by construction; LLC and memory are probed on the shared path below
                _ => unreachable!("private probe beyond L2"),
            };
        } else {
            core.counts.l1d_misses += 1;
            core.counts.l2_misses += 1;
            if self.llc.probe(pa.line(), store) {
                source = CacheLevel::Llc;
                out.cycles += lat.llc_hit;
            } else {
                source = CacheLevel::Memory;
                let t = self.cfg.memory.tier_of(pfn);
                tier = Some(t);
                let spec = self.cfg.memory.spec(t);
                out.cycles += if store {
                    spec.store_latency
                } else {
                    spec.load_latency
                };
                core.counts.llc_misses += 1;
                // tier2_* counters aggregate every slower-than-fastest tier;
                // under the default two-tier layout that is exactly tier 2.
                if t.is_fastest() {
                    core.counts.tier1_accesses += 1;
                } else {
                    core.counts.tier2_accesses += 1;
                    if store {
                        core.counts.tier2_stores += 1;
                    }
                }
                let fill = self.llc.fill(pa.line(), store);
                if let Some(victim_line) = fill.writeback {
                    Self::count_memory_writeback(&self.cfg.memory, &mut core.counts, victim_line);
                }
            }
            let victims = core.caches.fill_through(pa, store);
            // Route dirty private victims outward: LLC absorbs them if it
            // holds the line; otherwise they write through to memory.
            for victim in [victims.from_l1, victims.from_l2].into_iter().flatten() {
                if !self.llc.writeback_touch(victim) {
                    Self::count_memory_writeback(&self.cfg.memory, &mut core.counts, victim);
                }
            }
        }
        out.source = Some(source);
        out.tier = tier;

        // --- trace-sampling hardware ---
        let core = &mut self.cores[core_idx];
        let sample = TraceSample {
            timestamp: core.counts.cycles,
            cpu: core_idx as u32,
            pid,
            ip: site as u64,
            vaddr: va,
            paddr: pa,
            is_store: store,
            source,
            tier,
            latency: (out.cycles - lat.base_op).min(u32::MAX as u64) as u32,
            tlb_hit: out.tlb != Some(TlbHit::Miss),
        };
        out.sampled = core.trace.offer_mem(sample) == TagOutcome::Tagged;

        core.counts.cycles += out.cycles;

        // --- ground truth (invisible to profilers) ---
        if source == CacheLevel::Memory {
            self.truth.record(pfn, PageKey { pid, vpn });
        }
        out
    }

    /// Account a dirty line written back to memory (slow-tier writebacks
    /// are the NVM write-endurance/energy cost).
    fn count_memory_writeback(memory: &MemTopology, counts: &mut EventCounts, victim_line: u64) {
        let victim_pfn = PhysAddr(victim_line << crate::addr::LINE_SHIFT).pfn();
        if memory
            .try_tier_of(victim_pfn)
            .is_ok_and(|t| !t.is_fastest())
        {
            counts.tier2_writebacks += 1;
        }
    }

    /// Translate (`pid`, `vpn`), performing TLB lookups, hardware walks,
    /// fault handling and A/D-bit maintenance.
    // tmprof-lint: allow(panic-reachability) — core and proc_idx flow from exec_batch's scheduler contract; pid_index lookups yield in-range process indices
    fn translate(
        &mut self,
        core_idx: usize,
        proc_idx: usize,
        pid: Pid,
        vpn: Vpn,
        store: bool,
        out: &mut ExecOutcome,
    ) -> (Pfn, TlbHit) {
        let lat = LATENCY;

        // TLB hit (possibly with a D-bit write-back on a store through a
        // clean translation — §II-B).
        let core = &mut self.cores[core_idx];
        if let Some(tr) = core.tlb.access(pid, vpn, store) {
            if tr.level == TlbHit::L2 {
                core.counts.dtlb_l1_misses += 1;
            }
            let pfn = tr.entry.frame_for(vpn);
            if tr.needs_dirty_writeback {
                let proc = &mut self.processes[proc_idx];
                if let Some(pte) = proc.page_table.entry_mut(vpn) {
                    pte.set(bits::D);
                }
                let core = &mut self.cores[core_idx];
                core.counts.dirty_writebacks += 1;
                core.pml.record_dirty(pfn);
                out.cycles += lat.dirty_writeback;
            }
            return (pfn, tr.level);
        }

        // Slow path: hardware page walk.
        {
            let c = &mut self.cores[core_idx].counts;
            c.dtlb_l1_misses += 1;
            c.ptw_walks += 1;
        }
        out.cycles += lat.ptw;

        // The walk may fault (not-present, poisoned, prot-none) and retry.
        // Two fault deliveries per access are possible in principle
        // (not-present is resolved by the kernel allocator, never by the
        // fault policy), so bound the loop defensively.
        let mut repoison_after_fill = false;
        for _attempt in 0..4 {
            let epoch = self.epoch;
            let proc = &mut self.processes[proc_idx];
            // Single radix resolution per attempt: the resolved slot serves
            // both the presence/poison checks and, on the common success
            // path, the A/D-bit updates — no second walk.
            let pte_now = match proc.page_table.entry_mut(vpn) {
                Some(pte) => {
                    let snapshot = *pte;
                    if snapshot.present() && !snapshot.poisoned() && !snapshot.prot_none() {
                        // Successful walk: the hardware walker sets the A
                        // bit (and the D bit on stores) in the PTE it
                        // loads. Per-core counters are bumped after the
                        // PTE borrow ends.
                        let abit_set = !pte.accessed();
                        if abit_set {
                            pte.set(bits::A);
                        }
                        let mut newly_dirty = false;
                        if store && !pte.dirty() {
                            pte.set(bits::D);
                            newly_dirty = true;
                        }
                        let huge = pte.huge();
                        let entry = TlbEntry {
                            pid,
                            vpn: if huge {
                                Vpn(vpn.0 & !(crate::pagetable::HUGE_SPAN - 1))
                            } else {
                                vpn
                            },
                            pfn: pte.pfn(),
                            writable: pte.writable(),
                            dirty: pte.dirty(),
                            huge,
                        };
                        let pfn = entry.frame_for(vpn);
                        if repoison_after_fill {
                            pte.set(bits::POISON);
                        }
                        let core = &mut self.cores[core_idx];
                        if abit_set {
                            core.counts.ptw_abit_sets += 1;
                        }
                        if newly_dirty {
                            core.pml.record_dirty(pfn);
                        }
                        core.tlb.fill(entry);
                        return (pfn, TlbHit::Miss);
                    }
                    snapshot
                }
                None => Pte::NONE,
            };

            if !pte_now.present() {
                // Minor fault: first touch allocates first-come-first-serve
                // (the paper's baseline allocation) and maps writable. THP
                // processes try a 2 MiB mapping first, falling back to
                // 4 KiB when no contiguous run is free.
                let mut mapped_huge = false;
                if proc.thp {
                    let base = Vpn(vpn.0 & !(crate::pagetable::HUGE_SPAN - 1));
                    if let Some(base_pfn) = self.frames.alloc_huge_first_touch() {
                        let mut pte = Pte::new(base_pfn, true);
                        pte.set(bits::PS);
                        match proc.page_table.map_huge(base, pte) {
                            Ok(()) => {
                                // Descriptor/identity live at huge granularity.
                                self.descs.set_owner(base_pfn, PageKey { pid, vpn: base });
                                self.first_touch_log.push(PageKey { pid, vpn: base }.pack());
                                mapped_huge = true;
                            }
                            Err(crate::pagetable::MapError::HugeConflict { .. }) => {
                                // 4 KiB mappings landed in the range before
                                // THP was enabled for this process: return
                                // the run and take the base-page path, like
                                // a failed THP collapse.
                                self.frames.free_huge(&self.cfg.memory, base_pfn);
                                tmprof_obs::metrics::inc(ObsMetric::SimHugeFallbacks);
                                tmprof_obs::journal::record(
                                    ObsEvent::HugeFallback,
                                    self.cores.iter().map(|c| c.counts.cycles).sum(),
                                    epoch,
                                    base.0,
                                    0,
                                );
                            }
                        }
                    }
                }
                if !mapped_huge {
                    let pfn = self
                        .frames
                        .alloc_first_touch()
                        // tmprof-lint: allow(panic-reachability) — physical exhaustion means the experiment's footprint exceeds the configured machine; no policy can make progress, so dying loudly beats silently dropping accesses
                        .expect("physical memory exhausted");
                    proc.page_table.map(vpn, Pte::new(pfn, true));
                    self.descs.set_owner(pfn, PageKey { pid, vpn });
                    self.first_touch_log.push(PageKey { pid, vpn }.pack());
                }
                let c = &mut self.cores[core_idx].counts;
                c.page_faults += 1;
                out.cycles += lat.minor_fault;
                out.minor_fault = true;
                continue;
            }

            if pte_now.poisoned() || pte_now.prot_none() {
                let fault = PoisonFault {
                    core: core_idx as u32,
                    pid,
                    vpn,
                    pte: pte_now,
                    is_store: store,
                    epoch,
                };
                let action = self
                    .fault_policy
                    .as_mut()
                    .unwrap_or_else(|| {
                        // tmprof-lint: allow(panic-reachability) — a poisoned/PROT_NONE PTE can only exist because a profiler installed it, and profilers install their fault handler first; faulting with no handler means the instrumentation protocol was violated
                        panic!("protection fault on {vpn:?} with no fault policy installed")
                    })
                    .handle(&fault);
                {
                    let c = &mut self.cores[core_idx].counts;
                    c.protection_faults += 1;
                }
                out.cycles += lat.protection_fault + action.extra_cycles;
                out.protection_fault = true;
                let proc = &mut self.processes[proc_idx];
                let pte = proc
                    .page_table
                    .entry_mut(vpn)
                    // tmprof-lint: allow(panic-reachability) — this arm is only reached after the walk found a present (poisoned) PTE this iteration, and nothing unmaps between; absence would mean the walk lied
                    .expect("present entry");
                if action.unpoison {
                    pte.clear(bits::POISON);
                }
                if action.unprotect {
                    pte.clear(bits::PROT_NONE);
                }
                repoison_after_fill = action.repoison;
                if pte.poisoned() || pte.prot_none() {
                    // tmprof-lint: allow(panic-reachability) — a handler that neither unpoisons nor unprotects would spin this loop forever; failing fast surfaces the broken FaultPolicy implementation
                    panic!("fault policy did not resolve fault on {vpn:?}");
                }
                continue;
            }
        }
        // tmprof-lint: allow(panic-reachability) — each loop iteration either returns, maps the page, or clears the faulting bits; the iteration bound only trips if one of those steps stops making progress, which is a simulator bug
        panic!("translation for {vpn:?} did not converge");
    }

    /// Per-process usage snapshot for the TMP daemon's resource filter:
    /// (pid, ops executed, mapped pages).
    pub fn process_usage(&self) -> Vec<(Pid, u64, u64)> {
        self.processes
            .iter()
            .map(|p| (p.pid, p.ops_executed, p.page_table.mapped_pages()))
            .collect()
    }

    /// Look up the physical frame currently backing (`pid`, `vpn`),
    /// resolving huge-page offsets.
    // tmprof-lint: allow(dead-surface) — page lookup the unit tests of sim, core, policy and profilers and the sim thp/machine_props/batch_props suites assert against
    pub fn frame_of(&self, pid: Pid, vpn: Vpn) -> Option<Pfn> {
        let &i = self.pid_index.get(&pid)?;
        self.processes[i].page_table.resolve(vpn)
    }

    /// Touch helper: map a page by executing a single load through the full
    /// machinery (tests and warm-up).
    pub fn touch(&mut self, core: usize, pid: Pid, va: VirtAddr) -> ExecOutcome {
        self.exec_op(
            core,
            pid,
            WorkOp::Mem {
                va,
                store: false,
                site: 0,
            },
        )
    }

    /// Pages in first-touch (allocation) order, as packed
    /// [`PageKey`]s — the first-come-first-allocate baseline's residency
    /// order.
    pub fn first_touch_order(&self) -> &[u64] {
        &self.first_touch_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    fn small_machine() -> Machine {
        let mut m = Machine::new(MachineConfig::scaled(2, 64, 256, 64));
        m.add_process(1);
        m
    }

    #[test]
    fn first_touch_faults_then_maps() {
        let mut m = small_machine();
        let out = m.touch(0, 1, VirtAddr(0x5000));
        assert!(out.minor_fault);
        assert_eq!(out.tlb, Some(TlbHit::Miss));
        assert_eq!(out.source, Some(CacheLevel::Memory));
        assert_eq!(out.tier, Some(Tier::Tier1), "first touch lands in tier 1");
        // Second access: TLB hit, cache hit.
        let out2 = m.touch(0, 1, VirtAddr(0x5000));
        assert!(!out2.minor_fault);
        assert_eq!(out2.tlb, Some(TlbHit::L1));
        assert_eq!(out2.source, Some(CacheLevel::L1));
        assert!(out2.cycles < out.cycles);
    }

    #[test]
    fn walker_sets_a_bit_only_on_walks() {
        let mut m = small_machine();
        m.touch(0, 1, VirtAddr(0x5000));
        let counts = m.counts(0);
        assert_eq!(counts.ptw_walks, 1);
        assert_eq!(counts.ptw_abit_sets, 1);
        // Repeat touches hit the L1 DTLB, so they never walk and never
        // touch the A bit.
        for _ in 0..10 {
            assert_eq!(m.touch(0, 1, VirtAddr(0x5000)).tlb, Some(TlbHit::L1));
        }
        assert_eq!(m.counts(0).ptw_walks, 1);
        assert_eq!(m.counts(0).ptw_abit_sets, 1);
        // Clear A via scan; with the TLB entry still live, no walk happens,
        // so the bit stays clear (the paper's staleness trade-off).
        let (pt, _) = m.scan_parts(1).unwrap();
        pt.entry_mut(Vpn(5)).unwrap().clear(bits::A);
        m.touch(0, 1, VirtAddr(0x5000));
        let (pt, _) = m.scan_parts(1).unwrap();
        assert!(!pt.get(Vpn(5)).accessed(), "stale until TLB eviction");
        assert_eq!(m.counts(0).ptw_abit_sets, 1);
        // After a shootdown the next access walks and re-sets the bit.
        m.shootdown(1, &[Vpn(5)], false);
        m.touch(0, 1, VirtAddr(0x5000));
        let (pt, _) = m.scan_parts(1).unwrap();
        assert!(pt.get(Vpn(5)).accessed());
        assert_eq!(m.counts(0).ptw_abit_sets, 2);
    }

    #[test]
    fn store_through_clean_tlb_entry_sets_d_bit() {
        let mut m = small_machine();
        m.touch(0, 1, VirtAddr(0x7000)); // load maps it, D clear
        {
            let (pt, _) = m.scan_parts(1).unwrap();
            assert!(!pt.get(Vpn(7)).dirty());
        }
        let dwb = m.counts(0).dirty_writebacks;
        let out = m.exec_op(
            0,
            1,
            WorkOp::Mem {
                va: VirtAddr(0x7000),
                store: true,
                site: 0,
            },
        );
        assert_eq!(out.tlb, Some(TlbHit::L1), "no walk: the clean entry hits");
        assert_eq!(m.counts(0).dirty_writebacks, dwb + 1);
        let (pt, _) = m.scan_parts(1).unwrap();
        assert!(pt.get(Vpn(7)).dirty());
    }

    #[test]
    fn spills_to_tier2_when_tier1_full() {
        let mut m = small_machine(); // 64 tier-1 frames
        let mut tiers = Vec::new();
        for i in 0..80u64 {
            let out = m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
            tiers.push(out.tier.unwrap());
        }
        assert!(tiers[..64].iter().all(|&t| t == Tier::Tier1));
        assert!(tiers[64..].iter().all(|&t| t == Tier::Tier2));
    }

    #[test]
    fn tier2_access_is_slower() {
        let mut m = small_machine();
        for i in 0..64u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        // Next page lands in tier 2; compare fresh-miss latencies of a
        // tier-1 re-read (cold caches forced via distinct lines) and tier 2.
        let t2 = m.touch(0, 1, VirtAddr(100 * PAGE_SIZE));
        assert_eq!(t2.tier, Some(Tier::Tier2));
        let t2_more = m.exec_op(
            0,
            1,
            WorkOp::Mem {
                va: VirtAddr(100 * PAGE_SIZE + 64),
                store: false,
                site: 0,
            },
        );
        assert_eq!(t2_more.source, Some(CacheLevel::Memory));
        let t1_more = m.exec_op(
            0,
            1,
            WorkOp::Mem {
                va: VirtAddr(63 * PAGE_SIZE + 64),
                store: false,
                site: 0,
            },
        );
        assert_eq!(t1_more.source, Some(CacheLevel::Memory));
        assert!(t2_more.cycles > t1_more.cycles);
    }

    #[test]
    fn migration_moves_page_and_stats() {
        let mut m = small_machine();
        m.touch(0, 1, VirtAddr(0x3000));
        let old = m.frame_of(1, Vpn(3)).unwrap();
        assert_eq!(m.memory().tier_of(old), Tier::Tier1);
        m.descs_mut().bump_trace(old);
        let (from, to) = m.migrate_page(1, Vpn(3), Tier::Tier2).unwrap();
        assert_eq!(from, old);
        assert_eq!(m.memory().tier_of(to), Tier::Tier2);
        assert_eq!(m.frame_of(1, Vpn(3)).unwrap(), to);
        assert_eq!(m.descs().get(to).trace_epoch, 1);
        assert_eq!(m.descs().get(from).owner, None);
        // Migrating again to the same tier is rejected.
        assert_eq!(
            m.migrate_page(1, Vpn(3), Tier::Tier2),
            Err(MigrateError::AlreadyThere)
        );
        // And the freed tier-1 frame is reusable.
        assert_eq!(m.frames().free_in(Tier::Tier1), 64);
    }

    #[test]
    fn migrated_page_served_from_new_tier() {
        let mut m = small_machine();
        m.touch(0, 1, VirtAddr(0x3000));
        m.migrate_page(1, Vpn(3), Tier::Tier2).unwrap();
        m.shootdown(1, &[Vpn(3)], false);
        let out = m.touch(0, 1, VirtAddr(0x3000));
        assert_eq!(out.tier, Some(Tier::Tier2));
        assert_eq!(out.source, Some(CacheLevel::Memory), "caches were scrubbed");
    }

    #[test]
    fn migrate_unmapped_page_fails() {
        let mut m = small_machine();
        assert_eq!(
            m.migrate_page(1, Vpn(42), Tier::Tier2),
            Err(MigrateError::NotMapped)
        );
    }

    #[test]
    fn ground_truth_counts_memory_accesses() {
        let mut m = small_machine();
        for _ in 0..5 {
            m.touch(0, 1, VirtAddr(0x9000));
        }
        let key = PageKey {
            pid: 1,
            vpn: Vpn(9),
        };
        let epoch = m.advance_epoch();
        assert_eq!(
            epoch.mem_accesses,
            vec![(key.pack(), 1)],
            "only the cold miss reaches memory"
        );
        assert_eq!(epoch.total_mem_accesses(), 1);
        assert_eq!(m.epoch(), 1);
        assert_eq!(
            m.advance_epoch().total_mem_accesses(),
            0,
            "a closed epoch's counts do not carry over"
        );
    }

    /// A machine of `frames` frames, all but 64 of them in tier 2.
    fn machine_of(frames: u64) -> Machine {
        Machine::new(MachineConfig::scaled_topology(
            1,
            MemTopology::with_frames(64, frames - 64),
            64,
        ))
    }

    #[test]
    fn builds_the_sparse_scan_machine_and_one_at_the_frame_limit() {
        // sparse_scan's 10^8-page machine: 64 fast frames, the pages and
        // one huge run of slack.
        let m = machine_of(64 + 100_000_000 + 512);
        assert_eq!(m.memory().total_frames(), 100_000_576);
        let mut m = machine_of(1 << 27);
        // The last frame's lines go through the caches whole.
        let last = Pfn((1 << 27) - 1);
        assert_eq!(m.cached_lines_of(last), 0);
        let line = last.base().line() + 63;
        m.llc.fill(line, true);
        m.cores[0].caches.l1d.fill(line, false);
        assert_eq!(m.cached_frames(), vec![last]);
        assert_eq!(m.cached_lines_of(last), 2);
    }

    #[test]
    #[should_panic(
        expected = "134217729 frames is past the frame limit 2^27 (134217728): the L1D's tag words"
    )]
    fn refuses_one_frame_past_the_limit() {
        machine_of((1 << 27) + 1);
    }

    #[test]
    #[should_panic(expected = "pid limit 2^28")]
    fn add_process_rejects_a_pid_past_the_page_key_field() {
        // pid 2^28 would pack into the same page key as pid 0.
        let mut m = Machine::new(MachineConfig::scaled(1, 64, 0, 64));
        m.add_process(PID_LIMIT);
    }

    #[test]
    fn trace_engine_samples_memory_ops() {
        let mut m = small_machine();
        m.trace_engine_mut(0).set_enabled(true);
        m.trace_engine_mut(0)
            .set_mode(TraceMode::IbsOp { period: 2 });
        for i in 0..100u64 {
            m.touch(0, 1, VirtAddr((i % 4) * PAGE_SIZE));
        }
        let (samples, _) = m.trace_engine_mut(0).drain();
        assert_eq!(samples.len(), 50);
        let s = samples[0];
        assert_eq!(s.pid, 1);
        assert!(s.vaddr.0 < 4 * PAGE_SIZE);
        assert_eq!(s.paddr.pfn(), m.frame_of(1, s.vaddr.vpn()).unwrap());
    }

    #[test]
    fn counters_aggregate_across_cores() {
        let mut m = small_machine();
        m.touch(0, 1, VirtAddr(0x1000));
        m.touch(1, 1, VirtAddr(0x2000));
        let agg = m.aggregate_counts();
        assert_eq!(agg.retired_ops, 2);
        assert_eq!(agg.page_faults, 2);
    }

    #[test]
    fn process_usage_reports_ops_and_pages() {
        let mut m = small_machine();
        m.add_process(2);
        for i in 0..10u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        m.exec_op(1, 2, WorkOp::Compute);
        let usage = m.process_usage();
        assert_eq!(usage.len(), 2);
        let p1 = usage.iter().find(|u| u.0 == 1).unwrap();
        assert_eq!(p1.1, 10);
        assert_eq!(p1.2, 10);
        let p2 = usage.iter().find(|u| u.0 == 2).unwrap();
        assert_eq!(p2.1, 1);
        assert_eq!(p2.2, 0);
    }

    #[test]
    #[should_panic(expected = "no fault policy")]
    fn poison_fault_without_handler_panics() {
        let mut m = small_machine();
        m.touch(0, 1, VirtAddr(0x1000));
        m.shootdown(1, &[Vpn(1)], false);
        let (pt, _) = m.scan_parts(1).unwrap();
        pt.entry_mut(Vpn(1)).unwrap().set(bits::POISON);
        m.touch(0, 1, VirtAddr(0x1000));
    }

    struct CountingHandler {
        hits: std::sync::Arc<std::sync::atomic::AtomicU32>,
    }
    impl FaultPolicy for CountingHandler {
        fn handle(&mut self, _fault: &PoisonFault) -> FaultAction {
            self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            FaultAction {
                unpoison: true,
                repoison: true,
                extra_cycles: 100,
                ..Default::default()
            }
        }
    }

    #[test]
    fn badgertrap_style_repoison_faults_once_per_walk() {
        let mut m = small_machine();
        let hits = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        m.set_fault_policy(Some(Box::new(CountingHandler { hits: hits.clone() })));
        m.touch(0, 1, VirtAddr(0x1000));
        m.shootdown(1, &[Vpn(1)], false);
        {
            let (pt, _) = m.scan_parts(1).unwrap();
            pt.entry_mut(Vpn(1)).unwrap().set(bits::POISON);
        }
        // First access faults, unpoisons, fills TLB, repoisons.
        let out = m.touch(0, 1, VirtAddr(0x1000));
        assert!(out.protection_fault);
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 1);
        // TLB-hit accesses sail through the poisoned PTE.
        for _ in 0..10 {
            let out = m.touch(0, 1, VirtAddr(0x1000));
            assert!(!out.protection_fault);
        }
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 1);
        // Evicting the translation re-arms the trap.
        m.shootdown(1, &[Vpn(1)], false);
        let out = m.touch(0, 1, VirtAddr(0x1000));
        assert!(out.protection_fault);
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(m.aggregate_counts().protection_faults, 2);
    }

    #[test]
    fn profiling_charge_is_tracked_separately() {
        let mut m = small_machine();
        m.touch(0, 1, VirtAddr(0x1000));
        let before = m.counts(0).cycles;
        m.charge_profiling(0, 500);
        assert_eq!(m.counts(0).cycles, before + 500);
        assert_eq!(m.counts(0).profiling_cycles, 500);
    }

    #[test]
    fn shootdown_charges_every_core() {
        let mut m = small_machine();
        m.touch(0, 1, VirtAddr(0x1000));
        let charged = m.shootdown(1, &[Vpn(1)], true);
        let ipi = LATENCY.shootdown_ipi;
        assert_eq!(charged, ipi * 2);
        assert_eq!(m.counts(1).profiling_cycles, ipi);
    }

    #[test]
    fn shootdown_of_nothing_is_free() {
        let mut m = small_machine();
        assert_eq!(m.shootdown(1, &[], true), 0);
    }
}
