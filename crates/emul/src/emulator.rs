//! The BadgerTrap-based NVM latency emulator (paper §VI-C).
//!
//! The paper could not attach real NVM to its testbed, so it *emulated*
//! slow memory: "we maintain a list of slower memory locations and set
//! protection bits on memory pages that belong to the list. When an attempt
//! is made to reach one of these protected pages, the trap handler adds
//! latency before the system can grant access to the page. The emulation
//! framework sets the protection bits periodically." We rebuild exactly
//! that framework on the simulated machine: the machine's slow tiers are
//! given *DRAM* latency (they are ordinary memory on the emulation box),
//! and all slowness comes from fault-injected delays using the paper's
//! calibrated constants — 50 µs per page migration, 10 µs per slow access
//! after a protection fault, +13 µs when the slow page is hot.
//!
//! With N-tier topologies the framework generalizes through the
//! [`TierBackend`] trait: each tier gets a backend that decides whether
//! its resident pages are protected by the periodic pass and what fault
//! latency an access pays. The classic [`NvmEmulator::new`] path — DRAM
//! unprotected, every slower tier behind the paper's NVM constants — is
//! bit-identical to the historic two-tier emulator.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;

use tmprof_sim::addr::Vpn;
use tmprof_sim::machine::{FaultAction, FaultPolicy, Machine, PoisonFault};
use tmprof_sim::pagedesc::PageKey;
use tmprof_sim::pte::bits;
use tmprof_sim::tier::MemTopology;
use tmprof_sim::tlb::Pid;

/// The paper's emulation timing constants, converted to core cycles.
#[derive(Clone, Copy, Debug)]
pub struct EmulConfig {
    /// Simulated core frequency, cycles per microsecond.
    pub cycles_per_us: u64,
    /// Page-migration overhead (paper: 50 µs).
    pub migration_us: u64,
    /// Latency added per slow-memory access after a protection fault
    /// (paper: 10 µs).
    pub slow_access_us: u64,
    /// Additional latency when the slow page is hot (paper: 13 µs).
    pub hot_penalty_us: u64,
}

impl Default for EmulConfig {
    fn default() -> Self {
        Self {
            cycles_per_us: 4000, // 4 GHz
            migration_us: 50,
            slow_access_us: 10,
            hot_penalty_us: 13,
        }
    }
}

impl EmulConfig {
    /// Migration cost in cycles.
    pub fn migration_cycles(&self) -> u64 {
        self.migration_us * self.cycles_per_us
    }

    /// Slow-access fault latency in cycles.
    pub fn slow_access_cycles(&self) -> u64 {
        self.slow_access_us * self.cycles_per_us
    }

    /// Hot-in-slow extra latency in cycles.
    pub fn hot_penalty_cycles(&self) -> u64 {
        self.hot_penalty_us * self.cycles_per_us
    }
}

/// One tier's emulation behavior: whether the periodic pass protects its
/// resident pages and what latency a trapped access pays. Backends are
/// stateless; timing constants come from the [`EmulConfig`] at fault time.
pub trait TierBackend: Send + Sync {
    /// Display label (`tmpctl`-style reporting).
    fn label(&self) -> &'static str;
    /// Whether the periodic pass sets PROT_NONE on this tier's pages.
    fn protects(&self) -> bool;
    /// Injected cycles for a trapped access (`hot` = the page is in the
    /// current hot classification and pays the contention penalty).
    fn fault_latency(&self, cfg: &EmulConfig, hot: bool) -> u64;
}

/// DRAM: ordinary memory, never protected, never slowed.
pub struct DramBackend;

impl TierBackend for DramBackend {
    fn label(&self) -> &'static str {
        "dram"
    }
    fn protects(&self) -> bool {
        false
    }
    fn fault_latency(&self, _cfg: &EmulConfig, _hot: bool) -> u64 {
        0
    }
}

/// CXL-attached far memory: protected, but a fault costs half the Optane
/// constants — an expander is a coherent hop away, not a media stall.
pub struct CxlBackend;

impl TierBackend for CxlBackend {
    fn label(&self) -> &'static str {
        "cxl"
    }
    fn protects(&self) -> bool {
        true
    }
    fn fault_latency(&self, cfg: &EmulConfig, hot: bool) -> u64 {
        cfg.slow_access_cycles() / 2 + if hot { cfg.hot_penalty_cycles() / 2 } else { 0 }
    }
}

/// Optane-like NVM: the paper's calibrated constants.
pub struct NvmBackend;

impl TierBackend for NvmBackend {
    fn label(&self) -> &'static str {
        "nvm"
    }
    fn protects(&self) -> bool {
        true
    }
    fn fault_latency(&self, cfg: &EmulConfig, hot: bool) -> u64 {
        cfg.slow_access_cycles() + if hot { cfg.hot_penalty_cycles() } else { 0 }
    }
}

/// Per-tier backend table, indexed by tier position; lookups past the end
/// clamp to the last entry, so the classic `[DRAM, NVM]` table covers any
/// number of slow tiers (every one behaves like NVM — the historic
/// two-tier semantics, unchanged).
struct Backends(Vec<Box<dyn TierBackend>>);

impl Backends {
    fn for_tier(&self, index: usize) -> &dyn TierBackend {
        &*self.0[index.min(self.0.len() - 1)]
    }
}

#[derive(Default)]
struct EmuState {
    /// Pages currently classified hot (packed keys).
    hot: HashSet<u64>,
    /// Layout snapshot taken at each protection pass; the handler resolves
    /// the faulting tier against it. `None` only before the first pass —
    /// and no page is protected before the first pass, so no fault can
    /// observe it.
    layout: Option<MemTopology>,
    /// Faults taken against slow pages.
    slow_faults: u64,
    /// Faults per tier index (slot 0, DRAM, stays zero).
    faults_by_tier: Vec<u64>,
    /// Of those, faults that also paid the hot penalty.
    hot_faults: u64,
    /// Total injected cycles.
    injected_cycles: u64,
}

/// The trap-handler half installed into the machine.
pub struct EmuHandler {
    cfg: EmulConfig,
    backends: Arc<Backends>,
    state: Arc<Mutex<EmuState>>,
}

impl FaultPolicy for EmuHandler {
    // tmprof-lint: allow(panic-reachability) — `faults_by_tier` is resized to `tier_index + 1` immediately before the index, and the sentinel `usize::MAX` branch never reaches it
    fn handle(&mut self, fault: &PoisonFault) -> FaultAction {
        let key = PageKey {
            pid: fault.pid,
            vpn: fault.vpn,
        }
        .pack();
        let mut st = self.state.lock();
        st.slow_faults += 1;
        // Resolve the faulting tier; only protected (slow) pages trap, and
        // protection snapshots the layout first, so the lookups succeed.
        let tier_index = st
            .layout
            .as_ref()
            .and_then(|l| l.try_tier_of(fault.pte.pfn()).ok())
            .map_or(usize::MAX, |t| t.index());
        if st.faults_by_tier.len() <= tier_index && tier_index != usize::MAX {
            st.faults_by_tier.resize(tier_index + 1, 0);
        }
        if tier_index != usize::MAX {
            st.faults_by_tier[tier_index] += 1;
        }
        let hot = st.hot.contains(&key);
        if hot {
            st.hot_faults += 1;
        }
        let extra = self
            .backends
            .for_tier(tier_index)
            .fault_latency(&self.cfg, hot);
        st.injected_cycles += extra;
        // Grant access until the next periodic re-protection pass.
        FaultAction {
            unprotect: true,
            extra_cycles: extra,
            ..Default::default()
        }
    }
}

/// The framework half: periodic re-protection + hot-set maintenance.
pub struct NvmEmulator {
    cfg: EmulConfig,
    backends: Arc<Backends>,
    state: Arc<Mutex<EmuState>>,
    /// Re-protection passes performed.
    protect_passes: u64,
}

impl NvmEmulator {
    /// Create the emulator and its machine-side trap handler. Install the
    /// handler with [`Machine::set_fault_policy`].
    ///
    /// This is the classic configuration: DRAM in front, every slower tier
    /// behind the paper's NVM fault constants (see [`Backends`] clamping).
    pub fn new(cfg: EmulConfig) -> (Self, Box<dyn FaultPolicy>) {
        Self::with_backends(cfg, vec![Box::new(DramBackend), Box::new(NvmBackend)])
    }

    /// Create the emulator with an explicit fastest-first backend table
    /// (one entry per tier; a short table clamps to its last entry).
    pub fn with_backends(
        cfg: EmulConfig,
        backends: Vec<Box<dyn TierBackend>>,
    ) -> (Self, Box<dyn FaultPolicy>) {
        assert!(!backends.is_empty(), "need at least one tier backend");
        let backends = Arc::new(Backends(backends));
        let state = Arc::new(Mutex::new(EmuState::default()));
        (
            Self {
                cfg,
                backends: backends.clone(),
                state: state.clone(),
                protect_passes: 0,
            },
            Box::new(EmuHandler {
                cfg,
                backends,
                state,
            }),
        )
    }

    /// Timing constants in force.
    pub fn config(&self) -> EmulConfig {
        self.cfg
    }

    /// The periodic pass: set PROT_NONE on every page currently resident in
    /// a protected (slow) tier and flush its translations so the next
    /// access traps. Returns the number of pages protected.
    pub fn protect_slow_pages(&mut self, machine: &mut Machine) -> usize {
        self.protect_passes += 1;
        let layout = machine.memory().clone();
        {
            // Scoped: publish the layout for the fault handler, then drop
            // the guard before the machine-walking loop below.
            self.state.lock().layout = Some(layout.clone());
        }
        let pids: Vec<Pid> = machine.pids().collect();
        let mut protected = 0;
        for pid in pids {
            let mut vpns: Vec<Vpn> = Vec::new();
            if let Some((pt, _descs)) = machine.scan_parts(pid) {
                pt.walk_present(|vpn, pte| {
                    let tier = layout.tier_of(pte.pfn());
                    if self.backends.for_tier(tier.index()).protects() && !pte.prot_none() {
                        pte.set(bits::PROT_NONE);
                        vpns.push(vpn);
                    }
                });
            }
            protected += vpns.len();
            // The framework's shootdown is emulation plumbing, not workload
            // or profiler cost: flush translations without charging IPIs so
            // runtimes compare the way the paper's do.
            machine.shootdown_silent(pid, &vpns);
        }
        protected
    }

    /// Update the hot classification (packed page keys).
    pub fn set_hot_pages(&mut self, hot: impl IntoIterator<Item = u64>) {
        let mut st = self.state.lock();
        st.hot = hot.into_iter().collect();
    }

    /// Faults taken against slow pages so far.
    pub fn slow_faults(&self) -> u64 {
        self.state.lock().slow_faults
    }

    /// Faults that paid the hot penalty.
    pub fn hot_faults(&self) -> u64 {
        self.state.lock().hot_faults
    }

    /// Faults broken down by tier index (fastest first; missing slots are
    /// tiers that never faulted).
    pub fn faults_by_tier(&self) -> Vec<u64> {
        self.state.lock().faults_by_tier.clone()
    }

    /// Backend label for a tier index (clamped like fault resolution).
    pub fn backend_label(&self, tier_index: usize) -> &'static str {
        self.backends.for_tier(tier_index).label()
    }

    /// Total emulation-injected cycles.
    pub fn injected_cycles(&self) -> u64 {
        self.state.lock().injected_cycles
    }

    /// Re-protection passes performed.
    pub fn protect_passes(&self) -> u64 {
        self.protect_passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::prelude::*;

    fn machine() -> Machine {
        // Tier 2 at DRAM speed: slowness comes only from injected faults.
        let mut cfg = MachineConfig::scaled(1, 8, 64, 1 << 20);
        cfg.memory = MemTopology::new(
            TierSpec {
                frames: 8,
                load_latency: 320,
                store_latency: 320,
                epoch_bytes_budget: None,
            },
            TierSpec {
                frames: 64,
                load_latency: 320,
                store_latency: 320,
                epoch_bytes_budget: None,
            },
        );
        let mut m = Machine::new(cfg);
        m.add_process(1);
        m
    }

    #[test]
    fn slow_pages_fault_once_per_protection_pass() {
        let mut m = machine();
        // Touch 12 pages: 8 in tier 1, 4 spill to tier 2.
        for i in 0..12u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        let (mut emu, handler) = NvmEmulator::new(EmulConfig::default());
        m.set_fault_policy(Some(handler));
        assert_eq!(emu.protect_slow_pages(&mut m), 4);
        // Access all 12: only the 4 slow ones fault.
        for i in 0..12u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        assert_eq!(emu.slow_faults(), 4);
        // Further accesses are granted (no re-protection yet).
        for i in 8..12u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        assert_eq!(emu.slow_faults(), 4);
        // Re-protect: they fault again.
        emu.protect_slow_pages(&mut m);
        for i in 8..12u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        assert_eq!(emu.slow_faults(), 8);
    }

    #[test]
    fn hot_pages_pay_extra_penalty() {
        let mut m = machine();
        for i in 0..12u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        let cfg = EmulConfig::default();
        let (mut emu, handler) = NvmEmulator::new(cfg);
        m.set_fault_policy(Some(handler));
        emu.set_hot_pages([PageKey {
            pid: 1,
            vpn: Vpn(9),
        }
        .pack()]);
        emu.protect_slow_pages(&mut m);
        let cold = m.touch(0, 1, VirtAddr(8 * PAGE_SIZE));
        let hot = m.touch(0, 1, VirtAddr(9 * PAGE_SIZE));
        assert_eq!(emu.hot_faults(), 1);
        assert_eq!(
            hot.cycles - cold.cycles,
            cfg.hot_penalty_cycles(),
            "hot page pays exactly the 13 µs penalty"
        );
    }

    #[test]
    fn fast_pages_never_fault() {
        let mut m = machine();
        for i in 0..4u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        let (mut emu, handler) = NvmEmulator::new(EmulConfig::default());
        m.set_fault_policy(Some(handler));
        assert_eq!(emu.protect_slow_pages(&mut m), 0, "nothing in tier 2");
        for i in 0..4u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        assert_eq!(emu.slow_faults(), 0);
    }

    #[test]
    fn injected_cycles_match_constants() {
        let mut m = machine();
        for i in 0..9u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        let cfg = EmulConfig::default();
        let (mut emu, handler) = NvmEmulator::new(cfg);
        m.set_fault_policy(Some(handler));
        emu.protect_slow_pages(&mut m);
        m.touch(0, 1, VirtAddr(8 * PAGE_SIZE));
        assert_eq!(emu.injected_cycles(), cfg.slow_access_cycles());
    }

    #[test]
    fn three_tier_backends_charge_per_tier_latency() {
        // DRAM(4) + CXL(4) + NVM(8), all at DRAM speed: slowness is
        // fault-injected per backend.
        let dram_speed = |frames| TierSpec {
            frames,
            load_latency: 320,
            store_latency: 320,
            epoch_bytes_budget: None,
        };
        let mut cfg = MachineConfig::scaled(1, 4, 12, 1 << 20);
        cfg.memory = MemTopology::from_specs(vec![dram_speed(4), dram_speed(4), dram_speed(8)]);
        let mut m = Machine::new(cfg);
        m.add_process(1);
        for i in 0..10u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        let ecfg = EmulConfig::default();
        let (mut emu, handler) = NvmEmulator::with_backends(
            ecfg,
            vec![
                Box::new(DramBackend),
                Box::new(CxlBackend),
                Box::new(NvmBackend),
            ],
        );
        m.set_fault_policy(Some(handler));
        assert_eq!(emu.backend_label(1), "cxl");
        assert_eq!(emu.protect_slow_pages(&mut m), 6, "4 CXL + 2 NVM pages");
        // One access per protected tier: CXL pays half the NVM constant.
        let cxl = m.touch(0, 1, VirtAddr(5 * PAGE_SIZE));
        let nvm = m.touch(0, 1, VirtAddr(9 * PAGE_SIZE));
        assert_eq!(
            nvm.cycles - cxl.cycles,
            ecfg.slow_access_cycles() / 2,
            "NVM fault costs twice the CXL fault"
        );
        assert_eq!(emu.slow_faults(), 2);
        assert_eq!(emu.faults_by_tier(), vec![0, 1, 1]);
        // DRAM pages stay unprotected.
        m.touch(0, 1, VirtAddr(0));
        assert_eq!(emu.slow_faults(), 2);
    }

    #[test]
    fn classic_constructor_clamps_deep_tiers_to_nvm() {
        let dram_speed = |frames| TierSpec {
            frames,
            load_latency: 320,
            store_latency: 320,
            epoch_bytes_budget: None,
        };
        let mut cfg = MachineConfig::scaled(1, 2, 6, 1 << 20);
        cfg.memory = MemTopology::from_specs(vec![dram_speed(2), dram_speed(2), dram_speed(4)]);
        let mut m = Machine::new(cfg);
        m.add_process(1);
        for i in 0..6u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        let ecfg = EmulConfig::default();
        let (mut emu, handler) = NvmEmulator::new(ecfg);
        m.set_fault_policy(Some(handler));
        emu.protect_slow_pages(&mut m);
        // Tier 2 and tier 3 pages both pay the full NVM constant.
        let t2 = m.touch(0, 1, VirtAddr(3 * PAGE_SIZE));
        let t3 = m.touch(0, 1, VirtAddr(5 * PAGE_SIZE));
        assert_eq!(t2.cycles, t3.cycles);
        assert_eq!(emu.injected_cycles(), 2 * ecfg.slow_access_cycles());
        assert_eq!(emu.backend_label(2), "nvm", "clamped past the table");
    }

    #[test]
    fn config_conversions() {
        let cfg = EmulConfig::default();
        assert_eq!(cfg.migration_cycles(), 200_000);
        assert_eq!(cfg.slow_access_cycles(), 40_000);
        assert_eq!(cfg.hot_penalty_cycles(), 52_000);
    }
}
