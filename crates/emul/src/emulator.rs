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
//! With N-tier topologies, the fastest tier plays DRAM and every slower
//! tier plays NVM: the periodic pass protects every page outside the
//! fastest tier, and a trapped access pays the NVM constants unless its
//! frame has since moved into the fastest tier.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;

use tmprof_sim::addr::Vpn;
use tmprof_sim::machine::{FaultAction, FaultPolicy, Machine, PoisonFault};
use tmprof_sim::pagedesc::PageKey;
use tmprof_sim::pte::bits;
use tmprof_sim::tier::Tier;
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

#[derive(Default)]
struct EmuState {
    /// Pages currently classified hot (packed keys).
    hot: HashSet<u64>,
    /// Frames below this PFN are the fastest tier's (tiers are contiguous
    /// PFN ranges, fastest first), as of the last protection pass. Zero
    /// before the first pass, when no page is protected yet.
    fast_frames: u64,
    /// Faults taken against slow pages.
    slow_faults: u64,
    /// Of those, faults that also paid the hot penalty.
    hot_faults: u64,
    /// Total injected cycles.
    injected_cycles: u64,
}

/// The trap-handler half installed into the machine.
pub struct EmuHandler {
    cfg: EmulConfig,
    state: Arc<Mutex<EmuState>>,
}

impl FaultPolicy for EmuHandler {
    fn handle(&mut self, fault: &PoisonFault) -> FaultAction {
        let key = PageKey {
            pid: fault.pid,
            vpn: fault.vpn,
        }
        .pack();
        let mut st = self.state.lock();
        st.slow_faults += 1;
        let hot = st.hot.contains(&key);
        if hot {
            st.hot_faults += 1;
        }
        // A page protected in a slow tier may have been promoted since; a
        // fault on a fastest-tier frame is ordinary DRAM and costs nothing.
        let extra = if fault.pte.pfn().0 < st.fast_frames {
            0
        } else {
            self.cfg.slow_access_cycles()
                + if hot {
                    self.cfg.hot_penalty_cycles()
                } else {
                    0
                }
        };
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
    state: Arc<Mutex<EmuState>>,
}

impl NvmEmulator {
    /// Create the emulator and its machine-side trap handler. Install the
    /// handler with [`Machine::set_fault_policy`]. The fastest tier is
    /// DRAM; every slower tier sits behind the paper's NVM fault constants.
    pub fn new(cfg: EmulConfig) -> (Self, Box<dyn FaultPolicy>) {
        let state = Arc::new(Mutex::new(EmuState::default()));
        (
            Self {
                cfg,
                state: state.clone(),
            },
            Box::new(EmuHandler { cfg, state }),
        )
    }

    /// Timing constants in force.
    pub fn config(&self) -> EmulConfig {
        self.cfg
    }

    /// The periodic pass: set PROT_NONE on every page currently resident
    /// outside the fastest tier and flush its translations so the next
    /// access traps. Returns the number of pages protected.
    pub fn protect_slow_pages(&mut self, machine: &mut Machine) -> usize {
        let fast_frames = machine.memory().first_frame(Tier::from_index(1)).0;
        {
            // Scoped: publish the fast tier's end for the fault handler,
            // then drop the guard before the machine-walking loop below.
            self.state.lock().fast_frames = fast_frames;
        }
        let pids: Vec<Pid> = machine.pids().collect();
        let mut protected = 0;
        for pid in pids {
            let mut vpns: Vec<Vpn> = Vec::new();
            if let Some((pt, _descs)) = machine.scan_parts(pid) {
                pt.walk_present(|vpn, pte| {
                    if pte.pfn().0 >= fast_frames && !pte.prot_none() {
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
        assert_eq!(emu.state.lock().injected_cycles, cfg.slow_access_cycles());
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
        assert_eq!(
            emu.state.lock().injected_cycles,
            2 * ecfg.slow_access_cycles()
        );
    }

    #[test]
    fn config_conversions() {
        let cfg = EmulConfig::default();
        assert_eq!(cfg.migration_cycles(), 200_000);
        assert_eq!(cfg.slow_access_cycles(), 40_000);
        assert_eq!(cfg.hot_penalty_cycles(), 52_000);
    }
}
