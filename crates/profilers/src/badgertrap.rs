//! BadgerTrap: fault-based TLB-miss interception (paper §II-B, "other
//! software-initiated methods").
//!
//! BadgerTrap *poisons* a chosen page's PTE by setting a reserved bit and
//! flushing the translation; the next access takes a hardware walk, hits
//! the poisoned entry, and traps. The handler unpoisons, installs a valid
//! TLB entry, and repoisons — so each *walk* (TLB miss) to the page costs
//! one fault, and the fault count estimates the page's TLB-miss count,
//! which is then used as a proxy for its memory-access count. The paper
//! uses this both as a comparison profiler (Thermostat-style) and as the
//! substrate of its NVM latency-emulation framework; our `tmprof-emul`
//! crate builds on the same machinery.
//!
//! The proxy's weakness — TLB misses ≠ cache misses, especially for hot
//! pages whose translations stay cached — is visible directly in this
//! model and is exercised in the tests.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use tmprof_sim::addr::Vpn;
use tmprof_sim::keymap::KeyMap;
use tmprof_sim::machine::{FaultAction, FaultPolicy, Machine, PoisonFault};
use tmprof_sim::pagedesc::PageKey;
use tmprof_sim::pte::bits;
use tmprof_sim::tlb::Pid;

/// Shared fault-count state between the profiler handle and the installed
/// fault handler.
#[derive(Default)]
struct BtState {
    /// Faults (≈ TLB misses) per poisoned page since the last
    /// `unpoison_all`.
    faults: KeyMap<u64, u64>,
}

/// The in-kernel fault handler half.
pub struct BadgerTrapHandler {
    state: Arc<Mutex<BtState>>,
}

impl FaultPolicy for BadgerTrapHandler {
    fn handle(&mut self, fault: &PoisonFault) -> FaultAction {
        let key = PageKey {
            pid: fault.pid,
            vpn: fault.vpn,
        };
        let mut st = self.state.lock();
        *st.faults.entry(key.pack()).or_insert(0) += 1;
        // Unpoison for this walk, fill the TLB, repoison: the canonical
        // BadgerTrap sequence.
        FaultAction {
            unpoison: true,
            repoison: true,
            ..Default::default()
        }
    }
}

/// The profiler-facing half: selects pages, reads fault counts.
pub struct BadgerTrap {
    state: Arc<Mutex<BtState>>,
    /// Pages currently instrumented, per process. Ordered so that
    /// [`BadgerTrap::unpoison_all`] visits processes deterministically.
    poisoned: BTreeMap<Pid, Vec<Vpn>>,
}

impl BadgerTrap {
    /// Create the profiler and its machine-side fault handler. Install the
    /// handler with [`Machine::set_fault_policy`].
    pub fn new() -> (Self, Box<dyn FaultPolicy>) {
        let state = Arc::new(Mutex::new(BtState::default()));
        (
            Self {
                state: state.clone(),
                poisoned: BTreeMap::new(),
            },
            Box::new(BadgerTrapHandler { state }),
        )
    }

    /// Instrument a set of pages of one process: poison their PTEs and
    /// flush their translations so the next access walks (and traps).
    /// Pages without a present mapping are skipped; returns how many were
    /// instrumented.
    pub fn poison_pages(&mut self, machine: &mut Machine, pid: Pid, vpns: &[Vpn]) -> usize {
        let mut armed = Vec::new();
        if let Some((pt, _descs)) = machine.scan_parts(pid) {
            for &vpn in vpns {
                if let Some(pte) = pt.entry_mut(vpn) {
                    if pte.present() && !pte.poisoned() {
                        pte.set(bits::POISON);
                        armed.push(vpn);
                    }
                }
            }
        }
        // One shootdown for the batch (charged as profiling overhead).
        machine.shootdown(pid, &armed, true);
        let count = armed.len();
        self.poisoned.entry(pid).or_default().extend(armed);
        count
    }

    /// Remove instrumentation from everything previously poisoned, and
    /// restart every page's fault count from zero.
    pub fn unpoison_all(&mut self, machine: &mut Machine) {
        self.state.lock().faults.clear();
        let poisoned = std::mem::take(&mut self.poisoned);
        for (pid, vpns) in poisoned {
            if let Some((pt, _)) = machine.scan_parts(pid) {
                for &vpn in &vpns {
                    if let Some(pte) = pt.entry_mut(vpn) {
                        pte.clear(bits::POISON);
                    }
                }
            }
        }
    }

    /// Fault count (≈ TLB-miss estimate) for one page since the last
    /// [`BadgerTrap::unpoison_all`].
    pub fn faults_of(&self, pid: Pid, vpn: Vpn) -> u64 {
        let key = PageKey { pid, vpn }.pack();
        self.state.lock().faults.get(&key).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::prelude::*;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::scaled(1, 128, 512, 1 << 20));
        m.add_process(1);
        m
    }

    #[test]
    fn counts_walks_not_accesses() {
        let mut m = machine();
        m.touch(0, 1, VirtAddr(0x5000));
        let (mut bt, handler) = BadgerTrap::new();
        m.set_fault_policy(Some(handler));
        assert_eq!(bt.poison_pages(&mut m, 1, &[Vpn(5)]), 1);
        // 100 accesses with a cached translation: exactly ONE fault (the
        // first walk), because repoison leaves the TLB entry valid.
        for _ in 0..100 {
            m.touch(0, 1, VirtAddr(0x5000));
        }
        assert_eq!(
            bt.faults_of(1, Vpn(5)),
            1,
            "TLB-miss proxy undercounts hot pages"
        );
        // Force TLB evictions: every re-walk now faults.
        for _ in 0..5 {
            m.shootdown(1, &[Vpn(5)], false);
            m.touch(0, 1, VirtAddr(0x5000));
        }
        assert_eq!(bt.faults_of(1, Vpn(5)), 6);
        assert_eq!(m.aggregate_counts().protection_faults, 6);
    }

    #[test]
    fn unpoisoned_pages_never_fault() {
        let mut m = machine();
        m.touch(0, 1, VirtAddr(0x5000));
        m.touch(0, 1, VirtAddr(0x6000));
        let (mut bt, handler) = BadgerTrap::new();
        m.set_fault_policy(Some(handler));
        bt.poison_pages(&mut m, 1, &[Vpn(5)]);
        m.shootdown(1, &[Vpn(6)], false);
        m.touch(0, 1, VirtAddr(0x6000));
        assert_eq!(bt.faults_of(1, Vpn(6)), 0);
    }

    #[test]
    fn poisoning_unmapped_pages_is_skipped() {
        let mut m = machine();
        let (mut bt, handler) = BadgerTrap::new();
        m.set_fault_policy(Some(handler));
        assert_eq!(bt.poison_pages(&mut m, 1, &[Vpn(77)]), 0);
        assert_eq!(bt.poisoned.get(&1).map_or(0, |v| v.len()), 0);
    }

    #[test]
    fn unpoison_all_disarms() {
        let mut m = machine();
        m.touch(0, 1, VirtAddr(0x5000));
        let (mut bt, handler) = BadgerTrap::new();
        m.set_fault_policy(Some(handler));
        bt.poison_pages(&mut m, 1, &[Vpn(5)]);
        bt.unpoison_all(&mut m);
        m.shootdown(1, &[Vpn(5)], false);
        m.touch(0, 1, VirtAddr(0x5000));
        assert_eq!(bt.faults_of(1, Vpn(5)), 0);
        assert_eq!(bt.poisoned.get(&1).map_or(0, |v| v.len()), 0);
    }

    #[test]
    fn double_poison_is_idempotent() {
        let mut m = machine();
        m.touch(0, 1, VirtAddr(0x5000));
        let (mut bt, handler) = BadgerTrap::new();
        m.set_fault_policy(Some(handler));
        assert_eq!(bt.poison_pages(&mut m, 1, &[Vpn(5)]), 1);
        assert_eq!(bt.poison_pages(&mut m, 1, &[Vpn(5)]), 0, "already armed");
    }

    #[test]
    fn fault_overhead_is_charged() {
        let mut m = machine();
        m.touch(0, 1, VirtAddr(0x5000));
        let (mut bt, handler) = BadgerTrap::new();
        m.set_fault_policy(Some(handler));
        bt.poison_pages(&mut m, 1, &[Vpn(5)]);
        let before = m.aggregate_counts().protection_faults;
        let out = m.touch(0, 1, VirtAddr(0x5000));
        assert!(out.protection_fault);
        assert!(out.cycles >= LATENCY.protection_fault);
        assert_eq!(m.aggregate_counts().protection_faults, before + 1);
    }
}
