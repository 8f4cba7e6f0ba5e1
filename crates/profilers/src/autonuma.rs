//! AutoNUMA-style fault-based access tracking (paper §II-A).
//!
//! Linux's NUMA balancing gains visibility the expensive way: it
//! periodically flips ranges of PTEs to *no access* (`PROT_NONE`); the
//! next touch of each page takes a protection fault, which both reveals
//! the access and identifies the accessing task. The paper's §II-A cites
//! exactly this overhead — "the periodic unmapping and page-fault handling
//! in AutoNUMA incurs overhead \[13\]" — as a reason to prefer backdoor
//! hardware monitors. We implement the mechanism so the comparison is
//! runnable: same visibility question, answered with faults instead of
//! A bits and samples.
//!
//! Mechanically this is the emulation framework's cousin: protect, trap,
//! record, unprotect, repeat. The crucial difference from the A-bit path
//! is the cost per observation — a full protection fault (~µs) instead of
//! a PTE walk amortized over a scan.

use std::sync::Arc;

use parking_lot::Mutex;

use tmprof_sim::addr::Vpn;
use tmprof_sim::keymap::KeyMap;
use tmprof_sim::machine::{FaultAction, FaultPolicy, Machine, PoisonFault};
use tmprof_sim::pagedesc::PageKey;
use tmprof_sim::pte::bits;
use tmprof_sim::tlb::Pid;

/// Scanner configuration.
#[derive(Clone, Copy, Debug)]
pub struct AutoNumaConfig {
    /// Pages protected per scan pass per process (Linux default scan size
    /// is 256 MB ≈ 65536 pages; scaled here like everything else).
    pub scan_size_pages: u64,
}

impl Default for AutoNumaConfig {
    fn default() -> Self {
        Self {
            scan_size_pages: 4096,
        }
    }
}

#[derive(Default)]
struct NumaState {
    /// Observed accesses (faults) per packed page key.
    hits: KeyMap<u64, u64>,
    total_faults: u64,
}

/// The fault-handler half.
pub struct AutoNumaHandler {
    state: Arc<Mutex<NumaState>>,
}

impl FaultPolicy for AutoNumaHandler {
    fn handle(&mut self, fault: &PoisonFault) -> FaultAction {
        let key = PageKey {
            pid: fault.pid,
            vpn: fault.vpn,
        };
        let mut st = self.state.lock();
        *st.hits.entry(key.pack()).or_insert(0) += 1;
        st.total_faults += 1;
        // Record and grant access until the next scan pass.
        FaultAction {
            unprotect: true,
            ..Default::default()
        }
    }
}

/// The scanning half: periodic PROT_NONE passes + hit aggregation.
pub struct AutoNumaScanner {
    cfg: AutoNumaConfig,
    state: Arc<Mutex<NumaState>>,
    /// Per-process scan cursor (Linux scans the address space in windows).
    cursors: KeyMap<Pid, Vpn>,
}

impl AutoNumaScanner {
    /// Create the scanner and its fault handler. Install the handler with
    /// [`Machine::set_fault_policy`].
    pub fn new(cfg: AutoNumaConfig) -> (Self, Box<dyn FaultPolicy>) {
        let state = Arc::new(Mutex::new(NumaState::default()));
        (
            Self {
                cfg,
                state: state.clone(),
                cursors: KeyMap::default(),
            },
            Box::new(AutoNumaHandler { state }),
        )
    }

    /// One scan pass over `pid`: protect the next window of pages and
    /// shoot down their translations. Returns pages protected.
    pub fn scan_pass(&mut self, machine: &mut Machine, pid: Pid) -> usize {
        let start = self.cursors.get(&pid).copied().unwrap_or(Vpn(0));
        let mut protected: Vec<Vpn> = Vec::new();
        let budget = self.cfg.scan_size_pages;
        let Some((pt, _descs)) = machine.scan_parts(pid) else {
            return 0;
        };
        let (_fp, resume) = pt.walk_present_bounded(start, budget, |vpn, pte| {
            if !pte.prot_none() {
                pte.set(bits::PROT_NONE);
                protected.push(vpn);
            }
        });
        self.cursors.insert(pid, resume.unwrap_or(Vpn(0)));
        // The unmapping requires a real shootdown (this is exactly the
        // overhead the paper's §II-A points at), booked as profiling.
        machine.shootdown(pid, &protected, true);
        protected.len()
    }

    /// All per-page observations (packed key → faults).
    pub fn hit_counts(&self) -> KeyMap<u64, u64> {
        self.state.lock().hits.clone()
    }

    /// Pages ever observed.
    pub fn pages_seen(&self) -> usize {
        self.state.lock().hits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::prelude::*;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::scaled(1, 512, 0, 1 << 20));
        m.add_process(1);
        m
    }

    fn touch(m: &mut Machine, n: u64) {
        for i in 0..n {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
    }

    #[test]
    fn protected_pages_fault_once_then_flow() {
        let mut m = machine();
        touch(&mut m, 50);
        let (mut scanner, handler) = AutoNumaScanner::new(AutoNumaConfig::default());
        m.set_fault_policy(Some(handler));
        assert_eq!(scanner.scan_pass(&mut m, 1), 50);
        touch(&mut m, 50);
        assert_eq!(scanner.state.lock().total_faults, 50);
        assert_eq!(scanner.pages_seen(), 50);
        // Unprotected after the fault: further touches are free.
        touch(&mut m, 50);
        assert_eq!(scanner.state.lock().total_faults, 50);
    }

    #[test]
    fn untouched_pages_are_never_observed() {
        let mut m = machine();
        touch(&mut m, 20);
        let (mut scanner, handler) = AutoNumaScanner::new(AutoNumaConfig::default());
        m.set_fault_policy(Some(handler));
        scanner.scan_pass(&mut m, 1);
        // Touch only half.
        touch(&mut m, 10);
        assert_eq!(scanner.pages_seen(), 10);
        assert!(!scanner.hit_counts().contains_key(
            &PageKey {
                pid: 1,
                vpn: Vpn(19)
            }
            .pack()
        ));
    }

    #[test]
    fn scan_window_advances_with_cursor() {
        let mut m = machine();
        touch(&mut m, 100);
        let (mut scanner, handler) = AutoNumaScanner::new(AutoNumaConfig {
            scan_size_pages: 40,
        });
        m.set_fault_policy(Some(handler));
        let passes: Vec<usize> = (0..3).map(|_| scanner.scan_pass(&mut m, 1)).collect();
        assert_eq!(passes, [40, 40, 20], "the last window is the tail");
        assert_eq!(passes.iter().sum::<usize>(), 100, "every page once");
    }

    #[test]
    fn observation_cost_is_a_fault_not_a_scan() {
        // The defining overhead difference vs the A-bit path: each
        // observation costs a full protection fault.
        let mut m = machine();
        touch(&mut m, 10);
        let (mut scanner, handler) = AutoNumaScanner::new(AutoNumaConfig::default());
        m.set_fault_policy(Some(handler));
        scanner.scan_pass(&mut m, 1);
        let before = m.aggregate_counts().protection_faults;
        let out = m.touch(0, 1, VirtAddr(0));
        assert!(out.protection_fault);
        assert!(out.cycles >= LATENCY.protection_fault);
        assert_eq!(m.aggregate_counts().protection_faults, before + 1);
    }

    #[test]
    fn shootdown_cost_booked_as_profiling() {
        let mut m = machine();
        touch(&mut m, 10);
        let (mut scanner, handler) = AutoNumaScanner::new(AutoNumaConfig::default());
        m.set_fault_policy(Some(handler));
        scanner.scan_pass(&mut m, 1);
        assert!(m.aggregate_counts().profiling_cycles >= LATENCY.shootdown_ipi);
    }
}
