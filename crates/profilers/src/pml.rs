//! Page-Modification Logging driver (paper §II-B).
//!
//! PML is Intel's hardware automation of D-bit collection: the CPU appends
//! the physical address of every write that sets a D bit to an in-memory
//! log and notifies software when the log fills. The paper catalogues PML
//! as part of the monitoring landscape (its focus stays on A-bit/trace
//! profiling, which capture reads too); we implement the driver so
//! write-aware placement policies — e.g. CLOCK-DWF-style "keep dirty pages
//! in DRAM to spare NVM write endurance" variants [32] — have a realistic
//! dirty-page source to build on.

use tmprof_sim::addr::Pfn;
use tmprof_sim::keymap::KeyMap;
use tmprof_sim::machine::Machine;

/// Running totals for the tracker.
#[derive(Clone, Copy, Debug, Default)]
pub struct PmlStats {
    /// Log entries consumed.
    pub entries: u64,
    /// Drains performed.
    pub drains: u64,
    /// Full-log notifications observed (each cost a VM exit).
    pub notifications: u64,
    /// Entries lost to un-drained full logs.
    pub lost: u64,
    /// Profiling cycles charged (drain cost).
    pub overhead_cycles: u64,
}

/// Cycles to process one drained log entry (bounce-buffer copy + count).
const PER_ENTRY_COST: u64 = 40;

/// The software half: enables per-core PML and aggregates dirty counts.
pub struct PmlTracker {
    /// Write counts per frame (packed across drains).
    dirty_counts: KeyMap<u64, u64>,
    stats: PmlStats,
    enabled: bool,
}

impl PmlTracker {
    /// Create the tracker and enable logging on every core.
    pub fn new(machine: &mut Machine) -> Self {
        for core in 0..machine.num_cores() {
            machine.pml_engine_mut(core).set_enabled(true);
        }
        Self {
            dirty_counts: KeyMap::default(),
            stats: PmlStats::default(),
            enabled: true,
        }
    }

    /// Turn logging on/off machine-wide.
    pub fn set_enabled(&mut self, machine: &mut Machine, enabled: bool) {
        self.enabled = enabled;
        for core in 0..machine.num_cores() {
            machine.pml_engine_mut(core).set_enabled(enabled);
        }
    }

    /// Drain every core's log and fold the entries into the dirty counts.
    pub fn drain(&mut self, machine: &mut Machine) {
        for core in 0..machine.num_cores() {
            let (entries, notifications, lost) = {
                let engine = machine.pml_engine_mut(core);
                let e = engine.drain();
                (e, engine.notifications(), engine.lost())
            };
            let cost = entries.len() as u64 * PER_ENTRY_COST;
            machine.charge_profiling(core, cost);
            self.stats.overhead_cycles += cost;
            self.stats.entries += entries.len() as u64;
            self.stats.notifications = notifications;
            self.stats.lost = lost;
            for pfn in entries {
                *self.dirty_counts.entry(pfn.0).or_insert(0) += 1;
            }
        }
        self.stats.drains += 1;
    }

    /// Frames with at least one recorded write, hottest-writer first.
    pub fn ranked_dirty_frames(&self) -> Vec<(Pfn, u64)> {
        let mut v: Vec<(Pfn, u64)> = self
            .dirty_counts
            .iter()
            .map(|(&p, &c)| (Pfn(p), c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Driver totals.
    pub fn stats(&self) -> PmlStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::prelude::*;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::scaled(1, 256, 0, 1 << 20));
        m.add_process(1);
        m
    }

    fn store(m: &mut Machine, page: u64) {
        m.exec_op(
            0,
            1,
            WorkOp::Mem {
                va: VirtAddr(page * PAGE_SIZE),
                store: true,
                site: 0,
            },
        );
    }

    #[test]
    fn records_first_write_per_page() {
        let mut m = machine();
        let mut pml = PmlTracker::new(&mut m);
        // First store sets D (logged); repeat stores through a dirty
        // translation are not logged — PML semantics.
        for _ in 0..5 {
            store(&mut m, 3);
        }
        pml.drain(&mut m);
        let pfn = m.frame_of(1, Vpn(3)).unwrap();
        assert_eq!(pml.dirty_counts[&pfn.0], 1);
        assert_eq!(pml.stats().entries, 1);
    }

    #[test]
    fn clean_rearm_logs_again() {
        let mut m = machine();
        let mut pml = PmlTracker::new(&mut m);
        store(&mut m, 3);
        pml.drain(&mut m);
        // Software clears the D bit (writeback path) and flushes the TLB;
        // the next store is a fresh 0->1 transition and is logged again.
        m.shootdown(1, &[Vpn(3)], false);
        {
            let (pt, _) = m.scan_parts(1).unwrap();
            pt.entry_mut(Vpn(3))
                .unwrap()
                .clear(tmprof_sim::pte::bits::D);
        }
        store(&mut m, 3);
        pml.drain(&mut m);
        let pfn = m.frame_of(1, Vpn(3)).unwrap();
        assert_eq!(pml.dirty_counts[&pfn.0], 2);
    }

    #[test]
    fn loads_are_never_logged() {
        let mut m = machine();
        let mut pml = PmlTracker::new(&mut m);
        for i in 0..10 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        pml.drain(&mut m);
        assert_eq!(pml.stats().entries, 0);
    }

    #[test]
    fn disabled_tracker_records_nothing() {
        let mut m = machine();
        let mut pml = PmlTracker::new(&mut m);
        pml.set_enabled(&mut m, false);
        store(&mut m, 1);
        pml.drain(&mut m);
        assert_eq!(pml.stats().entries, 0);
        assert!(!pml.enabled);
    }

    #[test]
    fn ranking_orders_by_write_count() {
        let mut m = machine();
        let mut pml = PmlTracker::new(&mut m);
        // Page 1 written twice (with a clean-rearm in between), page 2 once.
        store(&mut m, 1);
        store(&mut m, 2);
        pml.drain(&mut m);
        m.shootdown(1, &[Vpn(1)], false);
        {
            let (pt, _) = m.scan_parts(1).unwrap();
            pt.entry_mut(Vpn(1))
                .unwrap()
                .clear(tmprof_sim::pte::bits::D);
        }
        store(&mut m, 1);
        pml.drain(&mut m);
        let ranked = pml.ranked_dirty_frames();
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].1, 2);
        assert_eq!(ranked[0].0, m.frame_of(1, Vpn(1)).unwrap());
    }

    #[test]
    fn drain_charges_overhead() {
        let mut m = machine();
        let mut pml = PmlTracker::new(&mut m);
        store(&mut m, 1);
        pml.drain(&mut m);
        assert!(pml.stats().overhead_cycles > 0);
        assert_eq!(
            m.aggregate_counts().profiling_cycles,
            pml.stats().overhead_cycles
        );
    }
}
