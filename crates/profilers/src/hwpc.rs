//! Hardware performance-counter monitoring with multiplexing (§II-B).
//!
//! HWPCs are coarse — one number for everything a core (or the whole LLC)
//! did — but nearly free, so TMP keeps them running continuously and uses
//! the LLC-miss and TLB-miss rates to decide when the expensive profilers
//! are worth enabling (§III-B-4). The PMU has a limited number of counter
//! registers; programming more events than slots forces time-multiplexing,
//! and multiplexed readings are *extrapolated* from the fraction of time
//! each event was actually live — the verbosity loss Table I warns about.

use tmprof_sim::counters::EventCounts;
use tmprof_sim::machine::Machine;

/// PMU events the monitor can be programmed with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PmuEvent {
    RetiredOps,
    Loads,
    Stores,
    L1dMisses,
    L2Misses,
    LlcMisses,
    DtlbMisses,
    PtwWalks,
    PageFaults,
    Cycles,
}

impl PmuEvent {
    /// Extract the event's running total from a counter snapshot.
    fn read(self, c: &EventCounts) -> u64 {
        match self {
            PmuEvent::RetiredOps => c.retired_ops,
            PmuEvent::Loads => c.loads,
            PmuEvent::Stores => c.stores,
            PmuEvent::L1dMisses => c.l1d_misses,
            PmuEvent::L2Misses => c.l2_misses,
            PmuEvent::LlcMisses => c.llc_misses,
            PmuEvent::DtlbMisses => c.dtlb_l1_misses,
            PmuEvent::PtwWalks => c.ptw_walks,
            PmuEvent::PageFaults => c.page_faults,
            PmuEvent::Cycles => c.cycles,
        }
    }
}

/// Number of programmable counter registers per core (Zen2 has 6).
pub const PMU_SLOTS: usize = 6;

/// One extrapolated reading.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub event: PmuEvent,
    /// Extrapolated event count for the interval.
    pub value: f64,
    /// Fraction of the interval the event was actually counted (1.0 when
    /// no multiplexing was needed).
    pub live_fraction: f64,
}

/// A `perf`-style counting session over the machine's aggregate PMU.
pub struct HwpcMonitor {
    events: Vec<PmuEvent>,
    slots: usize,
    /// Snapshot at the start of the current interval.
    last: EventCounts,
    /// Rotation offset for multiplexing.
    rotation: usize,
    /// Intervals observed so far.
    intervals: u64,
    /// Last live measurement per event (reported while rotated out).
    stale: Vec<f64>,
}

impl HwpcMonitor {
    /// Program a set of events with the default slot count.
    pub fn new(machine: &Machine, events: Vec<PmuEvent>) -> Self {
        Self::with_slots(machine, events, PMU_SLOTS)
    }

    /// Program a set of events over `slots` counter registers.
    pub fn with_slots(machine: &Machine, events: Vec<PmuEvent>, slots: usize) -> Self {
        assert!(!events.is_empty(), "no events programmed");
        assert!(slots > 0);
        let n = events.len();
        Self {
            events,
            slots,
            last: machine.aggregate_counts(),
            rotation: 0,
            intervals: 0,
            stale: vec![0.0; n],
        }
    }

    /// Read the interval since the last call.
    ///
    /// With multiplexing, only the events resident in a slot during this
    /// interval produce a fresh count; rotated-out events report their most
    /// recent live measurement (stale data) — the verbosity loss Table I
    /// attributes to exceeding the PMU register budget.
    pub fn read(&mut self, machine: &Machine) -> Vec<Reading> {
        let now = machine.aggregate_counts();
        let delta = now.delta_since(&self.last);
        self.last = now;
        self.intervals += 1;
        let n = self.events.len();
        let live_fraction = if n <= self.slots {
            1.0
        } else {
            self.slots as f64 / n as f64
        };
        let mut out = Vec::with_capacity(n);
        let events = self.events.iter().zip(self.stale.iter_mut());
        for (i, (&ev, stale)) in events.enumerate() {
            let live_now = n <= self.slots || ((i + n - self.rotation) % n) < self.slots;
            let raw = ev.read(&delta) as f64;
            if live_now {
                *stale = raw;
            }
            let value = *stale;
            out.push(Reading {
                event: ev,
                value,
                live_fraction: if live_now { 1.0 } else { live_fraction },
            });
        }
        if n > self.slots {
            self.rotation = (self.rotation + self.slots) % n;
        }
        out
    }

    /// Events programmed.
    pub fn events(&self) -> &[PmuEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::prelude::*;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::scaled(1, 128, 512, 1024));
        m.add_process(1);
        m
    }

    #[test]
    fn reads_interval_deltas() {
        let mut m = machine();
        let mut mon = HwpcMonitor::new(&m, vec![PmuEvent::RetiredOps, PmuEvent::PageFaults]);
        for i in 0..50u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        let r = mon.read(&m);
        assert_eq!(r[0].value, 50.0);
        assert_eq!(r[1].value, 50.0);
        // Second read with no activity: zero deltas.
        let r2 = mon.read(&m);
        assert_eq!(r2[0].value, 0.0);
    }

    #[test]
    fn no_multiplexing_within_slot_budget() {
        let m = machine();
        let mon = HwpcMonitor::new(&m, vec![PmuEvent::LlcMisses; PMU_SLOTS]);
        assert!(mon.events.len() <= mon.slots);
    }

    #[test]
    fn multiplexing_reports_partial_live_fraction() {
        let mut m = machine();
        let events = vec![
            PmuEvent::RetiredOps,
            PmuEvent::Loads,
            PmuEvent::Stores,
            PmuEvent::L1dMisses,
            PmuEvent::L2Misses,
            PmuEvent::LlcMisses,
            PmuEvent::DtlbMisses,
            PmuEvent::PtwWalks,
        ];
        let mut mon = HwpcMonitor::with_slots(&m, events, 4);
        assert!(mon.events.len() > mon.slots);
        for i in 0..100u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        let r = mon.read(&m);
        let partial = r.iter().filter(|x| x.live_fraction < 1.0).count();
        assert_eq!(partial, 4, "half the events were rotated out");
    }

    #[test]
    fn rotation_moves_live_set() {
        let mut m = machine();
        let events = vec![PmuEvent::RetiredOps, PmuEvent::Loads, PmuEvent::Stores];
        let mut mon = HwpcMonitor::with_slots(&m, events, 1);
        m.touch(0, 1, VirtAddr(0x1000));
        let r1 = mon.read(&m);
        let live1: Vec<bool> = r1.iter().map(|r| r.live_fraction == 1.0).collect();
        m.touch(0, 1, VirtAddr(0x2000));
        let r2 = mon.read(&m);
        let live2: Vec<bool> = r2.iter().map(|r| r.live_fraction == 1.0).collect();
        assert_ne!(live1, live2, "rotation must move the live slot");
    }

    #[test]
    fn read_event_convenience() {
        let mut m = machine();
        let mut mon = HwpcMonitor::new(&m, vec![PmuEvent::PtwWalks]);
        m.touch(0, 1, VirtAddr(0x1000));
        let r = mon.read(&m);
        assert_eq!(
            r.iter()
                .find(|r| r.event == PmuEvent::PtwWalks)
                .map(|r| r.value),
            Some(1.0)
        );
    }

    #[test]
    #[should_panic(expected = "no events")]
    fn empty_event_set_panics() {
        let m = machine();
        let _ = HwpcMonitor::new(&m, vec![]);
    }
}
