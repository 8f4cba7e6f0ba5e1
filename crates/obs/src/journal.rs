//! Fixed-capacity ring-buffer event journal.
//!
//! Epoch-scoped events (gate flips, epoch horizons, migration batches,
//! TLB shootdowns, huge-page fallbacks) are recorded with caller-supplied
//! sim-clock timestamps — this crate sits below the simulator and never
//! reads a clock itself, wall or simulated, so identical seeded runs
//! produce byte-identical dumps.
//!
//! The ring is thread-local (see the crate docs) and holds the most recent
//! `capacity` events; older events are overwritten, with the total count
//! retained so dumps report how many were dropped. Each thread's ring
//! starts at [`DEFAULT_CAPACITY`]; [`set_capacity`] (used by `tmpctl
//! journal --cap`) resizes it, and capacity 0 disables recording entirely.
//! With the `obs-off` feature every entry point is an inline no-op.

/// Capacity of a thread's ring until [`set_capacity`] changes it.
pub const DEFAULT_CAPACITY: usize = 4096;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A new epoch began (`a` unused).
    EpochStart,
    /// An epoch closed (`a` unused).
    EpochEnd,
    /// The HWPC gate switched trace sampling (`a` = 1 on, 0 off).
    GateTrace,
    /// The HWPC gate switched A-bit scanning (`a` = 1 on, 0 off).
    GateAbit,
    /// The mover applied an epoch batch (`a` = promoted, `b` = demoted).
    MigrationBatch,
    /// A TLB shootdown broadcast (`a` = pages, `b` = 1 if profiling-booked).
    TlbShootdown,
    /// A THP mapping fell back to base pages (`a` = base VPN).
    HugeFallback,
    /// A nomination was skipped because demotion could not free a frame —
    /// every slower tier was full (`a` = packed page key).
    DemoteFailed,
    /// Per-tenant admission control rejected migrations this epoch
    /// (`a` = pid, `b` = pages rejected). Recorded by the fleet
    /// coordinator in deterministic shard order, never on a worker thread.
    AdmitRejected,
}

impl EventKind {
    /// Stable snake_case label used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::EpochStart => "epoch_start",
            EventKind::EpochEnd => "epoch_end",
            EventKind::GateTrace => "gate_trace",
            EventKind::GateAbit => "gate_abit",
            EventKind::MigrationBatch => "migration_batch",
            EventKind::TlbShootdown => "tlb_shootdown",
            EventKind::HugeFallback => "huge_fallback",
            EventKind::DemoteFailed => "demote_failed",
            EventKind::AdmitRejected => "admit_rejected",
        }
    }
}

/// One journal entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Sim-clock timestamp (cycles), supplied by the recording layer.
    pub clock: u64,
    /// Machine epoch the event belongs to.
    pub epoch: u32,
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
}

impl Event {
    /// One deterministic text line.
    pub fn render(&self) -> String {
        format!(
            "clk={} epoch={} {} a={} b={}",
            self.clock,
            self.epoch,
            self.kind.label(),
            self.a,
            self.b
        )
    }
}

#[cfg(not(feature = "obs-off"))]
mod ring {
    use super::{Event, DEFAULT_CAPACITY};
    use std::cell::RefCell;

    pub(super) struct Ring {
        cap: usize,
        /// Storage; once full, `next` wraps and overwrites oldest-first.
        buf: Vec<Event>,
        next: usize,
        total: u64,
    }

    impl Ring {
        fn with_capacity(cap: usize) -> Self {
            Self {
                cap,
                buf: Vec::with_capacity(cap.min(DEFAULT_CAPACITY)),
                next: 0,
                total: 0,
            }
        }

        // tmprof-lint: allow(panic-reachability) — ring invariant: next < cap, re-established by the wrap below
        pub(super) fn record(&mut self, ev: Event) {
            if self.cap == 0 {
                return;
            }
            if self.buf.len() < self.cap {
                self.buf.push(ev);
            } else {
                self.buf[self.next] = ev;
            }
            self.next = (self.next + 1) % self.cap;
            self.total += 1;
        }

        pub(super) fn events(&self) -> Vec<Event> {
            if self.buf.len() < self.cap || self.buf.is_empty() {
                self.buf.clone()
            } else {
                // Full ring: oldest entry is at `next`.
                let mut out = Vec::with_capacity(self.buf.len());
                out.extend_from_slice(&self.buf[self.next..]);
                out.extend_from_slice(&self.buf[..self.next]);
                out
            }
        }

        pub(super) fn total(&self) -> u64 {
            self.total
        }

        pub(super) fn capacity(&self) -> usize {
            self.cap
        }
    }

    thread_local! {
        static RING: RefCell<Option<Ring>> = const { RefCell::new(None) };
    }

    pub(super) fn with_ring<R>(f: impl FnOnce(&mut Ring) -> R) -> R {
        RING.with(|slot| {
            f(slot
                .borrow_mut()
                .get_or_insert_with(|| Ring::with_capacity(DEFAULT_CAPACITY)))
        })
    }

    pub(super) fn replace(cap: usize) {
        RING.with(|slot| *slot.borrow_mut() = Some(Ring::with_capacity(cap)));
    }
}

/// Record an event on the calling thread's ring.
#[inline]
pub fn record(kind: EventKind, clock: u64, epoch: u32, a: u64, b: u64) {
    #[cfg(not(feature = "obs-off"))]
    ring::with_ring(|r| {
        r.record(Event {
            clock,
            epoch,
            kind,
            a,
            b,
        })
    });
    #[cfg(feature = "obs-off")]
    let _ = (kind, clock, epoch, a, b);
}

/// Retained events, oldest first (empty with `obs-off`).
pub fn events() -> Vec<Event> {
    #[cfg(not(feature = "obs-off"))]
    return ring::with_ring(|r| r.events());
    #[cfg(feature = "obs-off")]
    Vec::new()
}

/// Events recorded on this thread since the last reset (including ones the
/// ring has since overwritten).
pub fn total_recorded() -> u64 {
    #[cfg(not(feature = "obs-off"))]
    return ring::with_ring(|r| r.total());
    #[cfg(feature = "obs-off")]
    0
}

/// The calling thread's ring capacity.
pub fn capacity() -> usize {
    #[cfg(not(feature = "obs-off"))]
    return ring::with_ring(|r| r.capacity());
    #[cfg(feature = "obs-off")]
    0
}

/// Replace the calling thread's ring with an empty one of capacity `cap`
/// (tests and the CLI's `--cap` flag).
pub fn set_capacity(cap: usize) {
    #[cfg(not(feature = "obs-off"))]
    ring::replace(cap);
    #[cfg(feature = "obs-off")]
    let _ = cap;
}

/// Deterministic text dump: a header line with capacity/recorded/kept
/// counts, then one [`Event::render`] line per retained event.
pub fn dump() -> String {
    let evs = events();
    let mut out = format!(
        "journal capacity={} recorded={} kept={}\n",
        capacity(),
        total_recorded(),
        evs.len()
    );
    for ev in &evs {
        out.push_str(&ev.render());
        out.push('\n');
    }
    out
}

/// CSV dump of the retained events (`clock,epoch,kind,a,b`).
pub fn to_csv() -> String {
    let mut out = String::from("clock,epoch,kind,a,b\n");
    for ev in events() {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            ev.clock,
            ev.epoch,
            ev.kind.label(),
            ev.a,
            ev.b
        ));
    }
    out
}

/// JSON array dump of the retained events.
pub fn to_json() -> String {
    let mut out = String::from("[\n");
    let evs = events();
    for (i, ev) in evs.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"clock\": {}, \"epoch\": {}, \"kind\": \"{}\", \"a\": {}, \"b\": {}}}{}\n",
            ev.clock,
            ev.epoch,
            ev.kind.label(),
            ev.a,
            ev.b,
            if i + 1 < evs.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "obs-off"))]
    fn ev(i: u64) -> (EventKind, u64, u32, u64, u64) {
        (EventKind::TlbShootdown, i * 10, i as u32, i, 0)
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn records_in_order_until_capacity() {
        set_capacity(8);
        for i in 0..5 {
            let (k, c, e, a, b) = ev(i);
            record(k, c, e, a, b);
        }
        let evs = events();
        assert_eq!(evs.len(), 5);
        assert_eq!(total_recorded(), 5);
        assert!(evs.windows(2).all(|w| w[0].clock < w[1].clock));
        set_capacity(capacity());
        assert!(events().is_empty());
        assert_eq!(capacity(), 8, "reset keeps capacity");
        set_capacity(DEFAULT_CAPACITY);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn wraparound_keeps_newest_oldest_first() {
        set_capacity(3);
        for i in 0..7 {
            let (k, c, e, a, b) = ev(i);
            record(k, c, e, a, b);
        }
        let evs = events();
        assert_eq!(evs.len(), 3);
        assert_eq!(total_recorded(), 7);
        let clocks: Vec<u64> = evs.iter().map(|e| e.clock).collect();
        assert_eq!(clocks, vec![40, 50, 60], "last three, oldest first");
        assert!(dump().starts_with("journal capacity=3 recorded=7 kept=3\n"));
        set_capacity(DEFAULT_CAPACITY);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn exports_share_one_event_view() {
        set_capacity(4);
        record(EventKind::MigrationBatch, 99, 2, 7, 3);
        assert!(dump().contains("clk=99 epoch=2 migration_batch a=7 b=3"));
        assert!(to_csv().contains("99,2,migration_batch,7,3"));
        assert!(to_json().contains(
            "{\"clock\": 99, \"epoch\": 2, \"kind\": \"migration_batch\", \"a\": 7, \"b\": 3}"
        ));
        set_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn labels_are_unique() {
        let kinds = [
            EventKind::EpochStart,
            EventKind::EpochEnd,
            EventKind::GateTrace,
            EventKind::GateAbit,
            EventKind::MigrationBatch,
            EventKind::TlbShootdown,
            EventKind::HugeFallback,
            EventKind::DemoteFailed,
            EventKind::AdmitRejected,
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn obs_off_journal_is_inert() {
        set_capacity(16);
        record(EventKind::EpochStart, 1, 0, 0, 0);
        assert!(events().is_empty());
        assert_eq!(total_recorded(), 0);
        assert_eq!(capacity(), 0);
        assert_eq!(dump(), "journal capacity=0 recorded=0 kept=0\n");
    }
}
