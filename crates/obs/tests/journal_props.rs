//! Property-based tests for the event-journal ring buffer.
//!
//! The journal is thread-local and every `#[test]` runs on its own thread,
//! so each property gets a fresh ring; `set_capacity` inside a property
//! replaces the ring wholesale, isolating proptest iterations from each
//! other on the same thread.

#![cfg(not(feature = "obs-off"))]

use proptest::prelude::*;

use tmprof_obs::journal::{self, Event, EventKind};

const KINDS: [EventKind; 7] = [
    EventKind::EpochStart,
    EventKind::EpochEnd,
    EventKind::GateTrace,
    EventKind::GateAbit,
    EventKind::MigrationBatch,
    EventKind::TlbShootdown,
    EventKind::HugeFallback,
];

fn arbitrary_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (
            0u64..1_000_000,
            0u32..64,
            0usize..KINDS.len(),
            0u64..4096,
            0u64..4096,
        )
            .prop_map(|(clock, epoch, kind, a, b)| Event {
                clock,
                epoch,
                kind: KINDS[kind],
                a,
                b,
            }),
        0..40,
    )
}

fn record_all(events: &[Event]) {
    for ev in events {
        journal::record(ev.kind, ev.clock, ev.epoch, ev.a, ev.b);
    }
}

proptest! {
    #[test]
    fn ring_keeps_exactly_the_newest_suffix(events in arbitrary_events(), cap in 1usize..12) {
        journal::set_capacity(cap);
        record_all(&events);
        let kept = journal::events();
        // The ring retains precisely the last min(cap, n) events, in
        // recording order — wrap-around may reorder storage, never the view.
        let expect_len = events.len().min(cap);
        prop_assert_eq!(kept.len(), expect_len);
        prop_assert_eq!(kept.as_slice(), &events[events.len() - expect_len..]);
        prop_assert_eq!(journal::total_recorded(), events.len() as u64);
    }

    #[test]
    fn capacity_zero_records_nothing(events in arbitrary_events()) {
        journal::set_capacity(0);
        record_all(&events);
        prop_assert!(journal::events().is_empty());
        prop_assert_eq!(journal::total_recorded(), 0);
        prop_assert_eq!(journal::dump(), "journal capacity=0 recorded=0 kept=0\n".to_string());
    }

    #[test]
    fn dumps_are_deterministic_for_identical_sequences(
        events in arbitrary_events(),
        cap in 1usize..12,
    ) {
        // Byte-identical exports when the same sequence is replayed into a
        // fresh ring — the determinism contract sweep sidecars rely on.
        journal::set_capacity(cap);
        record_all(&events);
        let (dump1, csv1, json1) = (journal::dump(), journal::to_csv(), journal::to_json());
        journal::set_capacity(cap);
        record_all(&events);
        prop_assert_eq!(journal::dump(), dump1);
        prop_assert_eq!(journal::to_csv(), csv1);
        prop_assert_eq!(journal::to_json(), json1);
    }

    #[test]
    fn reset_clears_events_but_keeps_capacity(events in arbitrary_events(), cap in 1usize..12) {
        journal::set_capacity(cap);
        record_all(&events);
        journal::set_capacity(journal::capacity());
        prop_assert!(journal::events().is_empty());
        prop_assert_eq!(journal::total_recorded(), 0);
        prop_assert_eq!(journal::capacity(), cap);
    }

    #[test]
    fn exports_agree_on_event_count(events in arbitrary_events(), cap in 1usize..12) {
        journal::set_capacity(cap);
        record_all(&events);
        let kept = journal::events().len();
        // dump: 1 header + kept lines; csv: 1 header + kept rows.
        prop_assert_eq!(journal::dump().lines().count(), 1 + kept);
        prop_assert_eq!(journal::to_csv().lines().count(), 1 + kept);
        // json: 2 brackets + kept entries.
        prop_assert_eq!(journal::to_json().lines().count(), 2 + kept);
    }
}
