//! Property tests for the dirty-list epoch-close fast path.
//!
//! [`EpochProfile::capture`] walks only the descriptor table's dirty-PFN
//! list; [`EpochProfile::capture_full_scan`] walks every owned frame. The
//! invariant — every frame with a nonzero per-epoch counter is on the
//! dirty list — must survive arbitrary interleavings of observation bumps,
//! owner (re)assignment, page migration, and epoch horizons. These tests
//! drive the table through random op sequences and demand the two capture
//! paths agree exactly at every horizon and at the end.

use proptest::prelude::*;

use tmprof_core::rank::EpochProfile;
use tmprof_sim::addr::{Pfn, Vpn};
use tmprof_sim::pagedesc::{PageDescTable, PageKey};

const FRAMES: u64 = 24;

/// One operation against the descriptor table.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Assign (or reassign) a frame's owning logical page.
    SetOwner { pfn: u64, pid: u16, vpn: u64 },
    /// A-bit observation.
    BumpAbit { pfn: u64 },
    /// Trace (IBS/PEBS) sample.
    BumpTrace { pfn: u64 },
    /// Page migration: stats and owner move from one frame to another.
    Migrate { from: u64, to: u64 },
    /// Epoch horizon: reset per-epoch counters.
    ResetEpoch,
}

fn arbitrary_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0u64..FRAMES, 1u16..4, 0u64..48)
            .prop_map(|(pfn, pid, vpn)| Op::SetOwner { pfn, pid, vpn }),
        4 => (0u64..FRAMES).prop_map(|pfn| Op::BumpAbit { pfn }),
        4 => (0u64..FRAMES).prop_map(|pfn| Op::BumpTrace { pfn }),
        2 => (0u64..FRAMES, 0u64..FRAMES).prop_map(|(from, to)| Op::Migrate { from, to }),
        1 => Just(Op::ResetEpoch),
    ]
}

fn apply(t: &mut PageDescTable, op: Op) {
    match op {
        Op::SetOwner { pfn, pid, vpn } => t.set_owner(
            Pfn(pfn),
            PageKey {
                pid: pid as tmprof_sim::tlb::Pid,
                vpn: Vpn(vpn),
            },
        ),
        Op::BumpAbit { pfn } => t.bump_abit(Pfn(pfn)),
        Op::BumpTrace { pfn } => t.bump_trace(Pfn(pfn)),
        Op::Migrate { from, to } => {
            if from != to {
                t.migrate(Pfn(from), Pfn(to));
            }
        }
        Op::ResetEpoch => t.reset_epoch(),
    }
}

fn assert_captures_agree(t: &PageDescTable) {
    let fast = EpochProfile::capture(t);
    let full = EpochProfile::capture_full_scan(t);
    assert_eq!(fast.abit, full.abit, "abit capture diverged");
    assert_eq!(fast.trace, full.trace, "trace capture diverged");
}

proptest! {
    #[test]
    fn dirty_capture_equals_full_scan(ops in prop::collection::vec(arbitrary_op(), 0..120)) {
        let mut t = PageDescTable::new(FRAMES);
        for op in ops {
            // Check at every horizon, not just the end: a stale dirty list
            // would poison the *next* epoch's capture.
            let horizon = matches!(op, Op::ResetEpoch);
            apply(&mut t, op);
            if horizon {
                assert_captures_agree(&t);
                prop_assert!(t.touched_frames().is_empty(), "horizon left touched frames");
            }
        }
        assert_captures_agree(&t);
    }

    #[test]
    fn dirty_capture_survives_owner_reassignment_between_epochs(
        bumps in prop::collection::vec((0u64..FRAMES, 0u64..FRAMES), 1..40),
        reassign in prop::collection::vec((0u64..FRAMES, 1u16..4, 0u64..48), 1..16),
    ) {
        // Epoch 0: observe, close. Epoch 1: reassign owners (frame reuse
        // after free/alloc), observe again. The dirty list from epoch 0
        // must not leak stale frames into epoch 1's capture.
        let mut t = PageDescTable::new(FRAMES);
        for (i, &(a, b)) in bumps.iter().enumerate() {
            t.set_owner(Pfn(a), PageKey { pid: 1, vpn: Vpn(a) });
            t.bump_abit(Pfn(a));
            if i % 2 == 0 {
                t.bump_trace(Pfn(b));
            }
        }
        assert_captures_agree(&t);
        t.reset_epoch();
        for &(pfn, pid, vpn) in &reassign {
            t.set_owner(
                Pfn(pfn),
                PageKey {
                    pid: pid as tmprof_sim::tlb::Pid,
                    vpn: Vpn(vpn),
                },
            );
        }
        for &(a, _) in &bumps {
            t.bump_trace(Pfn(a));
        }
        assert_captures_agree(&t);
        let p = EpochProfile::capture(&t);
        prop_assert!(p.abit.is_empty(), "epoch-0 A-bit counts leaked past the horizon");
    }

    #[test]
    fn migration_chains_preserve_capture_equivalence(
        hops in prop::collection::vec((0u64..FRAMES, 0u64..FRAMES), 1..30),
    ) {
        // A page's stats hop across frames mid-epoch; every intermediate
        // frame leaves a stale dirty entry behind and capture must still
        // agree with the full scan.
        let mut t = PageDescTable::new(FRAMES);
        t.set_owner(Pfn(0), PageKey { pid: 2, vpn: Vpn(7) });
        t.bump_abit(Pfn(0));
        t.bump_trace(Pfn(0));
        let mut cur = 0u64;
        for &(nudge, extra) in &hops {
            let dst = nudge;
            if dst != cur {
                t.migrate(Pfn(cur), Pfn(dst));
                cur = dst;
            }
            t.bump_abit(Pfn(cur));
            // Unrelated traffic on another frame, owned or not.
            t.bump_trace(Pfn(extra));
        }
        assert_captures_agree(&t);
        t.reset_epoch();
        assert_captures_agree(&t);
        prop_assert!(t.touched_frames().is_empty());
    }
}

/// Machine-level edges around `unmap_huge` in the middle of an epoch: the
/// 512 covered frames keep their per-epoch descriptor counts (nothing
/// retroactively unobserves them), the capture fast path must still agree
/// with the full scan over those now-ownerless-looking frames, and later
/// scans of the page table must not resurrect the unmapped span.
mod unmap_huge_mid_epoch {
    use super::*;
    use tmprof_sim::machine::{Machine, MachineConfig};
    use tmprof_sim::pagetable::HUGE_SPAN;
    use tmprof_sim::pte::{bits, Pte};

    const HUGE_BASE: u64 = HUGE_SPAN; // VPN 512, PFN 512: frame-aligned run

    fn machine_with_huge() -> Machine {
        let mut m = Machine::new(MachineConfig::scaled(1, 2048, 0, 1 << 20));
        m.add_process(1);
        let (pt, _) = m.scan_parts(1).expect("pid 1 exists");
        let mut pte = Pte::new(Pfn(HUGE_BASE), true);
        pte.set(bits::PS | bits::A | bits::D);
        pt.map_huge(Vpn(HUGE_BASE), pte).expect("span is free");
        // A small-page neighbor in the previous leaf that must survive
        // everything below.
        let mut small = Pte::new(Pfn(7), true);
        small.set(bits::A);
        pt.map(Vpn(3), small);
        m
    }

    #[test]
    fn captures_agree_after_unmap_huge_mid_epoch() {
        let mut m = machine_with_huge();
        // Mid-epoch observations land on frames covered by the huge run.
        for off in [0u64, 1, 63, 64, 511] {
            let pfn = Pfn(HUGE_BASE + off);
            m.descs_mut().set_owner(
                pfn,
                PageKey {
                    pid: 1,
                    vpn: Vpn(HUGE_BASE + off),
                },
            );
            m.descs_mut().bump_abit(pfn);
            if off % 2 == 0 {
                m.descs_mut().bump_trace(pfn);
            }
        }
        let (pt, _) = m.scan_parts(1).expect("pid 1 exists");
        let old = pt.unmap_huge(Vpn(HUGE_BASE)).expect("huge entry present");
        assert!(old.huge());

        // The dirty-PFN fast path still covers every touched frame even
        // though their translations are gone.
        assert_captures_agree(m.descs());
        let p = EpochProfile::capture(m.descs());
        assert_eq!(p.abit.len(), 5, "mid-epoch observations lost by unmap");

        m.descs_mut().reset_epoch();
        assert_captures_agree(m.descs());
        assert!(m.descs().touched_frames().is_empty());
    }

    #[test]
    fn scans_after_unmap_huge_observe_only_surviving_pages() {
        let mut m = machine_with_huge();
        let (pt, _) = m.scan_parts(1).expect("pid 1 exists");
        pt.unmap_huge(Vpn(HUGE_BASE)).expect("huge entry present");

        // Packed and scalar scans agree that only the small neighbor is
        // left hot — the unmapped accessed+dirty span must not leak
        // observations out of stale candidate words.
        let mut packed_hits = Vec::new();
        let (fp, resume) = pt.scan_accessed_bounded(Vpn(0), u64::MAX, |vpn, pte| {
            if pte.test_and_clear_accessed() {
                packed_hits.push(vpn);
            }
        });
        assert_eq!(packed_hits, vec![Vpn(3)]);
        assert_eq!(fp.ptes_visited, 1, "unmapped span still counted");
        assert_eq!(resume, None);

        let mut scalar_hits = Vec::new();
        let (fp2, _) = pt.walk_present_bounded(Vpn(0), u64::MAX, |vpn, pte| {
            if pte.accessed() {
                scalar_hits.push(vpn);
            }
        });
        // The packed pass already cleared the survivor's A bit; the walk
        // still visits exactly the same one present PTE.
        assert!(scalar_hits.is_empty());
        assert_eq!(fp2.ptes_visited, 1);
    }

    #[test]
    fn remap_after_unmap_huge_starts_clean() {
        let mut m = machine_with_huge();
        let (pt, _) = m.scan_parts(1).expect("pid 1 exists");
        pt.unmap_huge(Vpn(HUGE_BASE)).expect("huge entry present");
        // Frame reuse: a fresh 4 KiB mapping inside the old span must not
        // inherit the dead run's A/D state.
        pt.map(Vpn(HUGE_BASE + 5), Pte::new(Pfn(9), true));
        let mut hits = Vec::new();
        pt.scan_accessed_bounded(Vpn(HUGE_BASE), u64::MAX, |vpn, pte| {
            if pte.test_and_clear_accessed() {
                hits.push(vpn);
            }
        });
        assert!(hits.is_empty(), "fresh mapping born accessed");
        assert!(pt.get(Vpn(HUGE_BASE + 5)).present());
        assert_eq!(pt.mapped_pages(), 2);
    }
}
