//! Property suite: the A-bit scan (subtree pruning over interior summary
//! words, word-wise leaf candidates) is bit-for-bit equivalent to the
//! scalar per-PTE reference walk.
//!
//! Two layers of the claim are held under random page-table histories
//! (map / unmap / huge-map conflicts / huge-unmap / touches / migrations,
//! deliberately straddling 64-entry word and 512-entry leaf boundaries):
//!
//! * **Page-table layer**: `scan_accessed_bounded` reports the same
//!   observations (in the same order), the same [`WalkFootprint`], the
//!   same resume cursor, and leaves the table in the same final state as
//!   `walk_present_bounded` with the test-and-clear done per PTE — across
//!   a full budgeted cursor cycle.
//! * **Scanner layer**: `ABitScanner::scan_process` and
//!   `ABitScanner::scan_process_scalar` produce identical epoch pages,
//!   heat points, stats, shootdowns, charged cycles, and residual A bits
//!   on identically-driven machines — including when the two alternate
//!   scan-by-scan on the same machine.
//!
//! The regression block at the bottom pins the historically dangerous
//! cases: word/leaf straddles, huge conflicts under budget-1 cursors, and
//! cold interior nodes whose summary bits are stale-set (the scan must
//! descend, find nothing, and charge the identical footprint).
//!
//! [`WalkFootprint`]: tmprof_sim::pagetable::WalkFootprint

use proptest::prelude::*;

use tmprof_profilers::abit::{ABitConfig, ABitScanner};
use tmprof_sim::addr::{Pfn, Vpn};
use tmprof_sim::machine::{Machine, MachineConfig};
use tmprof_sim::pagetable::{PageTable, HUGE_SPAN};
use tmprof_sim::pte::{bits, Pte};

const LEAF: u64 = HUGE_SPAN; // 512 entries per leaf table

/// One operation against a page table's history.
#[derive(Clone, Copy, Debug)]
enum TableOp {
    /// Map a 4 KiB page, optionally pre-accessed/pre-dirtied.
    Map {
        vpn: u64,
        accessed: bool,
        dirty: bool,
    },
    /// Unmap a 4 KiB page (no-op when absent).
    Unmap { vpn: u64 },
    /// Map a 2 MiB page at `slot * 512`; conflicts with existing 4 KiB
    /// mappings are errors and must fail identically on both tables.
    MapHuge {
        slot: u64,
        accessed: bool,
        dirty: bool,
    },
    /// Unmap a huge page (no-op when absent or not huge).
    UnmapHuge { slot: u64 },
    /// Hardware-walker touch: set A (and D on stores) through the
    /// bitmap-maintaining `entry_mut` path.
    Touch { vpn: u64, store: bool },
    /// Migration: rewrite the PFN in place, flags preserved.
    Migrate { vpn: u64, pfn: u64 },
}

/// VPNs concentrated on word (64) and leaf (512) boundaries plus a dense
/// low region, so partial first/last words and leaf straddles are routine.
fn vpn_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        6 => 0u64..(3 * LEAF + 80),
        1 => Just(63u64),
        1 => Just(64u64),
        1 => Just(LEAF - 1),
        1 => Just(LEAF),
        1 => Just(2 * LEAF + 63),
    ]
}

fn op_strategy() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        5 => (vpn_strategy(), any::<bool>(), any::<bool>())
            .prop_map(|(vpn, accessed, dirty)| TableOp::Map { vpn, accessed, dirty }),
        2 => vpn_strategy().prop_map(|vpn| TableOp::Unmap { vpn }),
        1 => (0u64..4, any::<bool>(), any::<bool>())
            .prop_map(|(slot, accessed, dirty)| TableOp::MapHuge { slot, accessed, dirty }),
        1 => (0u64..4).prop_map(|slot| TableOp::UnmapHuge { slot }),
        4 => (vpn_strategy(), any::<bool>()).prop_map(|(vpn, store)| TableOp::Touch { vpn, store }),
        1 => (vpn_strategy(), 0u64..2048).prop_map(|(vpn, pfn)| TableOp::Migrate { vpn, pfn }),
    ]
}

/// PFNs stay under 4096 so the same histories are valid against a
/// machine's descriptor table in the scanner-layer tests.
fn apply(pt: &mut PageTable, op: TableOp) {
    match op {
        TableOp::Map {
            vpn,
            accessed,
            dirty,
        } => {
            // A huge mapping already covering this VPN wins (mmap would
            // have split it first; `map` asserts instead of splitting).
            if pt.get(Vpn(vpn)).huge() {
                return;
            }
            let mut pte = Pte::new(Pfn(1024 + vpn % 2048), true);
            if accessed {
                pte.set(bits::A);
            }
            if dirty {
                pte.set(bits::D);
            }
            pt.map(Vpn(vpn), pte);
        }
        TableOp::Unmap { vpn } => {
            pt.unmap(Vpn(vpn));
        }
        TableOp::MapHuge {
            slot,
            accessed,
            dirty,
        } => {
            let mut pte = Pte::new(Pfn(1024 + slot * HUGE_SPAN), true);
            pte.set(bits::PS);
            if accessed {
                pte.set(bits::A);
            }
            if dirty {
                pte.set(bits::D);
            }
            let _ = pt.map_huge(Vpn(slot * HUGE_SPAN), pte);
        }
        TableOp::UnmapHuge { slot } => {
            pt.unmap_huge(Vpn(slot * HUGE_SPAN));
        }
        TableOp::Touch { vpn, store } => {
            if let Some(pte) = pt.entry_mut(Vpn(vpn)) {
                pte.set(bits::A);
                if store {
                    pte.set(bits::D);
                }
            }
        }
        TableOp::Migrate { vpn, pfn } => {
            if let Some(pte) = pt.entry_mut(Vpn(vpn)) {
                *pte = pte.with_pfn(Pfn(pfn));
            }
        }
    }
}

/// Full raw snapshot of every mapped translation (VPN -> raw PTE bits).
fn snapshot(pt: &mut PageTable) -> Vec<(Vpn, Pte)> {
    let mut out = Vec::new();
    pt.walk_present(|vpn, pte| out.push((vpn, *pte)));
    out
}

/// Run a full budgeted cursor cycle of the scan on `scan` and the scalar
/// reference walk on `scalar`, asserting per-round equivalence of
/// observations, footprints, and resume cursors.
fn assert_cycle_equivalent(scan: &mut PageTable, scalar: &mut PageTable, budget: u64) {
    let mut cursor = Vpn(0);
    // A table of N pages finishes in ceil(N/budget)+1 rounds; anything
    // longer means a cursor livelock.
    for round in 0..(4 * LEAF / budget.min(4 * LEAF) + 2) {
        // The candidate bitmaps are conservative supersets, so a visited
        // page is not guaranteed hot — the in-closure test_and_clear is
        // the authoritative check, exactly as the scanner driver does it.
        let mut hits_p: Vec<Vpn> = Vec::new();
        let (fp_p, resume_p) = scan.scan_accessed_bounded(cursor, budget, |vpn, pte| {
            if pte.test_and_clear_accessed() {
                hits_p.push(vpn);
            }
        });

        let mut hits_s: Vec<Vpn> = Vec::new();
        let (fp_s, resume_s) = scalar.walk_present_bounded(cursor, budget, |vpn, pte| {
            if pte.test_and_clear_accessed() {
                hits_s.push(vpn);
            }
        });

        assert_eq!(hits_p, hits_s, "round {round} observations diverged");
        assert_eq!(fp_p, fp_s, "round {round} footprint diverged");
        assert_eq!(resume_p, resume_s, "round {round} resume cursor diverged");
        match resume_p {
            Some(next) => cursor = next,
            None => return,
        }
    }
    panic!("cursor cycle did not terminate");
}

/// Two tables driven through the same history: (scan, scalar reference).
fn twin_tables(ops: &[TableOp]) -> (PageTable, PageTable) {
    let mut scan = PageTable::new();
    let mut scalar = PageTable::new();
    for &op in ops {
        apply(&mut scan, op);
        apply(&mut scalar, op);
    }
    (scan, scalar)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Page-table layer: the A-bit scan matches the scalar walk
    /// round-for-round and leaves identical final tables.
    #[test]
    fn packed_scan_cycle_matches_scalar_walk(
        ops in prop::collection::vec(op_strategy(), 0..150),
        budget in 1u64..200,
    ) {
        let (mut scan, mut scalar) = twin_tables(&ops);
        assert_cycle_equivalent(&mut scan, &mut scalar, budget);
        prop_assert_eq!(snapshot(&mut scan), snapshot(&mut scalar), "final tables diverged");
    }

    /// Unbounded passes: same equivalence without cursor mechanics; the
    /// second pass runs over the summaries the first one re-tightened.
    #[test]
    fn packed_scan_unbounded_matches_scalar_walk(
        ops in prop::collection::vec(op_strategy(), 0..150),
    ) {
        let (mut scan, mut scalar) = twin_tables(&ops);
        assert_cycle_equivalent(&mut scan, &mut scalar, u64::MAX);
        assert_cycle_equivalent(&mut scan, &mut scalar, u64::MAX);
        prop_assert_eq!(snapshot(&mut scan), snapshot(&mut scalar));
    }
}

/// Which traversal the scanner uses for a scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ScanMode {
    /// `scan_process_scalar`: the per-PTE reference walk.
    Scalar,
    /// `scan_process`: the A-bit scan.
    Packed,
}

/// A machine whose page table was driven through `ops`, plus the scanner
/// run over it once per entry of `modes` using that entry's traversal.
fn run_scanner(ops: &[TableOp], cfg: ABitConfig, modes: &[ScanMode]) -> (Machine, ABitScanner) {
    let mut m = Machine::new(MachineConfig::scaled(2, 4096, 4096, 1 << 20));
    m.add_process(1);
    {
        let (pt, _) = m.scan_parts(1).expect("pid 1 exists");
        for &op in ops {
            apply(pt, op);
        }
    }
    let mut sc = ABitScanner::new(cfg);
    for &mode in modes {
        match mode {
            ScanMode::Scalar => sc.scan_process_scalar(&mut m, 1),
            ScanMode::Packed => sc.scan_process(&mut m, 1),
        }
    }
    (m, sc)
}

/// Assert that running `modes` produces every observable identical to the
/// all-scalar reference sequence of the same length.
fn assert_modes_match_scalar(ops: &[TableOp], cfg: ABitConfig, modes: &[ScanMode]) {
    let (mut mp, mut sp) = run_scanner(ops, cfg, modes);
    let scalar_modes = vec![ScanMode::Scalar; modes.len()];
    let (mut ms, mut ss) = run_scanner(ops, cfg, &scalar_modes);

    assert_eq!(
        sp.take_epoch_pages_raw(),
        ss.take_epoch_pages_raw(),
        "epoch pages diverged ({modes:?})"
    );
    assert_eq!(
        sp.seen_pages().iter().collect::<Vec<_>>(),
        ss.seen_pages().iter().collect::<Vec<_>>(),
        "seen pages diverged ({modes:?})"
    );
    assert_eq!(sp.heat_points(), ss.heat_points(), "heat points diverged");

    let (a, b) = (sp.stats(), ss.stats());
    assert_eq!(a.scans, b.scans);
    assert_eq!(
        a.ptes_visited, b.ptes_visited,
        "footprint diverged ({modes:?})"
    );
    assert_eq!(a.observations, b.observations);
    assert_eq!(a.shootdowns, b.shootdowns);
    assert_eq!(
        a.overhead_cycles, b.overhead_cycles,
        "charged cost diverged ({modes:?})"
    );
    assert_eq!(
        mp.aggregate_counts().profiling_cycles,
        ms.aggregate_counts().profiling_cycles
    );

    // Residual A/D bits and translations agree exactly.
    let snap_p = snapshot(mp.scan_parts(1).expect("pid 1").0);
    let snap_s = snapshot(ms.scan_parts(1).expect("pid 1").0);
    assert_eq!(snap_p, snap_s, "final page tables diverged ({modes:?})");
}

fn assert_scanners_equivalent(ops: &[TableOp], cfg: ABitConfig, scans: u32) {
    assert_modes_match_scalar(ops, cfg, &vec![ScanMode::Packed; scans as usize]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scanner layer: `scan_process` == `scan_process_scalar` for
    /// every observable (epoch pages, heat, stats, cost, residual bits)
    /// across multiple budgeted scans of random tables.
    #[test]
    fn packed_scanner_matches_scalar_scanner(
        ops in prop::collection::vec(op_strategy(), 0..120),
        budget in prop_oneof![Just(None), (1u64..300).prop_map(Some)],
        shootdown in any::<bool>(),
        restart in any::<bool>(),
        scans in 1u32..5,
    ) {
        let cfg = ABitConfig {
            shootdown,
            scan_budget: budget,
            restart_each_scan: restart,
            record_samples: true,
        };
        assert_scanners_equivalent(&ops, cfg, scans);
    }

    /// Mode-interleaving: a random sequence of scalar/packed scans on ONE
    /// machine equals the all-scalar sequence — the traversals are
    /// interchangeable mid-run because each leaves identical table state
    /// and cursor behind.
    #[test]
    fn interleaved_scan_modes_match_scalar_sequence(
        ops in prop::collection::vec(op_strategy(), 0..120),
        budget in prop_oneof![Just(None), (1u64..300).prop_map(Some)],
        modes in prop::collection::vec(
            prop_oneof![Just(ScanMode::Scalar), Just(ScanMode::Packed)],
            1..6,
        ),
    ) {
        let cfg = ABitConfig {
            shootdown: false,
            scan_budget: budget,
            restart_each_scan: false,
            record_samples: true,
        };
        assert_modes_match_scalar(&ops, cfg, &modes);
    }
}

/// Word-boundary regression: a run of pages straddling the 64-entry word
/// edge, with a budget that truncates mid-word.
#[test]
fn word_boundary_straddle_scans_identically() {
    let ops: Vec<TableOp> = (58..72)
        .map(|vpn| TableOp::Map {
            vpn,
            accessed: true,
            dirty: vpn % 2 == 0,
        })
        .collect();
    assert_scanners_equivalent(
        &ops,
        ABitConfig {
            scan_budget: Some(5),
            ..ABitConfig::default()
        },
        4,
    );

    let (mut scan, mut scalar) = twin_tables(&ops);
    assert_cycle_equivalent(&mut scan, &mut scalar, 5);
}

/// Partial-last-word regression: the leaf's final word is only partially
/// populated, and the scan must stop cleanly at the leaf edge.
#[test]
fn partial_last_word_scans_identically() {
    let mut ops: Vec<TableOp> = (LEAF - 70..LEAF - 3)
        .map(|vpn| TableOp::Map {
            vpn,
            accessed: true,
            dirty: false,
        })
        .collect();
    // A second leaf right after the boundary, so resume crosses leaves.
    ops.extend((LEAF..LEAF + 10).map(|vpn| TableOp::Map {
        vpn,
        accessed: true,
        dirty: false,
    }));
    assert_scanners_equivalent(
        &ops,
        ABitConfig {
            scan_budget: Some(7),
            ..ABitConfig::default()
        },
        12,
    );

    let (mut scan, mut scalar) = twin_tables(&ops);
    assert_cycle_equivalent(&mut scan, &mut scalar, 7);
}

/// Huge-page conflict regression: a huge mapping that loses to existing
/// 4 KiB pages, then one that wins, scanned with a mid-span cursor.
#[test]
fn huge_conflict_and_mid_span_cursor_scan_identically() {
    let ops = vec![
        TableOp::Map {
            vpn: 2 * LEAF + 5,
            accessed: true,
            dirty: false,
        },
        // Conflicts with the 4 KiB page above: must fail on both tables.
        TableOp::MapHuge {
            slot: 2,
            accessed: true,
            dirty: true,
        },
        // Free slot: succeeds on both.
        TableOp::MapHuge {
            slot: 3,
            accessed: true,
            dirty: true,
        },
        TableOp::Map {
            vpn: 7,
            accessed: true,
            dirty: true,
        },
        TableOp::Touch {
            vpn: 2 * LEAF + 5,
            store: true,
        },
    ];
    // Budget 1 forces the cursor to stop right before (and resume at) the
    // huge entry repeatedly — the historical footprint-drift spot.
    assert_scanners_equivalent(
        &ops,
        ABitConfig {
            scan_budget: Some(1),
            ..ABitConfig::default()
        },
        6,
    );

    let (mut scan, mut scalar) = twin_tables(&ops);
    assert_cycle_equivalent(&mut scan, &mut scalar, 1);
}

/// Cold-interior-node-with-stale-summary-bit regression: unmapping every
/// page of a subtree leaves its interior summary bits stale-SET (unmap
/// does not recompute summaries). The scan must descend the stale-flagged
/// subtree, find nothing, and still report the exact same footprint,
/// observations, and cursor as the scalar walk.
#[test]
fn stale_set_summary_over_cold_subtree_scans_identically() {
    let mut ops: Vec<TableOp> = Vec::new();
    // Populate two leaves: [0, 40) hot and [LEAF, LEAF+40) hot.
    for vpn in (0..40).chain(LEAF..LEAF + 40) {
        ops.push(TableOp::Map {
            vpn,
            accessed: true,
            dirty: true,
        });
    }
    // Kill the whole second leaf: summaries above it stay stale-set while
    // the subtree is genuinely empty.
    for vpn in LEAF..LEAF + 40 {
        ops.push(TableOp::Unmap { vpn });
    }
    // And a third leaf further out so the cursor has somewhere to go.
    for vpn in 2 * LEAF..2 * LEAF + 8 {
        ops.push(TableOp::Map {
            vpn,
            accessed: true,
            dirty: false,
        });
    }
    for budget in [1, 7, 64, u64::MAX] {
        let (mut scan, mut scalar) = twin_tables(&ops);
        assert_cycle_equivalent(&mut scan, &mut scalar, budget);
    }
    assert_scanners_equivalent(
        &ops,
        ABitConfig {
            scan_budget: Some(16),
            ..ABitConfig::default()
        },
        8,
    );
    // After the first full sweep cleared every A bit, the summaries over
    // the surviving leaves are stale-set too; rescanning is the pure
    // stale-summary case and must also agree.
    assert_modes_match_scalar(
        &ops,
        ABitConfig::unbounded(),
        &[
            ScanMode::Packed,
            ScanMode::Packed,
            ScanMode::Scalar,
            ScanMode::Packed,
        ],
    );
}
