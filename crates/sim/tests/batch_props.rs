//! Property proof that quantum execution is bit-identical to op-at-a-time
//! execution, and that ground truth is exactly the memory-level accesses.
//!
//! Two machines receive the same action sequence. One executes every op
//! through [`Machine::exec_op`]; the other hands each quantum to
//! [`Machine::exec_batch`] in randomly sized chunks (so chunk boundaries
//! never line up with anything meaningful). Scans, shootdowns, migrations
//! and epoch advances are interleaved between quanta — the events that
//! change PTE bits, cached translations or frames under a running stream.
//! Every observable the rest of the stack consumes must match exactly:
//! per-core event counts, per-epoch ground truth (including its list
//! order), trace samples, first-touch order, and frame allocation.
//!
//! The truth oracle runs the same action sequences through `exec_op` alone
//! and tallies, per page, every outcome served from memory: each epoch's
//! ground truth must list each page at most once with a nonzero count and,
//! sorted, equal that tally, across migrations that move a page's count
//! to another frame and first touches that reuse the frame a migration
//! vacated.

use proptest::prelude::*;

use tmprof_sim::prelude::*;
use tmprof_sim::trace_engine::TraceSample;

#[derive(Debug, Clone)]
enum BOp {
    Mem { page: u16, store: bool, site: u8 },
    Compute,
}

impl BOp {
    fn work(&self) -> WorkOp {
        match *self {
            BOp::Mem { page, store, site } => WorkOp::Mem {
                va: VirtAddr(page as u64 * PAGE_SIZE + (page as u64 * 64) % PAGE_SIZE),
                store,
                site: site as u32,
            },
            BOp::Compute => WorkOp::Compute,
        }
    }
}

#[derive(Debug, Clone)]
enum Action {
    /// One runner quantum handed to a core. The batched machine executes
    /// it in `chunk`-sized `exec_batch` calls.
    Quantum {
        core: u8,
        chunk: u8,
        ops: Vec<BOp>,
    },
    Scan,
    Shootdown {
        page: u16,
    },
    Migrate {
        page: u16,
        to_tier2: bool,
    },
    Epoch,
}

fn bops() -> impl Strategy<Value = Vec<BOp>> {
    prop::collection::vec(
        prop_oneof![
            8 => (0u16..96, any::<bool>(), 0u8..4)
                .prop_map(|(page, store, site)| BOp::Mem { page, store, site }),
            2 => Just(BOp::Compute),
        ],
        1..80,
    )
}

fn actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0u8..2, 1u8..17, bops())
                .prop_map(|(core, chunk, ops)| Action::Quantum { core, chunk, ops }),
            1 => Just(Action::Scan),
            1 => (0u16..96).prop_map(|page| Action::Shootdown { page }),
            1 => (0u16..96, any::<bool>())
                .prop_map(|(page, to_tier2)| Action::Migrate { page, to_tier2 }),
            1 => Just(Action::Epoch),
        ],
        1..40,
    )
}

fn machine(thp: bool) -> Machine {
    // Enough tier-1 frames that a THP process can map one full 2 MiB
    // region; small enough that tier 2 still sees traffic.
    let mut m = Machine::new(MachineConfig::scaled(2, 640, 256, 32));
    m.add_process(1);
    m.set_thp(1, thp);
    for core in 0..2 {
        m.trace_engine_mut(core).set_enabled(true);
    }
    m
}

/// Everything downstream consumers can observe about a run.
#[derive(Debug, PartialEq)]
struct Snapshot {
    per_core_counts: Vec<EventCounts>,
    /// Per-epoch truth in *list order* — order-sensitive on purpose.
    /// The last entry is the epoch still open when the actions ran out.
    epochs: Vec<Vec<(u64, u64)>>,
    first_touch: Vec<u64>,
    traces: Vec<Vec<TraceSample>>,
    tier1_frames: u64,
    tier2_frames: u64,
}

/// Apply one of the events interleaved between quanta: an A-bit scan, a
/// shootdown or a migration.
fn apply_event(m: &mut Machine, event: &Action) {
    match event {
        Action::Scan => {
            if let Some((pt, descs)) = m.scan_parts(1) {
                pt.walk_present(|_, pte| {
                    if pte.test_and_clear_accessed() {
                        descs.bump_abit(pte.pfn());
                    }
                });
            }
        }
        Action::Shootdown { page } => {
            m.shootdown(1, &[Vpn(*page as u64)], true);
        }
        Action::Migrate { page, to_tier2 } => {
            let dest = if *to_tier2 { Tier::Tier2 } else { Tier::Tier1 };
            let _ = m.migrate_page(1, Vpn(*page as u64), dest);
        }
        Action::Quantum { .. } | Action::Epoch => unreachable!("not an event: {event:?}"),
    }
}

fn run(actions: &[Action], thp: bool, batched: bool) -> Snapshot {
    let mut m = machine(thp);
    let mut epochs = Vec::new();
    for action in actions {
        match action {
            Action::Quantum { core, chunk, ops } => {
                let work: Vec<WorkOp> = ops.iter().map(BOp::work).collect();
                if batched {
                    for part in work.chunks(*chunk as usize) {
                        m.exec_batch(*core as usize, 1, part);
                    }
                } else {
                    for op in work {
                        m.exec_op(*core as usize, 1, op);
                    }
                }
            }
            Action::Epoch => {
                epochs.push(m.advance_epoch().mem_accesses);
            }
            event => apply_event(&mut m, event),
        }
    }
    epochs.push(m.advance_epoch().mem_accesses);
    let per_core_counts: Vec<EventCounts> = m.counts_iter().cloned().collect();
    let first_touch = m.first_touch_order().to_vec();
    let tier1_frames = m.frames().allocated_in(Tier::Tier1);
    let tier2_frames = m.frames().allocated_in(Tier::Tier2);
    let traces: Vec<Vec<TraceSample>> = (0..m.num_cores())
        .map(|core| m.trace_engine_mut(core).drain().0)
        .collect();
    Snapshot {
        per_core_counts,
        epochs,
        first_touch,
        traces,
        tier1_frames,
        tier2_frames,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exec_batch_is_bit_identical_to_exec_op(ops in actions()) {
        let reference = run(&ops, false, false);
        let batch = run(&ops, false, true);
        prop_assert_eq!(reference, batch);
    }

    #[test]
    fn exec_batch_is_bit_identical_to_exec_op_with_thp(ops in actions()) {
        let reference = run(&ops, true, false);
        let batch = run(&ops, true, true);
        prop_assert_eq!(reference, batch);
    }
}

/// Packed ground-truth key of page `vpn` of pid 1.
fn key(vpn: u64) -> u64 {
    PageKey {
        pid: 1,
        vpn: Vpn(vpn),
    }
    .pack()
}

/// Check one epoch's truth list against the tally: each key at most once,
/// every count > 0, and the list, sorted, equal to the tally.
fn assert_truth_is_the_tally(truth: EpochTruth, tally: &KeyMap<u64, u64>, at: &str) {
    let mut list = truth.mem_accesses;
    assert!(
        list.iter().all(|&(_, c)| c > 0),
        "{at}: a zero count is listed"
    );
    list.sort_unstable();
    assert!(
        list.windows(2).all(|w| w[0].0 != w[1].0),
        "{at}: a key is listed twice"
    );
    let mut want: Vec<(u64, u64)> = tally.iter().map(|(&k, &c)| (k, c)).collect();
    want.sort_unstable();
    assert_eq!(list, want, "{at}");
}

/// Run `actions` op at a time and require every closed epoch's ground truth
/// to list a tally of the outcomes served from memory, per page.
fn check_truth_against_memory_outcomes(actions: &[Action], thp: bool) {
    let mut m = machine(thp);
    let mut tally: KeyMap<u64, u64> = KeyMap::default();
    let mut epoch = 0;
    for action in actions {
        match action {
            Action::Quantum { core, ops, .. } => {
                for op in ops.iter().map(BOp::work) {
                    let out = m.exec_op(*core as usize, 1, op);
                    if let (WorkOp::Mem { va, .. }, Some(CacheLevel::Memory)) = (op, out.source) {
                        *tally.entry(key(va.vpn().0)).or_insert(0) += 1;
                    }
                }
            }
            Action::Epoch => {
                assert_truth_is_the_tally(m.advance_epoch(), &tally, &format!("epoch {epoch}"));
                tally.clear();
                epoch += 1;
            }
            event => apply_event(&mut m, event),
        }
    }
    assert_truth_is_the_tally(m.advance_epoch(), &tally, "last epoch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ground_truth_equals_the_memory_level_tally(ops in actions()) {
        check_truth_against_memory_outcomes(&ops, false);
    }

    #[test]
    fn ground_truth_equals_the_memory_level_tally_with_thp(ops in actions()) {
        check_truth_against_memory_outcomes(&ops, true);
    }
}

#[test]
fn a_frame_vacated_and_reused_mid_epoch_counts_both_pages() {
    // Page A reaches memory and migrates; page B's first touch takes the
    // frame A vacated and reaches memory in the same epoch. The frame's
    // count must go to B, and A's must follow A.
    let mut m = machine(false);
    let load_from_memory = |m: &mut Machine, page: u64, line: u64| {
        let op = WorkOp::Mem {
            va: VirtAddr(page * PAGE_SIZE + line * LINE_SIZE),
            store: false,
            site: 0,
        };
        assert_eq!(m.exec_op(0, 1, op).source, Some(CacheLevel::Memory));
    };
    for line in 0..3 {
        load_from_memory(&mut m, 1, line);
    }
    let (vacated, _) = m.migrate_page(1, Vpn(1), Tier::Tier2).expect("A migrates");
    for line in 0..2 {
        load_from_memory(&mut m, 2, line);
    }
    assert_eq!(m.frame_of(1, Vpn(2)), Some(vacated), "B reuses A's frame");
    load_from_memory(&mut m, 1, 3);
    // A's older entry for the frame B reused reads 0 and is dropped; A is
    // listed where its count's frame was first listed, before B.
    assert_eq!(
        m.advance_epoch().mem_accesses,
        vec![(key(1), 4), (key(2), 2)]
    );
}
