//! Property proof that quantum execution is bit-identical to op-at-a-time
//! execution.
//!
//! Two machines receive the same action sequence. One executes every op
//! through [`Machine::exec_op`]; the other hands each quantum to
//! [`Machine::exec_batch`] in randomly sized chunks (so chunk boundaries
//! never line up with anything meaningful). Scans, shootdowns, migrations
//! and epoch advances are interleaved between quanta — exactly the events
//! that invalidate the translation memo. Every observable the rest of the
//! stack consumes must match exactly: per-core event counts, per-epoch and
//! lifetime ground truth (including hash-map iteration order, which
//! downstream hashing makes reproducible), trace samples, first-touch
//! order, and frame allocation.

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
    /// Per-epoch truth in *iteration order* — order-sensitive on purpose.
    epochs: Vec<Vec<(u64, u64)>>,
    current_mems: Vec<(u64, u64)>,
    lifetime: Vec<(u64, u64)>,
    first_touch: Vec<u64>,
    traces: Vec<Vec<TraceSample>>,
    tier1_frames: u64,
    tier2_frames: u64,
}

fn epoch_rows(t: &EpochTruth) -> Vec<(u64, u64)> {
    t.mem_accesses.iter().map(|(&k, &v)| (k, v)).collect()
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
            Action::Scan => {
                if let Some((pt, descs, epoch)) = m.scan_parts(1) {
                    pt.walk_present(|_, pte| {
                        if pte.test_and_clear_accessed() {
                            descs.bump_abit(pte.pfn(), epoch);
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
            Action::Epoch => {
                epochs.push(epoch_rows(&m.advance_epoch()));
            }
        }
    }
    let current_mems = epoch_rows(m.truth().current());
    let lifetime: Vec<(u64, u64)> = m
        .truth()
        .lifetime_mem()
        .iter()
        .map(|(&k, &v)| (k, v))
        .collect();
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
        current_mems,
        lifetime,
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
