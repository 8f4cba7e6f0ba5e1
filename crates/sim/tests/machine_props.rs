//! Property-based tests over the whole machine: random op sequences must
//! preserve the architectural invariants regardless of interleaving.

use proptest::prelude::*;

use tmprof_sim::prelude::*;

/// Pages `pid` maps, from the machine's per-process usage snapshot.
fn mapped_pages(m: &Machine, pid: Pid) -> u64 {
    m.process_usage()
        .into_iter()
        .find(|&(p, _, _)| p == pid)
        .map_or(0, |(_, _, pages)| pages)
}

#[derive(Debug, Clone)]
enum Action {
    Mem { core: u8, page: u16, store: bool },
    Compute { core: u8 },
    Scan,
    Shootdown { page: u16 },
    Migrate { page: u16, to_tier2: bool },
    Epoch,
}

fn actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0u8..2, 0u16..96, any::<bool>())
                .prop_map(|(core, page, store)| Action::Mem { core, page, store }),
            2 => (0u8..2).prop_map(|core| Action::Compute { core }),
            1 => Just(Action::Scan),
            1 => (0u16..96).prop_map(|page| Action::Shootdown { page }),
            1 => (0u16..96, any::<bool>())
                .prop_map(|(page, to_tier2)| Action::Migrate { page, to_tier2 }),
            1 => Just(Action::Epoch),
        ],
        1..250,
    )
}

fn machine() -> Machine {
    let mut m = Machine::new(MachineConfig::scaled(2, 64, 256, 32));
    m.add_process(1);
    for core in 0..2 {
        m.trace_engine_mut(core).set_enabled(true);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn machine_invariants_hold_under_arbitrary_interleavings(ops in actions()) {
        let mut m = machine();
        let mut mem_ops = 0u64;
        let mut compute_ops = 0u64;
        for action in ops {
            match action {
                Action::Mem { core, page, store } => {
                    mem_ops += 1;
                    let out = m.exec_op(core as usize, 1, WorkOp::Mem {
                        va: VirtAddr(page as u64 * PAGE_SIZE + (page as u64 * 64) % PAGE_SIZE),
                        store,
                        site: 0,
                    });
                    // Translation agrees with the page table.
                    let pfn = m.frame_of(1, Vpn(page as u64)).expect("mapped after access");
                    if out.source == Some(CacheLevel::Memory) {
                        prop_assert_eq!(out.tier, Some(m.memory().tier_of(pfn)));
                    }
                    prop_assert!(out.cycles >= 1);
                }
                Action::Compute { core } => {
                    compute_ops += 1;
                    m.exec_op(core as usize, 1, WorkOp::Compute);
                }
                Action::Scan => {
                    let (pt, descs) = m.scan_parts(1).unwrap();
                    pt.walk_present(|_, pte| {
                        if pte.test_and_clear_accessed() {
                            descs.bump_abit(pte.pfn());
                        }
                    });
                }
                Action::Shootdown { page } => {
                    m.shootdown(1, &[Vpn(page as u64)], false);
                }
                Action::Migrate { page, to_tier2 } => {
                    let dest = if to_tier2 { Tier::Tier2 } else { Tier::Tier1 };
                    let _ = m.migrate_page(1, Vpn(page as u64), dest);
                    // Migration must never break the translation.
                    if let Some(pfn) = m.frame_of(1, Vpn(page as u64)) {
                        prop_assert!(pfn.0 < m.memory().total_frames());
                    }
                }
                Action::Epoch => {
                    let truth = m.advance_epoch();
                    prop_assert!(truth.total_mem_accesses() <= mem_ops);
                }
            }
            let c = m.aggregate_counts();
            // Universal counter invariants.
            prop_assert_eq!(c.retired_ops, mem_ops + compute_ops);
            prop_assert!(c.loads + c.stores == mem_ops);
            prop_assert!(c.l1d_misses >= c.l2_misses);
            prop_assert!(c.l2_misses >= c.llc_misses);
            prop_assert_eq!(c.llc_misses, c.tier1_accesses + c.tier2_accesses);
            prop_assert!(c.ptw_walks <= c.dtlb_l1_misses);
            prop_assert!(c.ptw_abit_sets <= c.ptw_walks);
            prop_assert!(c.profiling_cycles <= c.cycles);
            // Writeback conservation: a line must be dirtied by a store
            // before it can be written back, and each store dirties at
            // most one line — so memory writebacks never exceed stores.
            prop_assert!(c.tier2_writebacks <= c.stores);
            prop_assert!(c.tier2_stores <= c.stores.min(c.tier2_accesses));
            // Free frames are cold: no cache holds a line of a frame on a
            // free list, so a migration's destination needs no scrub.
            for pfn in m.cached_frames() {
                prop_assert!(!m.frames().is_free(pfn), "free {:?} is cached", pfn);
            }
        }
        // Frame accounting: allocated == mapped pages.
        let mapped = mapped_pages(&m, 1);
        let allocated = m.frames().allocated_in(Tier::Tier1) + m.frames().allocated_in(Tier::Tier2);
        prop_assert_eq!(mapped, allocated);
        // Descriptor owners point back at mapped pages with matching frames.
        for (pfn, d) in m.descs().iter_owned() {
            let owner = d.owner.unwrap();
            prop_assert_eq!(m.frame_of(owner.pid, owner.vpn), Some(pfn));
        }
    }

    #[test]
    fn same_action_sequence_is_bit_deterministic(ops in actions()) {
        let run = |ops: &[Action]| -> (EventCounts, Vec<u64>) {
            let mut m = machine();
            for action in ops {
                match *action {
                    Action::Mem { core, page, store } => {
                        m.exec_op(core as usize, 1, WorkOp::Mem {
                            va: VirtAddr(page as u64 * PAGE_SIZE),
                            store,
                            site: 0,
                        });
                    }
                    Action::Compute { core } => {
                        m.exec_op(core as usize, 1, WorkOp::Compute);
                    }
                    Action::Scan => {
                        let (pt, descs) = m.scan_parts(1).unwrap();
                        pt.walk_present(|_, pte| {
                            if pte.test_and_clear_accessed() {
                                descs.bump_abit(pte.pfn());
                            }
                        });
                    }
                    Action::Shootdown { page } => {
                        m.shootdown(1, &[Vpn(page as u64)], true);
                    }
                    Action::Migrate { page, to_tier2 } => {
                        let dest = if to_tier2 { Tier::Tier2 } else { Tier::Tier1 };
                        let _ = m.migrate_page(1, Vpn(page as u64), dest);
                    }
                    Action::Epoch => {
                        let _ = m.advance_epoch();
                    }
                }
            }
            (m.aggregate_counts(), m.first_touch_order().to_vec())
        };
        let (c1, ft1) = run(&ops);
        let (c2, ft2) = run(&ops);
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(ft1, ft2);
    }
}
