//! Property-based tests for the substrate's core data structures.
//!
//! Each structure is checked against a trivially-correct reference model
//! under arbitrary operation sequences.

use proptest::prelude::*;

use tmprof_sim::keymap::{KeyMap, KeySet};

use tmprof_sim::addr::{phys_addr, Pfn, PhysAddr, VirtAddr, Vpn, PAGE_SIZE};
use tmprof_sim::cache::Cache;
use tmprof_sim::pagetable::PageTable;
use tmprof_sim::pte::{bits, Pte};
use tmprof_sim::rng::{Rng, Zipf};
use tmprof_sim::tlb::{TlbEntry, TlbLevel};

// ---------- addresses ----------

proptest! {
    #[test]
    fn va_roundtrips_through_vpn_and_offset(raw in 0u64..(1 << 48)) {
        let va = VirtAddr(raw);
        let rebuilt = (va.vpn().0 * PAGE_SIZE) + va.page_offset();
        prop_assert_eq!(rebuilt, raw);
    }

    #[test]
    fn pa_roundtrips_through_pfn_and_offset(raw in 0u64..(1 << 50)) {
        let pa = PhysAddr(raw);
        prop_assert_eq!(phys_addr(pa.pfn(), pa.page_offset()), pa);
    }

    #[test]
    fn line_and_page_are_consistent(raw in 0u64..(1 << 48)) {
        let va = VirtAddr(raw);
        // A line never spans pages: line*64 and line*64+63 share a VPN.
        let line_base = va.line() * 64;
        prop_assert_eq!(VirtAddr(line_base).vpn(), VirtAddr(line_base + 63).vpn());
    }
}

// ---------- PTE flags ----------

proptest! {
    #[test]
    fn pte_flags_are_independent(pfn in 0u64..(1u64 << 39), w: bool, a: bool, d: bool, p: bool) {
        let mut pte = Pte::new(Pfn(pfn), w);
        if a { pte.set(bits::A); }
        if d { pte.set(bits::D); }
        if p { pte.set(bits::POISON); }
        prop_assert_eq!(pte.pfn(), Pfn(pfn));
        prop_assert_eq!(pte.writable(), w);
        prop_assert_eq!(pte.accessed(), a);
        prop_assert_eq!(pte.dirty(), d);
        prop_assert_eq!(pte.poisoned(), p);
        prop_assert!(pte.present());
        // Clearing one flag leaves the others untouched.
        pte.clear(bits::A);
        prop_assert!(!pte.accessed());
        prop_assert_eq!(pte.dirty(), d);
        prop_assert_eq!(pte.poisoned(), p);
        prop_assert_eq!(pte.pfn(), Pfn(pfn));
    }
}

// ---------- page table vs KeyMap model ----------

#[derive(Debug, Clone)]
enum PtOp {
    Map(u64, u64),
    Unmap(u64),
    SetA(u64),
}

fn pt_ops() -> impl Strategy<Value = Vec<PtOp>> {
    // Cluster VPNs so maps and unmaps collide often.
    let vpn = prop_oneof![0u64..64, (1u64 << 27)..(1u64 << 27) + 16, Just(1u64 << 35)];
    prop::collection::vec(
        prop_oneof![
            (vpn.clone(), 1u64..1 << 20).prop_map(|(v, f)| PtOp::Map(v, f)),
            vpn.clone().prop_map(PtOp::Unmap),
            vpn.prop_map(PtOp::SetA),
        ],
        1..200,
    )
}

proptest! {
    #[test]
    fn pagetable_matches_hashmap_model(ops in pt_ops()) {
        let mut pt = PageTable::new();
        let mut model: KeyMap<u64, (u64, bool)> = KeyMap::default();
        for op in ops {
            match op {
                PtOp::Map(v, f) => {
                    pt.map(Vpn(v), Pte::new(Pfn(f), true));
                    model.insert(v, (f, false));
                }
                PtOp::Unmap(v) => {
                    let got = pt.unmap(Vpn(v)).map(|p| p.pfn().0);
                    let want = model.remove(&v).map(|(f, _)| f);
                    prop_assert_eq!(got, want);
                }
                PtOp::SetA(v) => {
                    if let Some(pte) = pt.entry_mut(Vpn(v)).filter(|p| p.present()) {
                        pte.set(bits::A);
                        model.get_mut(&v).unwrap().1 = true;
                    } else {
                        prop_assert!(!model.contains_key(&v));
                    }
                }
            }
        }
        prop_assert_eq!(pt.mapped_pages(), model.len() as u64);
        // Full agreement on every model key…
        for (&v, &(f, a)) in &model {
            let pte = pt.get(Vpn(v));
            prop_assert!(pte.present());
            prop_assert_eq!(pte.pfn().0, f);
            prop_assert_eq!(pte.accessed(), a);
        }
        // …and the walk yields exactly the model's key set, sorted.
        let mut walked = Vec::new();
        pt.walk_present(|vpn, _| walked.push(vpn.0));
        let mut expect: Vec<u64> = model.keys().copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(walked, expect);
    }

    #[test]
    fn bounded_walk_in_pieces_equals_full_walk(
        vpns in prop::collection::btree_set(0u64..5000, 1..300),
        budget in 1u64..64,
    ) {
        let mut pt = PageTable::new();
        for &v in &vpns {
            pt.map(Vpn(v), Pte::new(Pfn(v), true));
        }
        let mut collected = Vec::new();
        let mut cursor = Vpn(0);
        loop {
            let (_, resume) =
                pt.walk_present_bounded(cursor, budget, |vpn, _| collected.push(vpn.0));
            match resume {
                Some(next) => cursor = next,
                None => break,
            }
        }
        let expect: Vec<u64> = vpns.into_iter().collect();
        prop_assert_eq!(collected, expect);
    }
}

// ---------- TLB level vs model ----------

proptest! {
    #[test]
    fn tlb_level_never_exceeds_capacity_and_hits_are_sound(
        accesses in prop::collection::vec((1u32..4, 0u64..200), 1..400),
        ways in 1usize..8,
        sets_pow in 0u32..4,
    ) {
        let sets = 1usize << sets_pow;
        let mut level = TlbLevel::new(sets, ways);
        let mut inserted: KeyMap<(u32, u64), u64> = KeyMap::default();
        for (pid, vpn) in accesses {
            if let Some(e) = level.lookup(pid, Vpn(vpn)) {
                // Any hit must agree with what we inserted.
                prop_assert_eq!(Some(&e.pfn().0), inserted.get(&(pid, vpn)));
            } else {
                level.insert(TlbEntry {
                    pid,
                    vpn: Vpn(vpn),
                    pfn: Pfn(vpn * 31 + pid as u64),
                    writable: true,
                    dirty: false,
                    huge: false,
                });
                inserted.insert((pid, vpn), vpn * 31 + pid as u64);
            }
            prop_assert!(level.occupancy() <= sets * ways);
        }
    }

    #[test]
    fn tlb_invalidate_always_misses_afterwards(
        vpns in prop::collection::vec(0u64..100, 1..50),
    ) {
        let mut level = TlbLevel::new(4, 4);
        for &v in &vpns {
            level.insert(TlbEntry {
                pid: 1,
                vpn: Vpn(v),
                pfn: Pfn(v),
                writable: true,
                dirty: false,
                huge: false,
            });
        }
        for &v in &vpns {
            level.invalidate_page(1, Vpn(v));
            prop_assert!(level.lookup(1, Vpn(v)).is_none());
        }
        prop_assert_eq!(level.occupancy(), 0);
    }
}

// ---------- cache vs model ----------

proptest! {
    #[test]
    fn cache_hit_implies_recent_fill_and_capacity_bound(
        lines in prop::collection::vec(0u64..512, 1..500),
    ) {
        let mut cache = Cache::new("t", 64 * 64, 4); // 64 lines, 16 sets x 4
        let mut filled: KeySet<u64> = Default::default();
        for line in lines {
            if cache.probe(line, false) {
                // A hit is only possible for a line that was filled before.
                prop_assert!(filled.contains(&line), "hit on never-filled line");
            } else {
                cache.fill(line, false);
                filled.insert(line);
                // The line just filled is the set's most recent: it hits.
                prop_assert!(cache.probe(line, false), "miss right after fill");
            }
            prop_assert!(cache.occupancy() <= 64);
        }
    }
}

// ---------- RNG / Zipf ----------

proptest! {
    #[test]
    fn zipf_stays_in_domain(n in 1u64..10_000, theta in 0.2f64..1.6, seed: u64) {
        let zipf = Zipf::new(n, theta);
        let mut rng = Rng::new(seed);
        for _ in 0..200 {
            prop_assert!(zipf.sample(&mut rng) < n);
        }
    }

    #[test]
    fn rng_below_always_below(bound in 1u64..u64::MAX, seed: u64) {
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }
}
