//! Transparent-huge-page behavior of the machine: 2 MiB mappings, shared
//! A/D bits, TLB reach, and profiling-granularity effects.

use tmprof_sim::frame::HUGE_FRAMES;
use tmprof_sim::pagetable::HUGE_SPAN;
use tmprof_sim::prelude::*;

/// Pages `pid` maps, from the machine's per-process usage snapshot.
fn mapped_pages(m: &Machine, pid: Pid) -> u64 {
    m.process_usage()
        .into_iter()
        .find(|&(p, _, _)| p == pid)
        .map_or(0, |(_, _, pages)| pages)
}

fn thp_machine(t1: u64, t2: u64) -> Machine {
    let mut m = Machine::new(MachineConfig::scaled(1, t1, t2, 1 << 20));
    m.add_process(1);
    m.set_thp(1, true);
    m
}

#[test]
fn first_touch_maps_a_whole_huge_page() {
    let mut m = thp_machine(2048, 0);
    let out = m.touch(0, 1, VirtAddr(5 * PAGE_SIZE));
    assert!(out.minor_fault);
    // One fault mapped the whole 2 MiB region: neighbors are present.
    let counts_before = m.counts(0).page_faults;
    for i in 0..HUGE_SPAN {
        assert!(
            m.frame_of(1, Vpn(i)).is_some(),
            "page {i} not covered by the huge mapping"
        );
    }
    m.touch(0, 1, VirtAddr(511 * PAGE_SIZE));
    assert_eq!(m.counts(0).page_faults, counts_before, "no further faults");
}

#[test]
fn huge_translation_resolves_per_page_frames() {
    let mut m = thp_machine(2048, 0);
    m.touch(0, 1, VirtAddr(0));
    let base = m.frame_of(1, Vpn(0)).unwrap();
    for i in [1u64, 100, 511] {
        assert_eq!(m.frame_of(1, Vpn(i)), Some(Pfn(base.0 + i)));
    }
}

#[test]
fn one_tlb_entry_covers_the_whole_region() {
    let mut m = thp_machine(2048, 0);
    m.touch(0, 1, VirtAddr(0));
    let walks_after_fault = m.counts(0).ptw_walks;
    // Touch every page in the region: all TLB hits through the one entry.
    for i in 1..HUGE_SPAN {
        m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
    }
    assert_eq!(m.counts(0).ptw_walks, walks_after_fault, "huge TLB reach");
}

#[test]
fn a_bit_granularity_is_2mib() {
    // The THP coarsening: 512 pages of accesses produce ONE A-bit
    // observation per scan — the paper's Table IV plateau mechanism.
    let mut m = thp_machine(4096, 0);
    // Touch 4 distinct huge regions (2048 pages).
    for r in 0..4u64 {
        for i in 0..HUGE_SPAN {
            m.touch(0, 1, VirtAddr((r * HUGE_SPAN + i) * PAGE_SIZE));
        }
    }
    let (pt, _descs) = m.scan_parts(1).unwrap();
    let mut set_bits = 0;
    let fp = pt.walk_present(|_, pte| {
        assert!(pte.huge());
        if pte.test_and_clear_accessed() {
            set_bits += 1;
        }
    });
    assert_eq!(fp.ptes_visited, 4, "one PTE per 2 MiB region");
    assert_eq!(set_bits, 4, "one observation despite 2048 page touches");
}

#[test]
fn fallback_to_4k_when_no_contiguous_run() {
    // Tier too small for even one huge page: THP quietly degrades.
    let mut m = thp_machine(256, 256);
    let out = m.touch(0, 1, VirtAddr(0));
    assert!(out.minor_fault);
    assert!(m.frame_of(1, Vpn(0)).is_some());
    assert!(
        m.frame_of(1, Vpn(1)).is_none(),
        "neighbor not mapped -> 4 KiB fallback"
    );
}

#[test]
fn huge_pages_refuse_migration() {
    let mut m = thp_machine(2048, 2048);
    m.touch(0, 1, VirtAddr(0));
    assert_eq!(
        m.migrate_page(1, Vpn(0), Tier::Tier2),
        Err(MigrateError::HugePage)
    );
}

#[test]
fn store_through_huge_entry_sets_shared_d_bit() {
    let mut m = thp_machine(2048, 0);
    m.touch(0, 1, VirtAddr(0));
    m.exec_op(
        0,
        1,
        WorkOp::Mem {
            va: VirtAddr(77 * PAGE_SIZE),
            store: true,
            site: 0,
        },
    );
    let (pt, _) = m.scan_parts(1).unwrap();
    let pte = pt.get(Vpn(3)); // any page in the region sees the shared bits
    assert!(pte.huge());
    assert!(pte.dirty(), "D bit is region-wide");
}

#[test]
fn shootdown_invalidates_huge_translation() {
    let mut m = thp_machine(2048, 0);
    m.touch(0, 1, VirtAddr(0));
    let walks = m.counts(0).ptw_walks;
    // Shoot down via an arbitrary page inside the region.
    m.shootdown(1, &[Vpn(300)], false);
    m.touch(0, 1, VirtAddr(5 * PAGE_SIZE));
    assert_eq!(m.counts(0).ptw_walks, walks + 1, "re-walk after shootdown");
}

#[test]
fn mixed_thp_and_4k_processes_coexist() {
    let mut m = Machine::new(MachineConfig::scaled(1, 4096, 0, 1 << 20));
    m.add_process(1);
    m.add_process(2);
    m.set_thp(1, true);
    for i in 0..10u64 {
        m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        m.touch(0, 2, VirtAddr(i * PAGE_SIZE));
    }
    // THP process: 512 pages mapped by one fault; 4K process: 10 pages.
    assert_eq!(mapped_pages(&m, 1), HUGE_SPAN);
    assert_eq!(mapped_pages(&m, 2), 10);
    let _ = HUGE_FRAMES;
}

#[test]
fn huge_backed_pages_still_feed_trace_samples_per_page() {
    // IBS samples carry exact physical addresses even under THP: per-page
    // trace resolution survives, only the A-bit path coarsens.
    let mut m = thp_machine(4096, 0);
    m.trace_engine_mut(0).set_enabled(true);
    m.trace_engine_mut(0)
        .set_mode(tmprof_sim::trace_engine::TraceMode::IbsOp { period: 2 });
    for i in 0..HUGE_SPAN {
        m.exec_op(
            0,
            1,
            WorkOp::Mem {
                va: VirtAddr(i * PAGE_SIZE),
                store: false,
                site: 0,
            },
        );
    }
    let (samples, _) = m.trace_engine_mut(0).drain();
    let distinct_frames: tmprof_sim::keymap::KeySet<u64> =
        samples.iter().map(|s| s.paddr.pfn().0).collect();
    assert!(
        distinct_frames.len() > 100,
        "trace resolution must stay per-page ({} frames)",
        distinct_frames.len()
    );
}
