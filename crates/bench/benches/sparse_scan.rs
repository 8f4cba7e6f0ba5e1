//! Mapped-size × hot-set-size sweep for the subtree-skipping A-bit scan
//! and the sparse page-descriptor table.
//!
//! Each cell maps a region, heats a small random subset, and times one
//! full budgeted cursor cycle of the scanner:
//!
//! * `sparse_scan/scan_{256k,4m}_mapped_*` — interior A-summary words
//!   prune cold subtrees, so host cost tracks *hot-set* size rather than
//!   mapped size. Simulated cost (PTEs charged, observations, cursors)
//!   equals the per-PTE reference walk's by design — the equivalence
//!   proptests in `scan_props` enforce it.
//! * `sparse_scan/scan_100m_pages_64_hot` — a 10⁸-page (≈0.4 TB of 4 KiB
//!   pages) huge-backed footprint. Building this machine is only possible with
//!   the lazy frame allocator and the chunked descriptor table: both are
//!   O(touched), not O(capacity).
//!
//! Setup is hoisted out of the timed body: each iteration re-heats the
//! same hot set through `entry_mut` (O(hot), also restoring the interior
//! summaries the previous cycle cleared) and then runs the cycle.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use tmprof_profilers::abit::{ABitConfig, ABitScanner};
use tmprof_sim::addr::{Pfn, Vpn};
use tmprof_sim::machine::{Machine, MachineConfig};
use tmprof_sim::pagetable::HUGE_SPAN;
use tmprof_sim::pte::{bits, Pte};
use tmprof_sim::rng::Rng;

/// Per-scan PTE budget (walk units); cells run whole cursor cycles.
const BUDGET: u64 = 1 << 16;

/// A machine with `mapped` 4 KiB pages mapped flat at the bottom of the
/// address space, plus the hot-set VPN sample to re-heat each iteration.
fn base_machine(mapped: u64, hot: u64) -> (Machine, Vec<Vpn>) {
    let mut m = Machine::new(MachineConfig::scaled(2, 64, mapped + 64, 1 << 20));
    m.add_process(1);
    let (pt, _) = m.scan_parts(1).expect("pid 1 exists");
    for v in 0..mapped {
        pt.map(Vpn(v), Pte::new(Pfn(v), true));
    }
    let mut rng = Rng::new(7);
    let hot_vpns: Vec<Vpn> = (0..hot).map(|_| Vpn(rng.below(mapped))).collect();
    (m, hot_vpns)
}

/// A machine whose process maps `pages` worth of footprint as 2 MiB huge
/// mappings (one walk unit per 512 pages), plus the hot huge-entry VPNs.
fn huge_machine(pages: u64, hot: u64) -> (Machine, Vec<Vpn>) {
    let spans = pages.div_ceil(HUGE_SPAN);
    let mut m = Machine::new(MachineConfig::scaled(2, 64, pages + HUGE_SPAN, 1 << 20));
    m.add_process(1);
    let (pt, _) = m.scan_parts(1).expect("pid 1 exists");
    for s in 0..spans {
        let mut pte = Pte::new(Pfn(s * HUGE_SPAN), true);
        pte.set(bits::PS);
        pt.map_huge(Vpn(s * HUGE_SPAN), pte).expect("no conflicts");
    }
    let mut rng = Rng::new(7);
    let hot_vpns: Vec<Vpn> = (0..hot)
        .map(|_| Vpn(rng.below(spans) * HUGE_SPAN))
        .collect();
    (m, hot_vpns)
}

/// Re-set the A bit on every hot page through the summary-maintaining
/// `entry_mut` path, then run one full budgeted cursor cycle.
fn reheat_and_cycle(m: &mut Machine, hot_vpns: &[Vpn], walk_units: u64) -> u64 {
    {
        let (pt, _) = m.scan_parts(1).expect("pid 1 exists");
        for &vpn in hot_vpns {
            pt.entry_mut(vpn).expect("hot page is mapped").set(bits::A);
        }
    }
    let mut sc = ABitScanner::new(ABitConfig {
        scan_budget: Some(BUDGET),
        ..ABitConfig::default()
    });
    for _ in 0..walk_units.div_ceil(BUDGET) {
        sc.scan_process(m, 1);
    }
    sc.stats().observations
}

fn bench_sparse_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_scan");
    group.sample_size(10);

    // 4 KiB-mapped grid: mapped size × hot-set size.
    for mapped in [1u64 << 18, 1u64 << 22] {
        for hot in [64u64, 4096] {
            let (mut m, hot_vpns) = base_machine(mapped, hot);
            let mapped_label = if mapped == 1 << 18 { "256k" } else { "4m" };
            group.bench_function(format!("scan_{mapped_label}_mapped_{hot}_hot"), |b| {
                b.iter(|| black_box(reheat_and_cycle(&mut m, &hot_vpns, mapped)));
            });
        }
    }

    // Terabyte-class footprint: 10⁸ pages, huge-backed (195k walk units).
    let pages = 100_000_000u64;
    let walk_units = pages.div_ceil(HUGE_SPAN);
    let (mut m, hot_vpns) = huge_machine(pages, 64);
    group.bench_function("scan_100m_pages_64_hot", |b| {
        b.iter(|| black_box(reheat_and_cycle(&mut m, &hot_vpns, walk_units)));
    });

    group.finish();
}

criterion_group!(benches, bench_sparse_scan);
criterion_main!(benches);
