//! Fig. 4 — workload memory-access heatmaps from A-bit profiling.
//!
//! Complementary view to Fig. 3: the A-bit scanner observes pages through
//! the address-translation path (TLB misses refilling translations), so
//! broad, lightly-touched footprints show up here even when sampled traces
//! miss them. Same axes as Fig. 3.

use crate::fig3_heatmap_ibs::print_heatmaps;

pub fn run(shared: &crate::Shared) {
    let abit = shared.abit();
    println!("Fig. 4 — heatmaps of memory accesses, A-bit profiling\n");
    print_heatmaps(
        "fig4_heatmap_abit",
        "A-bit observations",
        |kind| abit.value_for(&kind),
        |run| &run.heat_abit,
    );
}
