//! THP ablation for Table IV: profiling granularity under 2 MiB pages.
//!
//! The paper's Table IV shows near-identical A-bit counts (~5.5k) for all
//! four huge-footprint HPC workloads. DESIGN.md §7 offers two candidate
//! mechanisms; this experiment quantifies the second one: with transparent
//! huge pages (which Linux gives exactly these large anonymous HPC heaps),
//! one PTE covers 512 pages, so A-bit visibility collapses by orders of
//! magnitude while IBS — which records exact physical addresses — keeps
//! its per-page resolution. Run the HPC workloads with and without THP
//! and compare detections.

use tmprof_bench::harness::{run_workload, RunOptions};
use tmprof_bench::sweep::Sweep;
use tmprof_bench::table::{f, Table};
use tmprof_workloads::spec::WorkloadKind;

pub fn run(shared: &crate::Shared) {
    let hpc = [
        WorkloadKind::Graph500,
        WorkloadKind::Gups,
        WorkloadKind::Lulesh,
        WorkloadKind::XsBench,
    ];

    // The 4 KiB runs are the dense sweep's 4x runs.
    let dense = shared.dense();
    let sweep = Sweep::over(hpc.to_vec())
        .run(|&kind, _| run_workload(kind, &RunOptions::new(shared.scale).dense().with_thp()));
    sweep.log_summary("thp_ablation");

    let mut table = Table::new(vec![
        "Workload",
        "A-bit (4K)",
        "A-bit (THP)",
        "A-bit shrink",
        "IBS (4K)",
        "IBS (THP)",
    ]);
    for kind in hpc {
        let (base, thp) = (dense.value(&kind, &4), sweep.value_for(&kind));
        let shrink = if thp.detection.abit > 0 {
            base.detection.abit as f64 / thp.detection.abit as f64
        } else {
            f64::INFINITY
        };
        table.row(vec![
            kind.name().to_string(),
            base.detection.abit.to_string(),
            thp.detection.abit.to_string(),
            format!("{}x", f(shrink, 1)),
            base.detection.trace.to_string(),
            thp.detection.trace.to_string(),
        ]);
    }
    println!("THP ablation — profiling visibility under 2 MiB pages\n");
    print!("{}", table.render());
    println!(
        "\nA-bit detections collapse toward one observation per 2 MiB region \
         (the Table IV HPC plateau), while IBS keeps per-page resolution: \
         exactly why TMP needs the trace source for THP-backed HPC heaps."
    );
    let path = table.write_csv("thp_ablation");
    println!("\nCSV written to {}", path.display());
}
