//! Fig. 3 — workload memory-access heatmaps from IBS at the 4x rate.
//!
//! Time runs left to right (one column per epoch), physical address bottom
//! to top; each cell shades by how many IBS samples landed in that address
//! bucket during that epoch. Writes per-workload CSVs for plotting.

use tmprof_bench::harness::WorkloadRun;
use tmprof_bench::heatmap::Heatmap;
use tmprof_bench::table::write_result;
use tmprof_sim::addr::Pfn;
use tmprof_workloads::spec::WorkloadKind;

pub fn run(shared: &crate::Shared) {
    // The dense sweep's 4x runs record heat.
    let dense = shared.dense();
    println!("Fig. 3 — heatmaps of memory accesses, IBS 4x sampling\n");
    print_heatmaps(
        "fig3_heatmap_ibs",
        "samples",
        |kind| dense.value(&kind, &4),
        |run| &run.heat_trace,
    );
}

/// Print each kind's heatmap of the `points` of its run, and write it as
/// `results/<prefix>_<kind>.csv` (Figs. 3 and 4).
pub fn print_heatmaps<'a>(
    prefix: &str,
    what: &str,
    runs: impl Fn(WorkloadKind) -> &'a WorkloadRun,
    points: fn(&WorkloadRun) -> &[(u32, Pfn)],
) {
    for kind in WorkloadKind::ALL {
        let run = runs(kind);
        let hm = Heatmap::build(
            points(run).iter().copied(),
            run.epochs as usize,
            run.total_frames,
            24,
        );
        println!(
            "== {} ({} {what} over {} epochs) ==",
            kind.name(),
            hm.total(),
            run.epochs
        );
        print!("{}", hm.render_ascii());
        println!();
        let file = format!(
            "{prefix}_{}.csv",
            kind.name().to_lowercase().replace('-', "_")
        );
        let path = write_result(&file, &hm.to_csv());
        println!("CSV written to {}\n", path.display());
    }
}
