//! Table IV — pages detected by A-bit and IBS profiling at the default,
//! 4x and 8x sampling rates, plus the same-epoch "Both" coincidence count.
//!
//! Also prints the §VI-A rate-study ratios the paper derives from this
//! table: the visibility improvement of 4x over the default rate (paper:
//! 2.58x average) and of 8x over 4x (paper: <40%).

use tmprof_bench::harness::WorkloadRun;
use tmprof_bench::table::{f, Table};
use tmprof_workloads::spec::WorkloadKind;

pub fn run(shared: &crate::Shared) {
    let cells = shared.dense();
    let get = |kind: WorkloadKind, rate: u64| -> &WorkloadRun { cells.value(&kind, &rate) };

    let mut table = Table::new(vec![
        "Workload",
        "A-bit(1x)",
        "IBS(1x)",
        "Both(1x)",
        "A-bit(4x)",
        "IBS(4x)",
        "Both(4x)",
        "A-bit(8x)",
        "IBS(8x)",
        "Both(8x)",
    ]);
    for kind in WorkloadKind::ALL {
        let mut row = vec![kind.name().to_string()];
        for rate in crate::RATES {
            let d = get(kind, rate).detection;
            row.push(d.abit.to_string());
            row.push(d.trace.to_string());
            row.push(d.both.to_string());
        }
        table.row(row);
    }
    println!("Table IV — count of pages captured by each profiling method\n");
    print!("{}", table.render());

    // §VI-A ratios.
    let mut vis_4x = Vec::new();
    let mut vis_8x_over_4x = Vec::new();
    for kind in WorkloadKind::ALL {
        let d1 = get(kind, 1).detection.trace.max(1) as f64;
        let d4 = get(kind, 4).detection.trace.max(1) as f64;
        let d8 = get(kind, 8).detection.trace.max(1) as f64;
        vis_4x.push(d4 / d1);
        vis_8x_over_4x.push(d8 / d4 - 1.0);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!("\n§VI-A rate study:");
    println!(
        "  IBS 4x visibility vs default: {}x average (paper: 2.58x)",
        f(avg(&vis_4x), 2)
    );
    println!(
        "  IBS 8x extra pages over 4x:   {}% average (paper: <40%)",
        f(avg(&vis_8x_over_4x) * 100.0, 1)
    );

    // A-bit stability across rates (sanity: independent of IBS rate).
    let mut max_dev: f64 = 0.0;
    for kind in WorkloadKind::ALL {
        let a1 = get(kind, 1).detection.abit as f64;
        let a8 = get(kind, 8).detection.abit as f64;
        if a1 > 0.0 {
            max_dev = max_dev.max((a8 - a1).abs() / a1);
        }
    }
    println!(
        "  A-bit counts vary by at most {}% across IBS rates (should be ~0)",
        f(max_dev * 100.0, 2)
    );

    let path = table.write_csv("table4_detected_pages");
    println!("\nCSV written to {}", path.display());
}
