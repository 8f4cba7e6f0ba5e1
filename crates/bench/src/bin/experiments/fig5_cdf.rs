//! Fig. 5 — CDFs of per-page access counts by profiling technique and
//! sampling rate.
//!
//! For each workload this prints summary percentiles of the per-page
//! observation-count distribution under A-bit profiling and under IBS at
//! 1x/4x/8x, and writes full CDF curves as CSV. The paper's reading of
//! these CDFs: the hottest pages are a small fraction of the footprint,
//! and A-bit-only profiling classifies under 10% of TLB-miss-heavy pages
//! as hot — visibility that the combined profiler recovers.

use tmprof_bench::table::{f, write_result, Table};
use tmprof_core::report::{cdf_points, heat_concentration};
use tmprof_workloads::spec::WorkloadKind;

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

pub fn run(shared: &crate::Shared) {
    let runs = shared.dense();

    println!("Fig. 5 — per-page access-count distributions\n");
    let mut table = Table::new(vec![
        "Workload",
        "method",
        "pages",
        "p50",
        "p90",
        "p99",
        "max",
        "top10% share",
    ]);
    let mut csv = String::from("workload,method,count,cum_frac\n");

    for kind in WorkloadKind::ALL {
        // A-bit distribution is rate-independent; take it from the 4x run.
        let run4 = runs.value(&kind, &4);
        let mut methods: Vec<(String, Vec<u64>)> =
            vec![("A-bit".to_string(), run4.abit_page_counts.clone())];
        for rate in crate::RATES {
            let run = runs.value(&kind, &rate);
            methods.push((format!("IBS {rate}x"), run.trace_page_counts.clone()));
        }
        for (label, mut counts) in methods {
            counts.sort_unstable();
            let conc = heat_concentration(counts.iter().copied(), 0.10);
            table.row(vec![
                kind.name().to_string(),
                label.clone(),
                counts.len().to_string(),
                percentile(&counts, 0.5).to_string(),
                percentile(&counts, 0.9).to_string(),
                percentile(&counts, 0.99).to_string(),
                counts.last().copied().unwrap_or(0).to_string(),
                f(conc * 100.0, 1) + "%",
            ]);
            for (count, frac) in cdf_points(counts.iter().copied()) {
                csv.push_str(&format!("{},{label},{count},{frac:.6}\n", kind.name()));
            }
        }
    }
    print!("{}", table.render());

    let path = write_result("fig5_cdf.csv", &csv);
    println!("\nFull CDF curves written to {}", path.display());
}
