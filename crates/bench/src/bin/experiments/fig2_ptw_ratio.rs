//! Fig. 2 — ratio of PTW (A-bit-setting) events to data-cache-miss events.
//!
//! The paper uses this ratio to justify TMP's rank rule: the two event
//! populations are the same order of magnitude for every workload, so a
//! plain sum of A-bit observations and trace samples does not drown either
//! source. This experiment runs every Table III workload and prints the
//! ratio, plus the raw event counts it is computed from.

use tmprof_bench::table::{f, Table};

pub fn run(shared: &crate::Shared) {
    let runs: Vec<_> = shared.tmp().successes().map(|(_, _, run)| run).collect();

    let mut table = Table::new(vec![
        "Workload",
        "PTW A-bit sets",
        "LLC misses",
        "ratio",
        "log10(ratio)",
    ]);
    for run in &runs {
        let ratio = run.counts.ptw_to_cache_miss_ratio();
        table.row(vec![
            run.kind.name().to_string(),
            run.counts.ptw_abit_sets.to_string(),
            run.counts.llc_misses.to_string(),
            f(ratio, 4),
            f(ratio.max(1e-12).log10(), 2),
        ]);
    }
    println!("Fig. 2 — PTW events relative to cache-miss events");
    println!("(same order of magnitude => the sum rank rule is safe)\n");
    print!("{}", table.render());

    // The paper's takeaway, checked numerically: every ratio within two
    // orders of magnitude of 1.
    let within = runs
        .iter()
        .filter(|r| {
            let ratio = r.counts.ptw_to_cache_miss_ratio();
            ratio > 0.01 && ratio < 100.0
        })
        .count();
    println!(
        "\n{} of {} workloads have PTW/LLC-miss ratios within two orders of magnitude of 1.",
        within,
        runs.len()
    );
    let path = table.write_csv("fig2_ptw_ratio");
    println!("CSV written to {}", path.display());
}
