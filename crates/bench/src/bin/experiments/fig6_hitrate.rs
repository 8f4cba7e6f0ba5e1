//! Fig. 6 — tier-1 memory hitrate for the Oracle and History policies,
//! driven by A-bit-only, IBS-only, and combined (TMP) profiling data, over
//! tier-1 capacities of footprint/8 … footprint/128, with a 1-second epoch.
//!
//! As in the paper, hitrates are computed by replaying profiles recorded
//! on the (simulated) hardware against ground-truth access counts. The
//! experiment also prints the paper's two headline deltas: how much the
//! Oracle policy gains from combined vs piecemeal data (paper: up to 70%)
//! and the same for History (paper: up to 60%).

use tmprof_bench::table::{pct, write_result, Table};
use tmprof_core::rank::RankSource;
use tmprof_policy::hitrate::{hitrate_grid, ReplayPolicy, PAPER_RATIOS};
use tmprof_workloads::spec::WorkloadKind;

pub fn run(shared: &crate::Shared) {
    let dense = shared.dense();

    println!("Fig. 6 — tier-1 hitrate, epoch = 1 simulated second\n");

    let mut best_oracle_gain: (f64, String) = (0.0, String::new());
    let mut best_history_gain: (f64, String) = (0.0, String::new());
    let mut csv = String::from("workload,ratio,policy,source,hitrate\n");

    for kind in WorkloadKind::ALL {
        let run = dense.value(&kind, &4);
        let footprint = run.log.footprint_pages().max(1);
        let mut table = Table::new(vec![
            "tier1 ratio",
            "Oracle/A-bit",
            "Oracle/IBS",
            "Oracle/TMP",
            "History/A-bit",
            "History/IBS",
            "History/TMP",
            "First-touch",
        ]);
        // One grid call replays the whole run: shared rank cache + worker
        // pool inside; cell order matches the old per-cell loop exactly
        // (Oracle × 3 sources, History × 3, First-touch, per ratio), so the
        // CSV stays byte-identical to the seed implementation.
        let grid = hitrate_grid(&run.log, &PAPER_RATIOS);
        for (&denom, ratio_cells) in PAPER_RATIOS.iter().zip(grid.chunks(7)) {
            let mut row = vec![format!("1/{denom}")];
            // tmprof-lint: allow(determinism-taint) — the map is only probed by (policy, source) key to lay out a fixed row order; its iteration order never reaches the CSV
            let mut cells = std::collections::HashMap::new();
            for cell in &ratio_cells[..6] {
                cells.insert((cell.policy, cell.source), cell.hitrate);
                row.push(pct(cell.hitrate));
                csv.push_str(&format!(
                    "{},{},{},{},{:.6}\n",
                    kind.name(),
                    denom,
                    cell.policy.label(),
                    cell.source.label(),
                    cell.hitrate
                ));
            }
            let ft = ratio_cells[6].hitrate;
            row.push(pct(ft));
            csv.push_str(&format!("{},{denom},First-touch,-,{ft:.6}\n", kind.name()));
            table.row(row);

            // Headline deltas: combined vs best piecemeal source.
            for (policy, best) in [
                (ReplayPolicy::Oracle, &mut best_oracle_gain),
                (ReplayPolicy::History, &mut best_history_gain),
            ] {
                let combined = cells[&(policy, RankSource::Combined)];
                let piecemeal =
                    cells[&(policy, RankSource::ABit)].max(cells[&(policy, RankSource::Trace)]);
                if piecemeal > 0.0 {
                    let gain = combined / piecemeal - 1.0;
                    if gain > best.0 {
                        *best = (gain, format!("{} at 1/{denom}", kind.name()));
                    }
                }
            }
        }
        println!("== {} (footprint {} pages) ==", kind.name(), footprint);
        print!("{}", table.render());
        println!();
    }

    println!("Headline deltas (combined TMP data vs best piecemeal source):");
    println!(
        "  Oracle:  +{} ({})  [paper: up to 70%]",
        pct(best_oracle_gain.0),
        best_oracle_gain.1
    );
    println!(
        "  History: +{} ({})  [paper: up to 60%]",
        pct(best_history_gain.0),
        best_history_gain.1
    );

    let path = write_result("fig6_hitrate.csv", &csv);
    println!("\nCSV written to {}", path.display());
}
