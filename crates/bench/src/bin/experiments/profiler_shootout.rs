//! Profiler shoot-out (paper §II, quantified): TMP vs AutoNUMA-style
//! fault tracking vs Thermostat-style sampled BadgerTrap classification,
//! scored on hot-page recall and runtime overhead per workload.

use tmprof_bench::shootout::{score_autonuma, score_thermostat, score_tmp};
use tmprof_bench::sweep::Sweep;
use tmprof_bench::table::{pct, Table};
use tmprof_workloads::spec::WorkloadKind;

pub fn run(shared: &crate::Shared) {
    let baseline = shared.baseline();
    let tmp = shared.tmp();
    let sweep = Sweep::over(WorkloadKind::ALL.to_vec()).run(|&kind, _| {
        let base = *baseline.value_for(&kind);
        (
            score_tmp(tmp.value_for(&kind), base),
            score_autonuma(kind, &shared.scale, base),
            score_thermostat(kind, &shared.scale, base),
        )
    });
    sweep.log_summary("profiler_shootout");

    let mut table = Table::new(vec![
        "Workload",
        "TMP coverage",
        "TMP ovh",
        "AutoNUMA coverage",
        "AutoNUMA ovh",
        "Thermostat coverage",
        "Thermostat ovh",
    ]);
    let mut sums = [0.0f64; 6];
    for (kind, _, (tmp, numa, th)) in sweep.successes() {
        sums[0] += tmp.coverage;
        sums[1] += tmp.overhead;
        sums[2] += numa.coverage;
        sums[3] += numa.overhead;
        sums[4] += th.coverage;
        sums[5] += th.overhead;
        table.row(vec![
            kind.name().to_string(),
            pct(tmp.coverage),
            pct(tmp.overhead),
            pct(numa.coverage),
            pct(numa.overhead),
            pct(th.coverage),
            pct(th.overhead),
        ]);
    }
    let n = sweep.len() as f64;
    table.row(vec![
        "AVERAGE".to_string(),
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        pct(sums[3] / n),
        pct(sums[4] / n),
        pct(sums[5] / n),
    ]);

    println!("Profiler shoot-out — hot-traffic coverage@footprint/16 and overhead\n");
    print!("{}", table.render());
    println!(
        "\nReading (paper §II): fault-based trackers either pay protection \
         faults + shootdowns for their visibility (AutoNUMA) or sample so \
         thinly that TLB-resident hot pages evade them (Thermostat); TMP's \
         backdoor hardware monitors see more for less."
    );
    let path = table.write_csv("profiler_shootout");
    println!("\nCSV written to {}", path.display());
}
