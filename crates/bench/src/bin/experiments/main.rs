//! `experiments [NAME...]` — every table and figure of the paper's
//! evaluation, four extension experiments and the §III-B-4 ablations, in
//! one process: all 13 in the order of [`EXPERIMENTS`], or only the named
//! ones in that order.
//! Runs that several experiments read are simulated once ([`Shared`]).
//! Scale with `TMPROF_SCALE=quick|default|full`.

use std::sync::OnceLock;

use tmprof_bench::harness::{run_workload, ProfMode, RunOptions, WorkloadRun};
use tmprof_bench::scale::Scale;
use tmprof_bench::shootout::baseline_cycles;
use tmprof_bench::sweep::{Sweep, SweepResults};
use tmprof_workloads::spec::WorkloadKind;

mod ablations;
mod epoch_sensitivity;
mod fig2_ptw_ratio;
mod fig3_heatmap_ibs;
mod fig4_heatmap_abit;
mod fig5_cdf;
mod fig6_hitrate;
mod overhead_table;
mod profiler_shootout;
mod speedup_emulation;
mod table4_detected_pages;
mod thp_ablation;
mod write_policy_ablation;

/// Prints one experiment's tables and writes its result files.
type Experiment = fn(&Shared);

/// Every experiment, in run order. `thp_ablation` reads `dense` last.
const EXPERIMENTS: [(&str, Experiment); 13] = [
    ("fig2_ptw_ratio", fig2_ptw_ratio::run),
    ("table4_detected_pages", table4_detected_pages::run),
    ("fig3_heatmap_ibs", fig3_heatmap_ibs::run),
    ("fig4_heatmap_abit", fig4_heatmap_abit::run),
    ("fig5_cdf", fig5_cdf::run),
    ("fig6_hitrate", fig6_hitrate::run),
    ("overhead_table", overhead_table::run),
    ("speedup_emulation", speedup_emulation::run),
    ("profiler_shootout", profiler_shootout::run),
    ("write_policy_ablation", write_policy_ablation::run),
    ("epoch_sensitivity", epoch_sensitivity::run),
    ("thp_ablation", thp_ablation::run),
    ("ablations", ablations::run),
];

/// IBS rate multipliers of the dense sweep (the paper's 1x, 4x and 8x).
pub const RATES: [u64; 3] = [1, 4, 8];

/// The scale, and the sweeps more than one experiment reads, each run on
/// its first read and kept to the end of the process.
pub struct Shared {
    pub scale: Scale,
    dense: OnceLock<SweepResults<WorkloadKind, u64, WorkloadRun>>,
    abit: OnceLock<SweepResults<WorkloadKind, (), WorkloadRun>>,
    tmp: OnceLock<SweepResults<WorkloadKind, (), WorkloadRun>>,
    baseline: OnceLock<SweepResults<WorkloadKind, (), u64>>,
}

impl Shared {
    /// Every kind at every rate on the dense period (Table IV, Fig. 5);
    /// the 4x runs also feed Figs. 3 and 6 and the THP ablation, and
    /// record heat for Fig. 3. Recording charges no simulated cycles.
    pub fn dense(&self) -> &SweepResults<WorkloadKind, u64, WorkloadRun> {
        self.dense.get_or_init(|| {
            let sweep =
                Sweep::grid(WorkloadKind::ALL.to_vec(), RATES.to_vec()).run(|&kind, &rate| {
                    let opts = RunOptions::new(self.scale).dense().with_rate(rate);
                    run_workload(kind, &if rate == 4 { opts.recording() } else { opts })
                });
            sweep.log_summary("dense");
            sweep
        })
    }

    /// Every kind under A-bit-only profiling, recording heat (Fig. 4, and
    /// the overhead table's A-bit column).
    pub fn abit(&self) -> &SweepResults<WorkloadKind, (), WorkloadRun> {
        self.abit.get_or_init(|| {
            let opts = RunOptions::new(self.scale)
                .with_mode(ProfMode::ABitOnly)
                .recording();
            let sweep =
                Sweep::over(WorkloadKind::ALL.to_vec()).run(|&kind, _| run_workload(kind, &opts));
            sweep.log_summary("abit");
            sweep
        })
    }

    /// Every kind under TMP's standard configuration (sparse rate 4x):
    /// Fig. 2's event counts and the shoot-out's TMP scorecard.
    pub fn tmp(&self) -> &SweepResults<WorkloadKind, (), WorkloadRun> {
        self.tmp.get_or_init(|| {
            let opts = RunOptions::new(self.scale);
            let sweep =
                Sweep::over(WorkloadKind::ALL.to_vec()).run(|&kind, _| run_workload(kind, &opts));
            sweep.log_summary("tmp");
            sweep
        })
    }

    /// Every kind's cycles unprofiled: the overhead baseline of the
    /// overhead table and the profiler shoot-out.
    pub fn baseline(&self) -> &SweepResults<WorkloadKind, (), u64> {
        self.baseline.get_or_init(|| {
            let sweep = Sweep::over(WorkloadKind::ALL.to_vec())
                .run(|&kind, _| baseline_cycles(kind, &self.scale));
            sweep.log_summary("baseline");
            sweep
        })
    }
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    if let Some(unknown) = names.iter().find(|n| !known.contains(&n.as_str())) {
        eprintln!(
            "experiments: unknown experiment {unknown:?}; the experiments are: {}",
            known.join(", ")
        );
        std::process::exit(2);
    }
    let shared = Shared {
        scale: Scale::from_env(),
        dense: OnceLock::new(),
        abit: OnceLock::new(),
        tmp: OnceLock::new(),
        baseline: OnceLock::new(),
    };
    for (name, run) in EXPERIMENTS {
        if names.is_empty() || names.iter().any(|n| n == name) {
            println!("=== {name} ===");
            run(&shared);
            println!();
        }
    }
}
