//! # tmprof-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (see
//! DESIGN.md §5 for the experiment index) and hosts the Criterion
//! microbenchmarks. The `experiments` binary runs every experiment, or the
//! ones it names (`experiments fig5_cdf`); each reproduces one artifact:
//!
//! | experiment | artifact |
//! |---|---|
//! | `fig2_ptw_ratio` | Fig. 2 — PTW vs cache-miss event ratio |
//! | `table4_detected_pages` | Table IV — pages detected per method/rate |
//! | `fig3_heatmap_ibs` | Fig. 3 — IBS 4x access heatmaps |
//! | `fig4_heatmap_abit` | Fig. 4 — A-bit access heatmaps |
//! | `fig5_cdf` | Fig. 5 — per-page access-count CDFs |
//! | `fig6_hitrate` | Fig. 6 — tier-1 hitrate grid |
//! | `overhead_table` | §VI-B — profiling overhead |
//! | `speedup_emulation` | §VI-C — end-to-end speedup |
//! | `profiler_shootout` | §II quantified — TMP vs AutoNUMA vs Thermostat |
//! | `write_policy_ablation` | CLOCK-DWF extension — write-aware placement |
//! | `epoch_sensitivity` | §IV ablation — epoch-length trade-off |
//! | `thp_ablation` | Table IV mechanism — profiling under 2 MiB pages |
//! | `ablations` | §III-B-4 — shootdowns, gating, scan budget, filtering |
//!
//! Scale with `TMPROF_SCALE=quick|default|full`.

pub mod harness;
pub mod heatmap;
pub mod scale;
pub mod shootout;
pub mod sweep;
pub mod table;

pub use harness::{run_workload, ProfMode, RunOptions, WorkloadRun};
pub use heatmap::Heatmap;
pub use scale::Scale;
pub use sweep::{Sweep, SweepResults};
pub use table::Table;
