//! # tmprof-core — TMP, the Tiered-Memory Profiler
//!
//! The paper's primary contribution: a profiler that fuses trace-based
//! sampling (IBS/PEBS), PTE A-bit scanning, and hardware performance
//! counters into a single per-page hotness ranking, while keeping overhead
//! low through HWPC gating, process filtering, budgeted scans, and
//! shootdown-free A-bit clearing.
//!
//! * [`profiler::Tmp`] — the composed engine; call
//!   [`profiler::Tmp::end_epoch`] at each epoch horizon.
//! * [`rank`] — the hotness aggregation rule (plain sum, per Fig. 2) and
//!   single-source variants for the paper's piecemeal comparisons.
//! * [`daemon`] — the user-space process filter (≥5% CPU or ≥10% memory).
//! * [`knobs`] — the registry of every `TMPROF_*` environment knob.
//! * [`pool`] — the one worker pool the sweep engine, the replay grid and
//!   the fleet run on.
//! * [`gating`] — the 20%-of-max LLC/TLB-miss activity gate.
//! * [`report`] — detection statistics, CDFs, and the `numa_maps`-style
//!   snapshot interface.
//!
//! ```
//! use tmprof_sim::prelude::*;
//! use tmprof_core::profiler::{Tmp, TmpConfig};
//! use tmprof_core::rank::RankSource;
//!
//! let mut m = Machine::new(MachineConfig::scaled(2, 256, 1024, 64));
//! m.add_process(1);
//! let mut tmp = Tmp::new(TmpConfig::paper_defaults(64), &mut m);
//! for i in 0..20_000u64 {
//!     m.exec_op(0, 1, WorkOp::Mem {
//!         va: VirtAddr((i % 128) * PAGE_SIZE),
//!         store: false,
//!         site: 0,
//!     });
//! }
//! let report = tmp.end_epoch(&mut m);
//! let hottest = report.profile.ranked(RankSource::Combined);
//! assert!(!hottest.is_empty());
//! ```

pub mod daemon;
pub mod gating;
pub mod knobs;
pub mod pool;
pub mod profiler;
pub mod rank;
pub mod report;

pub use profiler::{Tmp, TmpConfig, TmpEpochReport};
pub use rank::{EpochProfile, RankSource, RankedPage};
