//! # tmprof-sim — simulated machine substrate
//!
//! This crate is the hardware the rest of the `tmprof` reproduction runs
//! on: a deterministic, op-granular model of a multi-core x86-64 server
//! with tiered physical memory (DRAM + NVM), private L1/L2 and shared LLC
//! write-back caches, two-level TLBs, 4-level radix page tables (4 KiB and
//! 2 MiB THP mappings) walked by a hardware page-table walker that
//! maintains A/D bits, per-core IBS/PEBS-style trace-sampling engines
//! (with IBS counter randomization), PML engines, and PMU event counters.
//!
//! The paper this workspace reproduces — *Dancing in the Dark: Profiling
//! for Tiered Memory* — evaluates software profilers that read exactly this
//! hardware state. Everything observable by those profilers is produced
//! here as a side effect of executing ops, never synthesized; see each
//! module's docs for which paper mechanism it substitutes for.
//!
//! ## Quick tour
//!
//! ```
//! use tmprof_sim::prelude::*;
//!
//! // A 2-core machine with 64 fast + 256 slow frames, IBS period 64.
//! let mut m = Machine::new(MachineConfig::scaled(2, 64, 256, 64));
//! m.add_process(1);
//! m.trace_engine_mut(0).set_enabled(true);
//!
//! // Execute a load; the first touch faults, allocates in tier 1, walks
//! // the page table (setting the A bit), and misses the cold caches.
//! let out = m.touch(0, 1, VirtAddr(0x4000));
//! assert_eq!(out.tier, Some(Tier::Tier1));
//! assert_eq!(m.counts(0).ptw_abit_sets, 1);
//! ```

pub mod addr;
pub mod cache;
pub mod counters;
pub mod frame;
pub mod keymap;
pub mod machine;
pub mod pagedesc;
pub mod pagetable;
pub mod pml;
pub mod pte;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod tier;
pub mod tlb;
pub mod trace_engine;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::addr::{
        phys_addr, Pfn, PhysAddr, VirtAddr, Vpn, LINE_SIZE, PAGE_SHIFT, PAGE_SIZE,
    };
    pub use crate::cache::{Cache, CacheLevel, PrivateCaches};
    pub use crate::counters::EventCounts;
    pub use crate::keymap::{KeyMap, KeySet, PageSet};
    pub use crate::machine::{
        ExecOutcome, FaultAction, FaultPolicy, Machine, MachineConfig, MigrateError, PoisonFault,
        WorkOp, LATENCY,
    };
    pub use crate::pagedesc::{PageDesc, PageDescTable, PageKey};
    pub use crate::pagetable::PageTable;
    pub use crate::pte::{bits as pte_bits, Pte};
    pub use crate::rng::{Rng, Zipf};
    pub use crate::runner::{OpStream, Runner, DEFAULT_BATCH};
    pub use crate::stats::EpochTruth;
    pub use crate::tier::{FrameOutOfRange, MemTopology, Tier, TierSpec};
    pub use crate::tlb::{Pid, Tlb, TlbHit};
    pub use crate::trace_engine::{TraceEngine, TraceMode, TraceSample};
}
