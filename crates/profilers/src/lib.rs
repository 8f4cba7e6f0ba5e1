//! # tmprof-profilers — hardware memory-monitoring drivers
//!
//! Software drivers for the monitoring mechanisms surveyed in the paper's
//! §II-B, each built on the hardware models in `tmprof-sim`:
//!
//! * [`trace`] — IBS/PEBS trace-based sampling driver (rates, draining,
//!   interrupt overhead, per-page aggregation);
//! * [`abit`] — PTE Accessed-bit scanner (`mm_walk` +
//!   `TestClearPageReferenced`, shootdown-free by default, budgeted
//!   "restrictive mode");
//! * [`pml`] — page-modification-logging driver (hardware dirty-page log);
//! * [`autonuma`] — AutoNUMA-style PROT_NONE fault tracking (the §II-A
//!   software baseline TMP argues against);
//! * [`thermostat`] — Thermostat-style sampled hot/cold classification
//!   over BadgerTrap (§II-B / §VII related work);
//! * [`badgertrap`] — fault-based TLB-miss interception (poisoned PTEs),
//!   also the substrate for the NVM latency emulation in `tmprof-emul`;
//! * [`devsketch`] — NeoMem-style device-side hot-page tracker (count-min
//!   sketch + Top-K over the slow-tier access stream).
//!
//! The TMP profiler (`tmprof-core`) composes these; policies consume the
//! per-page statistics they accumulate.

pub mod abit;
pub mod autonuma;
pub mod badgertrap;
pub mod devsketch;
pub mod pml;
pub mod thermostat;
pub mod trace;

pub use abit::{ABitConfig, ABitScanner};
pub use autonuma::AutoNumaScanner;
pub use badgertrap::BadgerTrap;
pub use devsketch::{DevSketch, DevSketchConfig};
pub use pml::PmlTracker;
pub use thermostat::Thermostat;
pub use trace::{TraceConfig, TraceProfiler};
