//! # tmprof-emul — NVM latency emulation and the end-to-end experiment
//!
//! Rebuilds the paper's §VI-C evaluation apparatus: since no NVM hardware
//! was available (to the authors, or here), slow memory is *emulated* by
//! periodically write-protecting slow-region pages and injecting calibrated
//! latencies in the trap handler — 50 µs per page migration, 10 µs per
//! slow access after a protection fault, +13 µs when the slow page is hot.
//!
//! * [`emulator`] — the trap handler + periodic re-protection framework.
//! * [`experiment`] — the end-to-end harness comparing the first-touch
//!   baseline against TMP-driven History placement (paper result: 1.04x
//!   average, 1.13x best-case speedup).

pub mod emulator;
pub mod experiment;

pub use emulator::{EmulConfig, NvmEmulator};
pub use experiment::{emulation_machine, run_emulated, speedup, EmulPolicy, EmulRunResult};
