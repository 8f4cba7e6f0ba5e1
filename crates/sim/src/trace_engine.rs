//! The in-core trace-sampling hardware (IBS on AMD, PEBS on Intel).
//!
//! This module is the *hardware* half of trace-based profiling: a per-core
//! engine that tags micro-ops and deposits sample records into a bounded
//! buffer, exactly like IBS's MSR-fed sample delivery or PEBS's designated
//! memory region (§II-B). The *driver* half — configuring rates, draining
//! buffers, charging interrupt costs, aggregating into page descriptors —
//! lives in the `tmprof-profilers` crate, mirroring the paper's kernel-module
//! / hardware split.

use crate::addr::{PhysAddr, VirtAddr};
use crate::cache::CacheLevel;
use crate::tier::Tier;
use crate::tlb::Pid;

/// What triggers sample selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// AMD IBS op sampling: tag every `period`-th retired micro-op,
    /// regardless of kind. Non-memory tagged ops still raise the interrupt
    /// (pure overhead) but carry no data address.
    IbsOp { period: u64 },
    /// Intel PEBS on a memory event: record every `period`-th op that
    /// *qualifies* (here: demand loads whose data source is at or beyond
    /// `min_source`). No interrupts are wasted on non-qualifying ops.
    PebsEvent { period: u64, min_source: CacheLevel },
}

impl TraceMode {
    /// The configured sampling period.
    pub fn period(&self) -> u64 {
        match *self {
            TraceMode::IbsOp { period } => period,
            TraceMode::PebsEvent { period, .. } => period,
        }
    }
}

/// One sample record, carrying the fields §III-B-1 lists: timestamp, CPU,
/// PID, instruction pointer, virtual and physical data address, access type,
/// and cache-miss information.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSample {
    /// Core-local cycle count at retirement.
    pub timestamp: u64,
    /// Core that retired the op.
    pub cpu: u32,
    /// Process the op belongs to.
    pub pid: Pid,
    /// Synthetic instruction pointer (workload site id).
    pub ip: u64,
    /// Virtual data address.
    pub vaddr: VirtAddr,
    /// Physical data address.
    pub paddr: PhysAddr,
    /// Store (true) or load (false).
    pub is_store: bool,
    /// Which level served the data.
    pub source: CacheLevel,
    /// Memory tier that served it, when `source == Memory`.
    pub tier: Option<Tier>,
    /// Access latency in cycles (hit/miss latency field of IBS).
    pub latency: u32,
    /// Whether address translation hit in the TLB.
    pub tlb_hit: bool,
}

/// Hardware sample buffer capacity (IBS-style small per-core buffer).
pub const TRACE_BUF_CAP: usize = 4096;

/// Per-core sampling engine state.
pub struct TraceEngine {
    mode: TraceMode,
    enabled: bool,
    countdown: u64,
    buf: Vec<TraceSample>,
    /// Samples dropped because the buffer was full before a drain.
    dropped: u64,
    /// Tagged ops that carried no data address (IBS overhead-only tags).
    nonmem_tags: u64,
    /// Total samples ever produced (kept across drains).
    produced: u64,
    /// xorshift state for IBS counter randomization (see
    /// [`TraceEngine::reload_countdown`]).
    rng: u64,
}

/// Outcome of offering an op to the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagOutcome {
    /// Op was not selected.
    Untagged,
    /// Op was selected and a record was (or would have been) produced.
    Tagged,
}

impl TraceEngine {
    /// New engine in the given mode, initially disabled.
    pub fn new(mode: TraceMode) -> Self {
        assert!(mode.period() > 0, "sampling period must be positive");
        Self {
            mode,
            enabled: false,
            countdown: mode.period(),
            buf: Vec::new(),
            dropped: 0,
            nonmem_tags: 0,
            produced: 0,
            rng: 0x1234_5678_9ABC_DEF1,
        }
    }

    /// Reload the tag countdown after a sample.
    ///
    /// AMD IBS randomizes the low bits of `IbsOpCurCnt` on each reload so
    /// that periodic code (tight loops whose op pattern divides the
    /// sampling period) cannot alias every tag onto the same instruction.
    /// We reproduce that: for periods of at least 16 ops the reload is
    /// jittered by up to `period/8`; tiny periods (unit tests, saturated
    /// sampling) stay exact.
    #[inline]
    fn reload_countdown(&mut self) {
        let period = self.mode.period();
        self.countdown = if period < 16 {
            period
        } else {
            // xorshift64: cheap, deterministic, good enough for jitter.
            let mut x = self.rng;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.rng = x;
            (period - x % (period / 8)).max(1)
        };
    }

    /// Current mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Reconfigure the sampling mode (driver writes the control MSR).
    pub fn set_mode(&mut self, mode: TraceMode) {
        assert!(mode.period() > 0);
        self.mode = mode;
        self.countdown = mode.period();
    }

    /// Enable or disable sampling (TMP's gating flips this, §III-B-4).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if enabled {
            self.countdown = self.mode.period();
        }
    }

    /// Offer a *non-memory* op to the engine.
    pub fn offer_compute(&mut self) -> TagOutcome {
        if !self.enabled {
            return TagOutcome::Untagged;
        }
        match self.mode {
            TraceMode::IbsOp { .. } => {
                self.countdown -= 1;
                if self.countdown == 0 {
                    self.reload_countdown();
                    self.nonmem_tags += 1;
                    TagOutcome::Tagged
                } else {
                    TagOutcome::Untagged
                }
            }
            // PEBS only counts qualifying events; compute ops never qualify.
            TraceMode::PebsEvent { .. } => TagOutcome::Untagged,
        }
    }

    /// Offer a memory op (with its full microarchitectural outcome) to the
    /// engine; pushes a record if the op is selected.
    pub fn offer_mem(&mut self, sample: TraceSample) -> TagOutcome {
        if !self.enabled {
            return TagOutcome::Untagged;
        }
        let selected = match self.mode {
            TraceMode::IbsOp { .. } => {
                self.countdown -= 1;
                if self.countdown == 0 {
                    self.reload_countdown();
                    true
                } else {
                    false
                }
            }
            TraceMode::PebsEvent { period, min_source } => {
                let qualifies = !sample.is_store && sample.source >= min_source;
                if qualifies {
                    self.countdown -= 1;
                    if self.countdown == 0 {
                        self.countdown = period;
                        true
                    } else {
                        false
                    }
                } else {
                    false
                }
            }
        };
        if !selected {
            return TagOutcome::Untagged;
        }
        self.produced += 1;
        if self.buf.len() >= TRACE_BUF_CAP {
            self.dropped += 1;
        } else {
            self.buf.push(sample);
        }
        TagOutcome::Tagged
    }

    /// Drain the sample buffer (the driver's periodic poll). Also returns
    /// the number of overhead-only tags and drops since the last drain.
    pub fn drain(&mut self) -> (Vec<TraceSample>, DrainInfo) {
        let info = DrainInfo {
            nonmem_tags: self.nonmem_tags,
            dropped: self.dropped,
        };
        self.nonmem_tags = 0;
        self.dropped = 0;
        (std::mem::take(&mut self.buf), info)
    }

    /// [`TraceEngine::drain`] into a caller-owned buffer (appended), keeping
    /// both the engine's ring allocation and the caller's buffer alive
    /// across polls — the batch-aware drain path, one allocation for the
    /// whole run instead of one per core per poll.
    pub fn drain_into(&mut self, out: &mut Vec<TraceSample>) -> DrainInfo {
        let info = DrainInfo {
            nonmem_tags: self.nonmem_tags,
            dropped: self.dropped,
        };
        self.nonmem_tags = 0;
        self.dropped = 0;
        out.append(&mut self.buf);
        info
    }
}

/// Side information returned by [`TraceEngine::drain`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainInfo {
    /// Tagged non-memory ops (interrupt cost with no data).
    pub nonmem_tags: u64,
    /// Samples lost to buffer overflow.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_sample(source: CacheLevel, is_store: bool) -> TraceSample {
        TraceSample {
            timestamp: 0,
            cpu: 0,
            pid: 1,
            ip: 0,
            vaddr: VirtAddr(0x1000),
            paddr: PhysAddr(0x2000),
            is_store,
            source,
            tier: (source == CacheLevel::Memory).then_some(Tier::Tier1),
            latency: 100,
            tlb_hit: true,
        }
    }

    #[test]
    fn disabled_engine_never_tags() {
        let mut e = TraceEngine::new(TraceMode::IbsOp { period: 1 });
        for _ in 0..100 {
            assert_eq!(
                e.offer_mem(mem_sample(CacheLevel::Memory, false)),
                TagOutcome::Untagged
            );
            assert_eq!(e.offer_compute(), TagOutcome::Untagged);
        }
        assert_eq!(e.buf.len(), 0);
    }

    #[test]
    fn ibs_tags_every_nth_op_of_any_kind() {
        let mut e = TraceEngine::new(TraceMode::IbsOp { period: 3 });
        e.set_enabled(true);
        let mut tags = 0;
        for i in 0..12 {
            let out = if i % 2 == 0 {
                e.offer_compute()
            } else {
                e.offer_mem(mem_sample(CacheLevel::L1, false))
            };
            if out == TagOutcome::Tagged {
                tags += 1;
            }
        }
        // Tags fall on offers 3, 6, 9, 12 — alternating compute/mem.
        assert_eq!(tags, 4);
        // Half the tags landed on compute ops: overhead with no record.
        let (records, info) = e.drain();
        assert_eq!(records.len() as u64 + info.nonmem_tags, 4);
        assert!(info.nonmem_tags > 0);
    }

    #[test]
    fn pebs_only_counts_qualifying_loads() {
        let mut e = TraceEngine::new(TraceMode::PebsEvent {
            period: 2,
            min_source: CacheLevel::Memory,
        });
        e.set_enabled(true);
        // Stores and cache hits never qualify.
        for _ in 0..10 {
            assert_eq!(
                e.offer_mem(mem_sample(CacheLevel::Memory, true)),
                TagOutcome::Untagged
            );
            assert_eq!(
                e.offer_mem(mem_sample(CacheLevel::L1, false)),
                TagOutcome::Untagged
            );
            assert_eq!(e.offer_compute(), TagOutcome::Untagged);
        }
        // Every 2nd qualifying load is sampled.
        let mut tags = 0;
        for _ in 0..10 {
            if e.offer_mem(mem_sample(CacheLevel::Memory, false)) == TagOutcome::Tagged {
                tags += 1;
            }
        }
        assert_eq!(tags, 5);
        let (records, info) = e.drain();
        assert_eq!(records.len(), 5);
        assert_eq!(info.nonmem_tags, 0, "PEBS wastes no interrupts");
    }

    #[test]
    fn buffer_overflow_drops_and_reports() {
        let mut e = TraceEngine::new(TraceMode::IbsOp { period: 1 });
        e.set_enabled(true);
        for _ in 0..TRACE_BUF_CAP + 10 {
            e.offer_mem(mem_sample(CacheLevel::Memory, false));
        }
        assert!(e.buf.len() >= TRACE_BUF_CAP);
        let (records, info) = e.drain();
        assert_eq!(records.len(), TRACE_BUF_CAP);
        assert_eq!(info.dropped, 10);
        assert_eq!(e.buf.len(), 0);
        assert_eq!(e.produced, (TRACE_BUF_CAP + 10) as u64);
    }

    #[test]
    fn reenabling_resets_countdown() {
        let mut e = TraceEngine::new(TraceMode::IbsOp { period: 4 });
        e.set_enabled(true);
        e.offer_compute();
        e.offer_compute();
        e.offer_compute();
        e.set_enabled(false);
        e.set_enabled(true);
        // Needs a full period again.
        assert_eq!(e.offer_compute(), TagOutcome::Untagged);
        assert_eq!(e.offer_compute(), TagOutcome::Untagged);
        assert_eq!(e.offer_compute(), TagOutcome::Untagged);
        assert_eq!(e.offer_compute(), TagOutcome::Tagged);
    }

    #[test]
    fn set_mode_changes_period() {
        let mut e = TraceEngine::new(TraceMode::IbsOp { period: 1000 });
        e.set_enabled(true);
        e.set_mode(TraceMode::IbsOp { period: 2 });
        assert_eq!(e.offer_compute(), TagOutcome::Untagged);
        assert_eq!(e.offer_compute(), TagOutcome::Tagged);
    }
}
