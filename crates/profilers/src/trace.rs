//! The IBS/PEBS *driver* (paper §III-B-1).
//!
//! The hardware half (per-core tagging, sample buffers) lives in
//! `tmprof_sim::trace_engine`; this driver mirrors the paper's kernel
//! module: it programs the sampling rate, periodically polls and drains the
//! per-core buffers, charges the collection-interrupt overhead, and
//! accumulates per-page sample counts into the page descriptors via
//! `phys_to_page()`. It also keeps the per-epoch detected-page sets used by
//! Table IV and the raw (epoch, frame) stream used to draw the Fig. 3
//! heatmaps.

use tmprof_obs::metrics::Metric;
use tmprof_sim::cache::CacheLevel;
use tmprof_sim::keymap::PageSet;
use tmprof_sim::machine::{Machine, LATENCY};
use tmprof_sim::pagedesc::PageKey;
use tmprof_sim::trace_engine::{TraceMode, TraceSample};

/// The paper's default IBS period is 1/262144 ops; the experiments scale
/// the whole machine down, so the profiler speaks in *multipliers* of a
/// configurable base period, exactly as the paper does ("4x the default").
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Base (1x) sampling period in ops.
    pub base_period: u64,
    /// Rate multiplier: effective period = `base_period / rate`. The
    /// paper's studied points are 1, 4 and 8.
    pub rate: u64,
    /// Use PEBS-style event sampling instead of IBS op sampling.
    pub pebs: bool,
    /// Keep the raw (epoch, pfn) stream for heatmap rendering.
    pub record_samples: bool,
}

impl TraceConfig {
    /// Paper-shaped default: IBS op sampling at 1x, loads only.
    pub fn ibs(base_period: u64) -> Self {
        Self {
            base_period,
            rate: 1,
            pebs: false,
            record_samples: false,
        }
    }

    /// PEBS flavor: sample only loads served from memory.
    pub fn pebs(base_period: u64) -> Self {
        Self {
            pebs: true,
            ..Self::ibs(base_period)
        }
    }

    /// With a rate multiplier (the paper's 4x/8x studies).
    pub fn at_rate(mut self, rate: u64) -> Self {
        assert!(rate >= 1);
        self.rate = rate;
        self
    }

    /// Enable heatmap sample recording.
    pub fn recording(mut self) -> Self {
        self.record_samples = true;
        self
    }

    /// Effective hardware period.
    pub fn period(&self) -> u64 {
        (self.base_period / self.rate).max(1)
    }

    fn mode(&self) -> TraceMode {
        if self.pebs {
            TraceMode::PebsEvent {
                period: self.period(),
                min_source: CacheLevel::Memory,
            }
        } else {
            TraceMode::IbsOp {
                period: self.period(),
            }
        }
    }
}

/// A recorded heat point for the Fig. 3 heatmap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeatPoint {
    /// Epoch the sample was collected in.
    pub epoch: u32,
    /// Physical frame sampled.
    pub pfn: tmprof_sim::addr::Pfn,
}

/// Running totals for the driver.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceStats {
    /// Samples aggregated into page heat.
    pub counted_samples: u64,
    /// Samples discarded by the demand-load / memory-source filters.
    pub filtered_samples: u64,
    /// Interrupt-only tags (non-memory IBS tags).
    pub wasted_tags: u64,
    /// Samples lost to hardware buffer overflow.
    pub dropped_samples: u64,
    /// Total profiling cycles charged.
    pub overhead_cycles: u64,
}

/// The trace-profiling driver.
pub struct TraceProfiler {
    cfg: TraceConfig,
    /// Raw (possibly duplicated) packed keys seen this epoch; sorted and
    /// deduplicated only when the epoch closes.
    epoch_pages: Vec<u64>,
    /// Pages (logical) seen over the whole run.
    seen_pages: PageSet,
    heat: Vec<HeatPoint>,
    stats: TraceStats,
    enabled: bool,
    /// Reusable drain buffer: one allocation for the run, not one per poll.
    scratch: Vec<TraceSample>,
}

impl TraceProfiler {
    /// Create the driver and program every core's engine.
    pub fn new(cfg: TraceConfig, machine: &mut Machine) -> Self {
        for core in 0..machine.num_cores() {
            let engine = machine.trace_engine_mut(core);
            engine.set_mode(cfg.mode());
            engine.set_enabled(true);
        }
        Self {
            cfg,
            epoch_pages: Vec::new(),
            seen_pages: PageSet::new(),
            heat: Vec::new(),
            stats: TraceStats::default(),
            enabled: true,
            scratch: Vec::new(),
        }
    }

    /// Gate sampling on/off (TMP's HWPC-driven control, §III-B-4).
    pub fn set_enabled(&mut self, machine: &mut Machine, enabled: bool) {
        self.enabled = enabled;
        for core in 0..machine.num_cores() {
            machine.trace_engine_mut(core).set_enabled(enabled);
        }
    }

    /// Does this sample contribute to page heat?
    fn counts(&self, s: &TraceSample) -> bool {
        // TMP inspects "memory accessed from regular last-level caches",
        // i.e. samples whose data source is beyond the LLC (§III-A)…
        let memory_sourced = s.source == CacheLevel::Memory;
        // …and focuses on demand loads (prefetched data is served from
        // cache anyway).
        memory_sourced && !s.is_store
    }

    /// Drain every core's hardware buffer, aggregate samples into the page
    /// descriptors, and charge collection overhead. Call this at least once
    /// per epoch (the paper's module polls periodically).
    pub fn poll(&mut self, machine: &mut Machine) {
        let before = self.stats;
        let mut batch: Vec<u64> = Vec::new();
        let mut scratch = std::mem::take(&mut self.scratch);
        for core in 0..machine.num_cores() {
            scratch.clear();
            let info = machine.trace_engine_mut(core).drain_into(&mut scratch);
            let epoch = machine.epoch();
            // Every tag raised an interrupt: records and address-less tags.
            let cost = (scratch.len() as u64 + info.nonmem_tags) * LATENCY.sample_interrupt;
            machine.charge_profiling(core, cost);
            self.stats.overhead_cycles += cost;
            self.stats.wasted_tags += info.nonmem_tags;
            self.stats.dropped_samples += info.dropped;
            for s in &scratch {
                if !self.counts(s) {
                    self.stats.filtered_samples += 1;
                    continue;
                }
                self.stats.counted_samples += 1;
                let pfn = s.paddr.pfn();
                machine.descs_mut().bump_trace(pfn);
                let key = PageKey {
                    pid: s.pid,
                    vpn: s.vaddr.vpn(),
                };
                batch.push(key.pack());
                if self.cfg.record_samples {
                    self.heat.push(HeatPoint { epoch, pfn });
                }
            }
        }
        self.scratch = scratch;
        self.epoch_pages.extend_from_slice(&batch);
        self.seen_pages.merge_unsorted(batch);
        // One bulk add per poll with this drain's stat deltas.
        let d = &self.stats;
        tmprof_obs::metrics::add(
            Metric::TraceSamplesCounted,
            d.counted_samples - before.counted_samples,
        );
        tmprof_obs::metrics::add(
            Metric::TraceSamplesFiltered,
            d.filtered_samples - before.filtered_samples,
        );
        tmprof_obs::metrics::add(
            Metric::TraceSamplesDropped,
            d.dropped_samples - before.dropped_samples,
        );
    }

    /// Pages detected this epoch; clears the per-epoch set.
    pub fn take_epoch_pages(&mut self) -> PageSet {
        PageSet::from_unsorted(self.take_epoch_pages_raw())
    }

    /// The raw (unsorted, possibly duplicated) packed keys detected this
    /// epoch; clears the per-epoch buffer. See
    /// `ABitScanner::take_epoch_pages_raw`.
    pub fn take_epoch_pages_raw(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.epoch_pages)
    }

    /// Pages detected over the whole run (Table IV "IBS" column).
    pub fn seen_pages(&self) -> &PageSet {
        &self.seen_pages
    }

    /// Recorded heat points (empty unless `record_samples`).
    pub fn heat_points(&self) -> &[HeatPoint] {
        &self.heat
    }

    /// Driver totals.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::prelude::*;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::scaled(2, 256, 1024, 64));
        m.add_process(1);
        m
    }

    /// Scan a strided region so most accesses miss the small caches.
    fn run_strided(m: &mut Machine, pages: u64, ops: u64) {
        for i in 0..ops {
            let page = i % pages;
            let off = (i / pages * 64) % PAGE_SIZE;
            m.exec_op(
                0,
                1,
                WorkOp::Mem {
                    va: VirtAddr(page * PAGE_SIZE + off),
                    store: false,
                    site: 0,
                },
            );
        }
    }

    #[test]
    fn poll_aggregates_into_page_descs() {
        let mut m = machine();
        let mut prof = TraceProfiler::new(TraceConfig::ibs(64).at_rate(4), &mut m);
        run_strided(&mut m, 128, 20_000);
        prof.poll(&mut m);
        let stats = prof.stats();
        assert!(stats.counted_samples > 0, "no samples counted");
        let total_desc: u64 = m.descs().iter_owned().map(|(_, d)| d.trace_epoch).sum();
        assert_eq!(total_desc, stats.counted_samples);
        assert!(!prof.seen_pages().is_empty());
    }

    #[test]
    fn higher_rate_detects_more_pages() {
        let mut counts = Vec::new();
        for rate in [1u64, 4, 8] {
            let mut m = machine();
            let mut prof = TraceProfiler::new(TraceConfig::ibs(512).at_rate(rate), &mut m);
            run_strided(&mut m, 512, 60_000);
            prof.poll(&mut m);
            counts.push(prof.seen_pages().len());
        }
        assert!(counts[1] > counts[0], "{counts:?}");
        assert!(counts[2] >= counts[1], "{counts:?}");
    }

    #[test]
    fn overhead_scales_with_rate() {
        let mut overheads = Vec::new();
        for rate in [1u64, 8] {
            let mut m = machine();
            let mut prof = TraceProfiler::new(TraceConfig::ibs(512).at_rate(rate), &mut m);
            run_strided(&mut m, 128, 40_000);
            prof.poll(&mut m);
            overheads.push(m.aggregate_counts().profiling_cycles);
        }
        assert!(
            overheads[1] > overheads[0] * 4,
            "8x rate must cost ~8x: {overheads:?}"
        );
    }

    #[test]
    fn cache_hits_are_filtered_out() {
        let mut m = machine();
        let mut prof = TraceProfiler::new(TraceConfig::ibs(16), &mut m);
        // Hammer one address: after the first miss, everything hits L1.
        for _ in 0..10_000 {
            m.touch(0, 1, VirtAddr(0x3000));
        }
        prof.poll(&mut m);
        let stats = prof.stats();
        assert!(stats.filtered_samples > stats.counted_samples * 100);
        assert!(prof.seen_pages().len() <= 1);
    }

    #[test]
    fn stores_filtered_by_default_counted_on_request() {
        // Only demand loads count toward page heat (§III-A): store samples
        // are drained and filtered out.
        let mut m = machine();
        let mut p = TraceProfiler::new(TraceConfig::ibs(64), &mut m);
        for i in 0..20_000u64 {
            m.exec_op(
                0,
                1,
                WorkOp::Mem {
                    va: VirtAddr((i % 256) * PAGE_SIZE),
                    store: true,
                    site: 0,
                },
            );
        }
        p.poll(&mut m);
        assert_eq!(p.stats().counted_samples, 0, "stores filtered");
        assert!(p.stats().filtered_samples > 0, "stores were sampled");
    }

    #[test]
    fn pebs_mode_records_only_memory_loads() {
        let mut m = machine();
        let mut prof = TraceProfiler::new(TraceConfig::pebs(16), &mut m);
        run_strided(&mut m, 64, 20_000);
        prof.poll(&mut m);
        let stats = prof.stats();
        assert!(stats.counted_samples > 0);
        assert_eq!(stats.filtered_samples, 0, "PEBS pre-filters in hardware");
        assert_eq!(stats.wasted_tags, 0);
    }

    #[test]
    fn epoch_pages_reset_on_take() {
        let mut m = machine();
        let mut prof = TraceProfiler::new(TraceConfig::ibs(16), &mut m);
        run_strided(&mut m, 64, 5_000);
        prof.poll(&mut m);
        let first = prof.take_epoch_pages();
        assert!(!first.is_empty());
        assert!(prof.take_epoch_pages().is_empty());
        assert_eq!(prof.seen_pages().len(), first.len(), "cumulative set kept");
    }

    #[test]
    fn heat_points_recorded_when_enabled() {
        let mut m = machine();
        let mut prof = TraceProfiler::new(TraceConfig::ibs(16).recording(), &mut m);
        run_strided(&mut m, 64, 5_000);
        prof.poll(&mut m);
        assert!(!prof.heat_points().is_empty());
    }

    #[test]
    fn gating_stops_sample_production() {
        let mut m = machine();
        let mut prof = TraceProfiler::new(TraceConfig::ibs(16), &mut m);
        prof.set_enabled(&mut m, false);
        run_strided(&mut m, 64, 5_000);
        prof.poll(&mut m);
        assert_eq!(prof.stats().counted_samples, 0);
        assert!(!prof.enabled);
    }
}
