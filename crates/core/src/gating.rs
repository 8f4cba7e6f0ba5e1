//! HWPC-driven profiler gating (paper §III-B-4, optimization 1).
//!
//! TMP runs the cheap performance counters continuously and enables the
//! expensive mechanisms only when the memory subsystem is actually busy:
//! "we periodically count the number of TLB and LLC misses and update the
//! maximum value counted during a given period. If the current number of
//! events is more than 20% of the maximum, we consider the corresponding
//! profiling method active." LLC misses gate trace sampling; TLB misses
//! (page walks) gate A-bit scanning.

use tmprof_obs::journal::EventKind as ObsEvent;
use tmprof_obs::metrics::Metric as ObsMetric;
use tmprof_sim::counters::EventCounts;
use tmprof_sim::machine::Machine;

/// Activity threshold as a fraction of the running maximum (paper: 0.2).
const THRESHOLD: f64 = 0.20;

/// Fraction of each running maximum retained per evaluation period. The
/// paper tracks "the maximum value counted during a given period"; an
/// undecayed lifetime maximum (a decay of 1.0) lets one burst permanently
/// raise the bar and deactivate profiling forever, while 0.0 would compare
/// against the current period only.
const MAX_DECAY: f64 = 0.5;

/// Absolute per-period event floor. Below it a mechanism is idle no matter
/// what the relative threshold says — otherwise the first trickle on an
/// idle machine becomes its own maximum and trivially satisfies
/// `x >= THRESHOLD * x`.
const MIN_ACTIVITY: f64 = 64.0;

/// Gating configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct GatingConfig {
    /// Disable gating entirely (both profilers always on).
    pub always_on: bool,
}

/// What the gate decided this interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GateDecision {
    /// Trace sampling (IBS/PEBS) should be enabled.
    pub trace_active: bool,
    /// A-bit scanning should be enabled.
    pub abit_active: bool,
}

/// The gating engine: the machine's free-running counters, read once per
/// interval, and the running maxima.
pub struct Gating {
    cfg: GatingConfig,
    /// Counter totals at the start of the current interval.
    counts: EventCounts,
    max_llc: f64,
    max_tlb: f64,
    last: GateDecision,
}

impl Gating {
    /// Start gating over `machine`'s counters.
    pub fn new(cfg: GatingConfig, machine: &Machine) -> Self {
        Self {
            cfg,
            counts: machine.aggregate_counts(),
            max_llc: 0.0,
            max_tlb: 0.0,
            last: GateDecision {
                trace_active: true,
                abit_active: true,
            },
        }
    }

    /// Evaluate the interval since the last call and decide.
    pub fn evaluate(&mut self, machine: &Machine) -> GateDecision {
        let now = machine.aggregate_counts();
        let delta = now.delta_since(&self.counts);
        self.counts = now;
        let llc = delta.llc_misses as f64;
        let tlb = delta.ptw_walks as f64;
        // Decay first, then fold in the current period: the maxima are a
        // fading memory of recent peaks, not a lifetime high-water mark.
        self.max_llc = (self.max_llc * MAX_DECAY).max(llc);
        self.max_tlb = (self.max_tlb * MAX_DECAY).max(tlb);
        let decision = if self.cfg.always_on {
            GateDecision {
                trace_active: true,
                abit_active: true,
            }
        } else {
            GateDecision {
                trace_active: llc >= MIN_ACTIVITY && llc >= THRESHOLD * self.max_llc,
                abit_active: tlb >= MIN_ACTIVITY && tlb >= THRESHOLD * self.max_tlb,
            }
        };
        tmprof_obs::metrics::inc(ObsMetric::GateEvaluations);
        if decision.trace_active {
            tmprof_obs::metrics::inc(ObsMetric::GateTraceOnPeriods);
        }
        if decision.abit_active {
            tmprof_obs::metrics::inc(ObsMetric::GateAbitOnPeriods);
        }
        if decision != self.last {
            tmprof_obs::metrics::inc(ObsMetric::GateFlips);
            let (clock, epoch) = (machine.clock(), machine.epoch());
            if decision.trace_active != self.last.trace_active {
                tmprof_obs::journal::record(
                    ObsEvent::GateTrace,
                    clock,
                    epoch,
                    decision.trace_active as u64,
                    llc as u64,
                );
            }
            if decision.abit_active != self.last.abit_active {
                tmprof_obs::journal::record(
                    ObsEvent::GateAbit,
                    clock,
                    epoch,
                    decision.abit_active as u64,
                    tlb as u64,
                );
            }
        }
        self.last = decision;
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::prelude::*;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::scaled(1, 512, 2048, 1 << 20));
        m.add_process(1);
        m
    }

    /// Generate heavy memory pressure: strided misses over many pages
    /// starting at `base` (distinct bases defeat warm caches/TLBs).
    fn pressure_at(m: &mut Machine, base: u64, rounds: u64) {
        for r in 0..rounds {
            for i in 0..256u64 {
                m.exec_op(
                    0,
                    1,
                    WorkOp::Mem {
                        va: VirtAddr(base + i * PAGE_SIZE + (r % 64) * 64),
                        store: false,
                        site: 0,
                    },
                );
            }
        }
    }

    fn pressure(m: &mut Machine, rounds: u64) {
        pressure_at(m, 0, rounds);
    }

    /// Generate cache-friendly activity: one hot line, no misses.
    fn idle_memory(m: &mut Machine, ops: u64) {
        for _ in 0..ops {
            m.touch(0, 1, VirtAddr(0x1000));
        }
    }

    #[test]
    fn active_phase_keeps_profilers_on() {
        let mut m = machine();
        let mut g = Gating::new(GatingConfig::default(), &m);
        pressure(&mut m, 20);
        let d = g.evaluate(&m);
        assert!(d.trace_active);
        assert!(d.abit_active);
    }

    #[test]
    fn quiet_phase_gates_profilers_off() {
        let mut m = machine();
        let mut g = Gating::new(GatingConfig::default(), &m);
        pressure(&mut m, 20);
        g.evaluate(&m); // establishes the maxima
        idle_memory(&mut m, 20_000);
        let d = g.evaluate(&m);
        assert!(!d.trace_active, "no LLC misses -> trace gated off");
        assert!(!d.abit_active, "no walks -> A-bit gated off");
    }

    #[test]
    fn reactivation_when_pressure_returns() {
        let mut m = machine();
        let mut g = Gating::new(GatingConfig::default(), &m);
        pressure(&mut m, 20);
        g.evaluate(&m);
        idle_memory(&mut m, 20_000);
        g.evaluate(&m);
        // Pressure over a fresh address range so caches and TLBs are cold.
        pressure_at(&mut m, 512 * PAGE_SIZE, 20);
        let d = g.evaluate(&m);
        assert!(d.trace_active && d.abit_active);
    }

    #[test]
    fn readings_are_interval_deltas() {
        let mut m = machine();
        let mut g = Gating::new(GatingConfig::default(), &m);
        // 50 first touches: one page walk and one LLC miss each.
        for i in 0..50u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        g.evaluate(&m);
        assert_eq!((g.max_llc, g.max_tlb), (50.0, 50.0));
        // A quiet interval reads zero, so the maxima only decay; running
        // totals would read 50 again.
        g.evaluate(&m);
        assert_eq!((g.max_llc, g.max_tlb), (25.0, 25.0));
    }

    #[test]
    fn always_on_ignores_activity() {
        let mut m = machine();
        let mut g = Gating::new(GatingConfig { always_on: true }, &m);
        idle_memory(&mut m, 1000);
        let d = g.evaluate(&m);
        assert!(d.trace_active && d.abit_active);
    }

    #[test]
    fn burst_then_sustained_moderate_pressure_reactivates() {
        // Regression (lifetime-max bug): one huge burst used to set a
        // permanent maximum, so later *sustained* moderate pressure — real
        // activity, just under 20% of the burst — could never re-activate
        // the profilers. With the per-period decay the maxima fade and the
        // moderate phase re-arms both mechanisms.
        let mut m = machine();
        let mut g = Gating::new(GatingConfig::default(), &m);
        pressure(&mut m, 50); // huge burst
        g.evaluate(&m);
        let mut trace_back = false;
        let mut abit_back = false;
        for period in 1..=6u64 {
            // ~1/10th of the burst per period, each over a fresh range so
            // caches and TLBs stay cold.
            pressure_at(&mut m, (period * 256 + 256) * PAGE_SIZE, 5);
            let d = g.evaluate(&m);
            trace_back |= d.trace_active;
            abit_back |= d.abit_active;
        }
        assert!(
            trace_back,
            "sustained moderate LLC pressure never re-activated trace sampling"
        );
        assert!(
            abit_back,
            "sustained moderate TLB pressure never re-activated A-bit scans"
        );
    }

    #[test]
    fn trickle_on_idle_start_stays_gated_off() {
        // Regression (vacuous first evaluate): on a near-idle machine the
        // first reading became its own maximum, so `llc >= 0.2 * llc` held
        // trivially and the profilers stayed on during an idle start. The
        // absolute activity floor keeps them off.
        let mut m = machine();
        let mut g = Gating::new(GatingConfig::default(), &m);
        for i in 0..4u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        let d = g.evaluate(&m);
        assert!(
            !d.trace_active,
            "a trickle became its own max and kept trace sampling on"
        );
        assert!(
            !d.abit_active,
            "a trickle became its own max and kept A-bit scanning on"
        );
    }

    #[test]
    fn threshold_is_relative_to_running_max() {
        let mut m = machine();
        let mut g = Gating::new(GatingConfig::default(), &m);
        // Big burst sets a high maximum…
        pressure(&mut m, 50);
        g.evaluate(&m);
        // …then a small trickle (well under 20% of max) is considered idle.
        pressure(&mut m, 1);
        idle_memory(&mut m, 30_000);
        let d = g.evaluate(&m);
        assert!(!d.trace_active);
        let max_llc = g.max_llc;
        assert!(max_llc > 0.0);
    }
}
