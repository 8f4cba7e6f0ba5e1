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
use tmprof_profilers::hwpc::{HwpcMonitor, PmuEvent};
use tmprof_sim::machine::Machine;

/// Gating thresholds.
#[derive(Clone, Copy, Debug)]
pub struct GatingConfig {
    /// Activity threshold as a fraction of the running maximum (paper: 0.2).
    pub threshold: f64,
    /// Fraction of each running maximum retained per evaluation period.
    /// The paper tracks "the maximum value counted during a given period";
    /// an undecayed lifetime maximum lets one burst permanently raise the
    /// bar and deactivate profiling forever. 1.0 reproduces that old
    /// behavior; 0.0 compares against the current period only.
    pub max_decay: f64,
    /// Absolute per-period event floor. Below it a mechanism is idle no
    /// matter what the relative threshold says — otherwise the first
    /// trickle on an idle machine becomes its own maximum and trivially
    /// satisfies `x >= threshold * x`.
    pub min_activity: f64,
    /// Disable gating entirely (both profilers always on).
    pub always_on: bool,
}

impl Default for GatingConfig {
    fn default() -> Self {
        Self {
            threshold: 0.20,
            max_decay: 0.5,
            min_activity: 64.0,
            always_on: false,
        }
    }
}

/// What the gate decided this interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GateDecision {
    /// Trace sampling (IBS/PEBS) should be enabled.
    pub trace_active: bool,
    /// A-bit scanning should be enabled.
    pub abit_active: bool,
}

/// The gating engine: one HWPC session + running maxima.
pub struct Gating {
    cfg: GatingConfig,
    monitor: HwpcMonitor,
    max_llc: f64,
    max_tlb: f64,
    last: GateDecision,
}

impl Gating {
    /// Start gating over `machine`'s counters.
    pub fn new(cfg: GatingConfig, machine: &Machine) -> Self {
        Self {
            cfg,
            monitor: HwpcMonitor::new(machine, vec![PmuEvent::LlcMisses, PmuEvent::PtwWalks]),
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
        let readings = self.monitor.read(machine);
        let llc = readings
            .iter()
            .find(|r| r.event == PmuEvent::LlcMisses)
            .map_or(0.0, |r| r.value);
        let tlb = readings
            .iter()
            .find(|r| r.event == PmuEvent::PtwWalks)
            .map_or(0.0, |r| r.value);
        // Decay first, then fold in the current period: the maxima are a
        // fading memory of recent peaks, not a lifetime high-water mark.
        self.max_llc = (self.max_llc * self.cfg.max_decay).max(llc);
        self.max_tlb = (self.max_tlb * self.cfg.max_decay).max(tlb);
        let decision = if self.cfg.always_on {
            GateDecision {
                trace_active: true,
                abit_active: true,
            }
        } else {
            GateDecision {
                trace_active: llc >= self.cfg.min_activity
                    && llc >= self.cfg.threshold * self.max_llc,
                abit_active: tlb >= self.cfg.min_activity
                    && tlb >= self.cfg.threshold * self.max_tlb,
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
    fn always_on_ignores_activity() {
        let mut m = machine();
        let mut g = Gating::new(
            GatingConfig {
                always_on: true,
                ..Default::default()
            },
            &m,
        );
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
