//! The user-space TMP daemon's process filter (paper §III-B-3/-4).
//!
//! A-bit scanning cost grows with every page table traversed, so TMP
//! "filters processes by resource usage (selecting processes with at least
//! 5% CPU or 10% memory) in order to reduce the number of page tables
//! traversed", re-evaluating once per second. A *restrictive* mode keeps at
//! most a fixed number of PIDs tracked (the overhead-stability knob).

use tmprof_sim::keymap::KeyMap;
use tmprof_sim::machine::Machine;
use tmprof_sim::tlb::Pid;

/// Filter thresholds.
#[derive(Clone, Copy, Debug)]
pub struct FilterConfig {
    /// Minimum CPU share (fraction of ops retired in the interval).
    pub min_cpu_share: f64,
    /// Minimum memory share (fraction of total physical frames mapped).
    pub min_mem_share: f64,
    /// Restrictive mode: cap on tracked PIDs (`None` = uncapped).
    pub max_tracked: Option<usize>,
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self {
            min_cpu_share: 0.05,
            min_mem_share: 0.10,
            max_tracked: None,
        }
    }
}

/// Per-process usage observed over one evaluation interval.
#[derive(Clone, Copy, Debug)]
pub struct ProcessUsage {
    pub pid: Pid,
    /// Fraction of all ops retired this interval.
    pub cpu_share: f64,
    /// Fraction of physical frames mapped.
    pub mem_share: f64,
}

/// The daemon-side filter. Holds the last interval snapshot so shares are
/// computed over *deltas*, like `top`.
pub struct ProcessFilter {
    cfg: FilterConfig,
    last_ops: KeyMap<Pid, u64>,
}

impl ProcessFilter {
    /// New filter.
    pub fn new(cfg: FilterConfig) -> Self {
        Self {
            cfg,
            last_ops: KeyMap::default(),
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &FilterConfig {
        &self.cfg
    }

    /// Compute each process's usage over the interval since the last call.
    pub fn usage(&mut self, machine: &Machine) -> Vec<ProcessUsage> {
        let raw = machine.process_usage();
        let total_frames = machine.memory().total_frames().max(1);
        let mut deltas: Vec<(Pid, u64, u64)> = raw
            .iter()
            .map(|&(pid, ops, pages)| {
                let prev = self.last_ops.get(&pid).copied().unwrap_or(0);
                (pid, ops - prev, pages)
            })
            .collect();
        for &(pid, ops, _) in &raw {
            self.last_ops.insert(pid, ops);
        }
        let total_ops: u64 = deltas.iter().map(|d| d.1).sum();
        deltas.sort_by_key(|d| d.0);
        deltas
            .into_iter()
            .map(|(pid, dops, pages)| ProcessUsage {
                pid,
                cpu_share: if total_ops == 0 {
                    0.0
                } else {
                    dops as f64 / total_ops as f64
                },
                mem_share: pages as f64 / total_frames as f64,
            })
            .collect()
    }

    /// Re-evaluate the tracked-PID set (the daemon's once-per-second job).
    /// Returns PIDs passing the CPU-or-memory test, trimmed to the
    /// restrictive cap (keeping the heaviest consumers first).
    pub fn tracked_pids(&mut self, machine: &Machine) -> Vec<Pid> {
        let mut passing: Vec<ProcessUsage> = self
            .usage(machine)
            .into_iter()
            .filter(|u| {
                u.cpu_share >= self.cfg.min_cpu_share || u.mem_share >= self.cfg.min_mem_share
            })
            .collect();
        // Heaviest first for the cap; deterministic tiebreak by PID.
        passing.sort_by(|a, b| {
            let wa = a.cpu_share.max(a.mem_share);
            let wb = b.cpu_share.max(b.mem_share);
            wb.partial_cmp(&wa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.pid.cmp(&b.pid))
        });
        if let Some(cap) = self.cfg.max_tracked {
            passing.truncate(cap);
        }
        let mut pids: Vec<Pid> = passing.into_iter().map(|u| u.pid).collect();
        pids.sort_unstable();
        tmprof_obs::metrics::inc(tmprof_obs::metrics::Metric::DaemonFilterRuns);
        tmprof_obs::metrics::set(
            tmprof_obs::metrics::Metric::DaemonTrackedPids,
            pids.len() as u64,
        );
        pids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::prelude::*;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::scaled(2, 256, 1024, 1 << 20));
        for pid in 1..=3 {
            m.add_process(pid);
        }
        m
    }

    fn run_ops(m: &mut Machine, pid: Pid, n: u64) {
        for i in 0..n {
            m.exec_op(
                0,
                pid,
                WorkOp::Mem {
                    va: VirtAddr((i % 64) * PAGE_SIZE),
                    store: false,
                    site: 0,
                },
            );
        }
    }

    #[test]
    fn busy_process_passes_cpu_filter() {
        let mut m = machine();
        run_ops(&mut m, 1, 1000);
        run_ops(&mut m, 2, 10); // 1% of activity
        let mut f = ProcessFilter::new(FilterConfig::default());
        let tracked = f.tracked_pids(&m);
        assert!(tracked.contains(&1));
        assert!(!tracked.contains(&2), "idle-ish process filtered out");
        assert!(!tracked.contains(&3), "untouched process filtered out");
    }

    #[test]
    fn big_memory_process_passes_even_when_idle_now() {
        let mut m = machine();
        // PID 2 maps >10% of physical memory (129/1280 frames), then idles.
        for i in 0..140u64 {
            m.exec_op(
                1,
                2,
                WorkOp::Mem {
                    va: VirtAddr(i * PAGE_SIZE),
                    store: false,
                    site: 0,
                },
            );
        }
        let mut f = ProcessFilter::new(FilterConfig::default());
        let _ = f.tracked_pids(&m); // consume the first interval
        run_ops(&mut m, 1, 1000); // now only pid 1 is active
        let tracked = f.tracked_pids(&m);
        assert!(tracked.contains(&1), "CPU-heavy");
        assert!(tracked.contains(&2), "memory-heavy despite zero CPU");
    }

    #[test]
    fn cpu_share_uses_interval_deltas() {
        let mut m = machine();
        run_ops(&mut m, 1, 1000);
        let mut f = ProcessFilter::new(FilterConfig::default());
        let _ = f.usage(&m);
        // Next interval only PID 3 runs: PID 1's share must drop to zero.
        run_ops(&mut m, 3, 100);
        let usage = f.usage(&m);
        let u1 = usage.iter().find(|u| u.pid == 1).unwrap();
        let u3 = usage.iter().find(|u| u.pid == 3).unwrap();
        assert_eq!(u1.cpu_share, 0.0);
        assert!((u3.cpu_share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn restrictive_mode_caps_tracked_pids() {
        let mut m = machine();
        run_ops(&mut m, 1, 500);
        run_ops(&mut m, 2, 300);
        run_ops(&mut m, 3, 200);
        let mut f = ProcessFilter::new(FilterConfig {
            max_tracked: Some(1),
            ..FilterConfig::default()
        });
        let tracked = f.tracked_pids(&m);
        assert_eq!(tracked, vec![1], "heaviest CPU consumer kept");
    }

    #[test]
    fn zero_activity_interval_is_safe() {
        let m = machine();
        let mut f = ProcessFilter::new(FilterConfig::default());
        let tracked = f.tracked_pids(&m);
        assert!(tracked.is_empty());
        // No op retired: every share is 0, not a division by zero.
        let usage = f.usage(&m);
        assert_eq!(usage.len(), 3);
        assert!(usage.iter().all(|u| u.cpu_share == 0.0));
    }
}
