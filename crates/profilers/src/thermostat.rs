//! Thermostat-style hot/cold classification over BadgerTrap (paper §II-B
//! and §VII).
//!
//! Thermostat \[27\] classifies pages as hot or cold by intercepting TLB
//! misses via BadgerTrap \[6\] on a *sampled subset* of pages (poisoning
//! everything would be ruinous) and extrapolating. The paper's criticism,
//! which this module lets you measure directly: the approach "is prone to
//! fault overhead and assumes that the number of TLB misses and the number
//! of cache misses to a page are similar, which may not hold for hot
//! pages" — a blazing-hot page whose translation lives in the TLB takes
//! *zero* BadgerTrap faults and is misclassified as cold.

use tmprof_sim::addr::Vpn;
use tmprof_sim::keymap::KeyMap;
use tmprof_sim::machine::{FaultPolicy, Machine};
use tmprof_sim::pagedesc::PageKey;
use tmprof_sim::rng::Rng;
use tmprof_sim::tlb::Pid;

use crate::badgertrap::BadgerTrap;

/// Fault count at or above which a sampled page is hot.
const HOT_THRESHOLD: u64 = 2;

/// RNG seed for page selection.
const SEED: u64 = 0x7EA;

/// Classifier configuration.
#[derive(Clone, Copy, Debug)]
pub struct ThermostatConfig {
    /// Fraction of resident pages instrumented per epoch (Thermostat uses
    /// ~0.5% of huge pages; we default higher because scaled footprints
    /// are small).
    pub sample_fraction: f64,
}

impl Default for ThermostatConfig {
    fn default() -> Self {
        Self {
            sample_fraction: 0.05,
        }
    }
}

/// Verdict for one sampled page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Hot,
    Cold,
}

/// The sampling classifier.
pub struct Thermostat {
    cfg: ThermostatConfig,
    trap: BadgerTrap,
    rng: Rng,
    /// Pages sampled in the current epoch, over every pid sampled.
    current_sample: Vec<(Pid, Vpn)>,
    /// (packed key, verdict) across epochs.
    verdicts: KeyMap<u64, Verdict>,
}

impl Thermostat {
    /// Create the classifier and the fault handler to install.
    pub fn new(cfg: ThermostatConfig) -> (Self, Box<dyn FaultPolicy>) {
        let (trap, handler) = BadgerTrap::new();
        (
            Self {
                cfg,
                trap,
                rng: Rng::new(SEED),
                current_sample: Vec::new(),
                verdicts: KeyMap::default(),
            },
            handler,
        )
    }

    /// Start an epoch for `pid`: choose a fresh random sample of its
    /// resident pages and poison them. Call once per pid to sample several
    /// processes in one epoch. Returns the pid's sample size.
    pub fn begin_epoch(&mut self, machine: &mut Machine, pid: Pid) -> usize {
        // Collect resident VPNs (walk is free for the experiment harness;
        // the real system samples from its page lists).
        let mut vpns = Vec::new();
        if let Some((pt, _)) = machine.scan_parts(pid) {
            pt.walk_present(|vpn, _| vpns.push(vpn));
        }
        let want = ((vpns.len() as f64 * self.cfg.sample_fraction).ceil() as usize)
            .clamp(1, vpns.len().max(1));
        // Partial Fisher-Yates for a uniform sample.
        let mut sample = Vec::with_capacity(want);
        let mut pool = vpns;
        for _ in 0..want.min(pool.len()) {
            let i = self.rng.below(pool.len() as u64) as usize;
            sample.push(pool.swap_remove(i));
        }
        self.trap.poison_pages(machine, pid, &sample);
        self.current_sample.extend(sample.iter().map(|&v| (pid, v)));
        sample.len()
    }

    /// End an epoch: read the faults each sampled page took this epoch,
    /// classify, disarm.
    pub fn end_epoch(&mut self, machine: &mut Machine) {
        for &(pid, vpn) in &self.current_sample {
            let faults = self.trap.faults_of(pid, vpn);
            let verdict = if faults >= HOT_THRESHOLD {
                Verdict::Hot
            } else {
                Verdict::Cold
            };
            self.verdicts.insert(PageKey { pid, vpn }.pack(), verdict);
        }
        self.current_sample.clear();
        self.trap.unpoison_all(machine);
    }

    /// Pages classified hot so far.
    pub fn hot_pages(&self) -> Vec<u64> {
        self.verdicts
            .iter()
            .filter(|(_, &v)| v == Verdict::Hot)
            .map(|(&k, _)| k)
            .collect()
    }

    /// Pages ever sampled.
    pub fn sampled_pages(&self) -> usize {
        self.verdicts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::prelude::*;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::scaled(1, 1024, 0, 1 << 20));
        m.add_process(1);
        m
    }

    #[test]
    fn classifies_walked_pages_as_hot() {
        let mut m = machine();
        // 40 pages resident.
        for i in 0..40u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        let (mut th, handler) = Thermostat::new(ThermostatConfig {
            sample_fraction: 1.0, // sample everything for determinism
        });
        m.set_fault_policy(Some(handler));
        th.begin_epoch(&mut m, 1);
        // Hammer pages 0..8 with TLB evictions in between so they re-walk.
        for round in 0..4 {
            let _ = round;
            for i in 0..8u64 {
                m.shootdown(1, &[Vpn(i)], false);
                m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
            }
        }
        th.end_epoch(&mut m);
        for i in 0..8u64 {
            assert_eq!(
                th.verdicts
                    .get(
                        &PageKey {
                            pid: 1,
                            vpn: Vpn(i)
                        }
                        .pack()
                    )
                    .copied(),
                Some(Verdict::Hot),
                "page {i}"
            );
        }
        assert_eq!(
            th.verdicts
                .get(
                    &PageKey {
                        pid: 1,
                        vpn: Vpn(30)
                    }
                    .pack()
                )
                .copied(),
            Some(Verdict::Cold)
        );
    }

    #[test]
    fn tlb_resident_hot_page_is_misclassified_cold() {
        // The paper's §II-B criticism, demonstrated: a page accessed
        // thousands of times through a cached translation takes one fault
        // and is called cold.
        let mut m = machine();
        m.touch(0, 1, VirtAddr(0x5000));
        let (mut th, handler) = Thermostat::new(ThermostatConfig {
            sample_fraction: 1.0,
        });
        m.set_fault_policy(Some(handler));
        th.begin_epoch(&mut m, 1);
        for _ in 0..5000 {
            m.touch(0, 1, VirtAddr(0x5000)); // one fault, then TLB hits
        }
        th.end_epoch(&mut m);
        assert_eq!(
            th.verdicts
                .get(
                    &PageKey {
                        pid: 1,
                        vpn: Vpn(5)
                    }
                    .pack()
                )
                .copied(),
            Some(Verdict::Cold),
            "TLB-miss proxy must undercount the hottest page"
        );
        assert_eq!(th.trap.total_faults(), 1);
    }

    #[test]
    fn every_pid_sampled_in_an_epoch_gets_verdicts() {
        let mut m = machine();
        m.add_process(2);
        for pid in [1, 2] {
            for i in 0..10u64 {
                m.touch(0, pid, VirtAddr(i * PAGE_SIZE));
            }
        }
        let (mut th, handler) = Thermostat::new(ThermostatConfig {
            sample_fraction: 1.0,
        });
        m.set_fault_policy(Some(handler));
        assert_eq!(th.begin_epoch(&mut m, 1), 10);
        assert_eq!(th.begin_epoch(&mut m, 2), 10);
        th.end_epoch(&mut m);
        assert_eq!(th.sampled_pages(), 20, "both pids' samples classified");
    }

    #[test]
    fn a_resampled_page_is_judged_on_its_latest_epoch_alone() {
        let mut m = machine();
        m.touch(0, 1, VirtAddr(0x5000));
        let (mut th, handler) = Thermostat::new(ThermostatConfig {
            sample_fraction: 1.0,
        });
        m.set_fault_policy(Some(handler));
        let key = PageKey {
            pid: 1,
            vpn: Vpn(5),
        }
        .pack();
        // Epoch 1: three walks, three faults — hot.
        th.begin_epoch(&mut m, 1);
        for _ in 0..3 {
            m.shootdown(1, &[Vpn(5)], false);
            m.touch(0, 1, VirtAddr(0x5000));
        }
        th.end_epoch(&mut m);
        assert_eq!(th.verdicts.get(&key).copied(), Some(Verdict::Hot));
        // Epoch 2: sampled again but never touched — cold, whatever the
        // page did before.
        th.begin_epoch(&mut m, 1);
        th.end_epoch(&mut m);
        assert_eq!(th.verdicts.get(&key).copied(), Some(Verdict::Cold));
    }

    #[test]
    fn sample_fraction_limits_instrumented_pages() {
        let mut m = machine();
        for i in 0..100u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        let (mut th, handler) = Thermostat::new(ThermostatConfig {
            sample_fraction: 0.1,
        });
        m.set_fault_policy(Some(handler));
        let n = th.begin_epoch(&mut m, 1);
        assert_eq!(n, 10);
        th.end_epoch(&mut m);
        assert_eq!(th.sampled_pages(), 10);
    }

    #[test]
    fn epochs_resample_different_pages() {
        let mut m = machine();
        for i in 0..200u64 {
            m.touch(0, 1, VirtAddr(i * PAGE_SIZE));
        }
        let (mut th, handler) = Thermostat::new(ThermostatConfig::default());
        m.set_fault_policy(Some(handler));
        for _ in 0..6 {
            assert_eq!(th.begin_epoch(&mut m, 1), 10, "5% of 200 pages");
            th.end_epoch(&mut m);
        }
        // 6 epochs x 10 pages with replacement across epochs: coverage
        // must exceed a single epoch's sample.
        assert!(th.sampled_pages() > 10, "{}", th.sampled_pages());
    }
}
