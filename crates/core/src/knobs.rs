//! Central registry of `TMPROF_*` environment knobs.
//!
//! Every environment variable the workspace reads is declared here, with
//! its default and accepted values, so there is exactly one table to
//! consult (and one table for `tmpctl knobs` to print). The
//! `tmprof-lint` `knob-registry` rule cross-checks the workspace against
//! this file: a `TMPROF_*` name read anywhere else must appear below, so
//! an undocumented knob fails CI.
//!
//! Note on layering: `tmprof-sim` sits *below* this crate, so the
//! runner's quantum override is read in `tmprof_sim::runner` rather than
//! through [`Knob::get`]; its name is still registered here ([`SIM_BATCH`])
//! and kept in sync by the lint rule.

/// One documented environment knob.
#[derive(Clone, Copy, Debug)]
pub struct Knob {
    /// Environment variable name (`TMPROF_*`).
    pub name: &'static str,
    /// Value used when the variable is unset or invalid.
    pub default: &'static str,
    /// Human-readable description of accepted values.
    pub accepts: &'static str,
    /// What the knob controls.
    pub help: &'static str,
}

impl Knob {
    /// Current value, if the variable is set.
    pub fn get(&self) -> Option<String> {
        std::env::var(self.name).ok()
    }

    /// Current value parsed as a positive integer; `None` when unset,
    /// unparsable, or zero (every numeric knob treats 0 as "unset").
    pub fn get_u64(&self) -> Option<u64> {
        self.get()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&n| n > 0)
    }
}

/// Experiment scale preset used by every `tmprof-bench` binary.
pub const SCALE: Knob = Knob {
    name: "TMPROF_SCALE",
    default: "default",
    accepts: "quick | default | full",
    help: "Experiment scale preset: cores, epoch length, footprint \
           multiplier, and sampling periods for the bench binaries.",
};

/// Worker-thread cap for the parallel sweep engine.
pub const SWEEP_WORKERS: Knob = Knob {
    name: "TMPROF_SWEEP_WORKERS",
    default: "available parallelism",
    accepts: "positive integer",
    help: "Worker threads for experiment sweeps; 1 forces serial cells \
           for debugging.",
};

/// Scheduling-quantum override for the simulator's batched runner.
pub const SIM_BATCH: Knob = Knob {
    name: "TMPROF_SIM_BATCH",
    default: "4096",
    accepts: "positive integer (ops per scheduling quantum)",
    help: "Ops each runnable process executes per round-robin turn in \
           the batched runner (read in tmprof_sim::runner).",
};

/// Per-period decay of the gating engine's running maxima.
pub const GATE_DECAY: Knob = Knob {
    name: "TMPROF_GATE_DECAY",
    default: "50",
    accepts: "integer percent 0..=100",
    help: "Percent of the gating maxima retained per evaluation period; \
           100 keeps a lifetime maximum (the pre-decay behavior), 0 \
           compares each period only against itself.",
};

/// Capacity of the thread-local observability event journal.
pub const OBS_JOURNAL: Knob = Knob {
    name: "TMPROF_OBS_JOURNAL",
    default: "4096",
    accepts: "non-negative integer (events; 0 disables recording)",
    help: "Ring-buffer capacity of the per-thread event journal (read in \
           tmprof_obs::journal; see the layering note above).",
};

/// Worker-thread cap for the parallel hitrate replay grid.
pub const REPLAY_WORKERS: Knob = Knob {
    name: "TMPROF_REPLAY_WORKERS",
    default: "available parallelism",
    accepts: "positive integer",
    help: "Worker threads for the Fig. 6 hitrate replay grid \
           (tmprof_policy::hitrate::hitrate_grid); 1 forces serial \
           evaluation for debugging.",
};

/// Physical memory layout: ordered comma-separated tier names.
pub const TOPOLOGY: Knob = Knob {
    name: "TMPROF_TOPOLOGY",
    default: "dram,nvm",
    accepts: "comma-separated tier names from {dram, cxl, nvm}, fastest \
              first, 1..=4 tiers",
    help: "Memory-tier layout for the bench binaries and topology-aware \
           tests. Each name picks that technology's latency preset; frame \
           capacities come from the experiment scale. The default is the \
           paper's two-tier DRAM+NVM machine.",
};

/// Candidate-table size of the device-side hot-page sketch.
pub const DEVSKETCH_K: Knob = Knob {
    name: "TMPROF_DEVSKETCH_K",
    default: "64",
    accepts: "positive integer (hot frames reported per epoch)",
    help: "Top-K capacity of the device-side count-min hot-page tracker \
           (read in tmprof_profilers::devsketch; see the layering note \
           above). Larger K reports more of the slow-tier tail at the \
           cost of modeled device SRAM.",
};

/// Worker threads for the multi-tenant fleet scheduler.
pub const FLEET_WORKERS: Knob = Knob {
    name: "TMPROF_FLEET_WORKERS",
    default: "1",
    accepts: "positive integer (1 = serial reference schedule)",
    help: "Worker threads for the work-stealing fleet scheduler \
           (tmprof_core::sched): per-shard scan and migration work units \
           run on per-worker Chase-Lev deques. 1 (the default) is the \
           authoritative serial schedule; any higher count is \
           decision-identical to it (the fleet identity suite enforces \
           it), only wall-clock time changes.",
};

/// Per-tenant promotion quota for fleet admission control.
pub const ADMIT_PROMO: Knob = Knob {
    name: "TMPROF_ADMIT_PROMO",
    default: "unset (unlimited)",
    accepts: "positive integer (pages per tenant per epoch)",
    help: "Token-bucket promotion quota per tenant per epoch in the fleet \
           runner; refills every epoch up to the burst cap. Unset or 0 \
           disables admission control for promotions.",
};

/// Per-tenant demotion quota for fleet admission control.
pub const ADMIT_DEMO: Knob = Knob {
    name: "TMPROF_ADMIT_DEMO",
    default: "unset (unlimited)",
    accepts: "positive integer (pages per tenant per epoch)",
    help: "Token-bucket demotion quota per tenant per epoch in the fleet \
           runner; refills every epoch up to the burst cap. Unset or 0 \
           disables admission control for demotions.",
};

/// Burst multiple for the fleet admission token buckets.
pub const ADMIT_BURST: Knob = Knob {
    name: "TMPROF_ADMIT_BURST",
    default: "1",
    accepts: "positive integer (multiple of the per-epoch refill)",
    help: "Cap of each admission token bucket as a multiple of its \
           per-epoch refill: an idle tenant banks up to burst * quota \
           tokens and may spend them in one epoch.",
};

/// Output directory for per-cell sweep metrics sidecars.
pub const OBS_DIR: Knob = Knob {
    name: "TMPROF_OBS_DIR",
    default: "unset (sidecars disabled)",
    accepts: "directory path",
    help: "When set, sweep summaries also write one metrics CSV sidecar \
           per sweep into this directory.",
};

/// Every registered knob, in display order.
pub const ALL: &[Knob] = &[
    SCALE,
    SWEEP_WORKERS,
    REPLAY_WORKERS,
    SIM_BATCH,
    GATE_DECAY,
    TOPOLOGY,
    DEVSKETCH_K,
    FLEET_WORKERS,
    ADMIT_PROMO,
    ADMIT_DEMO,
    ADMIT_BURST,
    OBS_JOURNAL,
    OBS_DIR,
];

/// Look a knob up by its environment-variable name.
pub fn lookup(name: &str) -> Option<&'static Knob> {
    ALL.iter().find(|k| k.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_are_prefixed_and_unique() {
        for k in ALL {
            assert!(k.name.starts_with("TMPROF_"), "{}", k.name);
            assert!(!k.default.is_empty() && !k.help.is_empty());
        }
        let mut names: Vec<&str> = ALL.iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len(), "duplicate knob names");
    }

    #[test]
    fn lookup_finds_registered_knobs_only() {
        assert_eq!(lookup("TMPROF_SCALE").unwrap().name, SCALE.name);
        assert!(lookup("TMPROF_NOT_A_KNOB").is_none());
    }

    #[test]
    fn registered_names_match_the_decentralized_readers() {
        // sim reads its quantum knob locally (layering, see module docs);
        // this pins the registry to the name and default it actually uses.
        assert_eq!(SIM_BATCH.name, tmprof_sim::runner::BATCH_ENV);
        assert_eq!(
            SIM_BATCH.default,
            tmprof_sim::runner::DEFAULT_BATCH.to_string()
        );
        // obs sits below core too; same deal for the journal capacity.
        assert_eq!(OBS_JOURNAL.name, tmprof_obs::journal::CAP_ENV);
        assert_eq!(
            OBS_JOURNAL.default,
            tmprof_obs::journal::DEFAULT_CAPACITY.to_string()
        );
        // The topology layout is read by sim's scaled constructors.
        assert_eq!(TOPOLOGY.name, tmprof_sim::tier::TOPOLOGY_ENV);
        // The device-sketch size is read by the profilers crate.
        assert_eq!(DEVSKETCH_K.name, tmprof_profilers::devsketch::K_ENV);
        assert_eq!(
            DEVSKETCH_K.default,
            tmprof_profilers::devsketch::DEFAULT_K.to_string()
        );
    }

    #[test]
    fn get_u64_rejects_zero_and_garbage() {
        // Deliberately unprefixed so the knob-registry lint's name census
        // (which keys on TMPROF_* literals) ignores this throwaway.
        let k = Knob {
            name: "KNOBTEST_UNSET_FOR_GET_U64",
            default: "",
            accepts: "",
            help: "",
        };
        assert_eq!(k.get(), None);
        assert_eq!(k.get_u64(), None);
        std::env::set_var(k.name, "12");
        assert_eq!(k.get_u64(), Some(12));
        std::env::set_var(k.name, "0");
        assert_eq!(k.get_u64(), None);
        std::env::set_var(k.name, "garbage");
        assert_eq!(k.get_u64(), None);
        std::env::remove_var(k.name);
    }
}
