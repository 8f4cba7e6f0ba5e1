//! Central registry of `TMPROF_*` environment knobs.
//!
//! Every environment variable the workspace reads is declared here, with
//! its default and accepted values, so there is exactly one table to
//! consult (and one table for `tmpctl knobs` to print). The
//! `tmprof-lint` `knob-registry` rule cross-checks the workspace against
//! this file: a `TMPROF_*` name read anywhere else must appear below, so
//! an undocumented knob fails CI. [`unregistered`] finds the opposite
//! mistake at run time, a set `TMPROF_*` variable that no knob below
//! declares; the bench crate's `Scale::from_env` refuses to run with one.
//!
//! Note on layering: `tmprof-sim` sits *below* this crate, so the memory
//! layout is read in `tmprof_sim::tier` rather than through [`Knob::get`];
//! its name is still registered here ([`TOPOLOGY`]) and kept in sync by a
//! test.

/// One documented environment knob.
#[derive(Clone, Copy, Debug)]
pub struct Knob {
    /// Environment variable name (`TMPROF_*`).
    pub name: &'static str,
    /// Value used when the variable is unset. A set value outside
    /// [`Knob::accepts`] is an error naming the knob, the value and what
    /// it accepts; it never falls back to this default.
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
}

/// A knob value outside what the knob accepts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidKnob {
    /// The knob's environment-variable name.
    pub name: &'static str,
    /// The rejected value.
    pub value: String,
    /// What the knob accepts ([`Knob::accepts`]).
    pub accepts: &'static str,
}

impl std::fmt::Display for InvalidKnob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}={:?} is invalid; accepted: {}",
            self.name, self.value, self.accepts
        )
    }
}

impl std::error::Error for InvalidKnob {}

/// Experiment scale preset used by every `tmprof-bench` binary.
pub const SCALE: Knob = Knob {
    name: "TMPROF_SCALE",
    default: "default",
    accepts: "quick | default | full",
    help: "Experiment scale preset: cores, epoch length, footprint \
           multiplier, and sampling periods for the bench binaries.",
};

/// Worker-thread count for every `tmprof_core::pool` caller that does
/// not pin one.
pub const WORKERS: Knob = Knob {
    name: "TMPROF_WORKERS",
    default: "available parallelism",
    accepts: "positive integer",
    help: "Worker threads for the experiment sweeps and the Fig. 6 hitrate \
           replay grid (tmprof_core::pool); 1 runs everything on the \
           calling thread, for debugging. Any value other than a positive \
           integer is an error. The fleet runner takes its worker count \
           from FleetConfig instead.",
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

/// Output directory for per-cell sweep metrics sidecars.
pub const OBS_DIR: Knob = Knob {
    name: "TMPROF_OBS_DIR",
    default: "unset (sidecars disabled)",
    accepts: "directory path",
    help: "When set, sweep summaries also write one metrics CSV sidecar \
           per sweep into this directory.",
};

/// Every registered knob, in display order.
pub const ALL: &[Knob] = &[SCALE, WORKERS, TOPOLOGY, OBS_DIR];

/// Look a knob up by its environment-variable name.
pub fn lookup(name: &str) -> Option<&'static Knob> {
    ALL.iter().find(|k| k.name == name)
}

/// The `TMPROF_*` names among `names` that no registered knob declares,
/// sorted: a misspelt or retired knob would otherwise be ignored and run
/// the default.
pub fn unregistered(names: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut unknown: Vec<String> = names
        .into_iter()
        .filter(|n| n.starts_with("TMPROF_") && lookup(n).is_none())
        .collect();
    unknown.sort_unstable();
    unknown
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
        // The topology layout is read by sim's scaled constructors
        // (layering, see module docs).
        assert_eq!(TOPOLOGY.name, tmprof_sim::tier::TOPOLOGY_ENV);
    }

    #[test]
    fn unregistered_lists_unknown_tmprof_names_sorted() {
        let names = [
            "TMPROF_SCLAE",
            "PATH",
            "TMPROF_SCALE",
            "TMPROF_WORKERS",
            "TMPROF_NOT_A_KNOB",
            "tmprof_scale",
            "TMPROF_",
        ];
        assert_eq!(
            unregistered(names.map(String::from)),
            ["TMPROF_", "TMPROF_NOT_A_KNOB", "TMPROF_SCLAE"]
        );
        assert!(unregistered(ALL.iter().map(|k| k.name.to_string())).is_empty());
        assert!(unregistered(Vec::new()).is_empty());
    }
}
