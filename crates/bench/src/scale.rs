//! Experiment scaling knobs.
//!
//! The paper runs multi-hour workloads with up to 120 GB footprints on a
//! real Ryzen box; this reproduction runs scaled-down equivalents. Every
//! scaling decision lives here so EXPERIMENTS.md can cite one table of
//! knobs next to every reproduced number. Select a preset with the
//! `TMPROF_SCALE` environment variable (`quick`, `default`, or `full`).

use tmprof_core::knobs::{self, InvalidKnob, SCALE};

/// One experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Simulated cores (the paper's testbed has 6).
    pub cores: usize,
    /// Base (1x) IBS sampling period in ops. The paper's 1x is 1/262144;
    /// scaled footprints need proportionally denser sampling to collect
    /// comparable sample populations.
    pub base_period: u64,
    /// Ops per process per epoch (the "1 second" of §VI).
    pub ops_per_epoch: u64,
    /// Epochs per run.
    pub epochs: u32,
    /// Footprint multiplier applied to every workload's default
    /// (numerator, denominator).
    pub footprint_mul: (u64, u64),
    /// Dense (1x) period used by *coverage* experiments (Table IV, the
    /// heatmaps, CDFs, Fig. 6): scaled runs are orders of magnitude shorter
    /// than the paper's, so coverage studies need denser sampling than the
    /// overhead study (whose regime `base_period` models). EXPERIMENTS.md
    /// documents this split.
    pub dense_period: u64,
    /// A-bit restrictive-mode scan budget (PTEs per scan per process).
    pub abit_budget: u64,
}

impl Scale {
    /// Small enough for CI smoke runs (~seconds per workload).
    pub fn quick() -> Self {
        Self {
            cores: 2,
            base_period: 4096,
            ops_per_epoch: 1 << 17,
            epochs: 4,
            footprint_mul: (1, 4),
            dense_period: 256,
            abit_budget: 1024,
        }
    }

    /// The default used by the experiments (~tens of seconds for
    /// the full workload sweep).
    pub fn default_scale() -> Self {
        Self {
            cores: 4,
            base_period: 4096,
            ops_per_epoch: 1 << 19,
            epochs: 8,
            footprint_mul: (1, 1),
            dense_period: 512,
            abit_budget: 4096,
        }
    }

    /// Larger run for closer-to-paper sample populations.
    pub fn full() -> Self {
        Self {
            cores: 6,
            base_period: 8192,
            ops_per_epoch: 1 << 21,
            epochs: 10,
            footprint_mul: (2, 1),
            dense_period: 1024,
            abit_budget: 8192,
        }
    }

    /// The preset a `TMPROF_SCALE` value names: unset or `default` is
    /// [`Scale::default_scale`], `quick` and `full` their presets.
    pub fn preset(name: Option<&str>) -> Result<Self, InvalidKnob> {
        match name {
            None | Some("default") => Ok(Self::default_scale()),
            Some("quick") => Ok(Self::quick()),
            Some("full") => Ok(Self::full()),
            Some(other) => Err(InvalidKnob {
                name: SCALE.name,
                value: other.to_string(),
                accepts: SCALE.accepts,
            }),
        }
    }

    /// Check the environment and resolve the [`SCALE`] knob. The
    /// `experiments` binary and tmpctl's workload commands call this first.
    ///
    /// # Panics
    /// Naming every `TMPROF_*` variable that is not a registered knob, or
    /// with the [`InvalidKnob`] of a `TMPROF_SCALE` that names no preset.
    pub fn from_env() -> Self {
        let unknown = knobs::unregistered(
            std::env::vars_os().map(|(name, _)| name.to_string_lossy().into_owned()),
        );
        assert!(
            unknown.is_empty(),
            "unknown knob(s) {}: `tmpctl knobs` lists the registered ones",
            unknown.join(", ")
        );
        Self::preset(SCALE.get().as_deref()).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Scale {
        /// Total ops per epoch across `n` processes.
        fn epoch_ops_total(&self, processes: usize) -> u64 {
            self.ops_per_epoch * processes as u64
        }
    }

    #[test]
    fn presets_are_ordered_by_size() {
        let q = Scale::quick();
        let d = Scale::default_scale();
        let f = Scale::full();
        assert!(q.ops_per_epoch < d.ops_per_epoch);
        assert!(d.ops_per_epoch < f.ops_per_epoch);
        assert!(q.epochs <= d.epochs);
    }

    #[test]
    fn preset_names_the_knob_value_and_presets_on_anything_else() {
        assert_eq!(Scale::preset(None), Ok(Scale::default_scale()));
        assert_eq!(Scale::preset(Some("default")), Ok(Scale::default_scale()));
        assert_eq!(Scale::preset(Some("quick")), Ok(Scale::quick()));
        assert_eq!(Scale::preset(Some("full")), Ok(Scale::full()));
        for bad in ["qiuck", "", "FULL"] {
            let err = Scale::preset(Some(bad)).unwrap_err();
            assert_eq!((err.name, err.value.as_str()), (SCALE.name, bad));
            let msg = err.to_string();
            assert!(msg.contains("TMPROF_SCALE"), "{msg}");
            assert!(msg.contains(&format!("{bad:?}")), "{msg}");
            assert!(msg.contains(SCALE.accepts), "{msg}");
        }
    }

    #[test]
    fn env_fallback_is_default() {
        // Only checks the no-env path deterministically.
        std::env::remove_var(SCALE.name);
        let s = Scale::from_env();
        assert_eq!(s.ops_per_epoch, Scale::default_scale().ops_per_epoch);
    }

    #[test]
    fn epoch_ops_total_scales_with_processes() {
        let s = Scale::quick();
        assert_eq!(s.epoch_ops_total(4), s.ops_per_epoch * 4);
    }
}
