//! Data-Analytics (CloudSuite, Mahout/Hadoop over Wikipedia), paper
//! Table III: 0.6 GB Wiki dataset, 1 master + 32 workers.
//!
//! Map-reduce-style machine-learning passes: a *map* phase streams the
//! input corpus sequentially while emitting hash-aggregated features, and a
//! *reduce* phase re-reads the aggregation structure with skewed keys.
//! Nearly every page of the footprint is touched every pass — the paper's
//! densest workload (Table IV: 111k A-bit pages, the most of any workload,
//! with IBS close behind at 4x). Phase alternation shows up as vertical
//! banding in the heatmaps.

use tmprof_sim::prelude::*;

use crate::common::{ComputeMixer, OpQueue, Region};

mod site {
    pub const CORPUS_SCAN: u32 = 0x7001;
    pub const FEATURE_READ: u32 = 0x7002;
    pub const FEATURE_WRITE: u32 = 0x7003;
    pub const REDUCE_READ: u32 = 0x7004;
    pub const REDUCE_WRITE: u32 = 0x7005;
}

/// Records scanned per map step.
const SCAN_RUN: u64 = 8;

/// Phases of one pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Map,
    Reduce,
}

/// Generator state for one analytics worker.
pub struct DataAnalytics {
    corpus: Region,
    features: Region,
    rng: Rng,
    zipf: Zipf,
    mixer: ComputeMixer,
    queue: OpQueue,
    phase: Phase,
    cursor: u64,
    reduce_left: u64,
    passes: u64,
}

impl DataAnalytics {
    /// One worker over a `pages`-page shard.
    pub fn new(pages: u64, _rank: usize, mut rng: Rng) -> Self {
        // 2/3 corpus shard, 1/3 feature/aggregation tables.
        let corpus_pages = (pages * 2 / 3).max(4);
        let feature_pages = (pages - corpus_pages).max(2);
        let feature_keys = feature_pages * PAGE_SIZE / 16;
        let zipf = Zipf::new(feature_keys, 0.9);
        let rng2 = rng.fork();
        Self {
            corpus: Region::new(0, corpus_pages),
            features: Region::new(1, feature_pages),
            rng: rng2,
            zipf,
            mixer: ComputeMixer::new(2),
            queue: OpQueue::new(),
            phase: Phase::Map,
            cursor: 0,
            reduce_left: 0,
            passes: 0,
        }
    }

    fn step(&mut self) {
        match self.phase {
            Phase::Map => {
                // Stream SCAN_RUN records (64 B each) from the corpus…
                let recs = self.corpus.capacity(64);
                for _ in 0..SCAN_RUN {
                    let r = self.cursor % recs;
                    self.cursor += 1;
                    self.queue.load(self.corpus.elem(r, 64), site::CORPUS_SCAN);
                }
                // …and aggregate one skewed feature per run.
                let k = self.zipf.sample(&mut self.rng);
                self.queue
                    .load(self.features.elem(k, 16), site::FEATURE_READ);
                self.queue
                    .store(self.features.elem(k, 16), site::FEATURE_WRITE);
                if self.cursor >= recs {
                    self.cursor = 0;
                    self.phase = Phase::Reduce;
                    self.reduce_left = self.features.capacity(16) / 4;
                }
            }
            Phase::Reduce => {
                // Re-read aggregated features with skew, normalizing them.
                let k = self.zipf.sample(&mut self.rng);
                self.queue
                    .load(self.features.elem(k, 16), site::REDUCE_READ);
                self.queue
                    .store(self.features.elem(k, 16), site::REDUCE_WRITE);
                self.reduce_left = self.reduce_left.saturating_sub(1);
                if self.reduce_left == 0 {
                    self.phase = Phase::Map;
                    self.passes += 1;
                }
            }
        }
    }
}

crate::common::impl_mixed_stream!(DataAnalytics);

#[cfg(test)]
mod tests {
    use super::*;
    use tmprof_sim::keymap::KeySet;

    #[test]
    fn map_phase_scans_whole_corpus() {
        let mut da = DataAnalytics::new(512, 0, Rng::new(1));
        let corpus = da.corpus.vpn_range();
        let mut pages = KeySet::default();
        while da.passes == 0 {
            if let WorkOp::Mem { va, .. } = da.next_op() {
                if corpus.contains(&va.vpn().0) {
                    pages.insert(va.vpn().0);
                }
            }
        }
        assert_eq!(pages.len() as u64, da.corpus.pages(), "dense scan");
    }

    #[test]
    fn features_receive_both_reads_and_writes() {
        let mut da = DataAnalytics::new(512, 0, Rng::new(2));
        let feat = da.features.vpn_range();
        let (mut loads, mut stores) = (0u64, 0u64);
        for _ in 0..20_000 {
            if let WorkOp::Mem { va, store, .. } = da.next_op() {
                if feat.contains(&va.vpn().0) {
                    if store {
                        stores += 1
                    } else {
                        loads += 1
                    }
                }
            }
        }
        assert!(loads > 0 && stores > 0);
        // Read-modify-write aggregation: roughly balanced.
        let ratio = loads as f64 / stores as f64;
        assert!(ratio > 0.5 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn phases_alternate() {
        let mut da = DataAnalytics::new(256, 0, Rng::new(3));
        let mut guard = 0u64;
        while da.passes < 2 {
            let _ = da.next_op();
            guard += 1;
            assert!(guard < 10_000_000, "passes never completed");
        }
        assert_eq!(da.passes, 2);
    }
}
