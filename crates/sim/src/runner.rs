//! Op-stream scheduling: feeds workload-generated ops to the machine.
//!
//! Workload generators (the `tmprof-workloads` crate) implement [`OpStream`];
//! the [`Runner`] multiplexes any number of process streams onto the
//! machine's cores in fixed batches, round-robin — a deterministic stand-in
//! for the OS scheduler. The paper's setups run more processes than cores
//! (e.g. 8 GUPS ranks on 6 cores), so time multiplexing is part of the
//! model: per-core TLBs and caches see the interleaving, which is what makes
//! A-bit overhead grow with tracked PIDs (Table I).

use crate::machine::{Machine, WorkOp};
use crate::tlb::Pid;

/// A source of ops for one simulated process.
pub trait OpStream {
    /// Produce the next op. Streams are infinite: generators loop their
    /// phase structure.
    fn next_op(&mut self) -> WorkOp;

    /// Fill `buf` with the next `buf.len()` ops, exactly as repeated
    /// [`OpStream::next_op`] calls would. Generators override this with a
    /// monomorphized loop (no per-op virtual dispatch); the default is the
    /// reference implementation.
    fn fill_batch(&mut self, buf: &mut [WorkOp]) {
        for slot in buf.iter_mut() {
            *slot = self.next_op();
        }
    }
}

/// Blanket impl so closures can serve as streams in tests.
impl<F: FnMut() -> WorkOp> OpStream for F {
    fn next_op(&mut self) -> WorkOp {
        self()
    }
}

/// Default scheduling quantum, in ops. The quantum changes the
/// multiplexing interleave (it is a *scheduling* parameter, not just a
/// performance one), so recorded experiment outputs assume this value.
pub const DEFAULT_BATCH: u64 = 4096;

/// Deterministic round-robin scheduler over process streams.
pub struct Runner<'a> {
    streams: Vec<(Pid, &'a mut dyn OpStream)>,
    batch: u64,
}

impl<'a> Runner<'a> {
    /// Build a runner over `(pid, stream)` pairs. The scheduling quantum is
    /// [`DEFAULT_BATCH`]; only the scheduler's own tests shrink it.
    pub fn new(streams: Vec<(Pid, &'a mut dyn OpStream)>) -> Self {
        assert!(!streams.is_empty(), "runner needs at least one stream");
        Self {
            streams,
            batch: DEFAULT_BATCH,
        }
    }

    /// Run until every stream has retired `ops_per_stream` ops.
    ///
    /// Stream `i` executes on core `i % cores`; cores hosting several
    /// streams alternate between them every quantum. Each quantum is
    /// generated into a reusable buffer via [`OpStream::fill_batch`] and
    /// executed whole through [`Machine::exec_batch`].
    pub fn run(&mut self, machine: &mut Machine, ops_per_stream: u64) {
        let cores = machine.num_cores();
        let n = self.streams.len();
        let mut remaining: Vec<u64> = vec![ops_per_stream; n];
        let mut total_left: u64 = ops_per_stream * n as u64;
        let quantum = self.batch.min(ops_per_stream).max(1) as usize;
        let mut buf: Vec<WorkOp> = vec![WorkOp::Compute; quantum];
        // Per-core rotation cursor over the streams assigned to that core.
        let mut cursors: Vec<usize> = vec![0; cores];
        while total_left > 0 {
            for (core, cursor) in cursors.iter_mut().enumerate() {
                // Streams assigned to this core: indices ≡ core (mod cores).
                let assigned = (n + cores - 1 - core) / cores;
                if assigned == 0 {
                    continue;
                }
                // Pick the cursor-th live assigned stream.
                let mut pick = None;
                for k in 0..assigned {
                    let slot = (*cursor + k) % assigned;
                    let idx = core + slot * cores;
                    if idx < n && remaining[idx] > 0 {
                        pick = Some((idx, slot));
                        break;
                    }
                }
                let Some((idx, slot)) = pick else { continue };
                *cursor = (slot + 1) % assigned;
                let quota = self.batch.min(remaining[idx]) as usize;
                let (pid, stream) = &mut self.streams[idx];
                let ops = &mut buf[..quota];
                stream.fill_batch(ops);
                machine.exec_batch(core, *pid, ops);
                remaining[idx] -= quota as u64;
                total_left -= quota as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{VirtAddr, PAGE_SIZE};
    use crate::machine::{Machine, MachineConfig};

    impl<'a> Runner<'a> {
        /// Override the scheduling quantum.
        fn with_batch(mut self, batch: u64) -> Self {
            assert!(batch > 0);
            self.batch = batch;
            self
        }
    }

    fn machine(cores: usize) -> Machine {
        Machine::new(MachineConfig::scaled(cores, 128, 512, 64))
    }

    fn touch_stream(base: u64) -> impl FnMut() -> WorkOp {
        let mut i = 0u64;
        move || {
            i += 1;
            WorkOp::Mem {
                va: VirtAddr(base + (i % 16) * PAGE_SIZE),
                store: false,
                site: 0,
            }
        }
    }

    #[test]
    fn all_streams_get_their_quota() {
        let mut m = machine(2);
        m.add_process(1);
        m.add_process(2);
        m.add_process(3);
        let mut s1 = touch_stream(0);
        let mut s2 = touch_stream(1 << 20);
        let mut s3 = touch_stream(2 << 20);
        Runner::new(vec![(1, &mut s1), (2, &mut s2), (3, &mut s3)])
            .with_batch(64)
            .run(&mut m, 1000);
        for (_, ops, _) in m.process_usage() {
            assert_eq!(ops, 1000);
        }
        assert_eq!(m.aggregate_counts().retired_ops, 3000);
    }

    #[test]
    fn single_stream_single_core() {
        let mut m = machine(1);
        m.add_process(9);
        let mut s = touch_stream(0);
        Runner::new(vec![(9, &mut s)]).run(&mut m, 500);
        assert_eq!(m.process_usage()[0].1, 500);
    }

    #[test]
    fn more_cores_than_streams_leaves_cores_idle() {
        let mut m = machine(4);
        m.add_process(1);
        let mut s = touch_stream(0);
        Runner::new(vec![(1, &mut s)]).run(&mut m, 100);
        assert_eq!(m.counts(0).retired_ops, 100);
        for core in 1..4 {
            assert_eq!(m.counts(core).retired_ops, 0);
        }
    }

    #[test]
    fn multiplexed_core_interleaves_streams() {
        // 2 streams on 1 core: both must progress before either finishes.
        let mut m = machine(1);
        m.add_process(1);
        m.add_process(2);
        let mut order = Vec::new();
        let mk = |tag: u32, order_log: *mut Vec<u32>| {
            move || {
                // Safety: single-threaded test; the log outlives the closures.
                unsafe { (*order_log).push(tag) };
                WorkOp::Compute
            }
        };
        let log_ptr: *mut Vec<u32> = &mut order;
        let mut s1 = mk(1, log_ptr);
        let mut s2 = mk(2, log_ptr);
        Runner::new(vec![(1, &mut s1), (2, &mut s2)])
            .with_batch(10)
            .run(&mut m, 30);
        // Quantum is 10, so the first 20 entries must contain both tags.
        let head: Vec<u32> = order[..20].to_vec();
        assert!(head.contains(&1) && head.contains(&2));
        assert_eq!(order.len(), 60);
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_runner_panics() {
        let _ = Runner::new(vec![]);
    }

    #[test]
    fn default_fill_batch_matches_next_op() {
        let mut a = touch_stream(0);
        let mut b = touch_stream(0);
        let mut buf = [WorkOp::Compute; 33];
        OpStream::fill_batch(&mut a, &mut buf);
        for op in buf {
            assert_eq!(op, b());
        }
    }
}
