//! Host-time spans around calls into the simulator's layers.
//!
//! The benchmark times layers from outside the library: every public call
//! a workload driver makes into a layer is bracketed by [`Tracer::timed`].
//! Spans stay in memory while a pass runs. Within one simulated epoch,
//! calls into the same layer fold into one aggregate span (summed
//! duration, call count, first start, last end), so a pass with thousands
//! of scheduling quanta per epoch still yields a few spans per epoch.

use std::sync::OnceLock;

// tmprof-lint: allow(wall-clock) — measuring host time is this benchmark's purpose; no simulated output reads it
use std::time::Instant;

// tmprof-lint: allow(wall-clock) — the process-wide origin every host timestamp is taken against
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    // tmprof-lint: allow(wall-clock) — the single host-clock read of the benchmark
    // tmprof-lint: allow(determinism-taint) — host time feeds only the benchmark's own record; the simulator's CSVs, rankings and journal never see it
    let elapsed = ORIGIN.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// The simulator layers the benchmark attributes host time to, named after
/// the repository's crates and modules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Op generation: `OpStream::fill_batch`.
    Workloads,
    /// Machine execution: `Machine::exec_batch`.
    Sim,
    /// Trace-buffer drain: `TraceProfiler::poll`, `Tmp::begin_epoch_close`.
    ProfTrace,
    /// A-bit scan: `ABitScanner::scan`, `Tmp::scan_epoch_pid[_unit]`.
    ProfAbit,
    /// Epoch close: profile capture, counter reset, epoch advance.
    Core,
    /// Ranking: `PlacementPolicy::select`, `EpochProfile::top_k`.
    PolicyRank,
    /// Migration: `PageMover::apply[_with_admission]`.
    PolicyMover,
    /// Offline replay: `hitrate_grid`.
    PolicyReplay,
    /// NVM emulation: hot-page marking and slow-page re-protection.
    Emul,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Workloads,
        Layer::Sim,
        Layer::ProfTrace,
        Layer::ProfAbit,
        Layer::Core,
        Layer::PolicyRank,
        Layer::PolicyMover,
        Layer::PolicyReplay,
        Layer::Emul,
    ];

    /// Metric-name prefix.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Workloads => "workloads",
            Layer::Sim => "sim",
            Layer::ProfTrace => "profilers.trace",
            Layer::ProfAbit => "profilers.abit",
            Layer::Core => "core",
            Layer::PolicyRank => "policy.rank",
            Layer::PolicyMover => "policy.mover",
            Layer::PolicyReplay => "policy.replay",
            Layer::Emul => "emul",
        }
    }

    fn slot(self) -> usize {
        self as usize
    }
}

/// One span: an epoch root (`layer == None`) or an aggregate of calls into
/// one layer. Times are host nanoseconds from [`now_ns`].
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: Option<Layer>,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Global epoch id: epochs are numbered across the whole pass.
    pub epoch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Summed duration of the folded calls (equals `end - start` for roots).
    pub dur_ns: u64,
    pub calls: u64,
}

/// Records spans when on. Always records per-epoch wall times, which an
/// untraced pass reports as `core.epoch_ms_p50`/`p90`.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    root: Option<usize>,
    root_start: u64,
    children: [Option<usize>; 9],
    epoch: u32,
    epoch_ns: Vec<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Vec::new(),
            root: None,
            root_start: 0,
            children: [None; 9],
            epoch: 0,
            epoch_ns: Vec::new(),
        }
    }

    /// Start a simulated epoch; layer calls until [`Tracer::end_epoch`]
    /// become its children.
    pub fn begin_epoch(&mut self) {
        self.root_start = now_ns();
        if self.on {
            self.root = Some(self.spans.len());
            self.children = [None; 9];
            self.spans.push(Span {
                layer: None,
                parent: None,
                epoch: self.epoch,
                start_ns: self.root_start,
                end_ns: self.root_start,
                dur_ns: 0,
                calls: 1,
            });
        }
    }

    /// Close the open epoch and record its wall time.
    pub fn end_epoch(&mut self) {
        let end = now_ns();
        self.epoch_ns.push(end - self.root_start);
        if let Some(root) = self.root.take().and_then(|r| self.spans.get_mut(r)) {
            root.end_ns = end;
            root.dur_ns = end - root.start_ns;
        }
        self.epoch += 1;
    }

    /// Run `f` as one call into `layer`, timing it when tracing is on.
    pub fn timed<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = now_ns();
        let out = f();
        let end = now_ns();
        self.fold_call(layer, start, end);
        out
    }

    fn fold_call(&mut self, layer: Layer, start: u64, end: u64) {
        let folded = self.children[layer.slot()].and_then(|i| self.spans.get_mut(i));
        if let Some(agg) = folded {
            agg.end_ns = end;
            agg.dur_ns += end - start;
            agg.calls += 1;
            return;
        }
        if self.root.is_some() {
            self.children[layer.slot()] = Some(self.spans.len());
        }
        self.spans.push(Span {
            layer: Some(layer),
            parent: self.root,
            epoch: self.epoch,
            start_ns: start,
            end_ns: end,
            dur_ns: end - start,
            calls: 1,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Host wall time of every closed epoch, in order.
    pub fn epoch_ns(&self) -> &[u64] {
        &self.epoch_ns
    }
}

/// Where a traced pass's host time went.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    pub wall_ns: u64,
    /// Self time per layer, indexed like [`Layer::ALL`].
    pub self_ns: [u64; 9],
    /// Wall time outside every layer call: the drivers' own loop code,
    /// epoch-root self time, and gaps between top-level spans.
    pub other_ns: u64,
    /// Every span's children fit inside it and top-level spans fit inside
    /// the wall time, so self times plus `other_ns` sum exactly to
    /// `wall_ns`.
    pub nested: bool,
}

impl Breakdown {
    /// Attribute a pass of `wall_ns` host nanoseconds. A span's self time
    /// is its duration minus the time its child spans cover.
    pub fn of(spans: &[Span], wall_ns: u64) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        let mut top_ns = 0u64;
        for s in spans {
            match s.parent.and_then(|p| child_ns.get_mut(p)) {
                Some(acc) => *acc += s.dur_ns,
                None => top_ns += s.dur_ns,
            }
        }
        let mut out = Breakdown {
            wall_ns,
            nested: top_ns <= wall_ns,
            other_ns: wall_ns.saturating_sub(top_ns),
            ..Breakdown::default()
        };
        for (s, &children) in spans.iter().zip(&child_ns) {
            out.nested &= children <= s.dur_ns;
            let own = s.dur_ns.saturating_sub(children);
            match s.layer {
                Some(l) => out.self_ns[l.slot()] += own,
                None => out.other_ns += own,
            }
        }
        out
    }

    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.slot()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_fold_per_layer_within_an_epoch() {
        let mut tr = Tracer::new(true);
        tr.begin_epoch();
        for _ in 0..3 {
            tr.timed(Layer::Sim, || ());
            tr.timed(Layer::Workloads, || ());
        }
        tr.end_epoch();
        tr.timed(Layer::PolicyReplay, || ());
        let spans = tr.spans();
        assert_eq!(
            spans.len(),
            4,
            "root + two folded layers + one top-level call"
        );
        assert_eq!(spans[1].calls, 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(tr.epoch_ns().len(), 1);
    }

    #[test]
    fn self_times_and_other_sum_to_wall() {
        let span = |layer, parent, start, dur| Span {
            layer,
            parent,
            epoch: 0,
            start_ns: start,
            end_ns: start + dur,
            dur_ns: dur,
            calls: 1,
        };
        let spans = vec![
            span(None, None, 10, 100),
            span(Some(Layer::Sim), Some(0), 20, 60),
            span(Some(Layer::Core), Some(0), 80, 25),
            span(Some(Layer::PolicyReplay), None, 120, 30),
        ];
        let b = Breakdown::of(&spans, 200);
        assert!(b.nested);
        assert_eq!(b.layer_ns(Layer::Sim), 60);
        assert_eq!(b.layer_ns(Layer::PolicyReplay), 30);
        // 70 ns uncovered by top-level spans + 15 ns of epoch-root self time.
        assert_eq!(b.other_ns, 85);
        assert_eq!(b.self_ns.iter().sum::<u64>() + b.other_ns, 200);
    }

    #[test]
    fn overlapping_children_are_flagged() {
        let spans = vec![
            Span {
                layer: None,
                parent: None,
                epoch: 0,
                start_ns: 0,
                end_ns: 10,
                dur_ns: 10,
                calls: 1,
            },
            Span {
                layer: Some(Layer::Sim),
                parent: Some(0),
                epoch: 0,
                start_ns: 0,
                end_ns: 20,
                dur_ns: 20,
                calls: 1,
            },
        ];
        assert!(!Breakdown::of(&spans, 50).nested);
    }
}
