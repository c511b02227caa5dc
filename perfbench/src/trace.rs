//! Benchmark-side spans around the calls into each layer, and the
//! statistics the report is made of.
//!
//! Spans are recorded by the benchmark's own code, never inside the
//! program: the main thread opens and closes spans around its calls,
//! and the session factory (which runs on a shard thread) records its
//! spans through a [`Remote`] handle. Spans stay in memory until the
//! run ends.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The program layers a span can belong to, plus the benchmark itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Layer {
    /// `hiphop_lang`, the parser.
    Lang,
    /// `hiphop_compiler`.
    Compiler,
    /// `hiphop_runtime::Machine`.
    Runtime,
    /// `hiphop_eventloop::sessions::SessionPool`.
    Sessions,
    /// `hiphop_runtime::flight`.
    Flight,
    /// `hiphop_runtime::snapshot`.
    Snapshot,
    /// The benchmark's own work (instant roots, score generation).
    Bench,
}

impl Layer {
    /// The program layers, in report order.
    pub(crate) const PROGRAM: [Layer; 6] = [
        Layer::Lang,
        Layer::Compiler,
        Layer::Runtime,
        Layer::Sessions,
        Layer::Flight,
        Layer::Snapshot,
    ];

    /// The name of the layer's self-time metric.
    pub(crate) fn self_metric(self) -> &'static str {
        match self {
            Layer::Lang => "lang.self_ms",
            Layer::Compiler => "compiler.self_ms",
            Layer::Runtime => "runtime.self_ms",
            Layer::Sessions => "sessions.self_ms",
            Layer::Flight => "flight.self_ms",
            Layer::Snapshot => "snapshot.self_ms",
            Layer::Bench => "bench.self_ms",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Span {
    /// Spans of one instant (or one set-up, one recovery) share it.
    pub(crate) group: u64,
    /// Index of the enclosing span, if any.
    pub(crate) parent: Option<usize>,
    /// The layer the called function belongs to.
    pub(crate) layer: Layer,
    /// The call, e.g. `"tick"`.
    pub(crate) op: &'static str,
    /// Start.
    pub(crate) start_ns: u64,
    /// End.
    pub(crate) end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub(crate) fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Records spans on the main thread; see the module docs.
pub(crate) struct Tracer {
    epoch: Instant,
    on: Arc<AtomicBool>,
    group: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
    remote: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer, recording only while switched on.
    pub(crate) fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on: Arc::new(AtomicBool::new(false)),
            group: 0,
            stack: Vec::new(),
            spans: Vec::with_capacity(1 << 16),
            remote: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Switches recording on or off, here and in every [`Remote`].
    pub(crate) fn set_on(&mut self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub(crate) fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Starts a new span group (one instant, set-up or recovery).
    pub(crate) fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// A handle for recording spans on another thread.
    pub(crate) fn remote(&self) -> Remote {
        Remote {
            epoch: self.epoch,
            on: self.on.clone(),
            spans: self.remote.clone(),
        }
    }

    /// Opens a span; it encloses every span opened before its [`Tracer::end`].
    pub(crate) fn begin(&mut self, layer: Layer, op: &'static str) {
        if !self.is_on() {
            return;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            group: self.group,
            parent: self.stack.last().copied(),
            layer,
            op,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(index);
    }

    /// Closes the innermost open span.
    pub(crate) fn end(&mut self) {
        let Some(index) = self.stack.pop() else {
            return;
        };
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        // Whatever a shard thread recorded during a closed-loop call
        // belongs to that call.
        let mut remote = self.remote.lock().expect("no span writer panics");
        for mut s in remote.drain(..) {
            s.group = self.group;
            s.parent = Some(index);
            self.spans.push(s);
        }
    }

    /// Runs `f` inside a span (a plain call while recording is off).
    pub(crate) fn span<T>(&mut self, layer: Layer, op: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(layer, op);
        let out = f();
        self.end();
        out
    }

    /// Every span recorded so far.
    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Records spans from a session factory on a shard thread; the main
/// thread's enclosing span adopts them when it closes.
#[derive(Clone)]
pub(crate) struct Remote {
    epoch: Instant,
    on: Arc<AtomicBool>,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Remote {
    /// Runs `f` inside a span (a plain call while recording is off).
    pub(crate) fn span<T>(&self, layer: Layer, op: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("no span writer panics")
            .push(Span {
                group: 0,
                parent: None,
                layer,
                op,
                start_ns,
                end_ns,
            });
        out
    }
}

/// Self time per layer in milliseconds: each span's duration minus the
/// part its child spans cover.
pub(crate) fn self_ms(spans: &[Span]) -> Vec<(Layer, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: Vec<(Layer, f64)> = Layer::PROGRAM.iter().map(|&l| (l, 0.0)).collect();
    for (s, child) in spans.iter().zip(child_ns) {
        if let Some(slot) = out.iter_mut().find(|(l, _)| *l == s.layer) {
            slot.1 += (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e6;
        }
    }
    out
}

/// Durations (µs) of the spans of `op`.
pub(crate) fn durations(spans: &[Span], op: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.op == op).map(Span::us).collect()
}

/// Share of the `root` spans' time that their direct children cover.
pub(crate) fn coverage(spans: &[Span], root: &str) -> f64 {
    let mut covered = 0u64;
    let mut total = 0u64;
    for s in spans {
        match s.parent {
            None if s.op == root => total += s.end_ns - s.start_ns,
            Some(p) if spans[p].op == root => covered += s.end_ns - s.start_ns,
            _ => {}
        }
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// closest ranks; 0 for an empty sample.
pub(crate) fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median; 0 for an empty sample.
pub(crate) fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean; 0 for an empty sample.
pub(crate) fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}
