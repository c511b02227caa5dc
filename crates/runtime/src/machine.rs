//! The reactive machine: atomic reactions over a compiled circuit.
//!
//! This is the paper's "JavaScript reactive machine" (§2.2.1, §5.2): it
//! runs a circuit (through a program image shared with every machine of
//! the same circuit, see [`crate::image`]), holds the persistent state
//! (registers, signal values, variables, counters, async instances),
//! stages inputs, and executes each
//! reaction as a constructive simulation of the circuit — the
//! least-fixpoint evaluation in Scott's ternary logic {⊥, 0, 1}. Attached
//! actions run exactly when their net stabilizes to 1 and their data
//! dependencies have resolved, which realizes the paper's
//! micro-scheduling; a net left ⊥ is a reported causality cycle.
//!
//! The default engine is the block walker ([`EngineMode::Levelized`],
//! `Machine::walk`): one pass over the program image's schedule in
//! topological order, each cyclic block iterated to its local fixpoint.
//! The sparse engine runs the same per-net evaluator over a dirty set
//! (`crate::sparse`), and the constructive FIFO reference lives in
//! `crate::constructive`.

use crate::causality::analyze;
use crate::constructive::ConstructiveScratch;
use crate::env::{AtomView, EnvView};
use crate::error::RuntimeError;
use crate::image::ProgramImage;
use crate::levelized::{
    Block, EngineMode, LevelSchedule, CODE_AND, CODE_AND_EARLY, CODE_AND_LATE, CODE_CONST0,
    CODE_CONST1, CODE_INPUT, CODE_OR, CODE_OR_EARLY, CODE_OR_LATE, CODE_REG, CODE_TEST,
};
use crate::isolate::guarded;
use crate::snapshot::{AsyncSnapshot, ChaosSnapshot, MachineSnapshot, SnapshotError};
use crate::sparse::{SparseState, SparseTables};
use crate::telemetry::{
    AsyncPhase, LevelActivity, Metrics, MetricsSink, ReactionStats, SharedSink, SinkSet, TraceEvent,
};
use hiphop_circuit::{Action, AsyncId, Circuit, NetId, NetKind, SignalId, TestKind};
use hiphop_core::ast::{AsyncCtx, AtomBody};
use hiphop_core::mailbox::{AsyncHandle, MachineOp, Mailbox};
use hiphop_core::rng::Rng;
use hiphop_core::value::Value;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Per-net evaluation strategy, precomputed once per program image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Const / Input / RegOut: determined at reaction start.
    Source,
    /// Plain gate, no side effect.
    Gate,
    /// Data test: evaluates once its control and dependencies stabilize.
    Test,
    /// Gate with an *early* action (signal emission): the boolean value
    /// propagates immediately; the side effect waits for dependencies.
    /// This keeps signal *status* propagation independent from *value*
    /// computation, as in Esterel.
    Early,
    /// Gate with a *late* action (atoms, counters, async hooks): the net
    /// is determined only after the side effect ran, so sequential host
    /// state updates are ordered before downstream control.
    Late,
}

/// One output signal's snapshot after a reaction.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputEvent {
    /// Signal name. Interned once per program image (`Arc<str>`): a
    /// reaction is built once per session per instant, so the names must
    /// not re-allocate each time.
    pub name: std::sync::Arc<str>,
    /// Present this instant.
    pub present: bool,
    /// Current value (persists across instants).
    pub value: Value,
}

/// The result of one reaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Reaction {
    /// Reaction number (0-based).
    pub seq: u64,
    /// Snapshot of every output-direction interface signal.
    pub outputs: Vec<OutputEvent>,
    /// Whether the program terminated in this instant.
    pub terminated: bool,
    /// Number of net events processed (linear in circuit size; used by
    /// the E4 experiments).
    pub events: usize,
}

impl Reaction {
    /// Snapshot of a specific output, if present in the interface.
    pub fn output(&self, name: &str) -> Option<&OutputEvent> {
        self.outputs.iter().find(|o| &*o.name == name)
    }
    /// Whether `name` was emitted this instant.
    pub fn present(&self, name: &str) -> bool {
        self.output(name).map(|o| o.present).unwrap_or(false)
    }
    /// Current value of `name` (Null if unknown).
    pub fn value(&self, name: &str) -> Value {
        self.output(name).map(|o| o.value.clone()).unwrap_or(Value::Null)
    }
}

#[derive(Debug)]
pub(crate) struct AsyncRt {
    pub(crate) active: bool,
    pub(crate) instance: u64,
    pub(crate) state: Rc<RefCell<Value>>,
    pub(crate) notified: Option<Value>,
}

/// Pre-reaction copy of everything a failed reaction may have mutated
/// before its first fallible step completed; buffers are reused across
/// reactions so steady-state snapshotting allocates nothing. Registers,
/// `last_present`, `terminated` and `seq` need no snapshot — they are
/// only committed after the last fallible step.
#[derive(Debug, Default)]
struct Snapshot {
    sig_val: Vec<Value>,
    sig_preval: Vec<Value>,
    vars: HashMap<String, Value>,
    counters: Vec<f64>,
    asyncs: Vec<(bool, u64, Rc<RefCell<Value>>, Option<Value>)>,
    log_len: usize,
}

/// Machine-level fault injection: an armed machine panics inside host
/// actions at the configured rate, drawing from its own PCG32 stream
/// (see [`Machine::set_chaos`]).
#[derive(Debug)]
struct Chaos {
    rng: Rng,
    rate: f64,
}

/// A running reactive machine.
///
/// A machine is its *instance state* over a shared program image
/// (`crate::image`): the circuit and every schedule derived from it are
/// built once per circuit body per thread, so `Machine::new` on a clone
/// of an already-running circuit allocates only the state below.
///
/// Fields the cohort engine (`crate::cohort`) touches are `pub(crate)`:
/// each lane runs the machine's own begin, finish and rollback phases
/// around the shared bit-parallel sweep, which owns the pure gates.
pub struct Machine {
    pub(crate) image: Rc<ProgramImage>,

    // Persistent state.
    pub(crate) regs: Vec<bool>,
    pub(crate) sig_val: Vec<Value>,
    pub(crate) sig_preval: Vec<Value>,
    vars: HashMap<String, Value>,
    counters: Vec<f64>,
    pub(crate) asyncs: Vec<AsyncRt>,
    log: Vec<String>,
    mailbox: Mailbox,
    next_instance: u64,
    pub(crate) terminated: bool,
    pub(crate) seq: u64,
    pub(crate) last_present: Vec<bool>,

    // Staging for the next reaction.
    pub(crate) staged_inputs: Vec<(SignalId, Option<Value>)>,
    pub(crate) staged_notifies: Vec<(AsyncId, Value)>,

    // Scratch (allocated once). `value` is the per-net plane every
    // engine evaluates into: the walker writes each net before any
    // reader in schedule order, so it is never cleared wholesale.
    // `resolved` exists only for cyclic circuits — the walker's SCC
    // iteration resets it per member and leaves every other net settled.
    pub(crate) value: Vec<i8>,
    resolved: Vec<bool>,
    pub(crate) cx: ConstructiveScratch,
    // Per-reaction emission counters (combine checking), reused.
    pub(crate) emit_count: Vec<u32>,
    // Presence of input/notify nets at the last staged instant: the
    // plane, the nets whose bit is set (cleared one by one at the next
    // staging), and the previous instant's list while the sparse engine
    // seeds from it.
    pub(crate) input_present: Vec<bool>,
    pub(crate) present_nets: Vec<u32>,
    prev_present: Vec<u32>,
    pub(crate) events: usize,
    pub(crate) actions_run: usize,
    pub(crate) queue_hwm: usize,

    pub(crate) listeners: Vec<Rc<dyn Fn(&Reaction)>>,
    pub(crate) trace: Option<Vec<Reaction>>,
    pub(crate) sinks: SinkSet,
    pub(crate) fine_events: bool,
    metrics: Option<Rc<RefCell<MetricsSink>>>,

    // Fault tolerance: pre-reaction snapshot for rollback-on-error,
    // poison flag (only ever observable with rollback disabled), and the
    // optional fault injector.
    snapshot: Snapshot,
    pub(crate) rollback: bool,
    pub(crate) poisoned: bool,
    chaos: Option<Chaos>,

    // Engine selection: the user's explicit choice (`None` = automatic),
    // resolved against the image's schedules by `engine()`.
    pub(crate) requested: Option<EngineMode>,
    // Dirty-set state of the sparse incremental engine; its baseline
    // validity flag is cleared by every non-sparse execution path.
    pub(crate) sparse: SparseState,

    // Per-level activity accounting (`enable_level_activity`): net
    // evaluations and value flips bucketed by topological level, with
    // the previous instant's net values as the flip baseline.
    pub(crate) level_activity: Option<LevelActivity>,
    prev_value: Vec<i8>,
    // Per-block evaluation counts of the last walk (scratch; maintained
    // only while level-activity accounting is armed).
    la_block_evals: Vec<u64>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("program", &self.circuit().name)
            .field("nets", &self.circuit().nets().len())
            .field("seq", &self.seq)
            .field("terminated", &self.terminated)
            .finish()
    }
}

impl Machine {
    /// Wraps a finalized circuit into a fresh machine.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnfinalizedCircuit`] if the circuit was not
    /// [`Circuit::finalize`]d (the compiler always finalizes, so
    /// `machine_for` unwraps; hand-built circuits must call `finish()`).
    ///
    /// [`RuntimeError::Causality`] if the static constructiveness
    /// analysis proves a combinational cycle can never stabilize (the
    /// paper's `X = not X`): the program is rejected before any reaction
    /// runs, with the same structured [`crate::CausalityReport`] a
    /// runtime deadlock would produce.
    pub fn new(circuit: Circuit) -> Result<Machine, RuntimeError> {
        let image = ProgramImage::for_circuit(circuit)?;
        let circuit = &image.circuit;
        let n = circuit.nets().len();
        let sig_val: Vec<Value> = circuit
            .signals()
            .iter()
            .map(|s| s.init.clone().unwrap_or(Value::Null))
            .collect();
        let asyncs = circuit
            .asyncs()
            .iter()
            .map(|_| AsyncRt {
                active: false,
                instance: 0,
                state: Rc::new(RefCell::new(Value::Null)),
                notified: None,
            })
            .collect();
        Ok(Machine {
            regs: circuit.registers().iter().map(|r| r.init).collect(),
            sig_preval: sig_val.clone(),
            sig_val,
            vars: HashMap::new(),
            counters: vec![0.0; circuit.counters().len()],
            asyncs,
            log: Vec::new(),
            mailbox: Mailbox::new(),
            next_instance: 0,
            terminated: false,
            seq: 0,
            last_present: vec![false; circuit.signals().len()],
            staged_inputs: Vec::new(),
            staged_notifies: Vec::new(),
            value: vec![-1; n],
            resolved: if image.schedule.is_some() {
                Vec::new()
            } else {
                vec![true; n]
            },
            cx: ConstructiveScratch::default(),
            emit_count: Vec::new(),
            input_present: vec![false; n],
            present_nets: Vec::new(),
            prev_present: Vec::new(),
            events: 0,
            actions_run: 0,
            queue_hwm: 0,
            listeners: Vec::new(),
            trace: None,
            sinks: SinkSet::new(),
            fine_events: false,
            metrics: None,
            snapshot: Snapshot::default(),
            rollback: true,
            poisoned: false,
            chaos: None,
            requested: None,
            sparse: SparseState::default(),
            level_activity: None,
            prev_value: Vec::new(),
            la_block_evals: Vec::new(),
            image,
        })
    }

    /// Requests an evaluation engine; returns the *effective* engine
    /// (requesting [`EngineMode::Sparse`] on a cyclic circuit falls back
    /// to the block walker, [`EngineMode::Levelized`]).
    pub fn set_engine(&mut self, mode: EngineMode) -> EngineMode {
        self.requested = Some(mode);
        self.engine()
    }

    /// The engine the next reaction will use: the requested one
    /// ([`Machine::set_engine`]), or — by default — the block walker,
    /// [`EngineMode::Levelized`] (acyclic regions sweep densely, only
    /// cycles iterate).
    pub fn engine(&self) -> EngineMode {
        match self.requested {
            // The sparse sweep needs the acyclic level schedule.
            Some(EngineMode::Sparse) if self.image.schedule.is_none() => EngineMode::Levelized,
            Some(mode) => mode,
            None => EngineMode::Levelized,
        }
    }

    /// Whether the circuit levelizes (acyclic combinational graph);
    /// reports `(levels, max_level_width)` of the dense schedule.
    pub fn levelization(&self) -> Option<(usize, usize)> {
        self.image.schedule.as_ref().map(|s| (s.levels, s.max_width))
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.image.circuit
    }

    /// Whether `self` and `other` run one shared program image (clones of
    /// one circuit body, on one thread).
    pub fn shares_image(&self, other: &Machine) -> bool {
        Rc::ptr_eq(&self.image, &other.image)
    }

    /// The mailbox used by async activities; share it with your event
    /// loop and call [`Machine::drain`] to process queued operations.
    pub fn mailbox(&self) -> Mailbox {
        self.mailbox.clone()
    }

    /// Whether the program has terminated.
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Number of reactions executed so far.
    pub fn reactions(&self) -> u64 {
        self.seq
    }

    /// The machine's log (filled by `hop { log(...) }` atoms).
    ///
    /// Compatibility shim: messages are recorded through the
    /// [`TraceSink`] path ([`TraceEvent::Log`] reaches every attached
    /// sink); this accessor reads the built-in retaining buffer.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// Records a log message: publishes [`TraceEvent::Log`] to every
    /// attached sink, then retains the message for [`Machine::log`].
    fn record_log(&mut self, message: String) {
        if !self.sinks.is_empty() {
            self.emit_trace(TraceEvent::Log {
                seq: self.seq,
                message: &message,
            });
        }
        self.log.push(message);
    }

    /// Attaches a telemetry sink; it receives every [`TraceEvent`] from
    /// subsequent reactions. Sinks survive [`Machine::reset`] and
    /// [`Machine::hot_swap`].
    pub fn attach_sink(&mut self, sink: SharedSink) {
        self.fine_events |= sink.borrow().wants_net_events();
        self.sinks.attach(sink);
    }

    /// A clone of the machine's shared sink set. External publishers —
    /// the event-loop supervisor in particular — use this to emit
    /// activity-supervision events ([`TraceEvent::ActivityRetry`] and
    /// friends) into the same sinks the machine publishes to. The handle
    /// stays live across [`Machine::hot_swap`].
    pub fn sink_handle(&self) -> SinkSet {
        self.sinks.clone()
    }

    /// Attaches (once) and returns the built-in aggregating
    /// [`MetricsSink`]; read it with [`Machine::metrics`].
    pub fn enable_metrics(&mut self) -> Rc<RefCell<MetricsSink>> {
        if let Some(m) = &self.metrics {
            return m.clone();
        }
        let m = Rc::new(RefCell::new(MetricsSink::new()));
        self.metrics = Some(m.clone());
        self.attach_sink(m.clone());
        m
    }

    /// Percentile snapshot of the built-in metrics sink (`None` until
    /// [`Machine::enable_metrics`] is called).
    pub fn metrics(&self) -> Option<Metrics> {
        self.metrics.as_ref().map(|m| m.borrow().snapshot())
    }

    /// Flushes every attached sink (file sinks write their output here;
    /// also triggered by dropping the sink).
    pub fn finish_sinks(&mut self) {
        self.sinks.finish();
    }

    pub(crate) fn emit_trace(&self, event: TraceEvent<'_>) {
        self.sinks.emit(&event);
    }

    /// Reads a machine variable.
    pub fn var(&self, name: &str) -> Value {
        self.vars.get(name).cloned().unwrap_or(Value::Null)
    }

    /// Sets a machine variable (module-level `var`s without bindings).
    pub fn set_var(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        self.vars.insert(name.into(), value.into());
    }

    /// Registers a listener called after each successful reaction.
    pub fn on_reaction(&mut self, f: impl Fn(&Reaction) + 'static) {
        self.listeners.push(Rc::new(f));
    }

    /// Starts recording reactions (see [`Machine::take_trace`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Takes the recorded reactions.
    pub fn take_trace(&mut self) -> Vec<Reaction> {
        self.trace.take().unwrap_or_default()
    }

    /// Presence of `name` at the last reaction.
    pub fn present(&self, name: &str) -> bool {
        self.circuit()
            .signal_by_name(name)
            .map(|id| self.last_present[id.index()])
            .unwrap_or(false)
    }

    /// Current value of `name`.
    pub fn nowval(&self, name: &str) -> Value {
        self.circuit()
            .signal_by_name(name)
            .map(|id| self.sig_val[id.index()].clone())
            .unwrap_or(Value::Null)
    }

    /// Previous-instant value of `name`.
    pub fn preval(&self, name: &str) -> Value {
        self.circuit()
            .signal_by_name(name)
            .map(|id| self.sig_preval[id.index()].clone())
            .unwrap_or(Value::Null)
    }

    /// Stages an input signal for the next reaction.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownSignal`] / [`RuntimeError::NotAnInput`].
    pub fn set_input(&mut self, name: &str, value: Option<Value>) -> Result<(), RuntimeError> {
        let id = self
            .circuit()
            .signal_by_name(name)
            .ok_or_else(|| RuntimeError::UnknownSignal {
                signal: name.to_owned(),
            })?;
        if !self.circuit().signal(id).direction.is_input() {
            return Err(RuntimeError::NotAnInput {
                signal: name.to_owned(),
            });
        }
        self.staged_inputs.push((id, value));
        Ok(())
    }

    /// Stages inputs and runs one reaction — the paper's
    /// `M.react({name: value, ...})`.
    ///
    /// # Errors
    ///
    /// Propagates staging errors and reaction failures.
    pub fn react_with(
        &mut self,
        inputs: &[(&str, Value)],
    ) -> Result<Reaction, RuntimeError> {
        for (name, v) in inputs {
            self.set_input(name, Some(v.clone()))?;
        }
        self.react()
    }

    /// Runs one atomic reaction with the currently staged inputs.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Causality`] on a synchronous deadlock,
    /// [`RuntimeError::MultipleEmit`] on an uncombined double emission,
    /// [`RuntimeError::HostPanic`] when a host atom, async hook or
    /// combine function panics (the unwind is caught).
    ///
    /// Reactions are atomic under error: on any failure the machine
    /// rolls its persistent state (signal values, pre-values, variables,
    /// counters, async instances, the log) back to the pre-reaction
    /// snapshot, registers were never committed, and the machine accepts
    /// further reactions ([`Machine::is_poisoned`] stays `false`). What
    /// cannot be undone: external host side effects that already ran,
    /// messages already published to trace sinks, and the staged inputs
    /// of the failed reaction, which are consumed.
    pub fn react(&mut self) -> Result<Reaction, RuntimeError> {
        let engine = self.engine();
        let image = self.image.clone();
        // Telemetry: time the reaction only when someone is listening.
        let t0 = (!self.sinks.is_empty()).then(Instant::now);
        let swept = if engine == EngineMode::Sparse {
            // The sparse engine syncs pre-values lazily, so its rollback
            // point is the full copy rather than the swap pair `begin`
            // takes.
            if self.rollback {
                self.take_snapshot();
            }
            self.start();
            self.sparse_react(&image)
        } else {
            self.begin(&image.circuit);
            self.dense_react(&image, engine)
        };
        match swept {
            Ok(()) => Ok(self.finish(engine, t0.map(|t| t.elapsed()))),
            Err(e) => {
                self.abort(engine);
                Err(e)
            }
        }
    }

    /// Whether a mid-reaction error left the machine in a half-stabilized
    /// state. Always `false` under the default rollback regime — rollback
    /// restores the pre-reaction snapshot on every error — and only ever
    /// `true` after an error with rollback disabled
    /// ([`Machine::set_rollback`]); cleared by the next successful
    /// reaction or [`Machine::reset`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Enables/disables reaction rollback (default: enabled). Disabling
    /// is a diagnostic knob — it restores the pre-supervision behaviour
    /// where a failed reaction may leave partial state behind (and sets
    /// [`Machine::is_poisoned`]); the bench suite uses it to measure the
    /// snapshot overhead.
    pub fn set_rollback(&mut self, enabled: bool) {
        self.rollback = enabled;
    }

    /// Arms machine-level fault injection: host actions panic with
    /// probability `rate` per action, drawn from a PCG32 stream seeded
    /// with `seed` — deterministic given the seed and the reaction
    /// sequence. The injected panics exercise exactly the
    /// catch-unwind/rollback path real host bugs would take. A `rate`
    /// of 0 disarms.
    pub fn set_chaos(&mut self, seed: u64, rate: f64) {
        self.chaos = (rate > 0.0).then(|| Chaos {
            rng: Rng::seed_from_u64(seed),
            rate,
        });
    }

    /// Arms per-level activity accounting: after every reaction run on
    /// the block walker or the sparse engine, the sweep's per-level net
    /// counts and value flips (vs. the previous instant) accumulate into
    /// a [`LevelActivity`]. Quantifies the "wide-but-quiet" sweep waste
    /// the sparse engine skips; costs one extra byte-vector compare per
    /// reaction, so it is off by default.
    pub fn enable_level_activity(&mut self) {
        if self.level_activity.is_none() {
            self.level_activity = Some(LevelActivity::default());
        }
    }

    /// The accumulated per-level activity, when armed (empty until a
    /// reaction runs on a level-structured engine).
    pub fn level_activity(&self) -> Option<&LevelActivity> {
        self.level_activity.as_ref()
    }

    /// Buckets the last walk by the schedule's levels (on a cyclic
    /// circuit, one level per block). `evals` counts nets *actually
    /// evaluated*: a dense block evaluates each net of its span once,
    /// booked to the net's level, while a cyclic block iterates its
    /// members several times and books the walker's measured count to
    /// its own level, so the buckets sum to the reaction's `events`.
    /// `changed` counts nets whose committed value differs from the
    /// previous instant — the gap between the two is the quiet width the
    /// sparse engine skips. Constructive reactions have no level
    /// structure and are not tallied; sparse incremental instants tally
    /// inline (skipped levels report 0, see `sparse_incremental_sweep`).
    fn tally_level_activity(&mut self) {
        let image = self.image.clone();
        let Some(la) = &mut self.level_activity else {
            return;
        };
        let sched = &image.hybrid.sched;
        let n = image.circuit.nets().len();
        if self.prev_value.len() != n {
            self.prev_value = vec![-1; n];
        }
        let starts = &sched.level_starts;
        let levels = starts.len().saturating_sub(1);
        if la.evals.len() < levels {
            la.evals.resize(levels, 0);
            la.changed.resize(levels, 0);
        }
        let level_of = |pos: u32| starts.partition_point(|&s| s <= pos) - 1;
        for (bi, block) in image.hybrid.blocks.iter().enumerate() {
            match *block {
                Block::Dense { start, end } => {
                    for l in level_of(start)..levels {
                        if starts[l] >= end {
                            break;
                        }
                        la.evals[l] += (starts[l + 1].min(end) - starts[l].max(start)) as u64;
                    }
                }
                Block::Cyclic { start, .. } => la.evals[level_of(start)] += self.la_block_evals[bi],
            }
        }
        for l in 0..levels {
            let span = &sched.order[starts[l] as usize..starts[l + 1] as usize];
            la.changed[l] += span
                .iter()
                .filter(|&&id| self.value[id as usize] != self.prev_value[id as usize])
                .count() as u64;
        }
        self.prev_value[..n].copy_from_slice(&self.value[..n]);
    }

    /// A deterministic digest of the machine's persistent state
    /// (registers, signal values and pre-values, variables, counters,
    /// async instances, termination flag). Two machines that executed
    /// the same committed reactions digest identically; the chaos tests
    /// compare digests before and after a failed reaction to verify
    /// rollback byte-for-byte.
    pub fn state_digest(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(s, "regs:{:?};present:{:?};term:{};", self.regs, self.last_present, self.terminated);
        let _ = write!(s, "sig:[");
        for (i, info) in self.circuit().signals().iter().enumerate() {
            let _ = write!(
                s,
                "{}={:?}/{:?},",
                info.name, self.sig_val[i], self.sig_preval[i]
            );
        }
        let _ = write!(s, "];counters:{:?};vars:[", self.counters);
        let mut kv: Vec<(&String, &Value)> = self.vars.iter().collect();
        kv.sort_by_key(|(k, _)| k.as_str());
        for (k, v) in kv {
            let _ = write!(s, "{k}={v:?},");
        }
        let _ = write!(s, "];asyncs:[");
        for rt in &self.asyncs {
            let _ = write!(s, "({},{},{:?}),", rt.active, rt.instance, rt.notified);
        }
        s.push(']');
        s
    }

    /// Copies everything a failed reaction could have mutated; reuses the
    /// snapshot buffers so the steady state allocates nothing.
    pub(crate) fn take_snapshot(&mut self) {
        let snap = &mut self.snapshot;
        snap.sig_val.clone_from(&self.sig_val);
        snap.sig_preval.clone_from(&self.sig_preval);
        snap.vars.clone_from(&self.vars);
        snap.counters.clone_from(&self.counters);
        snap.asyncs.clear();
        snap.asyncs.extend(
            self.asyncs
                .iter()
                .map(|rt| (rt.active, rt.instance, rt.state.clone(), rt.notified.clone())),
        );
        snap.log_len = self.log.len();
    }

    /// Restores the pre-reaction snapshot after an error. `next_instance`
    /// is deliberately *not* restored: instance numbers stay monotonic so
    /// a host callback holding a handle from a rolled-back spawn can
    /// never collide with a later incarnation.
    pub(crate) fn restore_snapshot(&mut self) {
        let snap = &mut self.snapshot;
        std::mem::swap(&mut self.sig_val, &mut snap.sig_val);
        std::mem::swap(&mut self.sig_preval, &mut snap.sig_preval);
        std::mem::swap(&mut self.vars, &mut snap.vars);
        std::mem::swap(&mut self.counters, &mut snap.counters);
        for (rt, saved) in self.asyncs.iter_mut().zip(snap.asyncs.drain(..)) {
            let (active, instance, state, notified) = saved;
            rt.active = active;
            rt.instance = instance;
            rt.state = state;
            rt.notified = notified;
        }
        self.log.truncate(snap.log_len);
    }

    /// Swap-pair snapshot, taken by [`Machine::begin`] for every full
    /// sweep (the block walker, the constructive reference, each cohort
    /// lane): same rollback point as [`Machine::take_snapshot`] without
    /// its two `Vec<Value>` clones. The begin phase's
    /// `sig_preval ← sig_val` copy doubles as the value backup (nothing
    /// writes `sig_preval` during a sweep), and the old pre-values are
    /// parked in the snapshot by swap instead of clone. Must be called
    /// *before* that begin-phase copy.
    pub(crate) fn take_swap_snapshot(&mut self) {
        let snap = &mut self.snapshot;
        std::mem::swap(&mut snap.sig_preval, &mut self.sig_preval);
        snap.vars.clone_from(&self.vars);
        snap.counters.clone_from(&self.counters);
        snap.asyncs.clear();
        snap.asyncs.extend(
            self.asyncs
                .iter()
                .map(|rt| (rt.active, rt.instance, rt.state.clone(), rt.notified.clone())),
        );
        snap.log_len = self.log.len();
    }

    /// Rolls a failed full sweep back to the
    /// [`Machine::take_swap_snapshot`] point — the machine ends up in
    /// the exact state [`Machine::restore_snapshot`] would produce.
    pub(crate) fn restore_swap_snapshot(&mut self) {
        // `sig_preval` still holds the begin phase's copy of the
        // pre-reaction `sig_val`; the pre-reaction `sig_preval` was
        // parked in the snapshot by swap.
        self.sig_val.clone_from(&self.sig_preval);
        let snap = &mut self.snapshot;
        std::mem::swap(&mut self.sig_preval, &mut snap.sig_preval);
        std::mem::swap(&mut self.vars, &mut snap.vars);
        std::mem::swap(&mut self.counters, &mut snap.counters);
        for (rt, saved) in self.asyncs.iter_mut().zip(snap.asyncs.drain(..)) {
            let (active, instance, state, notified) = saved;
            rt.active = active;
            rt.instance = instance;
            rt.state = state;
            rt.notified = notified;
        }
        self.log.truncate(snap.log_len);
    }

    /// Captures the machine's complete persistent state as a durable,
    /// serializable [`MachineSnapshot`] — the state set of the rollback
    /// snapshot plus everything that outlives a reaction: registers,
    /// presence, termination, the reaction counter, the monotonic async
    /// instance counter, the log, the poison flag, the engine request
    /// and the exact chaos-RNG position. Loading it into a machine
    /// compiled from the same circuit ([`Machine::restore`]) reproduces
    /// [`Machine::state_digest`] byte-for-byte.
    pub fn snapshot(&self) -> MachineSnapshot {
        let mut vars: Vec<(String, Value)> = self
            .vars
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        vars.sort_by(|a, b| a.0.cmp(&b.0));
        MachineSnapshot {
            program: self.circuit().name.clone(),
            struct_hash: self.image.struct_hash(),
            engine: self.requested.map(|m| m.name().to_owned()),
            regs: self.regs.clone(),
            sig_val: self.sig_val.clone(),
            sig_preval: self.sig_preval.clone(),
            vars,
            counters: self.counters.clone(),
            last_present: self.last_present.clone(),
            terminated: self.terminated,
            seq: self.seq,
            next_instance: self.next_instance,
            log: self.log.clone(),
            poisoned: self.poisoned,
            asyncs: self
                .asyncs
                .iter()
                .map(|rt| AsyncSnapshot {
                    active: rt.active,
                    instance: rt.instance,
                    state: rt.state.borrow().clone(),
                    notified: rt.notified.clone(),
                })
                .collect(),
            chaos: self.chaos.as_ref().map(|c| {
                let (state, inc) = c.rng.state_parts();
                ChaosSnapshot {
                    state,
                    inc,
                    rate: c.rate,
                }
            }),
        }
    }

    /// Overwrites this machine's persistent state with a durable
    /// snapshot. The machine must be compiled from a structurally
    /// identical circuit — guarded by [`crate::circuit_struct_hash`], so a
    /// snapshot refuses to load into a different program. Staged inputs,
    /// staged notifications and queued mailbox operations are discarded:
    /// a restore lands exactly on a committed instant boundary.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::CircuitMismatch`] on a structural-hash skew;
    /// [`SnapshotError::Malformed`] if the snapshot's state planes do
    /// not match the circuit's dimensions.
    pub fn restore(&mut self, snap: &MachineSnapshot) -> Result<(), SnapshotError> {
        let expected = self.image.struct_hash();
        if snap.struct_hash != expected {
            return Err(SnapshotError::CircuitMismatch {
                found: (snap.program.clone(), snap.struct_hash),
                expected: (self.circuit().name.clone(), expected),
            });
        }
        if snap.regs.len() != self.regs.len()
            || snap.sig_val.len() != self.sig_val.len()
            || snap.sig_preval.len() != self.sig_val.len()
            || snap.last_present.len() != self.last_present.len()
            || snap.counters.len() != self.counters.len()
            || snap.asyncs.len() != self.asyncs.len()
        {
            return Err(SnapshotError::Malformed(
                "state plane lengths do not match the circuit".into(),
            ));
        }
        self.requested = match &snap.engine {
            None => None,
            Some(tag) => Some(tag.parse().map_err(SnapshotError::Malformed)?),
        };
        self.regs.clone_from(&snap.regs);
        self.sig_val.clone_from(&snap.sig_val);
        self.sig_preval.clone_from(&snap.sig_preval);
        self.vars = snap.vars.iter().cloned().collect();
        self.counters.clone_from(&snap.counters);
        self.last_present.clone_from(&snap.last_present);
        self.terminated = snap.terminated;
        self.seq = snap.seq;
        self.next_instance = snap.next_instance;
        self.log.clone_from(&snap.log);
        self.poisoned = snap.poisoned;
        for (rt, s) in self.asyncs.iter_mut().zip(&snap.asyncs) {
            rt.active = s.active;
            rt.instance = s.instance;
            *rt.state.borrow_mut() = s.state.clone();
            rt.notified = s.notified.clone();
        }
        self.chaos = snap.chaos.as_ref().map(|c| Chaos {
            rng: Rng::from_parts(c.state, c.inc),
            rate: c.rate,
        });
        self.staged_inputs.clear();
        self.staged_notifies.clear();
        while self.mailbox.pop().is_some() {}
        self.sparse.valid = false;
        Ok(())
    }

    /// A host-side [`AsyncHandle`] for async statement instance
    /// `async_index`, bound to its *current* instance number and shared
    /// state cell — what a spawn hook would have received. The
    /// supervisor uses this to re-wire adopted activities after a
    /// migration or recovery restore.
    pub fn async_handle(&self, async_index: usize) -> Option<AsyncHandle> {
        let rt = self.asyncs.get(async_index)?;
        Some(AsyncHandle::new(
            self.mailbox.clone(),
            async_index as u32,
            rt.instance,
            rt.state.clone(),
        ))
    }

    /// Opens a reaction under any execution strategy: zeroed
    /// per-reaction counters and, when a sink listens, `ReactionStart`.
    fn start(&mut self) {
        self.actions_run = 0;
        self.queue_hwm = 0;
        self.events = 0;
        if !self.sinks.is_empty() {
            self.emit_trace(TraceEvent::ReactionStart { seq: self.seq });
        }
    }

    /// Begin phase of a full sweep — the block walker, the constructive
    /// reference and every cohort lane: the swap-pair rollback point,
    /// [`Machine::start`], the pre-value copy and the staged inputs
    /// (values, emission counts and the presence set, `present_nets`).
    pub(crate) fn begin(&mut self, circuit: &Circuit) {
        if self.rollback {
            self.take_swap_snapshot();
        }
        self.start();
        // Any non-sparse instant invalidates the sparse baseline — the
        // shared `value` plane is about to be overwritten wholesale.
        self.sparse.valid = false;
        self.sig_preval.clone_from(&self.sig_val);
        self.emit_count.clear();
        self.emit_count.resize(circuit.signals().len(), 0);
        self.stage_inputs(circuit, None);
        self.prev_present.clear();
        // No ⊥ reset: debug builds poison the plane so a read of a net
        // not yet swept (a missing dependency edge) trips `EnvView`.
        #[cfg(debug_assertions)]
        self.value.fill(-1);
    }

    /// Finish phase shared by every execution strategy, once the sweep
    /// has committed ([`Machine::commit_all`]): builds the outputs and
    /// publishes the reaction — the trace, the listeners and, with the
    /// reaction's measured wall time when a sink listens, `ReactionEnd`.
    pub(crate) fn finish(&mut self, engine: EngineMode, took: Option<Duration>) -> Reaction {
        let image = self.image.clone();
        let outputs = image
            .out_signals
            .iter()
            .map(|(i, name)| OutputEvent {
                name: name.clone(),
                present: self.last_present[*i as usize],
                value: self.sig_val[*i as usize].clone(),
            })
            .collect();
        let reaction = Reaction {
            seq: self.seq,
            outputs,
            terminated: self.terminated,
            events: self.events,
        };
        self.seq += 1;
        if let Some(took) = took {
            self.emit_trace(TraceEvent::ReactionEnd {
                reaction: &reaction,
                stats: ReactionStats {
                    duration_ns: took.as_nanos() as u64,
                    events: self.events,
                    actions: self.actions_run,
                    queue_hwm: self.queue_hwm,
                    engine,
                },
            });
        }
        if let Some(t) = &mut self.trace {
            t.push(reaction.clone());
        }
        for k in 0..self.listeners.len() {
            let listener = self.listeners[k].clone();
            listener(&reaction);
        }
        self.poisoned = false;
        reaction
    }

    /// Rollback step shared by every execution strategy: a failed
    /// reaction restores its rollback point — the swap pair of a full
    /// sweep, the sparse engine's full copy — or, with rollback
    /// disabled, poisons the machine. Registers need no restore: a
    /// failed sweep never reaches [`Machine::commit_all`].
    pub(crate) fn abort(&mut self, engine: EngineMode) {
        if !self.rollback {
            self.poisoned = true;
            return;
        }
        if engine == EngineMode::Sparse {
            self.restore_snapshot();
        } else {
            self.restore_swap_snapshot();
        }
        self.poisoned = false;
    }

    /// Sweep and commit of the block walker or the constructive
    /// reference, after [`Machine::begin`] staged the instant.
    fn dense_react(&mut self, image: &ProgramImage, engine: EngineMode) -> Result<(), RuntimeError> {
        let mut emit_count = std::mem::take(&mut self.emit_count);
        let result = if engine == EngineMode::Constructive {
            self.constructive_fixpoint(&image.circuit, &mut emit_count)
        } else {
            self.walk(image, &mut emit_count, None)
        };
        self.emit_count = emit_count;
        result?;
        if self.level_activity.is_some() && engine == EngineMode::Levelized {
            self.tally_level_activity();
        }
        self.commit_plane(&image.circuit, false);
        Ok(())
    }

    /// Applies the staged inputs and async notifications: writes their
    /// values and emission counts (into `emit_count`) and replaces the
    /// presence set — the previous instant's nets are parked in
    /// `prev_present` for the sparse engine's delta seeding. While a sparse sweep is tracking,
    /// each value write is recorded for the lazy pre-value sync and, with
    /// `wake`, wakes the signal's `nowval`/`preval` readers.
    fn stage_inputs(&mut self, circuit: &Circuit, wake: Option<&SparseTables>) {
        debug_assert!(self.prev_present.is_empty());
        std::mem::swap(&mut self.present_nets, &mut self.prev_present);
        for &i in &self.prev_present {
            self.input_present[i as usize] = false;
        }
        let mut staged = std::mem::take(&mut self.staged_inputs);
        for (sig, val) in staged.drain(..) {
            if let Some(inet) = circuit.signal(sig).input_net {
                self.mark_present(inet.0);
            }
            if let Some(v) = val {
                let si = sig.index();
                self.sig_val[si] = v;
                self.emit_count[si] = 1;
                if self.sparse.tracking {
                    self.sparse.touched.push(si as u32);
                }
                if let Some(t) = wake {
                    // The value plane changed outside any net: wake the
                    // subscribed readers.
                    for &sub in t.sig_readers(si) {
                        self.sparse.mark_dirty(t, sub);
                    }
                }
            }
        }
        self.staged_inputs = staged;
        let mut notifies = std::mem::take(&mut self.staged_notifies);
        for (aid, v) in notifies.drain(..) {
            self.asyncs[aid.index()].notified = Some(v);
            self.mark_present(circuit.asyncs()[aid.index()].notify_net.0);
        }
        self.staged_notifies = notifies;
    }

    /// Adds an input/notify net to this instant's presence set.
    fn mark_present(&mut self, net: u32) {
        if !self.input_present[net as usize] {
            self.input_present[net as usize] = true;
            self.present_nets.push(net);
        }
    }

    /// The one commit of a full sweep — every register, presence bit
    /// and the termination flag — reading each net's value through `on`:
    /// the `value` plane ([`Machine::commit_plane`]) or a cohort lane's
    /// packed rows. With `queue_flips` (the sparse engine's rebuild
    /// instants) rewritten registers are queued to seed the next
    /// incremental instant. Runs only after the sweep's last fallible
    /// step: registers are not in the rollback snapshot.
    pub(crate) fn commit_all(
        &mut self,
        circuit: &Circuit,
        queue_flips: bool,
        on: impl Fn(usize) -> bool,
    ) {
        for (r, reg) in circuit.registers().iter().enumerate() {
            let new = on(reg.input.index());
            if queue_flips && self.regs[r] != new {
                self.sparse.pending_reg_nets.push(reg.output.0);
            }
            self.regs[r] = new;
        }
        for (s, info) in circuit.signals().iter().enumerate() {
            self.last_present[s] = on(info.status_net.index());
        }
        if let Some(t) = circuit.terminated_net {
            if on(t.index()) {
                self.terminated = true;
            }
        }
    }

    /// [`Machine::commit_all`] from the `value` plane.
    fn commit_plane(&mut self, circuit: &Circuit, queue_flips: bool) {
        let value = std::mem::take(&mut self.value);
        self.commit_all(circuit, queue_flips, |i| value[i] == 1);
        self.value = value;
    }

    /// Processes every queued mailbox operation, running one reaction per
    /// operation (notifications, `react` requests from async bodies).
    ///
    /// # Errors
    ///
    /// Stops at the first failing reaction.
    pub fn drain(&mut self) -> Result<Vec<Reaction>, RuntimeError> {
        let mut out = Vec::new();
        while let Some(op) = self.mailbox.pop() {
            match op {
                MachineOp::Notify {
                    async_id,
                    instance,
                    value,
                } => {
                    let idx = async_id as usize;
                    if idx < self.asyncs.len()
                        && self.asyncs[idx].active
                        && self.asyncs[idx].instance == instance
                    {
                        self.staged_notifies.push((AsyncId(async_id), value));
                        out.push(self.react()?);
                    }
                    // Stale notification: automatically discarded — this is
                    // the paper's "pending authentications are automatically
                    // discarded" (§2.2.4).
                }
                MachineOp::React(inputs) => {
                    for (name, v) in inputs {
                        self.set_input(&name, Some(v))?;
                    }
                    out.push(self.react()?);
                }
            }
        }
        Ok(out)
    }

    /// Restarts the machine: control state, signal values, variables,
    /// counters and the log return to their initial configuration; the
    /// mailbox, listeners and reaction counter are kept.
    pub fn reset(&mut self) -> &mut Self {
        let circuit = &self.image.circuit;
        for (reg, r) in self.regs.iter_mut().zip(circuit.registers()) {
            *reg = r.init;
        }
        for (v, s) in self.sig_val.iter_mut().zip(circuit.signals()) {
            *v = s.init.clone().unwrap_or(Value::Null);
        }
        self.sig_preval.clone_from(&self.sig_val);
        self.vars.clear();
        self.counters.fill(0.0);
        for rt in &mut self.asyncs {
            rt.active = false;
            rt.notified = None;
        }
        self.log.clear();
        self.terminated = false;
        self.poisoned = false;
        self.last_present.fill(false);
        self.staged_inputs.clear();
        self.staged_notifies.clear();
        self.sparse.valid = false;
        self
    }

    /// Lists the currently selected control points: the labels and source
    /// locations of every register that is set (pauses, halts, async
    /// waits, signal `pre` state excluded). This is the "explicit control
    /// state defined by the concurrent positions in the code where the
    /// control has stopped" that §2.3 contrasts with JavaScript's hidden
    /// state variables — made inspectable.
    pub fn selected(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, reg) in self.circuit().registers().iter().enumerate() {
            if !self.regs[i] || reg.label == "sig.pre" || reg.label == "boot" {
                continue;
            }
            let net = self.circuit().net(reg.output);
            let loc = net.loc.to_string();
            if loc == "<builder>" {
                out.push(reg.label.to_owned());
            } else {
                out.push(format!("{} at {}", reg.label, loc));
            }
        }
        out
    }

    /// Iterates over the interface signals: (name, direction,
    /// present-at-last-reaction, current value).
    pub fn signals(
        &self,
    ) -> impl Iterator<Item = (String, hiphop_core::signal::Direction, bool, Value)> + '_ {
        self.image
            .circuit
            .signals()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.direction != hiphop_core::signal::Direction::Local)
            .map(|(i, s)| {
                (
                    s.name.clone(),
                    s.direction,
                    self.last_present[i],
                    self.sig_val[i].clone(),
                )
            })
    }

    /// Dynamic reconfiguration (paper §6: "HipHop.js is dynamic at
    /// source-code level: it allows the user to partially reconfigure the
    /// program between two synchronous reactions"): replaces the program
    /// with a newly compiled circuit between reactions.
    ///
    /// Persistent signal *values* are carried over by (interface) name, as
    /// are machine variables and the log; the new program's control state
    /// starts at its boot instant (control-state transplantation across
    /// arbitrary edits is documented future work, DESIGN.md §7).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnfinalizedCircuit`] if the new circuit is not
    /// finalized; the running machine is left untouched.
    pub fn hot_swap(&mut self, circuit: Circuit) -> Result<&mut Self, RuntimeError> {
        let mut fresh = Machine::new(circuit)?;
        for (i, info) in fresh.image.clone().circuit.signals().iter().enumerate() {
            if let Some(old) = self.circuit().signal_by_name(&info.name) {
                fresh.sig_val[i] = self.sig_val[old.index()].clone();
                fresh.sig_preval[i] = self.sig_preval[old.index()].clone();
            }
        }
        fresh.vars = std::mem::take(&mut self.vars);
        fresh.log = std::mem::take(&mut self.log);
        fresh.mailbox = self.mailbox.clone();
        fresh.next_instance = self.next_instance;
        fresh.seq = self.seq;
        fresh.listeners = std::mem::take(&mut self.listeners);
        // The sink *set* moves wholesale, so handles from
        // `Machine::sink_handle` stay live across the swap.
        fresh.sinks = std::mem::take(&mut self.sinks);
        fresh.fine_events = self.fine_events;
        fresh.metrics = self.metrics.take();
        // Carry the engine *request*, not the old resolution: the new
        // circuit's program image has its own levelized schedule (or
        // none, if cyclic), so the effective engine is re-resolved
        // against it rather than reusing a stale schedule.
        fresh.requested = self.requested;
        fresh.rollback = self.rollback;
        fresh.chaos = self.chaos.take();
        // Keep activity accounting armed; accumulated per-level counts
        // carry over (levels re-bucket against the new schedule).
        fresh.level_activity = self.level_activity.take();
        *self = fresh;
        Ok(self)
    }

    // ------------------------------------------------------------------
    // Engine internals.

    /// The block walker ([`EngineMode::Levelized`], and the sparse
    /// engine's rebuild instants when `hot` is given): walks the image's
    /// schedule in condensation order, sweeping each dense block once and
    /// iterating each cyclic block to its local constructive fixpoint.
    /// Acyclic work stays O(nets); only cycles pay for ⊥-iteration, and
    /// an acyclic circuit is a single dense block.
    fn walk(
        &mut self,
        image: &ProgramImage,
        emit_count: &mut [u32],
        hot: Option<&SparseTables>,
    ) -> Result<(), RuntimeError> {
        let circuit = &image.circuit;
        let hybrid = &image.hybrid;
        let armed = self.level_activity.is_some();
        if armed {
            self.la_block_evals.clear();
            self.la_block_evals.resize(hybrid.blocks.len(), 0);
        }
        for (bi, block) in hybrid.blocks.iter().enumerate() {
            let events_before = self.events;
            match *block {
                Block::Dense { start, end } => self.sweep_range(
                    circuit,
                    &hybrid.sched,
                    emit_count,
                    start as usize..end as usize,
                    hot,
                )?,
                Block::Cyclic { start, end } => self.iterate_scc(
                    circuit,
                    &hybrid.sched,
                    emit_count,
                    start as usize..end as usize,
                )?,
            }
            if armed {
                self.la_block_evals[bi] = (self.events - events_before) as u64;
            }
        }
        Ok(())
    }

    /// Iterates one strongly connected component (positions `range` of
    /// the walker's order) with the ternary sweep rules of
    /// [`Machine::step_net`] until its local fixpoint. Only the members'
    /// `value`/`resolved` are reset: everything upstream was settled
    /// earlier in the walk. A member left ⊥ (or unresolved) is a
    /// constructive deadlock, reported like the reference engine's
    /// end-of-reaction causality check but scoped to this SCC.
    fn iterate_scc(
        &mut self,
        circuit: &Circuit,
        sched: &LevelSchedule,
        emit_count: &mut [u32],
        range: std::ops::Range<usize>,
    ) -> Result<(), RuntimeError> {
        let members = &sched.order[range];
        for &id in members {
            // Sources cannot sit on a combinational cycle, but a
            // dependency-edge SCC of a hand-built circuit may hold one.
            let i = id as usize;
            let source = self.image.class[i] == Class::Source;
            self.value[i] = if source {
                self.eval_net(circuit, sched, id, emit_count, None)? as i8
            } else {
                -1
            };
            self.resolved[i] = source;
        }
        loop {
            let mut changed = false;
            for &id in members {
                changed |= self.step_net(circuit, id as usize, emit_count)?;
            }
            if !changed {
                break;
            }
        }
        let is_stuck = |i: usize| self.value[i] < 0 || !self.resolved[i];
        let undetermined = members.iter().filter(|&&id| is_stuck(id as usize)).count();
        if undetermined > 0 {
            let mut stuck = vec![false; circuit.nets().len()];
            for &id in members {
                stuck[id as usize] = is_stuck(id as usize);
            }
            let report = analyze(circuit, &stuck, undetermined, self.seq);
            if !self.sinks.is_empty() {
                self.emit_trace(TraceEvent::CausalityFailure { report: &report });
            }
            return Err(RuntimeError::Causality {
                cycle: report.nets.clone(),
                undetermined,
                report,
            });
        }
        Ok(())
    }

    /// One dense pass over positions `range` of `sched.order`: each net
    /// is computed exactly once, all its fanins and dependencies having
    /// been written earlier in the order.
    fn sweep_range(
        &mut self,
        circuit: &Circuit,
        sched: &LevelSchedule,
        emit_count: &mut [u32],
        range: std::ops::Range<usize>,
        hot: Option<&SparseTables>,
    ) -> Result<(), RuntimeError> {
        let nets = &sched.order[range];
        for &id in nets {
            let v = self.eval_net(circuit, sched, id, emit_count, hot)?;
            self.value[id as usize] = v as i8;
        }
        self.events += nets.len();
        Ok(())
    }

    /// Sparse-engine reaction body: syncs the incremental pre-value and
    /// emission-counter planes, stages the inputs, and runs the dirty
    /// sweep — or, when the baseline is invalid, one full walk that
    /// rebuilds it — then commits through [`Machine::sparse_commit`].
    fn sparse_react(&mut self, image: &ProgramImage) -> Result<(), RuntimeError> {
        let circuit = &image.circuit;
        let t = image.sparse();
        self.sparse.ensure_allocated(circuit.nets().len(), t.levels);
        let rebuild = !self.sparse.valid;
        // Pessimistic: stays false until this instant commits, so any
        // error path (rollback restores the signal planes, but `value`
        // is left mid-sweep) forces a full rebuild.
        self.sparse.valid = false;
        self.sparse.commit_regs.clear();
        self.sparse.commit_sigs.clear();
        self.sparse.term_dirty = false;

        let armed = self.level_activity.is_some();
        if armed {
            self.sparse.level_evals.resize(t.levels, 0);
            self.sparse.level_evals.fill(0);
            self.sparse.level_changed.resize(t.levels, 0);
            self.sparse.level_changed.fill(0);
            let n = circuit.nets().len();
            if self.prev_value.len() != n {
                self.prev_value = vec![-1; n];
            }
        }

        if rebuild {
            // Dense-equivalent prologue: full pre-value sync, zeroed
            // emission counters, cleared hot/dirty bookkeeping.
            self.sig_preval.clone_from(&self.sig_val);
            self.emit_count.clear();
            self.emit_count.resize(circuit.signals().len(), 0);
            self.sparse.touched.clear();
            self.sparse.pending_reg_nets.clear();
            self.sparse.hot.clear();
            self.sparse.in_hot.fill(false);
            self.sparse.dirty.fill(false);
            for list in &mut self.sparse.level_lists {
                list.clear();
            }
        } else {
            // Incremental pre-value sync: only signals written last
            // instant can differ, and a value plane that did change
            // additionally wakes its `nowval`/`preval` subscribers.
            let mut touched = std::mem::take(&mut self.sparse.touched);
            for &s in &touched {
                let si = s as usize;
                if self.sig_val[si] != self.sig_preval[si] {
                    for &sub in t.sig_readers(si) {
                        self.sparse.mark_dirty(t, sub);
                    }
                    self.sig_preval[si].clone_from(&self.sig_val[si]);
                }
                self.emit_count[si] = 0;
            }
            touched.clear();
            self.sparse.touched = touched;
        }

        self.sparse.tracking = true;
        self.stage_inputs(circuit, (!rebuild).then_some(t));
        let mut emit_count = std::mem::take(&mut self.emit_count);
        let result = if rebuild {
            self.walk(image, &mut emit_count, Some(t))
        } else {
            self.sparse_incremental_sweep(image, t, &mut emit_count, armed)
        };
        self.sparse.tracking = false;
        self.emit_count = emit_count;
        self.prev_present.clear();
        result?;
        if rebuild && armed {
            self.tally_level_activity();
        }
        self.sparse_commit(circuit, rebuild);
        Ok(())
    }

    /// The incremental sweep: seeds the per-level worklists from changed
    /// inputs, flipped registers and the standing hot set, then
    /// propagates value changes through the circuit's CSR fanout tables
    /// in level order. Untouched levels are skipped entirely; a skipped
    /// net's baseline value is exactly what the dense sweep would
    /// recompute (fanins sit at strictly lower levels).
    fn sparse_incremental_sweep(
        &mut self,
        image: &ProgramImage,
        t: &SparseTables,
        emit_count: &mut [u32],
        armed: bool,
    ) -> Result<(), RuntimeError> {
        let circuit = &image.circuit;
        let sched = &image.hybrid.sched;
        // Seed: presence edges — both instants' staged sets, kept where
        // the new presence differs from the baseline value.
        for &id in self.prev_present.iter().chain(&self.present_nets) {
            if (self.input_present[id as usize] as i8) != self.value[id as usize] {
                self.sparse.mark_dirty(t, id);
            }
        }
        // Seed: registers rewritten by the previous commit.
        for k in 0..self.sparse.pending_reg_nets.len() {
            let id = self.sparse.pending_reg_nets[k];
            self.sparse.mark_dirty(t, id);
        }
        self.sparse.pending_reg_nets.clear();
        // Seed: the standing hot set (compacting lazily removed nets).
        let mut hot = std::mem::take(&mut self.sparse.hot);
        hot.retain(|&id| {
            if self.sparse.in_hot[id as usize] {
                self.sparse.mark_dirty(t, id);
                true
            } else {
                false
            }
        });
        self.sparse.hot = hot;

        // Propagate level by level; untouched levels are skipped whole.
        for l in 0..self.sparse.level_lists.len() {
            if self.sparse.level_lists[l].is_empty() {
                continue;
            }
            let mut list = std::mem::take(&mut self.sparse.level_lists[l]);
            // Within a level the dense sweep runs ascending net id;
            // actions must fire in exactly that order.
            list.sort_unstable();
            for &id in &list {
                let i = id as usize;
                self.sparse.dirty[i] = false;
                let v = self.eval_net(circuit, sched, id, emit_count, Some(t))?;
                self.events += 1;
                let nv = v as i8;
                if armed {
                    self.sparse.level_evals[l] += 1;
                    if self.prev_value[i] != nv {
                        self.sparse.level_changed[l] += 1;
                    }
                    self.prev_value[i] = nv;
                }
                if self.value[i] != nv {
                    self.value[i] = nv;
                    // Changed: wake value fanouts, dependency fanouts
                    // (expression readers) and pre-net subscribers —
                    // all at strictly higher levels.
                    for &(target, _) in circuit.fanouts(NetId(id)) {
                        self.sparse.mark_dirty(t, target.0);
                    }
                    for &d in circuit.dep_fanouts(NetId(id)) {
                        self.sparse.mark_dirty(t, d.0);
                    }
                    let subs = t.net_subs_start[i] as usize..t.net_subs_start[i + 1] as usize;
                    for &sub in &t.net_subs[subs] {
                        self.sparse.mark_dirty(t, sub);
                    }
                    // Deferred commit records.
                    let regs = t.regs_by_input_start[i] as usize..t.regs_by_input_start[i + 1] as usize;
                    self.sparse.commit_regs.extend_from_slice(&t.regs_by_input[regs]);
                    let sigs =
                        t.sigs_by_status_start[i] as usize..t.sigs_by_status_start[i + 1] as usize;
                    self.sparse.commit_sigs.extend_from_slice(&t.sigs_by_status[sigs]);
                    if t.terminated_net == Some(id) {
                        self.sparse.term_dirty = true;
                    }
                }
            }
            list.clear();
            self.sparse.level_lists[l] = list;
        }
        Ok(())
    }

    /// Evaluates net `id` — the one per-net evaluator of the walker and
    /// the sparse engine. Fanins are read from the `value` plane: the
    /// walker has written every one of them earlier in the order, and
    /// the sparse engine holds either this instant's value or a valid
    /// baseline there. Under the sparse engine (`hot` given) it also
    /// maintains the hot-set membership of side-effectful nets.
    #[inline(always)]
    fn eval_net(
        &mut self,
        circuit: &Circuit,
        sched: &LevelSchedule,
        id: u32,
        emit_count: &mut [u32],
        hot: Option<&SparseTables>,
    ) -> Result<bool, RuntimeError> {
        let i = id as usize;
        let v = match sched.code[i] {
            CODE_CONST0 => false,
            CODE_CONST1 => true,
            CODE_INPUT => self.input_present[i],
            CODE_REG => self.regs[sched.aux[i] as usize],
            CODE_OR => self.fold(sched, i, true),
            CODE_AND => self.fold(sched, i, false),
            CODE_TEST => {
                // Exactly one control fanin; a 0 control skips the test
                // evaluation (and its counter side effects), matching
                // the constructive engine.
                let control = self.fanin(sched.fanins(i)[0]);
                if hot.is_some_and(|t| t.needs_hot[i]) {
                    self.sparse.set_hot(id, control);
                }
                control && self.eval_test(circuit, id)
            }
            code @ (CODE_OR_EARLY | CODE_AND_EARLY | CODE_OR_LATE | CODE_AND_LATE) => {
                // EARLY's value is its gate; LATE determines to 1 only by
                // running its action — in schedule order both run the
                // action exactly when the gate is 1.
                let gate = self.fold(sched, i, matches!(code, CODE_OR_EARLY | CODE_OR_LATE));
                if hot.is_some_and(|t| t.needs_hot[i]) {
                    self.sparse.set_hot(id, gate);
                }
                if gate {
                    self.run_action(circuit, id, emit_count)?;
                }
                gate
            }
            code => unreachable!("bad opcode {code}"),
        };
        if self.fine_events {
            self.emit_trace(TraceEvent::NetStabilized {
                net: id,
                label: circuit.nets()[i].label,
                value: v,
            });
        }
        Ok(v)
    }

    /// The value of a packed `net << 1 | negated` fanin edge.
    #[inline(always)]
    fn fanin(&self, edge: u32) -> bool {
        (self.value[(edge >> 1) as usize] == 1) ^ (edge & 1 == 1)
    }

    /// Folds a gate's fanins with an early exit on the controlling value
    /// (OR: any 1 → 1; AND: any 0 → 0).
    #[inline(always)]
    fn fold(&self, sched: &LevelSchedule, i: usize, controlling: bool) -> bool {
        for &edge in sched.fanins(i) {
            if self.fanin(edge) == controlling {
                return controlling;
            }
        }
        !controlling
    }

    /// Publishes a successful sparse instant: a rebuild commits in full,
    /// an incremental instant through its deferred change records
    /// (queueing flipped registers for next-instant seeding either way);
    /// then per-level activity, and finally the baseline validity flag.
    fn sparse_commit(&mut self, circuit: &Circuit, rebuild: bool) {
        if rebuild {
            self.commit_plane(circuit, true);
        } else {
            let mut commit_regs = std::mem::take(&mut self.sparse.commit_regs);
            for &r in &commit_regs {
                let ri = r as usize;
                let reg = &circuit.registers()[ri];
                let new = self.value[reg.input.index()] == 1;
                if self.regs[ri] != new {
                    self.regs[ri] = new;
                    self.sparse.pending_reg_nets.push(reg.output.0);
                }
            }
            commit_regs.clear();
            self.sparse.commit_regs = commit_regs;
            let mut commit_sigs = std::mem::take(&mut self.sparse.commit_sigs);
            for &s in &commit_sigs {
                let si = s as usize;
                self.last_present[si] =
                    self.value[circuit.signals()[si].status_net.index()] == 1;
            }
            commit_sigs.clear();
            self.sparse.commit_sigs = commit_sigs;
            if self.sparse.term_dirty {
                if let Some(t) = circuit.terminated_net {
                    if self.value[t.index()] == 1 {
                        self.terminated = true;
                    }
                }
            }
        }
        self.sparse.valid = true;
        if let Some(la) = &mut self.level_activity {
            // A rebuild was tallied by the walker; these are zero then.
            let levels = self.sparse.level_evals.len();
            if la.evals.len() < levels {
                la.evals.resize(levels, 0);
                la.changed.resize(levels, 0);
            }
            for l in 0..levels {
                la.evals[l] += self.sparse.level_evals[l];
                la.changed[l] += self.sparse.level_changed[l];
            }
        }
    }

    /// One evaluation attempt of net `i` under ternary rules; returns
    /// whether anything changed. The walker's SCC iteration repeats it
    /// over a component's members until nothing changes.
    fn step_net(
        &mut self,
        circuit: &Circuit,
        i: usize,
        emit_count: &mut [u32],
    ) -> Result<bool, RuntimeError> {
        self.events += 1;
        if self.resolved[i] {
            return Ok(false);
        }
        let net = &circuit.nets()[i];
        let deps_ok = net.deps.iter().all(|d| self.resolved[d.index()]);
        let mut changed = false;
        match self.image.class[i] {
            Class::Source => {}
            Class::Test => {
                let f = net.fanins[0];
                let c = self.value[f.net.index()];
                if c < 0 {
                    return Ok(false);
                }
                let control = (c == 1) ^ f.negated;
                if !control {
                    self.value[i] = 0;
                    self.resolved[i] = true;
                    changed = true;
                } else if deps_ok {
                    let v = self.eval_test(circuit, i as u32);
                    self.value[i] = v as i8;
                    self.resolved[i] = true;
                    changed = true;
                }
            }
            Class::Gate | Class::Early | Class::Late => {
                // Ternary gate evaluation.
                let controlling = self.image.is_or[i];
                let mut any_controlling = false;
                let mut all_known = true;
                for f in &net.fanins {
                    let v = self.value[f.net.index()];
                    if v < 0 {
                        all_known = false;
                    } else if ((v == 1) ^ f.negated) == controlling {
                        any_controlling = true;
                    }
                }
                let value = if any_controlling {
                    Some(controlling)
                } else if all_known {
                    Some(!controlling)
                } else {
                    None
                };
                let Some(v) = value else {
                    return Ok(false);
                };
                match self.image.class[i] {
                    Class::Gate => {
                        self.value[i] = v as i8;
                        self.resolved[i] = true;
                        changed = true;
                    }
                    Class::Early => {
                        if self.value[i] < 0 {
                            self.value[i] = v as i8;
                            changed = true;
                        }
                        if !v {
                            self.resolved[i] = true;
                        } else if deps_ok {
                            self.run_action(circuit, i as u32, emit_count)?;
                            self.resolved[i] = true;
                            changed = true;
                        }
                    }
                    Class::Late => {
                        if !v {
                            self.value[i] = 0;
                            self.resolved[i] = true;
                            changed = true;
                        } else if deps_ok {
                            self.run_action(circuit, i as u32, emit_count)?;
                            self.value[i] = 1;
                            self.resolved[i] = true;
                            changed = true;
                        }
                    }
                    _ => unreachable!(),
                }
            }
        }
        Ok(changed)
    }

    fn env<'a>(&'a self, circuit: &'a Circuit) -> EnvView<'a> {
        EnvView {
            circuit,
            values: &self.value,
            sig_val: &self.sig_val,
            sig_preval: &self.sig_preval,
            vars: &self.vars,
        }
    }

    pub(crate) fn eval_test(&mut self, circuit: &Circuit, j: u32) -> bool {
        let NetKind::Test(kind) = &circuit.nets()[j as usize].kind else {
            unreachable!("fire(Test) on non-test net");
        };
        match kind {
            TestKind::Expr(e) => e.eval(&self.env(circuit)).truthy(),
            TestKind::CounterElapsed { counter, cond } => {
                if cond.eval(&self.env(circuit)).truthy() {
                    let c = &mut self.counters[counter.index()];
                    *c -= 1.0;
                    *c <= 0.0
                } else {
                    false
                }
            }
        }
    }

    /// Runs a net's action with panic isolation: the dispatch — and with
    /// it every host surface (atoms, async hooks, combine functions,
    /// emitted-value evaluation) — executes under [`guarded`], so a host
    /// panic becomes a structured [`RuntimeError::HostPanic`] that
    /// triggers reaction rollback instead of unwinding through the
    /// engine. The armed chaos injector panics here too, taking exactly
    /// the path a real host bug would.
    pub(crate) fn run_action(
        &mut self,
        circuit: &Circuit,
        j: u32,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let result = guarded(|| {
            if let Some(chaos) = &mut self.chaos {
                if chaos.rng.gen_f64() < chaos.rate {
                    std::panic::panic_any(format!(
                        "chaos: injected host panic at action net#{j}"
                    ));
                }
            }
            self.run_action_inner(circuit, j, emit_count)
        });
        match result {
            Ok(r) => r,
            Err(payload) => {
                let source_loc = circuit.nets()[j as usize].loc.to_string();
                if !self.sinks.is_empty() {
                    self.emit_trace(TraceEvent::ActivityPanic {
                        name: &source_loc,
                        payload: &payload,
                    });
                }
                Err(RuntimeError::HostPanic {
                    source_loc,
                    payload,
                })
            }
        }
    }

    fn run_action_inner(
        &mut self,
        circuit: &Circuit,
        j: u32,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let aid = circuit.nets()[j as usize]
            .action
            .expect("fire() requires an action");
        self.actions_run += 1;
        let action = &circuit.actions()[aid.index()];
        if self.fine_events {
            let kind = match action {
                Action::Emit { .. } => "emit",
                Action::Atom(_) => "atom",
                Action::CounterReset { .. } => "counter-reset",
                Action::AsyncSpawn(_) => "async-spawn",
                Action::AsyncKill(_) => "async-kill",
                Action::AsyncSuspend(_) => "async-suspend",
                Action::AsyncResume(_) => "async-resume",
                Action::AsyncDone(_) => "async-done",
            };
            self.emit_trace(TraceEvent::ActionRun { net: j, kind });
        }
        match action {
            Action::Emit { signal, value } => {
                let v = value.as_ref().map(|e| e.eval(&self.env(circuit)));
                if let Some(v) = v {
                    self.emit_value(circuit, *signal, v, emit_count)?;
                }
                Ok(())
            }
            Action::Atom(body) => {
                match body {
                    AtomBody::Assign(var, e) => {
                        let v = e.eval(&self.env(circuit));
                        self.vars.insert(var.clone(), v);
                    }
                    AtomBody::Log(e) => {
                        let v = e.eval(&self.env(circuit));
                        self.record_log(v.to_display_string());
                    }
                    AtomBody::Host { f, .. } => {
                        let f = f.clone();
                        // Host atoms append to a scratch log so the sinks
                        // see each message too.
                        let mut scratch = Vec::new();
                        let mut view = AtomView {
                            circuit,
                            values: &self.value,
                            sig_val: &self.sig_val,
                            sig_preval: &self.sig_preval,
                            vars: &mut self.vars,
                            log: &mut scratch,
                        };
                        f(&mut view);
                        for message in scratch {
                            self.record_log(message);
                        }
                    }
                }
                Ok(())
            }
            Action::CounterReset { counter, value } => {
                let v = value.eval(&self.env(circuit)).as_num();
                self.counters[counter.index()] = v.floor();
                Ok(())
            }
            Action::AsyncSpawn(id) => {
                self.next_instance += 1;
                let instance = self.next_instance;
                {
                    let rt = &mut self.asyncs[id.index()];
                    rt.active = true;
                    rt.instance = instance;
                    rt.state = Rc::new(RefCell::new(Value::Null));
                    rt.notified = None;
                }
                self.emit_async_event(*id, instance, AsyncPhase::Spawn);
                self.call_hook(circuit, *id, HookKind::Spawn);
                Ok(())
            }
            Action::AsyncKill(id) => {
                if self.asyncs[id.index()].active {
                    let instance = self.asyncs[id.index()].instance;
                    self.emit_async_event(*id, instance, AsyncPhase::Kill);
                    self.call_hook(circuit, *id, HookKind::Kill);
                    self.asyncs[id.index()].active = false;
                }
                Ok(())
            }
            Action::AsyncSuspend(id) => {
                if self.asyncs[id.index()].active {
                    let instance = self.asyncs[id.index()].instance;
                    self.emit_async_event(*id, instance, AsyncPhase::Suspend);
                    self.call_hook(circuit, *id, HookKind::Suspend);
                }
                Ok(())
            }
            Action::AsyncResume(id) => {
                if self.asyncs[id.index()].active {
                    let instance = self.asyncs[id.index()].instance;
                    self.emit_async_event(*id, instance, AsyncPhase::Resume);
                    self.call_hook(circuit, *id, HookKind::Resume);
                }
                Ok(())
            }
            Action::AsyncDone(id) => {
                let v = self.asyncs[id.index()].notified.take().unwrap_or(Value::Null);
                let instance = self.asyncs[id.index()].instance;
                self.emit_async_event(*id, instance, AsyncPhase::Done);
                self.asyncs[id.index()].active = false;
                if let Some(sig) = circuit.asyncs()[id.index()].signal {
                    self.emit_value(circuit, sig, v, emit_count)?;
                }
                Ok(())
            }
        }
    }

    fn emit_async_event(&self, id: AsyncId, instance: u64, phase: AsyncPhase) {
        if !self.sinks.is_empty() {
            self.emit_trace(TraceEvent::AsyncLifecycle {
                async_id: id.index() as u32,
                instance,
                phase,
            });
        }
    }

    fn emit_value(
        &mut self,
        circuit: &Circuit,
        sig: SignalId,
        v: Value,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let si = sig.index();
        if emit_count[si] == 0 {
            self.sig_val[si] = v;
        } else {
            match &circuit.signal(sig).combine {
                Some(c) => {
                    let merged = c.apply(&self.sig_val[si], &v);
                    self.sig_val[si] = merged;
                }
                None => {
                    return Err(RuntimeError::MultipleEmit {
                        signal: circuit.signal(sig).name.clone(),
                    })
                }
            }
        }
        emit_count[si] += 1;
        if self.sparse.tracking {
            // Sparse sweep in flight: remember the write for the lazy
            // pre-value sync and wake `nowval`/`preval` readers.
            self.sparse.touched.push(si as u32);
            let t = self.image.sparse();
            for &sub in t.sig_readers(si) {
                self.sparse.mark_dirty(t, sub);
            }
        }
        Ok(())
    }

    fn call_hook(&mut self, circuit: &Circuit, id: AsyncId, kind: HookKind) {
        let info = &circuit.asyncs()[id.index()];
        let hook = match kind {
            HookKind::Spawn => info.spec.on_spawn.clone(),
            HookKind::Kill => info.spec.on_kill.clone(),
            HookKind::Suspend => info.spec.on_suspend.clone(),
            HookKind::Resume => info.spec.on_resume.clone(),
        };
        let Some(hook) = hook else { return };
        let rt = &self.asyncs[id.index()];
        let handle = AsyncHandle::new(self.mailbox.clone(), id.0, rt.instance, rt.state.clone());
        let env = self.env(circuit);
        let mut ctx = AsyncCtx {
            handle,
            env: &env,
        };
        (hook.f)(&mut ctx);
    }
}

#[derive(Debug, Clone, Copy)]
enum HookKind {
    Spawn,
    Kill,
    Suspend,
    Resume,
}
