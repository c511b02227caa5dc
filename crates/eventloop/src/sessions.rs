//! The sharded multi-session server: many reactive machines, one pool.
//!
//! The paper's flagship deployment (Skini, §4.2) multiplexes *audiences
//! of hundreds of concurrent participants*, each driving their own
//! reactive session, behind one orchestrating server — the shape the
//! companion multitier paper calls "many clients, one Hop server". A
//! [`SessionPool`] owns N shards; each shard is a worker thread with its
//! own virtual-clock [`EventLoop`] and a `SessionId → Machine` map.
//! Sessions are hash-routed to shards, driven by batched input events:
//! [`SessionPool::inject`] buffers `(session, signal, value)` triples and
//! [`SessionPool::tick`] sweeps every shard in parallel, running one
//! reaction per session and draining per-session output batches.
//!
//! # Threading model
//!
//! [`Machine`] is deliberately single-threaded (`Rc`-based sinks,
//! listeners and async hooks), so machines never cross threads: each
//! shard *constructs its own machines* from a `Send + Sync` factory
//! closure and everything that flows over the command channels —
//! [`SessionId`], signal names, [`Value`]s, [`OutputEvent`]s, metric
//! snapshots — is plain `Send` data.
//!
//! # Isolation guarantees
//!
//! Reactions are atomic under error (machine rollback, PR3): a session
//! whose reaction fails — injected host panic, causality error — rolls
//! back to its pre-reaction snapshot and stays serviceable, and its
//! shard-mates are untouched (their machines share nothing but the
//! shard's clock and metrics sink). The pool records the fault in the
//! [`TickReport`] and counts it in the shard's roll-up; with rollback
//! disabled a poisoned session is quarantined (skipped from then on)
//! without taking down its shard.
//!
//! # Durability
//!
//! [`SessionPool::snapshot`] serializes every session — machine state
//! planes, chaos RNG position, live supervision runs — into one
//! versioned [`hiphop_runtime::PoolSnapshot`]; [`SessionPool::restore`]
//! rebuilds it onto a fresh pool of **any** shard count, verifying every
//! session's digest against the recorded hash. Crash recovery composes
//! a restore with [`SessionPool::replay`] anchored at the snapshot
//! (`ReplayOptions::from_snapshot`), re-driving only the journal suffix.
//! [`SessionPool::migrate`] moves one live session between shards —
//! bytes move, never machines — and [`Rebalancer`] plans such moves off
//! skewed shards from [`PoolMetrics`].

use crate::supervisor::Supervisor;
use crate::{Driver, EventLoop};
use hiphop_core::value::Value;
use hiphop_runtime::flight::{
    digest_hash, DigestMismatch, Recorder, RecorderConfig, RecordedInput, Recording,
    ReplayOptions, ReplayReport,
};
use hiphop_runtime::snapshot::{PoolSnapshot, SessionSnapshot, SNAPSHOT_FORMAT_VERSION};
use hiphop_runtime::telemetry::{shared, SpanKind, SpanRecord};
use hiphop_runtime::{
    cohort_key, react_cohort, CohortWidth, EngineMode, LevelActivity, Machine, MetricsSink,
    OutputEvent, PoolMetrics, Reaction, RuntimeError, ShardRollup,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Distinct injected signal names [`SessionPool::inject`] interns before
/// it starts over.
const MAX_INTERNED_NAMES: usize = 4096;

/// Stable identifier of one session in a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Builds a session's machine on its shard thread. Fallible so callers
/// can surface compile errors per session instead of panicking a shard.
pub type SessionFactory = dyn Fn(SessionId) -> Result<Machine, String> + Send + Sync;

/// What a shard hands the rich factory ([`SessionPool::new_with`]) when
/// building a session.
pub struct SessionCtx<'a> {
    /// The shard's event loop — shared by every session on the shard,
    /// and the clock any [`Supervisor`] for this session must run on.
    pub el: &'a Rc<RefCell<EventLoop>>,
}

/// A built session: the machine plus (optionally) the supervisor
/// orchestrating its async activities. The pool needs the supervisor to
/// snapshot, export and adopt supervision state during checkpoints and
/// live migration; plain-factory pools ([`SessionPool::new`]) carry
/// `None` and snapshot machines only.
pub struct SessionBuild {
    /// The session's reactive machine.
    pub machine: Machine,
    /// The supervisor driving the machine's supervised activities, if
    /// any. Must be built over [`SessionCtx::el`].
    pub supervisor: Option<Rc<Supervisor>>,
}

/// The rich session factory: builds a machine *and* its supervision
/// plumbing on the shard thread. Restores call it too (then overwrite
/// the fresh machine's state), so it must be deterministic in `id`.
pub type RichSessionFactory =
    dyn Fn(SessionId, &SessionCtx<'_>) -> Result<SessionBuild, String> + Send + Sync;

/// SplitMix64 — the pool's deterministic router. `std`'s `HashMap`
/// hasher is randomly keyed per process, which would make shard
/// assignment (and therefore every metrics table) nondeterministic.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// One session's committed outputs for one tick (one entry per reaction
/// the session ran this tick: the swept reaction plus any mailbox
/// follow-ups).
#[derive(Debug, Clone)]
pub struct SessionOutputs {
    /// The session.
    pub session: SessionId,
    /// Output snapshots, exactly as [`hiphop_runtime::Reaction::outputs`].
    pub outputs: Vec<OutputEvent>,
    /// Whether the session's program has terminated.
    pub terminated: bool,
}

/// A failed (rolled-back) reaction inside a tick.
#[derive(Debug, Clone)]
pub struct SessionFault {
    /// The session whose reaction failed.
    pub session: SessionId,
    /// Rendered error.
    pub error: String,
    /// Whether the session was quarantined (poisoned with rollback
    /// disabled); `false` means it rolled back and stays serviceable.
    pub quarantined: bool,
}

/// What one [`SessionPool::tick`] observed across every shard.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Tick number (0-based).
    pub tick: u64,
    /// Per-session output batches, ordered by session id.
    pub outputs: Vec<SessionOutputs>,
    /// Failed reactions, ordered by session id.
    pub faults: Vec<SessionFault>,
    /// Committed reactions this tick.
    pub reactions: usize,
    /// Sessions currently quarantined (poisoned, skipped by the sweep)
    /// across the reporting shards. Together with `outputs` this
    /// accounts for every opened session, so tick totals stay
    /// consistent with [`PoolMetrics`] roll-ups, which count live
    /// sessions only.
    pub quarantined: usize,
    /// Slowest shard's reaction time this tick, microseconds (the
    /// tick's critical path — shards sweep concurrently).
    pub critical_path_us: f64,
}

impl TickReport {
    /// The output batch for `session`, if it reacted this tick.
    pub fn session(&self, session: SessionId) -> Option<&SessionOutputs> {
        self.outputs.iter().find(|o| o.session == session)
    }
}

/// One injected input: target session, interned signal name, value.
type Input = (SessionId, Arc<str>, Value);

/// One session's tick outcome: its output batch and how many reactions
/// the batch folds, or the error that rolled the session back.
type Batch = Result<(SessionOutputs, usize), RuntimeError>;

/// Runs one session's reaction with its already staged inputs, plus any
/// synchronously drained mailbox follow-ups, as one output batch (what
/// [`Driver::react`] returns, without its per-call vectors): the first
/// reaction's outputs vector becomes the batch's and later ones are
/// moved in. Returns the batch and how many reactions it folds; a drain
/// error fails the whole batch, as in `Driver::react`.
fn react_batch(machine: &mut Machine, session: SessionId) -> Batch {
    let first = machine.react()?;
    let more = machine.drain()?;
    Ok(fold_batch(session, first, more))
}

/// Folds a committed reaction and its drained follow-ups into one batch.
fn fold_batch(session: SessionId, first: Reaction, more: Vec<Reaction>) -> (SessionOutputs, usize) {
    let reactions = 1 + more.len();
    let mut batch = SessionOutputs {
        session,
        outputs: first.outputs,
        terminated: first.terminated,
    };
    for r in more {
        batch.terminated |= r.terminated;
        batch.outputs.extend(r.outputs);
    }
    (batch, reactions)
}

/// Stages one session's inputs — the run of `inputs` (sorted by session)
/// starting at `*cursor` — moving the values out. Inputs addressed to
/// sessions below `session` (closed or unknown ones) are skipped. Stops
/// at the first staging error, leaving the inputs staged so far in
/// place, exactly as [`Machine::react_with`] does.
fn stage_inputs(
    machine: &mut Machine,
    session: SessionId,
    inputs: &mut [Input],
    cursor: &mut usize,
) -> Result<(), RuntimeError> {
    while *cursor < inputs.len() && inputs[*cursor].0 < session {
        *cursor += 1;
    }
    let mut staged = Ok(());
    while *cursor < inputs.len() && inputs[*cursor].0 == session {
        let (_, name, value) = &mut inputs[*cursor];
        *cursor += 1;
        if staged.is_ok() {
            staged = machine.set_input(name, Some(std::mem::take(value)));
        }
    }
    staged
}

// ---------------------------------------------------------------------------
// Shard worker protocol. Every payload is Send; machines never cross.

enum Cmd {
    /// Build machines for the given sessions and run their boot
    /// reactions. Replies with the boot batch — a failed boot reaction
    /// rolls back and is reported as a fault; only factory errors are
    /// fatal.
    Open(Vec<SessionId>, Sender<Result<ShardTick, String>>),
    /// Run one reaction per session with the batched inputs, then
    /// advance the shard clock. The reply goes out on the shard's
    /// long-lived tick channel ([`ShardHandle::ticks`]).
    Tick(Vec<Input>),
    /// State digests of every live session (for isolation tests and
    /// flight-recorder checkpoints).
    Digests(Sender<Vec<(SessionId, String)>>),
    /// Metrics roll-up snapshot.
    Metrics(Sender<ShardRollup>),
    /// Observability knobs: span tracing (timestamps against the shared
    /// `epoch`) and per-level sweep activity counters (applied to
    /// sessions opened afterwards), plus the cohort execution mode.
    Config {
        tracing: bool,
        level_activity: bool,
        epoch: Instant,
        cohort: Option<CohortWidth>,
        engine: Option<EngineMode>,
        reply: Sender<()>,
    },
    /// Close (drop) the given sessions. Replies with how many existed.
    Close(Vec<SessionId>, Sender<usize>),
    /// Serialize every session (machine + supervision state) for a pool
    /// checkpoint. Non-destructive: sessions keep running.
    Snapshot(Sender<Vec<SessionSnapshot>>),
    /// Fast-forward the shard clock to `now_ms`, then rebuild the given
    /// sessions from their snapshots: factory build (no boot reaction),
    /// state restore, supervision adoption, per-session digest check.
    Restore {
        now_ms: u64,
        sessions: Vec<SessionSnapshot>,
        reply: Sender<Result<usize, String>>,
    },
    /// Migration source: serialize one session, tear down its local
    /// supervision runs (timers cleared, cancel hooks run), drop it.
    Extract(SessionId, Sender<Result<Box<SessionSnapshot>, String>>),
    /// Migration target: rebuild one session from its snapshot. Shard
    /// clocks advance in lockstep, so no fast-forward is needed.
    Adopt(Box<SessionSnapshot>, Sender<Result<(), String>>),
    Shutdown,
}

struct ShardTick {
    outputs: Vec<SessionOutputs>,
    faults: Vec<SessionFault>,
    reactions: usize,
    /// Sessions quarantined on this shard as of this sweep.
    quarantined: usize,
    busy_us: f64,
    /// Sweep + reaction spans from this shard's tick (empty unless
    /// tracing is on). Sweep spans arrive with `parent == 0`; the pool
    /// re-parents them under its tick span.
    spans: Vec<SpanRecord>,
}

struct ShardHandle {
    tx: Sender<Cmd>,
    /// Tick replies, one per [`Cmd::Tick`], in order; reused every tick.
    ticks: Receiver<ShardTick>,
    join: Option<JoinHandle<()>>,
}

/// Per-shard worker state — lives entirely on the shard thread.
struct ShardState {
    index: usize,
    tick_ms: u64,
    el: Rc<RefCell<EventLoop>>,
    sessions: BTreeMap<SessionId, Slot>,
    sink: Rc<RefCell<MetricsSink>>,
    rollbacks: u64,
    quarantined: usize,
    factory: Arc<RichSessionFactory>,
    // Observability (Cmd::Config): span tracing against the pool's
    // epoch, a shard-unique span id sequence, and level-activity arming
    // for newly opened sessions.
    tracing: bool,
    level_activity: bool,
    epoch: Instant,
    span_seq: u64,
    /// Cohort execution mode: when set, each tick groups the shard's
    /// cohort-eligible sessions by [`cohort_key`] and advances every
    /// group through one bit-parallel sweep instead of N scalar ones.
    cohort: Option<CohortWidth>,
    /// Engine override applied to every session (current and future);
    /// `None` keeps whatever the factory selected.
    engine: Option<EngineMode>,
}

struct Slot {
    driver: Driver,
    quarantined: bool,
    /// The supervisor built by a rich factory, for supervision-state
    /// snapshot/export/adopt; `None` under the plain machine factory.
    supervisor: Option<Rc<Supervisor>>,
}

impl ShardState {
    /// Shard-unique span ids: shard `k` allocates in `(k+1) << 40 | seq`,
    /// so ids never collide across shards or with the pool's tick spans.
    fn next_span_id(&mut self) -> u64 {
        self.span_seq += 1;
        ((self.index as u64 + 1) << 40) | self.span_seq
    }

    fn open(&mut self, ids: Vec<SessionId>) -> Result<ShardTick, String> {
        let mut out = ShardTick {
            outputs: Vec::new(),
            faults: Vec::new(),
            reactions: 0,
            quarantined: 0,
            busy_us: 0.0,
            spans: Vec::new(),
        };
        let t0 = std::time::Instant::now();
        for id in ids {
            let build = (self.factory)(id, &SessionCtx { el: &self.el })
                .map_err(|e| format!("shard {}: {id}: {e}", self.index))?;
            let mut machine = build.machine;
            if let Some(mode) = self.engine {
                // Applied before the boot reaction so even instant 0
                // runs under the requested engine (a cyclic circuit
                // resolves it to the nearest capable one).
                let _ = machine.set_engine(mode);
            }
            machine.attach_sink(self.sink.clone());
            if self.level_activity {
                machine.enable_level_activity();
            }
            let mut quarantined = false;
            // A failed boot reaction rolls back like any other fault: the
            // session stays open (un-booted — the next tick runs its
            // first instant) unless the machine is poisoned.
            match react_batch(&mut machine, id) {
                Ok((batch, reactions)) => {
                    out.reactions += reactions;
                    out.outputs.push(batch);
                }
                Err(e) => {
                    self.rollbacks += 1;
                    quarantined = machine.is_poisoned();
                    if quarantined {
                        self.quarantined += 1;
                    }
                    out.faults.push(SessionFault {
                        session: id,
                        error: format!("boot: {e}"),
                        quarantined,
                    });
                }
            }
            let driver = Driver {
                machine: Rc::new(RefCell::new(machine)),
                el: self.el.clone(),
            };
            self.sessions.insert(
                id,
                Slot {
                    driver,
                    quarantined,
                    supervisor: build.supervisor,
                },
            );
        }
        out.quarantined = self.quarantined;
        out.busy_us = t0.elapsed().as_nanos() as f64 / 1e3;
        Ok(out)
    }

    fn tick(&mut self, mut inputs: Vec<Input>) -> ShardTick {
        // Stable: a session's inputs keep their injection order. The
        // sweeps below walk the sorted batch alongside the (id-ordered)
        // session map.
        inputs.sort_by_key(|input| input.0);
        let mut out = ShardTick {
            outputs: Vec::new(),
            faults: Vec::new(),
            reactions: 0,
            quarantined: 0,
            busy_us: 0.0,
            spans: Vec::new(),
        };
        // When tracing, the sweep span is allocated up front so the
        // per-session reaction spans can parent to it; its timing is
        // patched in at the end.
        let sweep_span = self.tracing.then(|| {
            (
                self.next_span_id(),
                self.epoch.elapsed().as_micros() as u64,
            )
        });
        let t0 = std::time::Instant::now();
        if let Some(width) = self.cohort {
            // Bit-parallel sweep: eligible sessions advance in lockstep
            // cohorts; per-reaction spans are not emitted (the sweep
            // span still is — cohorts have no per-session wall time).
            self.sweep_cohort(&mut inputs, width, &mut out);
        } else {
            // Local copies: the loop holds `self.sessions` mutably, so
            // span ids come from a local sequence written back
            // afterwards.
            let shard_tag = (self.index as u64 + 1) << 40;
            let mut span_seq = self.span_seq;
            let mut cursor = 0;
            for (&id, slot) in &mut self.sessions {
                if slot.quarantined {
                    continue;
                }
                let span_start = sweep_span.map(|_| self.epoch.elapsed().as_micros() as u64);
                let reacted = {
                    let mut machine = slot.driver.machine.borrow_mut();
                    stage_inputs(&mut machine, id, &mut inputs, &mut cursor)
                        .and_then(|()| react_batch(&mut machine, id))
                };
                if let (Some((sweep_id, _)), Some(ts_us)) = (sweep_span, span_start) {
                    let end = self.epoch.elapsed().as_micros() as u64;
                    span_seq += 1;
                    let span_id = shard_tag | span_seq;
                    out.spans.push(SpanRecord {
                        id: span_id,
                        parent: sweep_id,
                        name: id.to_string(),
                        kind: SpanKind::Reaction,
                        shard: self.index as u32,
                        ts_us,
                        dur_us: (end - ts_us).max(1),
                    });
                }
                self.span_seq = span_seq;
                match reacted {
                    Ok((batch, reactions)) => {
                        out.reactions += reactions;
                        out.outputs.push(batch);
                    }
                    Err(e) => {
                        // The failed reaction rolled back: the session's
                        // digest is its pre-reaction digest and
                        // shard-mates never observe the fault. Quarantine
                        // only the (rollback-disabled) poisoned case.
                        self.rollbacks += 1;
                        let quarantined = slot.driver.machine.borrow().is_poisoned();
                        if quarantined {
                            slot.quarantined = true;
                            self.quarantined += 1;
                        }
                        out.faults.push(SessionFault {
                            session: id,
                            error: e.to_string(),
                            quarantined,
                        });
                    }
                }
            }
        }
        // Advance the shard's virtual clock and drain any timer-driven
        // mailbox work (async completions, supervised retries).
        self.el.borrow_mut().advance_by(self.tick_ms);
        for (&id, slot) in &mut self.sessions {
            if slot.quarantined {
                continue;
            }
            let drained = slot.driver.machine.borrow_mut().drain();
            match drained {
                Ok(mut reactions) if !reactions.is_empty() => {
                    let first = reactions.remove(0);
                    let (batch, n) = fold_batch(id, first, reactions);
                    out.reactions += n;
                    out.outputs.push(batch);
                }
                Ok(_) => {}
                Err(e) => {
                    self.rollbacks += 1;
                    let quarantined = slot.driver.machine.borrow().is_poisoned();
                    if quarantined {
                        slot.quarantined = true;
                        self.quarantined += 1;
                    }
                    out.faults.push(SessionFault {
                        session: id,
                        error: e.to_string(),
                        quarantined,
                    });
                }
            }
        }
        out.quarantined = self.quarantined;
        out.busy_us = t0.elapsed().as_nanos() as f64 / 1e3;
        if let Some((sweep_id, sweep_ts)) = sweep_span {
            let end = self.epoch.elapsed().as_micros() as u64;
            out.spans.push(SpanRecord {
                id: sweep_id,
                parent: 0, // re-parented to the pool's tick span
                name: format!("shard {}", self.index),
                kind: SpanKind::Sweep,
                shard: self.index as u32,
                ts_us: sweep_ts,
                dur_us: (end - sweep_ts).max(1),
            });
        }
        out
    }

    /// One cohort-mode sweep: stages the batched inputs, groups the
    /// shard's eligible sessions by circuit identity ([`cohort_key`])
    /// and advances each group through a single bit-parallel sweep
    /// ([`react_cohort`]); ineligible sessions (non-levelized engines,
    /// fine-grained observability armed) take the scalar path for the
    /// tick. Outcome handling — outputs, synchronously drained mailbox
    /// follow-ups, faults, rollback/quarantine bookkeeping — matches the
    /// scalar sweep exactly, so cohort mode is a pure execution
    /// strategy; the only observable difference is telemetry
    /// granularity (no per-reaction spans inside a cohort).
    fn sweep_cohort(&mut self, inputs: &mut [Input], width: CohortWidth, out: &mut ShardTick) {
        // Stage inputs up front (the scalar path stages just before each
        // reaction). A staging error faults the session and it skips
        // this tick's reaction, exactly as in the scalar path.
        let mut groups: BTreeMap<u64, Vec<SessionId>> = BTreeMap::new();
        let mut scalars: Vec<SessionId> = Vec::new();
        let mut staging_faults: Vec<(SessionId, String)> = Vec::new();
        let mut cursor = 0;
        for (&id, slot) in &self.sessions {
            if slot.quarantined {
                continue;
            }
            let mut machine = slot.driver.machine.borrow_mut();
            match stage_inputs(&mut machine, id, inputs, &mut cursor) {
                Err(e) => staging_faults.push((id, e.to_string())),
                Ok(()) => match cohort_key(&machine) {
                    Some(key) => groups.entry(key).or_default().push(id),
                    None => scalars.push(id),
                },
            }
        }
        for (id, error) in staging_faults {
            self.rollbacks += 1;
            out.faults.push(SessionFault {
                session: id,
                error,
                quarantined: false,
            });
        }
        for ids in groups.into_values() {
            let mut outcomes: Vec<(SessionId, Batch)> = Vec::with_capacity(ids.len());
            {
                let mut borrows: Vec<std::cell::RefMut<'_, Machine>> = ids
                    .iter()
                    .map(|id| self.sessions[id].driver.machine.borrow_mut())
                    .collect();
                let mut lanes: Vec<&mut Machine> =
                    borrows.iter_mut().map(|b| &mut **b).collect();
                let results = react_cohort(&mut lanes, width);
                drop(lanes);
                for ((id, result), machine) in
                    ids.iter().zip(results).zip(borrows.iter_mut())
                {
                    // Mirror `Driver::react`: the committed reaction plus
                    // any synchronously drained mailbox follow-ups form
                    // one batch, and a drain error faults the whole
                    // batch.
                    let reacted =
                        result.and_then(|r| machine.drain().map(|more| fold_batch(*id, r, more)));
                    outcomes.push((*id, reacted));
                }
            }
            for (id, reacted) in outcomes {
                self.report_outcome(id, reacted, out);
            }
        }
        for id in scalars {
            let reacted = react_batch(&mut self.sessions[&id].driver.machine.borrow_mut(), id);
            self.report_outcome(id, reacted, out);
        }
    }

    /// Folds one session's reaction outcome into the tick report, with
    /// the scalar sweep's rollback/quarantine bookkeeping.
    fn report_outcome(
        &mut self,
        id: SessionId,
        reacted: Batch,
        out: &mut ShardTick,
    ) {
        match reacted {
            Ok((batch, reactions)) => {
                out.reactions += reactions;
                out.outputs.push(batch);
            }
            Err(e) => {
                self.rollbacks += 1;
                let slot = self.sessions.get_mut(&id).expect("live session");
                let quarantined = slot.driver.machine.borrow().is_poisoned();
                if quarantined {
                    slot.quarantined = true;
                    self.quarantined += 1;
                }
                out.faults.push(SessionFault {
                    session: id,
                    error: e.to_string(),
                    quarantined,
                });
            }
        }
    }

    fn close(&mut self, ids: Vec<SessionId>) -> usize {
        let mut closed = 0;
        for id in ids {
            if let Some(slot) = self.sessions.remove(&id) {
                if slot.quarantined {
                    self.quarantined -= 1;
                }
                closed += 1;
            }
        }
        closed
    }

    /// Serializes every session on this shard. Non-destructive.
    fn snapshot_sessions(&self) -> Vec<SessionSnapshot> {
        self.sessions
            .iter()
            .map(|(&id, slot)| self.snapshot_one(id, slot))
            .collect()
    }

    fn snapshot_one(&self, id: SessionId, slot: &Slot) -> SessionSnapshot {
        let m = slot.driver.machine.borrow();
        SessionSnapshot {
            session: id.0,
            quarantined: slot.quarantined,
            digest: digest_hash(&m.state_digest()),
            machine: m.snapshot(),
            activities: slot
                .supervisor
                .as_ref()
                .map(|s| s.snapshot_activities(&self.el.borrow()))
                .unwrap_or_default(),
        }
    }

    /// Rebuilds one session from its snapshot: factory build (no boot
    /// reaction), machine restore, supervision adoption, then a digest
    /// check against the hash the snapshot recorded at capture time.
    fn restore_one(&mut self, snap: &SessionSnapshot) -> Result<(), String> {
        let id = SessionId(snap.session);
        let build = (self.factory)(id, &SessionCtx { el: &self.el })
            .map_err(|e| format!("shard {}: {id}: {e}", self.index))?;
        let mut machine = build.machine;
        machine.attach_sink(self.sink.clone());
        if self.level_activity {
            machine.enable_level_activity();
        }
        machine
            .restore(&snap.machine)
            .map_err(|e| format!("{id}: {e}"))?;
        let driver = Driver {
            machine: Rc::new(RefCell::new(machine)),
            el: self.el.clone(),
        };
        match (&build.supervisor, snap.activities.is_empty()) {
            (Some(sup), _) => {
                let m = driver.machine.borrow();
                let mut el = self.el.borrow_mut();
                sup.adopt(&mut el, &m, &snap.activities)
                    .map_err(|e| format!("{id}: {e}"))?;
            }
            (None, false) => {
                return Err(format!(
                    "{id}: snapshot carries {} supervised activity(ies) but the factory \
                     built no supervisor",
                    snap.activities.len()
                ));
            }
            (None, true) => {}
        }
        let got = digest_hash(&driver.machine.borrow().state_digest());
        if got != snap.digest {
            return Err(format!(
                "{id}: digest mismatch after restore: snapshot recorded {}, machine \
                 digests to {got}",
                snap.digest
            ));
        }
        if snap.quarantined {
            self.quarantined += 1;
        }
        self.sessions.insert(
            id,
            Slot {
                driver,
                quarantined: snap.quarantined,
                supervisor: build.supervisor,
            },
        );
        Ok(())
    }

    fn restore_shard(
        &mut self,
        now_ms: u64,
        snaps: Vec<SessionSnapshot>,
    ) -> Result<usize, String> {
        let now = self.el.borrow().now();
        if now_ms < now {
            return Err(format!(
                "shard {}: clock is at {now} ms, cannot rewind to {now_ms} ms",
                self.index
            ));
        }
        // Fast-forward the (timer-less) fresh clock first, so adopted
        // retry/timeout delays schedule relative to the snapshot's
        // virtual time.
        self.el.borrow_mut().advance_by(now_ms - now);
        let n = snaps.len();
        for snap in &snaps {
            self.restore_one(snap)?;
        }
        Ok(n)
    }

    /// Migration source side: serialize, tear down, drop.
    fn extract(&mut self, id: SessionId) -> Result<SessionSnapshot, String> {
        let (mut snap, sup) = {
            let slot = self
                .sessions
                .get(&id)
                .ok_or_else(|| format!("shard {}: {id}: no such session", self.index))?;
            (self.snapshot_one(id, slot), slot.supervisor.clone())
        };
        // Export (not merely snapshot) the supervision runs: the source
        // shard's timers are cleared and cancel hooks run, so abandoned
        // attempts release local resources before the session leaves.
        if let Some(sup) = sup {
            snap.activities = sup.export(&mut self.el.borrow_mut());
        }
        let slot = self.sessions.remove(&id).expect("present: checked above");
        if slot.quarantined {
            self.quarantined -= 1;
        }
        Ok(snap)
    }

    fn digests(&self) -> Vec<(SessionId, String)> {
        self.sessions
            .iter()
            .filter(|(_, s)| !s.quarantined)
            .map(|(&id, s)| (id, s.driver.machine.borrow().state_digest()))
            .collect()
    }

    fn rollup(&self) -> ShardRollup {
        let sink = self.sink.borrow();
        let mut level_activity = LevelActivity::default();
        for slot in self.sessions.values() {
            if let Some(la) = slot.driver.machine.borrow().level_activity() {
                level_activity.merge(la);
            }
        }
        ShardRollup {
            shard: self.index,
            sessions: self.sessions.values().filter(|s| !s.quarantined).count(),
            quarantined: self.quarantined,
            rollbacks: self.rollbacks,
            metrics: sink.snapshot(),
            samples_us: sink.duration_samples_us(),
            durations: sink.duration_histogram().clone(),
            level_activity,
        }
    }
}

fn shard_main(mut state: ShardState, rx: Receiver<Cmd>, ticks: Sender<ShardTick>) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Open(ids, reply) => {
                let _ = reply.send(state.open(ids));
            }
            Cmd::Tick(inputs) => {
                let _ = ticks.send(state.tick(inputs));
            }
            Cmd::Digests(reply) => {
                let _ = reply.send(state.digests());
            }
            Cmd::Metrics(reply) => {
                let _ = reply.send(state.rollup());
            }
            Cmd::Config {
                tracing,
                level_activity,
                epoch,
                cohort,
                engine,
                reply,
            } => {
                state.tracing = tracing;
                state.level_activity = level_activity;
                state.epoch = epoch;
                state.cohort = cohort;
                state.engine = engine;
                // Arm already-open sessions too (tracing is often turned
                // on after a warm-up phase).
                if level_activity {
                    for slot in state.sessions.values() {
                        slot.driver.machine.borrow_mut().enable_level_activity();
                    }
                }
                // Engine hops apply mid-run as well: the next reaction
                // of every open session uses the new engine (the sparse
                // engine rebuilds its baseline on the first instant
                // after a hop).
                if let Some(mode) = engine {
                    for slot in state.sessions.values() {
                        let _ = slot.driver.machine.borrow_mut().set_engine(mode);
                    }
                }
                let _ = reply.send(());
            }
            Cmd::Close(ids, reply) => {
                let _ = reply.send(state.close(ids));
            }
            Cmd::Snapshot(reply) => {
                let _ = reply.send(state.snapshot_sessions());
            }
            Cmd::Restore {
                now_ms,
                sessions,
                reply,
            } => {
                let _ = reply.send(state.restore_shard(now_ms, sessions));
            }
            Cmd::Extract(id, reply) => {
                let _ = reply.send(state.extract(id).map(Box::new));
            }
            Cmd::Adopt(snap, reply) => {
                let _ = reply.send(state.restore_one(&snap));
            }
            Cmd::Shutdown => break,
        }
    }
}

// ---------------------------------------------------------------------------
// The pool.

/// Error from pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError(pub String);

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session pool: {}", self.0)
    }
}
impl std::error::Error for PoolError {}

/// A sharded multi-session reactive server. See the module docs.
pub struct SessionPool {
    shards: Vec<ShardHandle>,
    tick_ms: u64,
    ticks: u64,
    critical_path_us: f64,
    /// Buffered inputs, flushed by the next [`SessionPool::tick`].
    pending: Vec<Input>,
    /// Interned signal names of injected inputs.
    names: HashSet<Arc<str>>,
    sessions: usize,
    /// Every opened (not-yet-closed) session, for snapshots and
    /// migration planning.
    roster: BTreeSet<SessionId>,
    /// Routing overrides from live migration; sessions not listed live
    /// on their hash-routed home shard.
    routes: HashMap<SessionId, usize>,
    serial_sweep: bool,
    // Observability plane (issue 6): the armed flight recorder, span
    // tracing state, and the collected cross-shard spans.
    recorder: Option<Recorder>,
    tracing: bool,
    level_activity: bool,
    epoch: Instant,
    spans: Vec<SpanRecord>,
    tick_span_seq: u64,
    cohort: Option<CohortWidth>,
    engine: Option<EngineMode>,
}

impl SessionPool {
    /// Spawns `shards` worker threads. `tick_ms` is how far each shard's
    /// virtual clock advances per [`SessionPool::tick`]; `factory` builds
    /// each session's machine *on its shard thread* (machines are not
    /// `Send`).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn new(
        shards: usize,
        tick_ms: u64,
        factory: impl Fn(SessionId) -> Result<Machine, String> + Send + Sync + 'static,
    ) -> SessionPool {
        SessionPool::new_with(shards, tick_ms, move |id, _ctx| {
            factory(id).map(|machine| SessionBuild {
                machine,
                supervisor: None,
            })
        })
    }

    /// Like [`SessionPool::new`] but with the rich factory: the closure
    /// receives a [`SessionCtx`] (the shard's event loop) and returns a
    /// [`SessionBuild`], so sessions can come with a [`Supervisor`]
    /// whose activity state then survives pool snapshots and live
    /// migration.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn new_with(
        shards: usize,
        tick_ms: u64,
        factory: impl Fn(SessionId, &SessionCtx<'_>) -> Result<SessionBuild, String>
            + Send
            + Sync
            + 'static,
    ) -> SessionPool {
        assert!(shards > 0, "a pool needs at least one shard");
        let factory: Arc<RichSessionFactory> = Arc::new(factory);
        let shards = (0..shards)
            .map(|index| {
                let (tx, rx) = channel();
                let (tick_tx, ticks) = channel();
                let factory = factory.clone();
                let join = std::thread::Builder::new()
                    .name(format!("hiphop-shard-{index}"))
                    .spawn(move || {
                        let state = ShardState {
                            index,
                            tick_ms,
                            el: Rc::new(RefCell::new(EventLoop::new())),
                            sessions: BTreeMap::new(),
                            sink: shared(MetricsSink::new()),
                            rollbacks: 0,
                            quarantined: 0,
                            factory,
                            tracing: false,
                            level_activity: false,
                            epoch: Instant::now(),
                            span_seq: 0,
                            cohort: None,
                            engine: None,
                        };
                        shard_main(state, rx, tick_tx);
                    })
                    .expect("spawn shard thread");
                ShardHandle {
                    tx,
                    ticks,
                    join: Some(join),
                }
            })
            .collect();
        SessionPool {
            shards,
            tick_ms,
            ticks: 0,
            critical_path_us: 0.0,
            pending: Vec::new(),
            names: HashSet::new(),
            sessions: 0,
            roster: BTreeSet::new(),
            routes: HashMap::new(),
            serial_sweep: false,
            recorder: None,
            tracing: false,
            level_activity: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            tick_span_seq: 0,
            cohort: None,
            engine: None,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of opened sessions (including quarantined ones).
    pub fn sessions(&self) -> usize {
        self.sessions
    }

    /// Ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Virtual time each shard clock has reached, milliseconds.
    pub fn now(&self) -> u64 {
        self.ticks * self.tick_ms
    }

    /// Deterministic shard routing for `session`: the live-migration
    /// override if one exists, else the splitmix64 hash route.
    pub fn shard_of(&self, session: SessionId) -> usize {
        self.routes.get(&session).copied().unwrap_or_else(|| {
            (splitmix64(session.0) % self.shards.len() as u64) as usize
        })
    }

    /// Session ids currently routed to `shard`, in id order.
    pub fn sessions_on(&self, shard: usize) -> Vec<SessionId> {
        self.roster
            .iter()
            .copied()
            .filter(|&id| self.shard_of(id) == shard)
            .collect()
    }

    /// Opens `sessions`, each built by the factory on its home shard,
    /// and runs their boot reactions. Returns the boot batch as a
    /// [`TickReport`] (tick 0 of each session's life): output batches
    /// ordered by session id, with failed boot reactions rolled back and
    /// reported in [`TickReport::faults`] like any tick fault.
    ///
    /// # Errors
    ///
    /// Fails if a factory call fails (the session cannot exist) or if a
    /// shard died.
    pub fn open(&mut self, sessions: &[SessionId]) -> Result<TickReport, PoolError> {
        let mut per_shard: Vec<Vec<SessionId>> = vec![Vec::new(); self.shards.len()];
        for &id in sessions {
            per_shard[self.shard_of(id)].push(id);
        }
        let mut replies = Vec::new();
        for (shard, ids) in per_shard.into_iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            let (tx, rx) = channel();
            self.shards[shard]
                .tx
                .send(Cmd::Open(ids, tx))
                .map_err(|_| PoolError(format!("shard {shard} is gone")))?;
            replies.push((shard, rx));
        }
        let mut report = TickReport { tick: self.ticks, ..TickReport::default() };
        let mut slowest = 0.0f64;
        for (shard, rx) in replies {
            let st = rx
                .recv()
                .map_err(|_| PoolError(format!("shard {shard} is gone")))?
                .map_err(PoolError)?;
            report.outputs.extend(st.outputs);
            report.faults.extend(st.faults);
            report.reactions += st.reactions;
            report.quarantined += st.quarantined;
            slowest = slowest.max(st.busy_us);
        }
        report.outputs.sort_by_key(|o| o.session);
        report.faults.sort_by_key(|f| f.session);
        // Informational only: boot wall time is dominated by machine
        // construction, not reaction work, so it is not folded into the
        // pool's reaction critical path.
        report.critical_path_us = slowest;
        self.sessions += sessions.len();
        self.roster.extend(sessions.iter().copied());
        if self.recorder.is_some() {
            let all = self.digests()?;
            let ids: Vec<u64> = sessions.iter().map(|id| id.0).collect();
            let boot: Vec<(u64, String)> = sessions
                .iter()
                .filter_map(|id| all.get(id).map(|d| (id.0, d.clone())))
                .collect();
            if let Some(r) = self.recorder.as_mut() {
                r.record_open(self.tick_ms, &ids, boot);
            }
        }
        Ok(report)
    }

    /// Opens sessions `0..n` (the common load-scenario shape).
    ///
    /// # Errors
    ///
    /// See [`SessionPool::open`].
    pub fn open_many(&mut self, n: u64) -> Result<TickReport, PoolError> {
        let ids: Vec<SessionId> = (0..n).map(SessionId).collect();
        self.open(&ids)
    }

    /// Switches [`SessionPool::tick`] between the default parallel
    /// fan-out sweep and a serial one-shard-at-a-time sweep. Outputs are
    /// identical either way (sessions never interact); serial mode is
    /// for measurement on oversubscribed hosts, where a concurrently
    /// swept shard's wall-clock time includes time spent descheduled and
    /// the per-tick critical path would be overstated.
    pub fn set_serial_sweep(&mut self, serial: bool) {
        self.serial_sweep = serial;
    }

    /// Pushes the current observability knobs to every shard.
    fn push_config(&self) -> Result<(), PoolError> {
        for (shard, h) in self.shards.iter().enumerate() {
            let (tx, rx) = channel();
            h.tx.send(Cmd::Config {
                tracing: self.tracing,
                level_activity: self.level_activity,
                epoch: self.epoch,
                cohort: self.cohort,
                engine: self.engine,
                reply: tx,
            })
            .map_err(|_| PoolError(format!("shard {shard} is gone")))?;
            rx.recv()
                .map_err(|_| PoolError(format!("shard {shard} is gone")))?;
        }
        Ok(())
    }

    /// Turns cross-shard span tracing on or off. While on, every
    /// [`SessionPool::tick`] emits a tick span with per-shard sweep
    /// children and per-session reaction grandchildren, all stamped
    /// against one shared epoch; collect them with
    /// [`SessionPool::take_spans`] and render with
    /// [`hiphop_runtime::chrome_trace`].
    ///
    /// # Errors
    ///
    /// Fails if a shard thread died.
    pub fn set_tracing(&mut self, on: bool) -> Result<(), PoolError> {
        self.tracing = on;
        self.push_config()
    }

    /// Arms per-level sweep activity counters on every session (current
    /// and future); the counts surface in
    /// [`ShardRollup::level_activity`] / [`PoolMetrics::level_activity`]
    /// and the Prometheus exposition.
    ///
    /// # Errors
    ///
    /// Fails if a shard thread died.
    pub fn set_level_activity(&mut self, on: bool) -> Result<(), PoolError> {
        self.level_activity = on;
        self.push_config()
    }

    /// Switches the pool between scalar sweeps (the default, `None`) and
    /// bit-parallel cohort execution: each shard groups its sessions by
    /// compiled-circuit identity and advances every group through one
    /// lockstep level sweep per tick, 32 sessions per `u64` lane word
    /// ([`CohortWidth::U64`]) or 4-word vectorizable blocks
    /// ([`CohortWidth::Wide`]).
    ///
    /// Cohort mode is a pure execution strategy, not a semantic mode:
    /// outputs, faults, rollback isolation and state digests are
    /// bit-identical to scalar sweeps (the cohort differential battery
    /// proves it), so recordings made in either mode replay in the
    /// other. Sessions that cannot join a cohort — non-levelized engine
    /// selection, fine-grained observability armed — transparently run
    /// scalar; a session whose host action faults mid-sweep is peeled
    /// from its cohort for the instant and rolled back alone. The one
    /// observable difference is telemetry granularity: cohort ticks emit
    /// sweep spans but no per-reaction spans.
    ///
    /// # Errors
    ///
    /// Fails if a shard thread died.
    pub fn set_cohort(&mut self, width: Option<CohortWidth>) -> Result<(), PoolError> {
        self.cohort = width;
        self.push_config()
    }

    /// Selects the evaluation engine for every session, current and
    /// future (`None` keeps whatever each factory chose). Engines are a
    /// pure execution strategy — outputs and state digests are
    /// identical across all of them, which the differential batteries
    /// prove — so this is a performance knob: e.g.
    /// [`EngineMode::Sparse`] for wide pools of mostly-quiet sessions.
    /// Sessions whose circuit cannot run the requested engine (a cyclic
    /// circuit under `Sparse`) resolve to the block walker, exactly as
    /// [`Machine::set_engine`] does. A sparse
    /// session's incremental baseline is rebuilt on its first instant
    /// after the hop.
    ///
    /// # Errors
    ///
    /// Fails if a shard thread died.
    pub fn set_engine(&mut self, engine: Option<EngineMode>) -> Result<(), PoolError> {
        self.engine = engine;
        self.push_config()
    }

    /// Closes (drops) the given sessions, returning how many actually
    /// existed. Cohort lanes compact automatically — grouping is
    /// re-derived each tick, so survivors keep their digests and their
    /// lane-mates never notice. The flight recorder does not journal
    /// closes: a recording that straddles one will re-open every
    /// recorded session on replay, so close sessions before arming the
    /// recorder or after taking the journal.
    ///
    /// # Errors
    ///
    /// Fails if a shard thread died.
    pub fn close(&mut self, sessions: &[SessionId]) -> Result<usize, PoolError> {
        let mut per_shard: Vec<Vec<SessionId>> = vec![Vec::new(); self.shards.len()];
        for &id in sessions {
            per_shard[self.shard_of(id)].push(id);
        }
        let mut replies = Vec::new();
        for (shard, ids) in per_shard.into_iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            let (tx, rx) = channel();
            self.shards[shard]
                .tx
                .send(Cmd::Close(ids, tx))
                .map_err(|_| PoolError(format!("shard {shard} is gone")))?;
            replies.push((shard, rx));
        }
        let mut closed = 0;
        for (shard, rx) in replies {
            closed += rx
                .recv()
                .map_err(|_| PoolError(format!("shard {shard} is gone")))?;
        }
        for &id in sessions {
            self.roster.remove(&id);
            self.routes.remove(&id);
        }
        self.sessions -= closed;
        Ok(closed)
    }

    /// Drains the collected spans, ordered by start timestamp.
    pub fn take_spans(&mut self) -> Vec<SpanRecord> {
        let mut spans = std::mem::take(&mut self.spans);
        spans.sort_by_key(|s| (s.ts_us, s.id));
        spans
    }

    /// Arms the flight recorder: from now on every opened session and
    /// every tick's injected inputs are journaled, with digest
    /// checkpoints per `cfg`. Sessions already open are journaled
    /// immediately with their *current* digests as boot digests, so a
    /// recorder armed mid-run still yields a replayable journal of the
    /// rest of the run. `scenario` is free-form metadata the scenario
    /// owner needs to rebuild an equivalent factory (seed, shape…).
    ///
    /// # Errors
    ///
    /// Fails if a shard thread died while digesting the open sessions.
    pub fn record(
        &mut self,
        cfg: RecorderConfig,
        scenario: BTreeMap<String, String>,
    ) -> Result<(), PoolError> {
        let mut recorder = Recorder::new(cfg, scenario);
        if self.sessions > 0 {
            let digests = self.digests()?;
            let ids: Vec<u64> = digests.keys().map(|id| id.0).collect();
            let boot: Vec<(u64, String)> =
                digests.into_iter().map(|(id, d)| (id.0, d)).collect();
            recorder.record_open(self.tick_ms, &ids, boot);
        }
        self.recorder = Some(recorder);
        Ok(())
    }

    /// The journal so far, cloned (recording continues).
    pub fn recording(&self) -> Option<Recording> {
        self.recorder.as_ref().map(Recorder::snapshot)
    }

    /// Disarms the recorder and returns its journal.
    pub fn take_recording(&mut self) -> Option<Recording> {
        self.recorder.take().map(Recorder::into_recording)
    }

    /// Re-executes a [`Recording`] on this pool — which must be fresh
    /// (nothing opened, no ticks) but may have *any* shard count: shard
    /// assignment never leaks into session semantics, so digests must
    /// match regardless. Opens the recorded sessions, injects each
    /// tick's journaled inputs, and (per `opts`) compares every digest
    /// checkpoint hash in the `[from, to]` window. The factory must
    /// rebuild the recorded scenario (same programs, same chaos seeds) —
    /// that is the caller's contract, keyed by [`Recording::scenario`].
    ///
    /// With [`ReplayOptions::from_snapshot`] set, the pool is first
    /// [`SessionPool::restore`]d from the checkpoint and only the
    /// journal *suffix* (ticks at or past the snapshot) is re-driven —
    /// crash recovery in O(instants since the checkpoint), and the only
    /// way to honor a nonzero `from`: without an anchor, skipping the
    /// prefix would silently re-execute it anyway, so that combination
    /// is an error.
    ///
    /// # Errors
    ///
    /// Fails on a non-replayable (ring-evicted) recording whose evicted
    /// prefix no snapshot covers, a nonzero `from` with no snapshot
    /// anchor, a non-fresh pool, a failed restore, or a dead shard.
    /// Digest mismatches are *reported*, not errors — see
    /// [`ReplayReport::ok`].
    pub fn replay(
        &mut self,
        rec: &Recording,
        opts: &ReplayOptions,
    ) -> Result<ReplayReport, PoolError> {
        let anchor = opts.from_snapshot.as_ref().map_or(0, |s| s.ticks);
        if let Some(snap) = &opts.from_snapshot {
            // The checkpoint must cover everything the ring buffer
            // evicted: evictions below the anchor are skipped anyway,
            // evictions above it are unrecoverable.
            let first_kept = rec.ticks.front().map_or(u64::MAX, |t| t.tick);
            if rec.dropped > 0 && anchor < first_kept {
                return Err(PoolError(format!(
                    "recording ticks below {first_kept} were evicted by the ring buffer \
                     and the snapshot only covers up to tick {anchor}"
                )));
            }
            self.restore(snap)?; // includes the fresh-pool check
        } else {
            if opts.from > 0 {
                return Err(PoolError(format!(
                    "replay from tick {} without a snapshot anchor would re-execute \
                     instants 0..{} from scratch anyway; anchor it with \
                     ReplayOptions::from_snapshot (CLI: --snapshot FILE) or use from = 0",
                    opts.from, opts.from
                )));
            }
            if !rec.replayable() {
                return Err(PoolError(format!(
                    "recording is not replayable: {} tick(s) were evicted by the ring buffer",
                    rec.dropped
                )));
            }
            if self.sessions != 0 || self.ticks != 0 {
                return Err(PoolError(
                    "replay requires a fresh pool (sessions were opened or ticks ran)"
                        .to_owned(),
                ));
            }
            let ids: Vec<SessionId> = rec.sessions.iter().copied().map(SessionId).collect();
            self.open(&ids)?;
        }
        let mut report = ReplayReport::default();
        let from = opts.from.max(anchor);
        if opts.verify_digests && opts.from == 0 && opts.from_snapshot.is_none() {
            self.check_digests(u64::MAX, &rec.boot_digests, &mut report)?;
        }
        for t in &rec.ticks {
            if t.tick < anchor {
                continue;
            }
            if t.tick > opts.to {
                break;
            }
            for i in &t.inputs {
                self.inject(SessionId(i.session), &i.signal, i.value.clone());
            }
            self.tick()?;
            report.ticks += 1;
            if opts.verify_digests && t.tick >= from {
                if let Some(expected) = &t.digests {
                    self.check_digests(t.tick, expected, &mut report)?;
                }
            }
        }
        Ok(report)
    }

    /// Compares live digest hashes against recorded ones.
    fn check_digests(
        &self,
        tick: u64,
        expected: &[(u64, String)],
        report: &mut ReplayReport,
    ) -> Result<(), PoolError> {
        let actual = self.digests()?;
        for (id, want) in expected {
            report.checked += 1;
            let got = actual
                .get(&SessionId(*id))
                .map(|d| hiphop_runtime::flight::digest_hash(d))
                .unwrap_or_default();
            if got != *want {
                report.mismatches.push(DigestMismatch {
                    tick,
                    session: *id,
                    expected: want.clone(),
                    actual: got,
                });
            }
        }
        Ok(())
    }

    /// Buffers one input event for `session`, delivered at the next
    /// [`SessionPool::tick`]. Multiple injections for the same session
    /// land in the same reaction (one batched instant per tick).
    pub fn inject(&mut self, session: SessionId, signal: &str, value: Value) {
        let name = match self.names.get(signal) {
            Some(name) => name.clone(),
            None => {
                // Callers inject a program's few input names over and
                // over; a flood of distinct names must not grow the
                // table without bound.
                if self.names.len() >= MAX_INTERNED_NAMES {
                    self.names.clear();
                }
                let name: Arc<str> = Arc::from(signal);
                self.names.insert(name.clone());
                name
            }
        };
        self.pending.push((session, name, value));
    }

    /// Sweeps every shard in parallel: each shard runs one reaction per
    /// session with the batched inputs, advances its virtual clock by
    /// `tick_ms`, and drains mailbox follow-ups. Returns the merged
    /// report, ordered by session id.
    ///
    /// # Errors
    ///
    /// Fails only if a shard thread died; per-session reaction errors
    /// are reported (and rolled back) in [`TickReport::faults`].
    pub fn tick(&mut self) -> Result<TickReport, PoolError> {
        // Journal the injected inputs before they are drained.
        let journal: Option<Vec<RecordedInput>> = self.recorder.as_ref().map(|_| {
            self.pending
                .iter()
                .map(|(id, signal, value)| RecordedInput {
                    session: id.0,
                    signal: signal.to_string(),
                    value: value.clone(),
                })
                .collect()
        });
        let tick_ts = self
            .tracing
            .then(|| self.epoch.elapsed().as_micros() as u64);
        let mut per_shard: Vec<Vec<Input>> = vec![Vec::new(); self.shards.len()];
        // Route through `shard_of`, not the raw hash: migrated sessions
        // receive their inputs on their adoptive shard.
        let pending = std::mem::take(&mut self.pending);
        for (id, signal, value) in pending {
            let shard = self.shard_of(id);
            per_shard[shard].push((id, signal, value));
        }
        let mut shard_ticks = Vec::new();
        if self.serial_sweep {
            // One shard at a time: each shard's wall-clock sweep time is
            // its isolated (CPU) time, so `critical_path_us` stays
            // honest even on an oversubscribed single-core host.
            for (shard, inputs) in per_shard.into_iter().enumerate() {
                let h = &self.shards[shard];
                h.tx.send(Cmd::Tick(inputs))
                    .map_err(|_| PoolError(format!("shard {shard} is gone")))?;
                shard_ticks.push(
                    h.ticks
                        .recv()
                        .map_err(|_| PoolError(format!("shard {shard} is gone")))?,
                );
            }
        } else {
            // Fan out first — every shard works concurrently — then
            // gather.
            for (shard, inputs) in per_shard.into_iter().enumerate() {
                self.shards[shard]
                    .tx
                    .send(Cmd::Tick(inputs))
                    .map_err(|_| PoolError(format!("shard {shard} is gone")))?;
            }
            for (shard, h) in self.shards.iter().enumerate() {
                shard_ticks.push(
                    h.ticks
                        .recv()
                        .map_err(|_| PoolError(format!("shard {shard} is gone")))?,
                );
            }
        }
        let mut report = TickReport { tick: self.ticks, ..TickReport::default() };
        let mut slowest = 0.0f64;
        let mut tick_spans: Vec<SpanRecord> = Vec::new();
        for st in shard_ticks {
            report.outputs.extend(st.outputs);
            report.faults.extend(st.faults);
            report.reactions += st.reactions;
            report.quarantined += st.quarantined;
            slowest = slowest.max(st.busy_us);
            tick_spans.extend(st.spans);
        }
        report.outputs.sort_by_key(|o| o.session);
        report.faults.sort_by_key(|f| f.session);
        report.critical_path_us = slowest;
        self.critical_path_us += slowest;
        let tick_no = self.ticks;
        self.ticks += 1;
        if let Some(ts_us) = tick_ts {
            // Pool tick span ids live below `1 << 40`, so they never
            // collide with shard-allocated ids.
            self.tick_span_seq += 1;
            let tick_id = self.tick_span_seq;
            for s in &mut tick_spans {
                if s.parent == 0 {
                    s.parent = tick_id;
                }
            }
            let end = self.epoch.elapsed().as_micros() as u64;
            tick_spans.push(SpanRecord {
                id: tick_id,
                parent: 0,
                name: format!("tick {tick_no}"),
                kind: SpanKind::Tick,
                shard: 0,
                ts_us,
                dur_us: (end - ts_us).max(1),
            });
            self.spans.append(&mut tick_spans);
        }
        if let Some(inputs) = journal {
            let digests = if self
                .recorder
                .as_ref()
                .is_some_and(|r| r.wants_checkpoint(tick_no))
            {
                Some(
                    self.digests()?
                        .into_iter()
                        .map(|(id, d)| (id.0, d))
                        .collect(),
                )
            } else {
                None
            };
            if let Some(r) = self.recorder.as_mut() {
                r.record_tick(tick_no, inputs, digests);
            }
        }
        Ok(report)
    }

    /// State digests of every live session across the pool, for
    /// isolation assertions.
    ///
    /// # Errors
    ///
    /// Fails if a shard thread died.
    pub fn digests(&self) -> Result<BTreeMap<SessionId, String>, PoolError> {
        let mut replies = Vec::new();
        for (shard, h) in self.shards.iter().enumerate() {
            let (tx, rx) = channel();
            h.tx.send(Cmd::Digests(tx))
                .map_err(|_| PoolError(format!("shard {shard} is gone")))?;
            replies.push((shard, rx));
        }
        let mut out = BTreeMap::new();
        for (shard, rx) in replies {
            for (id, digest) in rx
                .recv()
                .map_err(|_| PoolError(format!("shard {shard} is gone")))?
            {
                out.insert(id, digest);
            }
        }
        Ok(out)
    }

    /// Pool-wide metrics roll-up (render with
    /// [`hiphop_runtime::Metrics::render_pool`]).
    ///
    /// # Errors
    ///
    /// Fails if a shard thread died.
    pub fn metrics(&self) -> Result<PoolMetrics, PoolError> {
        let mut replies = Vec::new();
        for (shard, h) in self.shards.iter().enumerate() {
            let (tx, rx) = channel();
            h.tx.send(Cmd::Metrics(tx))
                .map_err(|_| PoolError(format!("shard {shard} is gone")))?;
            replies.push((shard, rx));
        }
        let mut rollups = Vec::new();
        for (shard, rx) in replies {
            rollups.push(
                rx.recv()
                    .map_err(|_| PoolError(format!("shard {shard} is gone")))?,
            );
        }
        rollups.sort_by_key(|r| r.shard);
        Ok(PoolMetrics::from_shards(
            rollups,
            self.critical_path_us,
            self.ticks,
        ))
    }

    // -----------------------------------------------------------------
    // Durability: whole-pool checkpoints, restore, live migration.

    /// Checkpoints the whole pool into one versioned
    /// [`PoolSnapshot`]: every session's machine state planes (registers,
    /// valued-signal environment, async instances, chaos RNG position)
    /// plus its live supervision runs, each stamped with its digest
    /// hash. Non-destructive — sessions keep running. Serialize with
    /// [`PoolSnapshot::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Fails if a shard thread died.
    pub fn snapshot(&self) -> Result<PoolSnapshot, PoolError> {
        let mut replies = Vec::new();
        for (shard, h) in self.shards.iter().enumerate() {
            let (tx, rx) = channel();
            h.tx.send(Cmd::Snapshot(tx))
                .map_err(|_| PoolError(format!("shard {shard} is gone")))?;
            replies.push((shard, rx));
        }
        let mut sessions = Vec::new();
        for (shard, rx) in replies {
            sessions.extend(
                rx.recv()
                    .map_err(|_| PoolError(format!("shard {shard} is gone")))?,
            );
        }
        sessions.sort_by_key(|s| s.session);
        Ok(PoolSnapshot {
            version: SNAPSHOT_FORMAT_VERSION,
            ticks: self.ticks,
            tick_ms: self.tick_ms,
            sessions,
        })
    }

    /// Rebuilds a checkpointed pool onto *this* pool — which must be
    /// fresh (nothing opened, no ticks ran) but may have **any** shard
    /// count: shard assignment never leaks into session semantics, so
    /// sessions simply hash-route onto the new topology. Each session is
    /// factory-built (no boot reaction), its state overwritten from the
    /// snapshot, its supervised activities re-adopted with their exact
    /// attempt/epoch/backoff-RNG state, and its digest verified against
    /// the hash recorded at capture time. Shard clocks fast-forward to
    /// the snapshot's virtual time.
    ///
    /// # Errors
    ///
    /// Fails on a format-version skew, a non-fresh pool, a `tick_ms`
    /// mismatch, any structural-hash or digest mismatch, or a dead
    /// shard.
    pub fn restore(&mut self, snap: &PoolSnapshot) -> Result<(), PoolError> {
        if snap.version != SNAPSHOT_FORMAT_VERSION {
            return Err(PoolError(format!(
                "snapshot format v{} is not v{SNAPSHOT_FORMAT_VERSION}",
                snap.version
            )));
        }
        if self.sessions != 0 || self.ticks != 0 {
            return Err(PoolError(
                "restore requires a fresh pool (sessions were opened or ticks ran)".to_owned(),
            ));
        }
        if self.tick_ms != snap.tick_ms {
            return Err(PoolError(format!(
                "tick_ms mismatch: this pool ticks every {} ms but the snapshot was \
                 taken at {} ms per tick",
                self.tick_ms, snap.tick_ms
            )));
        }
        let mut per_shard: Vec<Vec<SessionSnapshot>> = vec![Vec::new(); self.shards.len()];
        for s in &snap.sessions {
            per_shard[self.shard_of(SessionId(s.session))].push(s.clone());
        }
        let now_ms = snap.ticks * self.tick_ms;
        let mut replies = Vec::new();
        // Every shard gets a Restore — an empty one still fast-forwards
        // its clock, keeping the lockstep virtual time migrations rely
        // on.
        for (shard, sessions) in per_shard.into_iter().enumerate() {
            let (tx, rx) = channel();
            self.shards[shard]
                .tx
                .send(Cmd::Restore {
                    now_ms,
                    sessions,
                    reply: tx,
                })
                .map_err(|_| PoolError(format!("shard {shard} is gone")))?;
            replies.push((shard, rx));
        }
        let mut restored = 0;
        for (shard, rx) in replies {
            restored += rx
                .recv()
                .map_err(|_| PoolError(format!("shard {shard} is gone")))?
                .map_err(PoolError)?;
        }
        self.sessions = restored;
        self.ticks = snap.ticks;
        self.roster = snap
            .sessions
            .iter()
            .map(|s| SessionId(s.session))
            .collect();
        Ok(())
    }

    /// Live-migrates `session` to `shard`: the source shard serializes
    /// the session and tears down its local supervision runs (timers
    /// cleared, cancel hooks run), the target rebuilds it — state
    /// planes, chaos RNG, mid-retry backoff state and all — verifies
    /// its digest, and future inputs route to the new home. Bytes move;
    /// machines never do. Migrating a session to its current shard is a
    /// no-op.
    ///
    /// # Errors
    ///
    /// Fails on an unknown session or shard, a dead shard, or a digest
    /// mismatch on the target.
    pub fn migrate(&mut self, session: SessionId, shard: usize) -> Result<(), PoolError> {
        if shard >= self.shards.len() {
            return Err(PoolError(format!(
                "no shard {shard} (pool has {})",
                self.shards.len()
            )));
        }
        if !self.roster.contains(&session) {
            return Err(PoolError(format!("{session}: no such session")));
        }
        let from = self.shard_of(session);
        if from == shard {
            return Ok(());
        }
        let (tx, rx) = channel();
        self.shards[from]
            .tx
            .send(Cmd::Extract(session, tx))
            .map_err(|_| PoolError(format!("shard {from} is gone")))?;
        let snap = rx
            .recv()
            .map_err(|_| PoolError(format!("shard {from} is gone")))?
            .map_err(PoolError)?;
        let (tx, rx) = channel();
        self.shards[shard]
            .tx
            .send(Cmd::Adopt(snap, tx))
            .map_err(|_| PoolError(format!("shard {shard} is gone")))?;
        rx.recv()
            .map_err(|_| PoolError(format!("shard {shard} is gone")))?
            .map_err(|e| PoolError(format!("migrating {session} to shard {shard}: {e}")))?;
        self.routes.insert(session, shard);
        Ok(())
    }

    /// Applies one rebalancing round between ticks: plans migrations
    /// with `rb` over the pool's current [`PoolMetrics`] and applies
    /// them. Returns the applied moves (empty when the pool is already
    /// balanced).
    ///
    /// # Errors
    ///
    /// Fails if metrics collection or a migration fails.
    pub fn rebalance(
        &mut self,
        rb: &Rebalancer,
    ) -> Result<Vec<(SessionId, usize)>, PoolError> {
        let metrics = self.metrics()?;
        let plan = rb.plan(self, &metrics);
        for &(id, shard) in &plan {
            self.migrate(id, shard)?;
        }
        Ok(plan)
    }
}

/// Tuning knobs for the [`Rebalancer`].
#[derive(Debug, Clone)]
pub struct RebalancerConfig {
    /// Most migrations one [`SessionPool::rebalance`] round applies.
    pub max_moves: usize,
    /// Skew trigger: move sessions only while the busiest shard's
    /// estimated load exceeds `threshold ×` the idlest shard's.
    pub threshold: f64,
}

impl Default for RebalancerConfig {
    fn default() -> RebalancerConfig {
        RebalancerConfig {
            max_moves: 4,
            threshold: 1.5,
        }
    }
}

/// Plans live migrations off skewed shards. Load is estimated per shard
/// as *live sessions × mean observed reaction time* (µs, from the
/// shard's telemetry samples; 1 µs per session before any samples
/// land), so a shard whose sessions run hot sheds work even when raw
/// session counts look even.
#[derive(Debug, Clone, Default)]
pub struct Rebalancer {
    cfg: RebalancerConfig,
}

impl Rebalancer {
    /// A rebalancer with the given knobs.
    pub fn new(cfg: RebalancerConfig) -> Rebalancer {
        Rebalancer { cfg }
    }

    /// Plans (but does not apply) migrations: repeatedly moves the
    /// highest-id session off the busiest shard onto the idlest one
    /// while the skew trigger holds, up to the per-round move cap.
    /// Deterministic in the metrics and roster.
    pub fn plan(&self, pool: &SessionPool, metrics: &PoolMetrics) -> Vec<(SessionId, usize)> {
        if metrics.per_shard.len() < 2 {
            return Vec::new();
        }
        let mut donors: Vec<Vec<SessionId>> = (0..metrics.per_shard.len())
            .map(|s| pool.sessions_on(s))
            .collect();
        let mut loads: Vec<f64> = metrics
            .per_shard
            .iter()
            .map(|s| {
                let mean = if s.metrics.reactions == 0 {
                    1.0
                } else {
                    s.metrics.duration_us.mean
                };
                s.sessions as f64 * mean.max(1e-3)
            })
            .collect();
        // Per-session cost estimate per donor shard, for updating the
        // load model as planned moves accumulate.
        let per_session: Vec<f64> = loads
            .iter()
            .zip(&donors)
            .map(|(l, d)| if d.is_empty() { 0.0 } else { l / d.len() as f64 })
            .collect();
        let mut moves = Vec::new();
        for _ in 0..self.cfg.max_moves {
            let mut hi = 0usize;
            let mut lo = 0usize;
            for i in 1..loads.len() {
                if loads[i] > loads[hi] {
                    hi = i;
                }
                if loads[i] < loads[lo] {
                    lo = i;
                }
            }
            if hi == lo
                || donors[hi].len() <= 1
                || loads[hi] <= self.cfg.threshold * loads[lo].max(1e-9)
            {
                break;
            }
            let Some(id) = donors[hi].pop() else { break };
            moves.push((id, lo));
            loads[hi] -= per_session[hi];
            loads[lo] += per_session[hi];
            donors[lo].push(id);
        }
        moves
    }
}

impl Drop for SessionPool {
    fn drop(&mut self) {
        for h in &self.shards {
            let _ = h.tx.send(Cmd::Shutdown);
        }
        for h in &mut self.shards {
            if let Some(join) = h.join.take() {
                let _ = join.join();
            }
        }
    }
}

impl std::fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPool")
            .field("shards", &self.shards.len())
            .field("sessions", &self.sessions)
            .field("ticks", &self.ticks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiphop_compiler::compile_module;
    use hiphop_core::prelude::*;

    /// A per-session counter program: each `inc` increments `count`
    /// (emitted every instant); emits `big` once count passes `limit`.
    fn counter_module() -> Module {
        Module::new("Counter")
            .input(SignalDecl::new("inc", Direction::In))
            .output(
                SignalDecl::new("count", Direction::Out)
                    .with_init(0i64)
                    .with_combine(Combine::Plus),
            )
            .body(Stmt::loop_(Stmt::seq([
                Stmt::if_(
                    Expr::now("inc"),
                    Stmt::emit_val("count", Expr::nowval("inc")),
                ),
                Stmt::Pause,
            ])))
    }

    fn counter_factory(id: SessionId) -> Result<Machine, String> {
        let c = compile_module(&counter_module(), &ModuleRegistry::new())
            .map_err(|e| e.to_string())?;
        let mut m = Machine::new(c.circuit).map_err(|e| e.to_string())?;
        // Stagger engines across sessions: the pool supports per-session
        // engine selection.
        let _ = m.set_engine(if id.0.is_multiple_of(2) {
            hiphop_runtime::EngineMode::Levelized
        } else {
            hiphop_runtime::EngineMode::Constructive
        });
        Ok(m)
    }

    fn count_of(outputs: &SessionOutputs) -> f64 {
        outputs
            .outputs
            .iter()
            .rev()
            .find(|o| &*o.name == "count")
            .map(|o| match &o.value {
                Value::Num(n) => *n,
                other => panic!("count is numeric, got {other:?}"),
            })
            .expect("count output present")
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let pool = SessionPool::new(4, 10, counter_factory);
        let mut per_shard = [0usize; 4];
        for id in 0..256 {
            let a = pool.shard_of(SessionId(id));
            assert_eq!(a, pool.shard_of(SessionId(id)), "routing is stable");
            per_shard[a] += 1;
        }
        for (shard, n) in per_shard.iter().enumerate() {
            assert!(
                (32..=96).contains(n),
                "shard {shard} got {n}/256 sessions — routing is badly skewed"
            );
        }
    }

    #[test]
    fn inject_reaches_exactly_the_target_session() {
        let mut pool = SessionPool::new(3, 10, counter_factory);
        pool.open_many(6).expect("open");
        pool.inject(SessionId(2), "inc", Value::from(5i64));
        pool.inject(SessionId(4), "inc", Value::from(7i64));
        let report = pool.tick().expect("tick");
        assert_eq!(report.outputs.len(), 6, "every session reacts each tick");
        for o in &report.outputs {
            let expect = match o.session.0 {
                2 => 5.0,
                4 => 7.0,
                _ => 0.0,
            };
            assert_eq!(count_of(o), expect, "{}", o.session);
        }
        assert!(report.faults.is_empty());
        assert_eq!(report.reactions, 6);
    }

    #[test]
    fn batched_inputs_land_in_one_instant() {
        let mut pool = SessionPool::new(2, 10, counter_factory);
        pool.open_many(1).expect("open");
        // Two injections for the same session in the same tick land in
        // the same instant. For a plain (non-combined) input signal the
        // later staging wins, exactly as two `Machine::set_input` calls
        // before one `react` — the pool adds no semantics of its own.
        pool.inject(SessionId(0), "inc", Value::from(3i64));
        pool.inject(SessionId(0), "inc", Value::from(4i64));
        let report = pool.tick().expect("tick");
        assert_eq!(count_of(&report.outputs[0]), 4.0);
        // And the next tick is a fresh instant.
        pool.inject(SessionId(0), "inc", Value::from(2i64));
        let report = pool.tick().expect("tick");
        assert_eq!(count_of(&report.outputs[0]), 2.0);
    }

    #[test]
    fn pool_matches_a_single_machine_exactly() {
        // Differential: the pool is just plumbing — a session's output
        // trace must equal the same machine driven directly.
        let mut pool = SessionPool::new(4, 10, counter_factory);
        pool.open_many(8).expect("open");
        let c = compile_module(&counter_module(), &ModuleRegistry::new()).expect("compiles");
        let mut solo = Machine::new(c.circuit).expect("finalized");
        solo.react().expect("boot");
        for step in 0..20u64 {
            let target = SessionId(step % 8);
            pool.inject(target, "inc", Value::from(1i64));
            let report = pool.tick().expect("tick");
            let solo_r = if target.0 == 3 {
                solo.react_with(&[("inc", Value::from(1i64))]).expect("react")
            } else {
                solo.react_with(&[]).expect("react")
            };
            let pooled = report.session(SessionId(3)).expect("session 3 reacted");
            let solo_outputs: Vec<String> = solo_r
                .outputs
                .iter()
                .map(|o| format!("{}={}:{}", o.name, o.present as u8, o.value))
                .collect();
            let pool_outputs: Vec<String> = pooled
                .outputs
                .iter()
                .map(|o| format!("{}={}:{}", o.name, o.present as u8, o.value))
                .collect();
            assert_eq!(pool_outputs, solo_outputs, "step {step}");
        }
    }

    #[test]
    fn boot_outputs_are_returned_by_open() {
        let mut pool = SessionPool::new(2, 10, counter_factory);
        let booted = pool.open_many(3).expect("open");
        assert_eq!(booted.outputs.len(), 3);
        assert!(booted.faults.is_empty());
        assert_eq!(booted.reactions, 3);
        for (i, o) in booted.outputs.iter().enumerate() {
            assert_eq!(o.session, SessionId(i as u64));
            assert_eq!(count_of(o), 0.0, "boot instant shows the init value");
        }
    }

    #[test]
    fn a_faulting_session_rolls_back_without_perturbing_shard_mates() {
        let factory = |id: SessionId| -> Result<Machine, String> {
            let mut m = counter_factory(id)?;
            if id.0 == 1 {
                // Session 1 panics on (almost) every action.
                m.set_chaos(42, 0.95);
            }
            Ok(m)
        };
        let mut pool = SessionPool::new(1, 10, factory);
        pool.open_many(4).expect("open: boot has no action faults for inc-less instants");
        let mut faults = 0;
        for step in 0..30u64 {
            for id in 0..4 {
                pool.inject(SessionId(id), "inc", Value::from(1i64));
            }
            let report = pool.tick().expect("tick");
            faults += report.faults.len();
            for f in &report.faults {
                assert_eq!(f.session, SessionId(1), "only the chaotic session faults");
                assert!(!f.quarantined, "rollback keeps it serviceable");
            }
            // Healthy shard-mates always commit their reaction.
            let _ = step;
            for id in [0u64, 2, 3] {
                let o = report.session(SessionId(id)).expect("healthy session reacted");
                assert_eq!(count_of(o), 1.0, "session {id} unperturbed");
            }
        }
        assert!(faults > 0, "the chaotic session must fault at 95%");
        let metrics = pool.metrics().expect("metrics");
        assert_eq!(metrics.rollbacks as usize, faults);
        assert_eq!(metrics.per_shard[0].quarantined, 0);
    }

    #[test]
    fn metrics_roll_up_across_shards() {
        let mut pool = SessionPool::new(3, 10, counter_factory);
        pool.open_many(9).expect("open");
        for _ in 0..5 {
            for id in 0..9 {
                pool.inject(SessionId(id), "inc", Value::from(1i64));
            }
            pool.tick().expect("tick");
        }
        let m = pool.metrics().expect("metrics");
        assert_eq!(m.shards, 3);
        assert_eq!(m.sessions(), 9);
        // 9 boots + 9 sessions × 5 ticks.
        assert_eq!(m.reactions, 9 + 45);
        assert_eq!(m.ticks, 5);
        assert!(m.critical_path_us > 0.0);
        // busy_us sums pure reaction compute (from the telemetry
        // sinks); critical_path_us is wall-clock shard-sweep time, so
        // neither bounds the other on small workloads.
        assert!(m.busy_us > 0.0);
        assert_eq!(
            m.reactions,
            m.per_shard.iter().map(|s| s.metrics.reactions).sum::<usize>()
        );
        let table = hiphop_runtime::Metrics::render_pool(&m);
        assert!(
            table.contains("9 live session(s), 0 quarantined, over 3 shard(s)"),
            "{table}"
        );
        let json = m.to_json();
        assert!(json.contains("\"reactions\":54"), "{json}");
        assert!(json.contains("\"per_shard\":["), "{json}");
    }

    #[test]
    fn shard_clocks_advance_in_virtual_time() {
        let mut pool = SessionPool::new(2, 250, counter_factory);
        pool.open_many(2).expect("open");
        for _ in 0..4 {
            pool.tick().expect("tick");
        }
        assert_eq!(pool.now(), 1000);
        assert_eq!(pool.ticks(), 4);
    }

    #[test]
    fn serial_sweep_is_observably_identical_to_parallel() {
        let run = |serial: bool| {
            let mut pool = SessionPool::new(3, 10, counter_factory);
            pool.set_serial_sweep(serial);
            pool.open_many(6).expect("open");
            let mut trace = Vec::new();
            for step in 0..5u64 {
                for id in 0..6 {
                    if (id + step).is_multiple_of(2) {
                        pool.inject(SessionId(id), "inc", Value::from(step as i64 + 1));
                    }
                }
                let r = pool.tick().expect("tick");
                trace.push(
                    r.outputs
                        .iter()
                        .map(|o| (o.session, count_of(o)))
                        .collect::<Vec<_>>(),
                );
            }
            trace
        };
        assert_eq!(run(true), run(false), "sweep order is unobservable");
    }

    #[test]
    fn cohort_mode_is_digest_identical_to_scalar_sweeps() {
        // The pool's counter factory staggers engines (even sessions
        // levelized, odd constructive), so cohort mode exercises the
        // mixed path: eligible sessions form cohorts, the rest fall back
        // to scalar sweeps — and every output and digest must match a
        // scalar-mode pool exactly.
        let run = |cohort: Option<CohortWidth>| {
            let mut pool = SessionPool::new(2, 10, counter_factory);
            pool.set_cohort(cohort).expect("config");
            pool.open_many(40).expect("open");
            let mut trace = Vec::new();
            for step in 0..6u64 {
                for id in 0..40 {
                    if (id + step) % 3 == 0 {
                        pool.inject(SessionId(id), "inc", Value::from(step as i64 + 1));
                    }
                }
                let r = pool.tick().expect("tick");
                assert!(r.faults.is_empty());
                trace.push((
                    r.outputs
                        .iter()
                        .map(|o| (o.session, count_of(o)))
                        .collect::<Vec<_>>(),
                    pool.digests().expect("digests"),
                ));
            }
            trace
        };
        let scalar = run(None);
        assert_eq!(scalar, run(Some(CohortWidth::U64)), "u64 lanes diverged");
        assert_eq!(scalar, run(Some(CohortWidth::Wide)), "wide lanes diverged");
    }

    #[test]
    fn engine_override_is_digest_identical_and_applies_mid_run() {
        // The engine knob is a pure execution strategy: whatever the
        // factory picked (staggered levelized/constructive here), an
        // override to any engine reproduces the same outputs and
        // digests tick for tick.
        let run = |engine: Option<EngineMode>| {
            let mut pool = SessionPool::new(2, 10, counter_factory);
            pool.set_engine(engine).expect("config");
            pool.open_many(12).expect("open");
            let mut trace = Vec::new();
            for step in 0..6u64 {
                for id in 0..12 {
                    if (id + step) % 3 == 0 {
                        pool.inject(SessionId(id), "inc", Value::from(step as i64 + 1));
                    }
                }
                let r = pool.tick().expect("tick");
                assert!(r.faults.is_empty());
                trace.push((
                    r.outputs
                        .iter()
                        .map(|o| (o.session, count_of(o)))
                        .collect::<Vec<_>>(),
                    pool.digests().expect("digests"),
                ));
            }
            trace
        };
        let baseline = run(None);
        for mode in [
            EngineMode::Levelized,
            EngineMode::Constructive,
            EngineMode::Sparse,
        ] {
            assert_eq!(baseline, run(Some(mode)), "{mode} override diverged");
        }

        // A mid-run hop reaches already-open sessions: three staggered
        // ticks, then everyone switches to sparse (whose baselines are
        // rebuilt on the next instant), and the trace keeps matching.
        let mut pool = SessionPool::new(2, 10, counter_factory);
        pool.open_many(12).expect("open");
        let mut trace = Vec::new();
        for step in 0..6u64 {
            if step == 3 {
                pool.set_engine(Some(EngineMode::Sparse)).expect("config");
            }
            for id in 0..12 {
                if (id + step) % 3 == 0 {
                    pool.inject(SessionId(id), "inc", Value::from(step as i64 + 1));
                }
            }
            let r = pool.tick().expect("tick");
            assert!(r.faults.is_empty());
            trace.push((
                r.outputs
                    .iter()
                    .map(|o| (o.session, count_of(o)))
                    .collect::<Vec<_>>(),
                pool.digests().expect("digests"),
            ));
        }
        assert_eq!(baseline, trace, "the mid-run engine hop diverged");
    }

    #[test]
    fn close_compacts_cohort_lanes_without_disturbing_survivors() {
        let run = |cohort: Option<CohortWidth>| {
            let mut pool = SessionPool::new(2, 10, counter_factory);
            pool.set_cohort(cohort).expect("config");
            pool.open_many(33).expect("open");
            let mut digests = Vec::new();
            for step in 0..8u64 {
                if step == 3 {
                    // Mid-run close: survivors shift into fresh lanes.
                    let victims = [SessionId(2), SessionId(17), SessionId(32)];
                    let before = pool.digests().expect("digests");
                    assert_eq!(pool.close(&victims).expect("close"), 3);
                    let after = pool.digests().expect("digests");
                    for (id, d) in &after {
                        assert_eq!(&before[id], d, "{id}: close must not touch survivors");
                    }
                    for v in victims {
                        assert!(!after.contains_key(&v), "{v} still live after close");
                    }
                    // Closing an already-closed session is a no-op.
                    assert_eq!(pool.close(&[SessionId(17)]).expect("close"), 0);
                }
                for id in 0..33 {
                    if (id + step).is_multiple_of(2) {
                        pool.inject(SessionId(id), "inc", Value::from(1i64));
                    }
                }
                pool.tick().expect("tick");
                digests.push(pool.digests().expect("digests"));
            }
            assert_eq!(pool.sessions(), 30);
            digests
        };
        let scalar = run(None);
        assert_eq!(scalar, run(Some(CohortWidth::U64)), "u64 lanes diverged");
        assert_eq!(scalar, run(Some(CohortWidth::Wide)), "wide lanes diverged");
    }

    #[test]
    fn a_pool_closed_down_to_zero_sessions_still_ticks() {
        let mut pool = SessionPool::new(2, 10, counter_factory);
        pool.set_cohort(Some(CohortWidth::U64)).expect("config");
        pool.open_many(5).expect("open");
        pool.tick().expect("tick");
        let all: Vec<SessionId> = (0..5).map(SessionId).collect();
        assert_eq!(pool.close(&all).expect("close"), 5);
        assert_eq!(pool.sessions(), 0);
        let r = pool.tick().expect("an empty pool ticks without sessions");
        assert!(r.outputs.is_empty());
        assert!(r.faults.is_empty());
    }

    #[test]
    fn snapshot_restores_digest_identically_onto_fewer_shards() {
        let mut pool = SessionPool::new(4, 10, counter_factory);
        pool.open_many(24).expect("open");
        for step in 0..5u64 {
            for id in 0..24 {
                if (id + step) % 3 == 0 {
                    pool.inject(SessionId(id), "inc", Value::from(step as i64 + 1));
                }
            }
            pool.tick().expect("tick");
        }
        let snap = pool.snapshot().expect("snapshot");
        let want = pool.digests().expect("digests");
        // Through the wire format, onto a *different* shard count.
        let wire = snap.to_jsonl();
        let snap = PoolSnapshot::from_jsonl(&wire).expect("parse");
        let mut restored = SessionPool::new(3, 10, counter_factory);
        restored.restore(&snap).expect("restore");
        assert_eq!(restored.sessions(), 24);
        assert_eq!(restored.ticks(), 5);
        assert_eq!(restored.digests().expect("digests"), want);
        // And the restored pool keeps running in lockstep with the
        // undisturbed source.
        for step in 0..4i64 {
            for id in 0..24 {
                pool.inject(SessionId(id), "inc", Value::from(step));
                restored.inject(SessionId(id), "inc", Value::from(step));
            }
            pool.tick().expect("tick");
            restored.tick().expect("tick");
        }
        assert_eq!(
            pool.digests().expect("digests"),
            restored.digests().expect("digests"),
            "restored pool diverged from the survivor"
        );
    }

    #[test]
    fn migration_moves_state_not_machines() {
        let mut pool = SessionPool::new(3, 10, counter_factory);
        pool.open_many(9).expect("open");
        for _ in 0..3 {
            for id in 0..9 {
                pool.inject(SessionId(id), "inc", Value::from(1i64));
            }
            pool.tick().expect("tick");
        }
        let before = pool.digests().expect("digests");
        let victim = SessionId(5);
        let home = pool.shard_of(victim);
        let target = (home + 1) % 3;
        pool.migrate(victim, target).expect("migrate");
        assert_eq!(pool.shard_of(victim), target);
        assert!(pool.sessions_on(target).contains(&victim));
        assert_eq!(
            pool.digests().expect("digests"),
            before,
            "migration must not disturb any session's state"
        );
        // Inputs keep reaching the migrated session on its new shard.
        pool.inject(victim, "inc", Value::from(10i64));
        let r = pool.tick().expect("tick");
        assert_eq!(count_of(r.session(victim).expect("reacted")), 10.0);
    }

    #[test]
    fn rebalancer_drains_a_skewed_shard() {
        // Route-override every session onto shard 0, then let the
        // rebalancer spread them out.
        let mut pool = SessionPool::new(3, 10, counter_factory);
        pool.open_many(12).expect("open");
        for id in 0..12 {
            pool.migrate(SessionId(id), 0).expect("migrate");
        }
        for _ in 0..3 {
            for id in 0..12 {
                pool.inject(SessionId(id), "inc", Value::from(1i64));
            }
            pool.tick().expect("tick");
        }
        let before = pool.digests().expect("digests");
        assert_eq!(pool.sessions_on(0).len(), 12);
        let rb = Rebalancer::new(RebalancerConfig {
            max_moves: 4,
            threshold: 1.2,
        });
        let mut moved = 0;
        for _ in 0..6 {
            moved += pool.rebalance(&rb).expect("rebalance").len();
            pool.tick().expect("tick");
        }
        assert!(moved >= 4, "rebalancer moved only {moved} sessions");
        assert!(
            pool.sessions_on(0).len() <= 8,
            "shard 0 still holds {} of 12 sessions",
            pool.sessions_on(0).len()
        );
        // Zero digest divergence: a shadow pool that ran the same
        // inputs without any rebalancing must agree tick for tick.
        let mut shadow = SessionPool::new(3, 10, counter_factory);
        shadow.open_many(12).expect("open");
        for _ in 0..3 {
            for id in 0..12 {
                shadow.inject(SessionId(id), "inc", Value::from(1i64));
            }
            shadow.tick().expect("tick");
        }
        assert_eq!(shadow.digests().expect("digests"), before);
        for _ in 0..6 {
            shadow.tick().expect("tick");
        }
        assert_eq!(
            shadow.digests().expect("digests"),
            pool.digests().expect("digests"),
            "rebalancing changed observable state"
        );
    }

    #[test]
    fn replay_from_nonzero_without_snapshot_is_a_clear_error() {
        let mut pool = SessionPool::new(2, 10, counter_factory);
        pool.record(RecorderConfig::default(), BTreeMap::new())
            .expect("record");
        pool.open_many(2).expect("open");
        for _ in 0..4 {
            pool.tick().expect("tick");
        }
        let rec = pool.take_recording().expect("recording");
        let mut fresh = SessionPool::new(2, 10, counter_factory);
        let opts = ReplayOptions {
            from: 2,
            ..ReplayOptions::default()
        };
        let err = fresh.replay(&rec, &opts).expect_err("must refuse");
        assert!(err.to_string().contains("snapshot anchor"), "{err}");
    }

    #[test]
    fn snapshot_anchored_replay_drives_only_the_journal_suffix() {
        let drive = |pool: &mut SessionPool, step: u64| {
            for id in 0..6 {
                if (id + step).is_multiple_of(2) {
                    pool.inject(SessionId(id), "inc", Value::from(step as i64 + 1));
                }
            }
            pool.tick().expect("tick");
        };
        let mut pool = SessionPool::new(2, 10, counter_factory);
        pool.record(
            RecorderConfig {
                checkpoint_every: 1,
                ..RecorderConfig::default()
            },
            BTreeMap::new(),
        )
        .expect("record");
        pool.open_many(6).expect("open");
        let mut checkpoint = None;
        for step in 0..8u64 {
            if step == 5 {
                checkpoint = Some(pool.snapshot().expect("snapshot"));
            }
            drive(&mut pool, step);
        }
        let rec = pool.take_recording().expect("recording");
        let final_digests = pool.digests().expect("digests");
        // Anchored replay re-drives only ticks 5..8 — on a different
        // shard count — and must land on the same digests.
        let mut recovered = SessionPool::new(3, 10, counter_factory);
        let opts = ReplayOptions {
            from_snapshot: checkpoint,
            ..ReplayOptions::default()
        };
        let report = recovered.replay(&rec, &opts).expect("replay");
        assert_eq!(report.ticks, 3, "only the journal suffix runs");
        assert!(report.ok(), "{:?}", report.mismatches);
        assert!(report.checked > 0, "checkpoints were verified");
        assert_eq!(recovered.digests().expect("digests"), final_digests);
    }

    #[test]
    fn factory_errors_surface_per_session() {
        let factory = |id: SessionId| -> Result<Machine, String> {
            if id.0 == 7 {
                Err("no such score".to_owned())
            } else {
                counter_factory(id)
            }
        };
        let mut pool = SessionPool::new(2, 10, factory);
        let err = pool.open_many(8).expect_err("session 7 fails to build");
        assert!(err.to_string().contains("no such score"), "{err}");
    }

    #[test]
    fn restore_refuses_mismatched_clocks_versions_and_used_pools() {
        let mut pool = SessionPool::new(2, 10, counter_factory);
        pool.open_many(3).expect("open");
        pool.tick().expect("tick");
        let mut snap = pool.snapshot().expect("snapshot");

        // tick_ms is part of the contract: remaining-ms timer encoding
        // in activity snapshots assumes the restored clock ticks at the
        // recorded rate.
        let mut wrong_clock = SessionPool::new(2, 25, counter_factory);
        let err = wrong_clock.restore(&snap).expect_err("clock mismatch");
        assert!(err.to_string().contains("tick_ms mismatch"), "{err}");

        // A used pool refuses: restore is recovery, not merging.
        let err = pool.restore(&snap).expect_err("pool is not fresh");
        assert!(err.to_string().contains("fresh pool"), "{err}");

        // A future wire format refuses before touching any shard.
        snap.version += 1;
        let mut fresh = SessionPool::new(2, 10, counter_factory);
        let err = fresh.restore(&snap).expect_err("future format");
        assert!(err.to_string().contains("format"), "{err}");
    }

    #[test]
    fn restore_refuses_a_foreign_factory() {
        // The structural-hash guard: a snapshot of the counter program
        // must not load into machines a different factory builds.
        let mut pool = SessionPool::new(2, 10, counter_factory);
        pool.open_many(2).expect("open");
        pool.tick().expect("tick");
        let snap = pool.snapshot().expect("snapshot");

        let other_factory = |_id: SessionId| -> Result<Machine, String> {
            let module = Module::new("Other")
                .input(SignalDecl::new("go", Direction::In))
                .body(Stmt::loop_(Stmt::Pause));
            let c = compile_module(&module, &ModuleRegistry::new())
                .map_err(|e| e.to_string())?;
            Machine::new(c.circuit).map_err(|e| e.to_string())
        };
        let mut foreign = SessionPool::new(2, 10, other_factory);
        let err = foreign.restore(&snap).expect_err("struct hash must gate");
        assert!(err.to_string().contains("cannot load into"), "{err}");
    }

    #[test]
    fn migrate_rejects_unknown_sessions_and_shards() {
        let mut pool = SessionPool::new(3, 10, counter_factory);
        pool.open_many(4).expect("open");
        let err = pool.migrate(SessionId(0), 9).expect_err("no shard 9");
        assert!(err.to_string().contains("no shard 9"), "{err}");
        let err = pool.migrate(SessionId(77), 1).expect_err("unknown session");
        assert!(err.to_string().contains("no such session"), "{err}");
        // Migrating home is a no-op, not an error.
        let home = pool.shard_of(SessionId(0));
        pool.migrate(SessionId(0), home).expect("no-op migration");
        assert_eq!(pool.shard_of(SessionId(0)), home);
    }

    #[test]
    fn rebalancer_leaves_a_balanced_pool_alone() {
        let mut pool = SessionPool::new(3, 10, counter_factory);
        pool.open_many(9).expect("open");
        for _ in 0..4 {
            pool.tick().expect("tick");
        }
        let rb = Rebalancer::new(RebalancerConfig::default());
        let moves = pool.rebalance(&rb).expect("rebalance");
        assert!(
            moves.len() <= RebalancerConfig::default().max_moves,
            "{moves:?}"
        );
        // A second round from the (now balanced) state plans nothing
        // beyond the threshold band.
        let again = pool.rebalance(&rb).expect("rebalance");
        let metrics = pool.metrics().expect("metrics");
        let spread: Vec<usize> = metrics.per_shard.iter().map(|s| s.sessions).collect();
        assert_eq!(spread.iter().sum::<usize>(), 9, "no session lost: {again:?}");
    }
}
