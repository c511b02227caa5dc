//! The `concert` and `durable` workloads: 1000 Skini audience sessions
//! playing `ScoreShape::small()` on a one-shard `SessionPool`, driven
//! by a closed loop with one conductor. Each beat the conductor asks
//! every participant's seeded `Audience` for picks (fed back from that
//! session's previous outputs), injects them with the beat number,
//! ticks the pool and waits for the `TickReport` before the next beat.
//!
//! `durable` is the same loop with the flight recorder armed and a
//! whole-pool checkpoint (`snapshot` plus `to_jsonl`) every
//! [`CHECKPOINT_EVERY`] beats. After the timed phase it plays on to the
//! next checkpoint and [`CRASH_SUFFIX`] beats past it, "crashes", and
//! recovers [`RECOVERIES`] times: decode the checkpoint and the journal,
//! replay the suffix on a fresh pool with digests verified, and compare
//! the final digests with the live pool's.

use crate::alloc::allocations;
use crate::oracle::{self, Step};
use crate::trace::{self, Layer, Remote, Tracer};
use crate::{traced_instant, Args, Outcome, COUNT_INSTANTS, RSS_INSTANTS, SETUPS};
use hiphop_circuit::Circuit;
use hiphop_core::module::ModuleRegistry;
use hiphop_core::rng::Rng;
use hiphop_core::value::Value;
use hiphop_eventloop::sessions::{SessionId, SessionOutputs, SessionPool};
use hiphop_runtime::{Machine, PoolSnapshot, RecorderConfig, Recording, ReplayOptions};
use hiphop_skini::{generate, Audience, Composition, ScoreShape, Sequencer};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Audience sessions.
const SESSIONS: u64 = 1000;
/// Virtual milliseconds per beat.
const TICK_MS: u64 = 10;
/// Beats between whole-pool checkpoints in `durable`: often enough
/// that checkpoint instants carry about a quarter of the instant time,
/// so their cost moves `reactions_per_s`.
const CHECKPOINT_EVERY: u64 = 25;
/// The flight recorder's digest checkpoint period, in ticks.
const DIGEST_EVERY: u64 = 8;
/// Beats played after the last checkpoint before the crash.
const CRASH_SUFFIX: u64 = 16;
/// Crash recoveries per run; `recovery_ms` is their median.
const RECOVERIES: usize = 5;
/// Sessions re-driven through the interpreter after the run.
const ORACLE_SESSIONS: usize = 16;

thread_local! {
    /// The score, compiled once per shard thread: circuits are plain
    /// data, machines are not `Send`, so each shard builds its own.
    static SCORE: RefCell<Option<Circuit>> = const { RefCell::new(None) };
}

/// The session factory. It runs on the shard thread and records its
/// spans through `remote`.
fn factory(remote: Remote) -> impl Fn(SessionId) -> Result<Machine, String> + Send + Sync {
    move |_| {
        SCORE.with(|score| {
            let mut score = score.borrow_mut();
            if score.is_none() {
                let (module, _) =
                    remote.span(Layer::Bench, "generate", || generate(ScoreShape::small()));
                let compiled = remote
                    .span(Layer::Compiler, "compile", || {
                        hiphop_compiler::compile_module(&module, &ModuleRegistry::new())
                    })
                    .map_err(|e| e.to_string())?;
                *score = Some(compiled.circuit);
            }
            let circuit = score.as_ref().expect("compiled above");
            remote
                .span(Layer::Runtime, "machine_new", || {
                    Machine::new(circuit.clone())
                })
                .map_err(|e| e.to_string())
        })
    }
}

/// One participant's client: their audience, the groups their phone
/// currently offers, and their sequencer.
struct Participant {
    audience: Audience,
    active: Vec<String>,
    sequencer: Sequencer,
    /// Index into [`Conductor::steps`] when this session is re-driven
    /// through the interpreter.
    sample: Option<usize>,
    /// The sampled session's inputs of the beat in flight.
    inputs: Vec<(String, Value)>,
}

impl Participant {
    /// Refreshes the offered groups from the session's outputs: the
    /// last `<group>State` value of the batch wins.
    fn observe(&mut self, comp: &Composition, outputs: &SessionOutputs) {
        let mut state: BTreeMap<&str, bool> = BTreeMap::new();
        for o in &outputs.outputs {
            if let Some(group) = o.name.strip_suffix("State") {
                state.insert(group, o.value.truthy());
            }
        }
        self.active = comp
            .groups()
            .iter()
            .filter(|g| state.get(g.name.as_str()).copied().unwrap_or(false))
            .map(|g| g.name.clone())
            .collect();
    }
}

/// What one beat measured.
struct Beat {
    tick: u64,
    instant_us: f64,
    inject_us: f64,
    tick_us: f64,
    critical_us: f64,
    /// `(capture_us, encode_us, bytes)` when the beat took a checkpoint.
    checkpoint: Option<(f64, f64, usize)>,
    allocs: u64,
    reactions: usize,
    inputs: usize,
    outputs: usize,
}

/// The load generator and its bookkeeping.
struct Conductor {
    durable: bool,
    comp: Composition,
    /// Input signal names; `batch` refers to them by index.
    names: Vec<String>,
    people: Vec<Participant>,
    batch: Vec<(SessionId, usize, Value)>,
    /// Per sampled session, every instant since boot.
    steps: Vec<Vec<Step>>,
    beat: u64,
    /// The last checkpoint, encoded.
    checkpoint: Option<String>,
}

impl Conductor {
    fn new(seed: u64, durable: bool) -> Conductor {
        let (_, comp) = generate(ScoreShape::small());
        let mut names = vec!["beat".to_owned()];
        names.extend(
            comp.groups()
                .iter()
                .map(|g| Composition::in_signal(&g.name)),
        );
        let mut rng = Rng::seed_from_u64(seed);
        let mut people: Vec<Participant> = (0..SESSIONS)
            .map(|_| Participant {
                audience: Audience::new(
                    rng.next_u64(),
                    0.5 + rng.gen_range(0u64..50) as f64 / 100.0,
                ),
                active: Vec::new(),
                sequencer: Sequencer::new(),
                sample: None,
                inputs: Vec::new(),
            })
            .collect();
        let mut steps = Vec::new();
        while steps.len() < ORACLE_SESSIONS {
            let p = &mut people[rng.gen_range(0..SESSIONS as usize)];
            if p.sample.is_none() {
                p.sample = Some(steps.len());
                steps.push(Vec::new());
            }
        }
        Conductor {
            durable,
            comp,
            names,
            people,
            batch: Vec::with_capacity(2 * SESSIONS as usize),
            steps,
            beat: 0,
            checkpoint: None,
        }
    }

    /// Feeds one batch of session outputs back to the participants.
    fn observe(&mut self, batch: &[SessionOutputs]) {
        for o in batch {
            let p = &mut self.people[o.session.0 as usize];
            p.observe(&self.comp, o);
            if let Some(k) = p.sample {
                self.steps[k].push(Step {
                    inputs: std::mem::take(&mut p.inputs),
                    outputs: o.outputs.clone(),
                });
            }
        }
    }

    /// Checkpoints the pool: `(capture_us, encode_us, bytes)`.
    fn checkpoint(
        &mut self,
        pool: &mut SessionPool,
        tracer: &mut Tracer,
    ) -> Result<(f64, f64, usize), String> {
        let t0 = Instant::now();
        let snap = tracer
            .span(Layer::Snapshot, "capture", || pool.snapshot())
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let text = tracer.span(Layer::Snapshot, "encode", || snap.to_jsonl());
        let t2 = Instant::now();
        let bytes = text.len();
        self.checkpoint = Some(text);
        Ok((us(t1 - t0), us(t2 - t1), bytes))
    }

    /// Plays one beat: generate picks, then the instant (inject, tick,
    /// checkpoint when due), then feed the outputs back.
    fn beat(
        &mut self,
        pool: &mut SessionPool,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> Result<Beat, String> {
        self.batch.clear();
        for (i, p) in self.people.iter_mut().enumerate() {
            let id = SessionId(i as u64);
            for s in p.audience.pick(&self.comp, &p.active) {
                p.sequencer.enqueue(s.pattern);
                let k = self
                    .names
                    .iter()
                    .position(|n| n.strip_suffix("In") == Some(s.group.as_str()))
                    .expect("picks come from the composition's groups");
                self.batch.push((id, k, Value::from(s.pattern as i64)));
            }
            self.batch.push((id, 0, Value::from(self.beat as i64)));
            if p.sample.is_some() {
                p.inputs = self
                    .batch
                    .iter()
                    .rev()
                    .take_while(|(s, _, _)| *s == id)
                    .map(|(_, k, v)| (self.names[*k].clone(), v.clone()))
                    .collect();
                p.inputs.reverse();
            }
        }
        let inputs = self.batch.len();

        let a0 = allocations();
        let t0 = Instant::now();
        tracer.begin(Layer::Bench, "instant");
        tracer.begin(Layer::Sessions, "inject");
        for (id, k, v) in self.batch.drain(..) {
            pool.inject(id, &self.names[k], v);
        }
        tracer.end();
        let t1 = Instant::now();
        let ticked = tracer.span(Layer::Sessions, "tick", || pool.tick());
        let t2 = Instant::now();
        let allocs = allocations() - a0;
        let due = self.durable && (self.beat + 1).is_multiple_of(CHECKPOINT_EVERY);
        let checkpoint = match (&ticked, due) {
            (Ok(_), true) => Some(self.checkpoint(pool, tracer)),
            _ => None,
        };
        tracer.end();
        let t3 = Instant::now();

        let report = ticked.map_err(|e| format!("beat {}: {e}", self.beat))?;
        let checkpoint = checkpoint
            .transpose()
            .map_err(|e| format!("checkpoint: {e}"))?;
        out.attempted += (report.reactions + report.faults.len()) as u64;
        for f in &report.faults {
            out.fail(format!("tick {}: {}: {}", report.tick, f.session, f.error));
        }
        self.observe(&report.outputs);
        for p in &mut self.people {
            p.sequencer.play_beat(&self.comp, self.beat);
        }
        self.beat += 1;
        Ok(Beat {
            tick: report.tick,
            instant_us: us(t3 - t0),
            inject_us: us(t1 - t0),
            tick_us: us(t2 - t1),
            critical_us: report.critical_path_us,
            checkpoint,
            allocs,
            reactions: report.reactions,
            inputs,
            outputs: report.outputs.iter().map(|o| o.outputs.len()).sum(),
        })
    }
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Opens a pool the way each set-up and the recoveries do.
fn new_pool(tracer: &mut Tracer) -> SessionPool {
    let remote = tracer.remote();
    tracer.span(Layer::Sessions, "new", || {
        SessionPool::new(1, TICK_MS, factory(remote))
    })
}

/// Runs `concert` (`durable == false`) or `durable`.
pub(crate) fn run(args: &Args, durable: bool) -> Outcome {
    let mut out = Outcome::default();
    match drive(args, durable, &mut out) {
        Ok(()) => {}
        Err(e) => out.fail(e),
    }
    out
}

fn drive(args: &Args, durable: bool, out: &mut Outcome) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let mut conductor = Conductor::new(args.seed, durable);
    let score = generate(ScoreShape::small()).0;
    let compiled = hiphop_compiler::compile_module(&score, &ModuleRegistry::new())
        .map_err(|e| e.to_string())?;
    let stats = compiled.circuit.stats();
    out.set("compiler.nets", stats.nets as f64);
    out.set("compiler.registers", stats.registers as f64);
    out.set("compiler.levels", compiled.levels.unwrap_or(0) as f64);

    // Set-up: a fresh pool (shard thread, score compile), the recorder
    // armed in `durable`, and 1000 sessions opened with their boot
    // reactions.
    let mut setup_s = Vec::new();
    let mut open_us = Vec::new();
    let mut pool: Option<SessionPool> = None;
    let mut boot = None;
    tracer.set_on(args.trace);
    for k in 0..SETUPS {
        drop(pool.take());
        tracer.set_group(u64::MAX - k as u64);
        let t0 = Instant::now();
        tracer.begin(Layer::Bench, "setup");
        let mut p = new_pool(&mut tracer);
        if durable {
            let cfg = RecorderConfig {
                capacity_ticks: 2 * CHECKPOINT_EVERY as usize,
                checkpoint_every: DIGEST_EVERY,
            };
            let scenario = BTreeMap::from([("workload".to_owned(), "durable".to_owned())]);
            tracer
                .span(Layer::Flight, "record", || p.record(cfg, scenario))
                .map_err(|e| e.to_string())?;
        }
        let o0 = Instant::now();
        let opened = tracer.span(Layer::Sessions, "open", || p.open_many(SESSIONS));
        open_us.push(us(o0.elapsed()));
        tracer.end();
        setup_s.push(t0.elapsed().as_secs_f64());
        boot = Some(opened.map_err(|e| format!("open: {e}"))?);
        pool = Some(p);
    }
    let mut pool = pool.expect("SETUPS > 0");
    let boot = boot.expect("SETUPS > 0");
    out.attempted += (boot.reactions + boot.faults.len()) as u64;
    for f in &boot.faults {
        out.fail(format!("boot: {}: {}", f.session, f.error));
    }
    conductor.observe(&boot.outputs);
    let setup_spans = tracer.spans().len();
    tracer.set_on(false);

    // Timed phase.
    let m0 = pool.metrics().map_err(|e| e.to_string())?;
    let mut beats: Vec<Beat> = Vec::new();
    let mut rss_mb = 0.0;
    let mut journal_bytes_per_tick = 0.0;
    let start = Instant::now();
    let deadline = start + args.seconds;
    while Instant::now() < deadline {
        let i = beats.len() as u64;
        tracer.set_on(traced_instant(args.trace, i));
        tracer.set_group(i);
        let b = conductor.beat(&mut pool, &mut tracer, out)?;
        beats.push(b);
        if i + 1 == COUNT_INSTANTS && durable {
            let rec = pool.recording().ok_or("the recorder is armed")?;
            let text = rec.to_jsonl();
            // Tick and checkpoint lines follow the header and open lines.
            let header: usize = text.split_inclusive('\n').take(2).map(str::len).sum();
            journal_bytes_per_tick = (text.len() - header) as f64 / rec.ticks.len().max(1) as f64;
        }
        if i + 1 == RSS_INSTANTS {
            rss_mb = crate::peak_rss_mb();
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    tracer.set_on(false);
    if rss_mb == 0.0 {
        rss_mb = crate::peak_rss_mb();
    }
    let m1 = pool.metrics().map_err(|e| e.to_string())?;
    let ticks = beats.len().max(1) as f64;

    let system_us: f64 = beats.iter().map(|b| b.instant_us).sum();
    let reactions: usize = beats.iter().map(|b| b.reactions).sum();
    let all_us: Vec<f64> = beats.iter().map(|b| b.instant_us).collect();
    crate::set_end_to_end(out, &setup_s, &all_us, reactions, rss_mb);

    // Per-layer figures from the timed phase.
    let busy_us = m1.busy_us - m0.busy_us;
    let critical_us = m1.critical_path_us - m0.critical_path_us;
    let tick_us: Vec<f64> = beats.iter().map(|b| b.tick_us).collect();
    let samples: Vec<f64> = m1
        .per_shard
        .iter()
        .zip(&m0.per_shard)
        .flat_map(|(s1, s0)| s1.samples_us[s0.samples_us.len()..].iter().copied())
        .collect();
    out.set("runtime.busy_us_per_tick", busy_us / ticks);
    out.set("runtime.pool_reaction_p50_us", trace::median(&samples));
    out.set("sessions.open_us", trace::median(&open_us));
    out.set(
        "sessions.inject_us_per_tick",
        trace::mean(&beats.iter().map(|b| b.inject_us).collect::<Vec<_>>()),
    );
    out.set("sessions.tick_us", trace::median(&tick_us));
    out.set(
        "sessions.shard_overhead_us_per_tick",
        (critical_us - busy_us) / ticks,
    );
    out.set(
        "sessions.pool_overhead_us_per_tick",
        (tick_us.iter().sum::<f64>() - beats.iter().map(|b| b.critical_us).sum::<f64>()) / ticks,
    );
    let counted = &beats[..beats.len().min(COUNT_INSTANTS as usize)];
    let n = counted.len().max(1) as f64;
    out.set(
        "sessions.allocs_per_reaction",
        counted.iter().map(|b| b.allocs).sum::<u64>() as f64
            / counted.iter().map(|b| b.reactions).sum::<usize>().max(1) as f64,
    );
    out.set(
        "sessions.inputs_per_tick",
        counted.iter().map(|b| b.inputs).sum::<usize>() as f64 / n,
    );
    out.set(
        "sessions.outputs_per_tick",
        counted.iter().map(|b| b.outputs).sum::<usize>() as f64 / n,
    );
    out.set(
        "bench.client_us_per_tick",
        (wall_s * 1e6 - system_us) / ticks,
    );
    let checkpoints: Vec<(f64, f64, usize)> = beats.iter().filter_map(|b| b.checkpoint).collect();
    if durable {
        let (digest, plain): (Vec<&Beat>, Vec<&Beat>) = beats
            .iter()
            .partition(|b| (b.tick + 1).is_multiple_of(DIGEST_EVERY));
        let med = |bs: &[&Beat]| trace::median(&bs.iter().map(|b| b.tick_us).collect::<Vec<_>>());
        out.set("flight.checkpoint_tick_us", med(&digest) - med(&plain));
        out.set("flight.journal_bytes_per_tick", journal_bytes_per_tick);
        out.set(
            "snapshot.capture_us",
            trace::median(&checkpoints.iter().map(|c| c.0).collect::<Vec<_>>()),
        );
        out.set(
            "snapshot.encode_us",
            trace::median(&checkpoints.iter().map(|c| c.1).collect::<Vec<_>>()),
        );
        if let Some(first) = checkpoints.first() {
            out.set(
                "snapshot.bytes_per_session",
                first.2 as f64 / SESSIONS as f64,
            );
        }
    }

    if durable {
        recover(args, &mut conductor, pool, &mut tracer, out)?;
    } else {
        drop(pool);
    }

    // Output check: every instant of the sampled sessions, re-driven
    // through the interpreter.
    for (k, steps) in conductor.steps.iter().enumerate() {
        out.attempted += steps.len() as u64;
        for why in oracle::check(&score, steps) {
            out.fail(format!("oracle, sampled session {k}: {why}"));
        }
    }

    if args.trace {
        let spans = tracer.spans();
        let setup = &spans[..setup_spans];
        out.set(
            "compiler.compile_us",
            trace::median(&trace::durations(setup, "compile")),
        );
        out.set(
            "runtime.machine_new_us",
            trace::mean(&trace::durations(setup, "machine_new")),
        );
        // Reactions run inside `tick` on the shard, out of the spans'
        // sight: the pool's own busy time moves them from the sessions
        // layer to the runtime.
        let traced_ticks = (0..beats.len() as u64)
            .filter(|&i| traced_instant(true, i))
            .count() as f64;
        for (layer, ms) in trace::self_ms(spans) {
            let moved = busy_us / ticks * traced_ticks / 1e3;
            let ms = match layer {
                Layer::Runtime => ms + moved,
                Layer::Sessions => ms - moved,
                _ => ms,
            };
            out.set(layer.self_metric(), ms);
        }
        out.set(
            "bench.trace_overhead_pct",
            crate::trace_overhead_pct(&all_us),
        );
        out.set("bench.span_coverage", trace::coverage(spans, "instant"));
    }
    Ok(())
}

/// The crash and its recoveries (see the module docs).
fn recover(
    args: &Args,
    conductor: &mut Conductor,
    mut pool: SessionPool,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    // Play on to the next scheduled checkpoint, then past it: the suffix
    // is shorter than the checkpoint period and longer than the digest
    // period, so the replay re-drives it whole and checks digests.
    while conductor.beat(&mut pool, tracer, out)?.checkpoint.is_none() {}
    for _ in 0..CRASH_SUFFIX {
        conductor.beat(&mut pool, tracer, out)?;
    }
    let journal = pool.recording().ok_or("the recorder is armed")?.to_jsonl();
    let live = pool.digests().map_err(|e| e.to_string())?;
    drop(pool);
    let checkpoint = conductor.checkpoint.take().expect("checkpoint taken above");

    let mut recovery_ms = Vec::new();
    let mut snap_decode = Vec::new();
    let mut flight_decode = Vec::new();
    let mut replay = Vec::new();
    let mut restore = Vec::new();
    tracer.set_on(args.trace);
    for r in 0..RECOVERIES {
        tracer.set_group((1 << 62) | r as u64);
        out.attempted += 1;
        let t0 = Instant::now();
        tracer.begin(Layer::Bench, "recovery");
        let snap = tracer
            .span(Layer::Snapshot, "decode", || {
                PoolSnapshot::from_jsonl(&checkpoint)
            })
            .map_err(|e| format!("checkpoint decode: {e}"))?;
        let t1 = Instant::now();
        let rec = tracer
            .span(Layer::Flight, "decode", || Recording::from_jsonl(&journal))
            .map_err(|e| format!("journal decode: {e}"))?;
        let t2 = Instant::now();
        let mut fresh = new_pool(tracer);
        let t3 = Instant::now();
        let opts = ReplayOptions {
            from_snapshot: Some(snap),
            ..ReplayOptions::default()
        };
        let replayed = tracer.span(Layer::Flight, "replay", || fresh.replay(&rec, &opts));
        let t4 = Instant::now();
        tracer.end();
        recovery_ms.push((t4 - t0).as_secs_f64() * 1e3);
        snap_decode.push(us(t1 - t0));
        flight_decode.push(us(t2 - t1));
        replay.push(us(t4 - t3));
        match replayed {
            Err(e) => out.fail(format!("recovery {r}: {e}")),
            Ok(rep) if !rep.ok() || rep.checked == 0 || rep.ticks != CRASH_SUFFIX => {
                out.fail(format!("recovery {r}: replay {}", rep.to_json()))
            }
            Ok(_) => {
                let got = fresh.digests().map_err(|e| e.to_string())?;
                if got != live {
                    out.fail(format!(
                        "recovery {r}: final digests differ from the live pool's"
                    ));
                }
            }
        }
        drop(fresh);
        if args.trace {
            // `replay` restores before it re-drives the suffix; a restore
            // alone on another fresh pool splits the two.
            let snap = PoolSnapshot::from_jsonl(&checkpoint).map_err(|e| e.to_string())?;
            let mut other = new_pool(tracer);
            let t5 = Instant::now();
            tracer
                .span(Layer::Snapshot, "restore", || other.restore(&snap))
                .map_err(|e| format!("restore: {e}"))?;
            restore.push(us(t5.elapsed()));
        }
    }
    tracer.set_on(false);
    let restore_us = trace::median(&restore);
    out.set("recovery_ms", trace::median(&recovery_ms));
    out.set("flight.recovery_ms", trace::median(&recovery_ms));
    out.set("snapshot.decode_us", trace::median(&snap_decode));
    out.set("flight.decode_us", trace::median(&flight_decode));
    out.set("snapshot.restore_us", restore_us);
    out.set(
        "flight.replay_us_per_tick",
        (trace::median(&replay) - restore_us) / CRASH_SUFFIX as f64,
    );
    Ok(())
}
