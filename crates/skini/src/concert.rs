//! The pool-scale concert load scenario: K audience sessions, each its
//! own reactive score machine, multiplexed by a sharded
//! [`SessionPool`] — the Skini deployment shape ("audiences of hundreds
//! of participants", §4.2) driven deterministically on the virtual
//! clock.
//!
//! Every session runs the *same generated score* but with its own
//! seeded [`Audience`], its own active-group view and its own
//! [`Sequencer`], so behaviour is per-session deterministic and —
//! crucially — **independent of the shard count**: re-running a concert
//! with the same seed on 1 or 8 shards produces the same
//! [`ConcertReport::digest`]. The pool is pure plumbing.

use crate::audience::Audience;
use crate::composition::Composition;
use crate::genscore::{generate, ScoreShape};
use crate::sequencer::Sequencer;
use hiphop_core::value::Value;
use hiphop_eventloop::sessions::{
    Rebalancer, RebalancerConfig, SessionId, SessionOutputs, SessionPool,
};
use hiphop_runtime::{
    CohortWidth, EngineMode, Machine, PoolMetrics, PoolSnapshot, RecorderConfig, Recording,
    ReplayOptions, ReplayReport, SpanRecord,
};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Parameters of a concert load run.
#[derive(Debug, Clone, Copy)]
pub struct ConcertConfig {
    /// Number of audience sessions (K).
    pub sessions: u64,
    /// Pool shards.
    pub shards: usize,
    /// Beats to run (one pool tick per beat).
    pub ticks: u64,
    /// Master seed; each session's audience derives its own stream.
    pub seed: u64,
    /// Score family every session plays.
    pub shape: ScoreShape,
    /// Per-action host-panic injection rate across every session
    /// (0 disables — the default; failed reactions roll back).
    pub chaos_rate: f64,
}

impl ConcertConfig {
    /// A small-score concert — the CLI `serve` default.
    pub fn new(sessions: u64, shards: usize, ticks: u64, seed: u64) -> ConcertConfig {
        ConcertConfig {
            sessions,
            shards,
            ticks,
            seed,
            shape: ScoreShape::small(),
            chaos_rate: 0.0,
        }
    }
}

/// What a concert run produced.
#[derive(Debug, Clone)]
pub struct ConcertReport {
    /// Sessions served.
    pub sessions: u64,
    /// Beats executed.
    pub ticks: u64,
    /// Audience selections enqueued across all sessions.
    pub enqueued: usize,
    /// Patterns actually started by the per-session sequencers.
    pub played: usize,
    /// Failed (rolled-back) reactions observed.
    pub faults: usize,
    /// Live migrations applied by the rebalancer (0 unless
    /// [`ConcertRunOptions::rebalance`] was set).
    pub migrations: usize,
    /// Order-independent digest of every session's output trace —
    /// equal across shard counts for the same seed.
    pub digest: u64,
    /// Pool metrics roll-up.
    pub metrics: PoolMetrics,
}

/// Observability knobs for a concert run — everything the pool-wide
/// observability plane can capture while the concert plays.
#[derive(Default)]
pub struct ConcertRunOptions {
    /// Arm the flight recorder with this config before opening sessions.
    pub record: Option<RecorderConfig>,
    /// Emit tick/sweep/reaction spans (collected in [`ConcertRun::spans`]).
    pub trace_spans: bool,
    /// Advance sessions through bit-parallel lockstep cohorts instead of
    /// per-session scalar sweeps (`None` = scalar). Pure execution
    /// strategy: the concert digest is identical either way.
    pub cohort: Option<CohortWidth>,
    /// Force every session onto this evaluation engine (`None` keeps the
    /// per-machine default). Like `cohort`, a pure execution strategy:
    /// digests are identical under any engine.
    pub engine: Option<EngineMode>,
    /// Tally per-level net-evaluation counters in every session.
    pub level_activity: bool,
    /// Invoke [`ConcertRunOptions::watch`] every N beats (0 = never).
    pub watch_every: u64,
    /// Periodic metrics observer (beat number, pool roll-up).
    #[allow(clippy::type_complexity)]
    pub watch: Option<Box<dyn FnMut(u64, &PoolMetrics)>>,
    /// Checkpoint the whole pool every N beats (0 = never); checkpoints
    /// are collected in [`ConcertRun::snapshots`] and anchor
    /// crash-recovery replays ([`ReplayOptions::from_snapshot`]).
    pub snapshot_every: u64,
    /// Run a metrics-driven [`Rebalancer`] between beats, live-migrating
    /// sessions off skewed shards. Pure plumbing: the concert digest is
    /// identical with or without it.
    pub rebalance: Option<RebalancerConfig>,
}

/// What an observed concert run produced: the plain report plus
/// whatever the observability plane captured.
pub struct ConcertRun {
    /// The ordinary concert report.
    pub report: ConcertReport,
    /// The flight journal, when recording was requested.
    pub recording: Option<Recording>,
    /// Collected spans, when tracing was requested.
    pub spans: Vec<SpanRecord>,
    /// `(beat, checkpoint)` pairs taken every
    /// [`ConcertRunOptions::snapshot_every`] beats.
    pub snapshots: Vec<(u64, PoolSnapshot)>,
}

/// Encodes the scenario metadata a [`replay`] needs to rebuild an
/// equivalent session factory: scenario name, shape knobs, seed and
/// chaos rate. Stored in the recording header.
pub fn scenario_metadata(cfg: &ConcertConfig) -> BTreeMap<String, String> {
    let mut m = BTreeMap::new();
    m.insert("scenario".to_owned(), "concert".to_owned());
    m.insert(
        "shape".to_owned(),
        format!(
            "{},{},{},{}",
            cfg.shape.movements,
            cfg.shape.groups_per_movement,
            cfg.shape.patterns_per_group,
            cfg.shape.selections_per_group
        ),
    );
    m.insert("seed".to_owned(), cfg.seed.to_string());
    m.insert("chaos_rate".to_owned(), format!("{}", cfg.chaos_rate));
    m.insert("sessions".to_owned(), cfg.sessions.to_string());
    m.insert("ticks".to_owned(), cfg.ticks.to_string());
    m
}

/// Parses the metadata written by [`scenario_metadata`] back into the
/// factory parameters. Fails on foreign or mangled recordings.
fn parse_scenario(meta: &BTreeMap<String, String>) -> Result<(ScoreShape, u64, f64), String> {
    if meta.get("scenario").map(String::as_str) != Some("concert") {
        return Err(format!(
            "not a concert recording (scenario = {:?})",
            meta.get("scenario")
        ));
    }
    let shape_s = meta.get("shape").ok_or("recording lacks a shape")?;
    let knobs: Vec<u32> = shape_s
        .split(',')
        .map(|p| p.trim().parse::<u32>().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    if knobs.len() != 4 {
        return Err(format!("malformed shape {shape_s:?}: want 4 knobs"));
    }
    let shape = ScoreShape {
        movements: knobs[0],
        groups_per_movement: knobs[1],
        patterns_per_group: knobs[2],
        selections_per_group: knobs[3],
    };
    let seed = meta
        .get("seed")
        .ok_or("recording lacks a seed")?
        .parse::<u64>()
        .map_err(|e| format!("bad seed: {e}"))?;
    let chaos_rate = meta
        .get("chaos_rate")
        .map(|s| s.parse::<f64>().map_err(|e| format!("bad chaos_rate: {e}")))
        .transpose()?
        .unwrap_or(0.0);
    Ok((shape, seed, chaos_rate))
}

/// Cache key: the four `ScoreShape` knobs.
type ShapeKey = (u32, u32, u32, u32);

thread_local! {
    /// Per-shard-thread circuit cache: every session of a shard plays
    /// the same generated score, so compile once per thread; machines
    /// built from clones of the cached circuit share one program image.
    static CIRCUIT_CACHE: RefCell<Option<(ShapeKey, hiphop_circuit::Circuit)>> =
        const { RefCell::new(None) };
}

fn shape_key(s: ScoreShape) -> ShapeKey {
    (
        s.movements,
        s.groups_per_movement,
        s.patterns_per_group,
        s.selections_per_group,
    )
}

/// Builds one session's score machine (on the calling — shard — thread).
fn build_machine(shape: ScoreShape, chaos_seed: u64, chaos_rate: f64) -> Result<Machine, String> {
    let mut machine = CIRCUIT_CACHE.with(|cache| -> Result<Machine, String> {
        let mut cache = cache.borrow_mut();
        if !matches!(&*cache, Some((key, _)) if *key == shape_key(shape)) {
            let (module, _comp) = generate(shape);
            let registry = hiphop_core::module::ModuleRegistry::new();
            let compiled = hiphop_compiler::compile_module(&module, &registry)
                .map_err(|e| e.to_string())?;
            *cache = Some((shape_key(shape), compiled.circuit));
        }
        let (_, circuit) = cache.as_ref().expect("compiled above");
        Machine::new(circuit.clone()).map_err(|e| e.to_string())
    })?;
    if chaos_rate > 0.0 {
        machine.set_chaos(chaos_seed, chaos_rate);
    }
    Ok(machine)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// One participant's client-side view: their audience stream, the
/// groups they currently see offered, and their DAW/sequencer.
struct Participant {
    audience: Audience,
    active: Vec<String>,
    sequencer: Sequencer,
    enqueued: usize,
}

impl Participant {
    /// Refreshes the active-group view from the session's latest output
    /// batch. Output snapshots list every declared output, so the last
    /// occurrence of each `<g>State` signal is the instant's value.
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

/// FNV-1a over a session-output batch, folded into `digest`.
fn fold_digest(digest: &mut u64, tick: u64, outputs: &SessionOutputs) {
    let mut h = *digest ^ splitmix64(tick ^ outputs.session.0.rotate_left(17));
    let mut eat = |s: &str| {
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001B3);
        }
    };
    for o in &outputs.outputs {
        eat(&o.name);
        eat(if o.present { "+" } else { "-" });
        eat(&o.value.to_string());
        eat(";");
    }
    *digest = h;
}

/// Runs a full concert: opens `cfg.sessions` sessions over
/// `cfg.shards` shards and drives `cfg.ticks` beats of audience
/// activity through [`SessionPool::inject`] / [`SessionPool::tick`].
///
/// # Errors
///
/// Fails when a session cannot be built (a compile error in the
/// generated score) or a shard dies. Per-reaction faults (only possible
/// with `chaos_rate > 0`) are rolled back and *counted*, not fatal.
pub fn run(cfg: &ConcertConfig) -> Result<ConcertReport, String> {
    run_with(cfg, ConcertRunOptions::default()).map(|r| r.report)
}

/// Builds the shard-side session factory for a concert: every session
/// plays the same generated score, with its chaos seed derived from the
/// master seed and the session id — the exact derivation [`replay`]
/// must reproduce for fault schedules to line up.
fn concert_factory(
    shape: ScoreShape,
    master_seed: u64,
    chaos_rate: f64,
) -> impl Fn(SessionId) -> Result<Machine, String> + Clone + Send + 'static {
    move |id: SessionId| build_machine(shape, splitmix64(master_seed ^ !id.0), chaos_rate)
}

/// [`run`] with the observability plane armed: optionally records the
/// flight journal, collects spans and tallies per-level activity, and
/// invokes a periodic metrics watcher.
///
/// # Errors
///
/// Same failure modes as [`run`], plus shard deaths surfaced while
/// arming the recorder or fetching watched metrics.
pub fn run_with(cfg: &ConcertConfig, mut opts: ConcertRunOptions) -> Result<ConcertRun, String> {
    let (_, comp) = generate(cfg.shape);
    let mut pool = SessionPool::new(
        cfg.shards,
        10,
        concert_factory(cfg.shape, cfg.seed, cfg.chaos_rate),
    );
    if opts.trace_spans {
        pool.set_tracing(true).map_err(|e| e.to_string())?;
    }
    if opts.cohort.is_some() {
        pool.set_cohort(opts.cohort).map_err(|e| e.to_string())?;
    }
    if opts.engine.is_some() {
        pool.set_engine(opts.engine).map_err(|e| e.to_string())?;
    }
    if opts.level_activity {
        pool.set_level_activity(true).map_err(|e| e.to_string())?;
    }
    if let Some(rc) = opts.record.take() {
        pool.record(rc, scenario_metadata(cfg)).map_err(|e| e.to_string())?;
    }

    let mut participants: BTreeMap<SessionId, Participant> = (0..cfg.sessions)
        .map(|i| {
            (
                SessionId(i),
                Participant {
                    // Enthusiasm varies across the audience, seeded.
                    audience: Audience::new(
                        cfg.seed ^ splitmix64(i),
                        0.5 + (splitmix64(cfg.seed ^ i) % 50) as f64 / 100.0,
                    ),
                    active: Vec::new(),
                    sequencer: Sequencer::new(),
                    enqueued: 0,
                },
            )
        })
        .collect();

    let mut digest = 0xcbf29ce484222325u64;
    let mut faults = 0usize;
    let mut migrations = 0usize;
    let mut snapshots: Vec<(u64, PoolSnapshot)> = Vec::new();
    let rebalancer = opts.rebalance.clone().map(Rebalancer::new);

    let booted = pool.open_many(cfg.sessions).map_err(|e| e.to_string())?;
    faults += booted.faults.len();
    for outputs in &booted.outputs {
        let p = participants.get_mut(&outputs.session).expect("opened session");
        p.observe(&comp, outputs);
        fold_digest(&mut digest, 0, outputs);
    }

    for beat in 0..cfg.ticks {
        for (&id, p) in &mut participants {
            let picks = p.audience.pick(&comp, &p.active);
            for s in &picks {
                p.sequencer.enqueue(s.pattern);
                p.enqueued += 1;
                pool.inject(id, &Composition::in_signal(&s.group), Value::from(s.pattern as i64));
            }
            pool.inject(id, "beat", Value::from(beat as i64));
        }
        let report = pool.tick().map_err(|e| e.to_string())?;
        faults += report.faults.len();
        for outputs in &report.outputs {
            let p = participants.get_mut(&outputs.session).expect("known session");
            p.observe(&comp, outputs);
            fold_digest(&mut digest, beat + 1, outputs);
            p.sequencer.play_beat(&comp, beat);
        }
        if opts.watch_every > 0 && (beat + 1).is_multiple_of(opts.watch_every) {
            if let Some(watch) = opts.watch.as_mut() {
                let snapshot = pool.metrics().map_err(|e| e.to_string())?;
                watch(beat + 1, &snapshot);
            }
        }
        if opts.snapshot_every > 0 && (beat + 1).is_multiple_of(opts.snapshot_every) {
            snapshots.push((beat + 1, pool.snapshot().map_err(|e| e.to_string())?));
        }
        if let Some(rb) = &rebalancer {
            migrations += pool.rebalance(rb).map_err(|e| e.to_string())?.len();
        }
    }

    let metrics = pool.metrics().map_err(|e| e.to_string())?;
    let recording = pool.take_recording();
    let spans = pool.take_spans();
    Ok(ConcertRun {
        report: ConcertReport {
            sessions: cfg.sessions,
            ticks: cfg.ticks,
            enqueued: participants.values().map(|p| p.enqueued).sum(),
            played: participants.values().map(|p| p.sequencer.history().len()).sum(),
            faults,
            migrations,
            digest,
            metrics,
        },
        recording,
        spans,
        snapshots,
    })
}

/// Replays a concert flight recording on a fresh pool with `shards`
/// shards — deliberately *any* shard count, since shard assignment must
/// never leak into session semantics. The session factory is rebuilt
/// from the recording's scenario metadata, so chaos fault schedules are
/// reproduced exactly (same per-session seeds, same PCG streams).
///
/// # Errors
///
/// Fails on a foreign/mangled recording, a ring-evicted (non-replayable)
/// journal, or a dead shard. Digest mismatches are reported in the
/// returned [`ReplayReport`], not raised as errors.
pub fn replay(rec: &Recording, shards: usize, opts: &ReplayOptions) -> Result<ReplayReport, String> {
    replay_with(rec, shards, opts, None, None)
}

/// [`replay`] with execution-strategy overrides: `cohort` re-executes
/// the journal through bit-parallel lockstep sweeps, `engine` forces
/// every replayed session onto one evaluation engine. A recording made
/// under any strategy replays under any other with identical digests —
/// these are strategies, not semantic modes, and the digest checkpoints
/// prove it instant by instant.
///
/// # Errors
///
/// Same failure modes as [`replay`].
pub fn replay_with(
    rec: &Recording,
    shards: usize,
    opts: &ReplayOptions,
    cohort: Option<CohortWidth>,
    engine: Option<EngineMode>,
) -> Result<ReplayReport, String> {
    let (shape, seed, chaos_rate) = parse_scenario(&rec.scenario)?;
    let mut pool = SessionPool::new(
        shards,
        rec.tick_ms.max(1),
        concert_factory(shape, seed, chaos_rate),
    );
    if cohort.is_some() {
        pool.set_cohort(cohort).map_err(|e| e.to_string())?;
    }
    if engine.is_some() {
        pool.set_engine(engine).map_err(|e| e.to_string())?;
    }
    pool.replay(rec, opts).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_concert_actually_plays_music() {
        let report = run(&ConcertConfig::new(12, 3, 24, 42)).expect("runs");
        assert_eq!(report.sessions, 12);
        assert!(report.enqueued > 0, "the audience picked patterns");
        assert!(report.played > 0, "the sequencers started patterns");
        assert!(report.played <= report.enqueued);
        assert_eq!(report.faults, 0, "no chaos, no faults");
        // Boot + one reaction per session per beat.
        assert_eq!(report.metrics.reactions as u64, 12 * (24 + 1));
        assert_eq!(report.metrics.sessions(), 12);
    }

    #[test]
    fn same_seed_same_digest_regardless_of_sharding() {
        let one = run(&ConcertConfig::new(10, 1, 16, 7)).expect("1 shard");
        let four = run(&ConcertConfig::new(10, 4, 16, 7)).expect("4 shards");
        assert_eq!(
            one.digest, four.digest,
            "sharding is pure plumbing — behaviour must not change"
        );
        assert_eq!(one.played, four.played);
        assert_eq!(one.enqueued, four.enqueued);
        let other_seed = run(&ConcertConfig::new(10, 4, 16, 8)).expect("other seed");
        assert_ne!(one.digest, other_seed.digest, "the seed matters");
    }

    #[test]
    fn sessions_diverge_from_each_other() {
        // Different audience seeds ⇒ different per-session behaviour;
        // the load is not K copies of one trace.
        let report = run(&ConcertConfig::new(6, 2, 24, 11)).expect("runs");
        assert!(report.enqueued > 6, "multiple picks across the audience");
        let per_session_spread = report.metrics.reactions;
        assert_eq!(per_session_spread as u64, 6 * 25);
    }

    #[test]
    fn recorded_concert_replays_digest_identically_across_shard_counts() {
        let mut cfg = ConcertConfig::new(10, 4, 16, 99);
        cfg.chaos_rate = 0.05;
        let opts = ConcertRunOptions {
            record: Some(RecorderConfig {
                checkpoint_every: 4,
                ..RecorderConfig::default()
            }),
            ..ConcertRunOptions::default()
        };
        let run = run_with(&cfg, opts).expect("records");
        let rec = run.recording.expect("journal captured");
        assert!(rec.replayable());
        assert_eq!(rec.sessions.len(), 10);
        assert_eq!(rec.ticks.len(), 16);
        assert!(rec.input_count() > 0, "audience inputs were journaled");

        // Replay on a *different* shard count: same digests, instant by
        // instant — including the chaos fault schedule.
        let report = replay(&rec, 3, &ReplayOptions::default()).expect("replays");
        assert!(report.ok(), "digest mismatches: {:?}", report.mismatches);
        assert_eq!(report.ticks, 16);
        assert!(report.checked > 0, "checkpoints were actually verified");
    }

    #[test]
    fn cohort_and_scalar_concerts_are_digest_identical() {
        let base = run(&ConcertConfig::new(20, 2, 12, 31)).expect("scalar");
        for width in [CohortWidth::U64, CohortWidth::Wide] {
            let opts = ConcertRunOptions {
                cohort: Some(width),
                ..ConcertRunOptions::default()
            };
            let cohort = run_with(&ConcertConfig::new(20, 2, 12, 31), opts).expect("cohort");
            assert_eq!(
                base.digest, cohort.report.digest,
                "[{width:?}] cohort execution changed concert behaviour"
            );
            assert_eq!(base.played, cohort.report.played);
        }
    }

    #[test]
    fn engine_overrides_are_digest_identical_and_replayable() {
        // A concert forced onto any single engine — the sparse
        // incremental sweep included — must reproduce the default run's
        // digest exactly: engine choice is an execution strategy, never
        // a semantic mode.
        let cfg = ConcertConfig::new(16, 2, 12, 47);
        let base = run(&cfg).expect("default engines");
        for mode in [
            EngineMode::Levelized,
            EngineMode::Constructive,
            EngineMode::Sparse,
        ] {
            let forced = run_with(
                &cfg,
                ConcertRunOptions {
                    engine: Some(mode),
                    ..ConcertRunOptions::default()
                },
            )
            .expect("forced engine runs");
            assert_eq!(
                base.digest, forced.report.digest,
                "[{mode:?}] engine override changed concert behaviour"
            );
            assert_eq!(base.played, forced.report.played);
        }

        // And a default-engine chaotic recording verifies checkpoint by
        // checkpoint when re-driven on an all-sparse pool: recordings
        // are engine-agnostic.
        let mut chaotic = cfg;
        chaotic.chaos_rate = 0.05;
        let recorded = run_with(
            &chaotic,
            ConcertRunOptions {
                record: Some(RecorderConfig {
                    checkpoint_every: 1,
                    ..RecorderConfig::default()
                }),
                ..ConcertRunOptions::default()
            },
        )
        .expect("records");
        let rec = recorded.recording.expect("journal captured");
        let report = replay_with(
            &rec,
            3,
            &ReplayOptions::default(),
            None,
            Some(EngineMode::Sparse),
        )
        .expect("replays");
        assert!(
            report.ok(),
            "default→sparse digest mismatches: {:?}",
            report.mismatches
        );
        assert!(report.checked > 0, "checkpoints were actually verified");
    }

    #[test]
    fn cohort_recording_replays_on_scalar_pools_and_vice_versa() {
        // Record a 4-shard cohort-mode chaotic concert with a digest
        // checkpoint at every instant…
        let mut cfg = ConcertConfig::new(12, 4, 12, 77);
        cfg.chaos_rate = 0.05;
        let every_instant = RecorderConfig {
            checkpoint_every: 1,
            ..RecorderConfig::default()
        };
        let cohort_run = run_with(
            &cfg,
            ConcertRunOptions {
                record: Some(every_instant),
                cohort: Some(CohortWidth::U64),
                ..ConcertRunOptions::default()
            },
        )
        .expect("cohort concert records");
        let cohort_rec = cohort_run.recording.expect("journal captured");

        // …and replay it on a *scalar* pool: every checkpoint must match.
        let report =
            replay_with(&cohort_rec, 3, &ReplayOptions::default(), None, None).expect("replays");
        assert!(
            report.ok(),
            "cohort→scalar digest mismatches: {:?}",
            report.mismatches
        );
        assert!(report.checked > 0, "checkpoints were actually verified");

        // The reverse direction: scalar recording, cohort (wide) replay.
        let scalar_run = run_with(
            &cfg,
            ConcertRunOptions {
                record: Some(every_instant),
                ..ConcertRunOptions::default()
            },
        )
        .expect("scalar concert records");
        assert_eq!(
            cohort_run.report.digest, scalar_run.report.digest,
            "the two recordings describe the same concert"
        );
        let scalar_rec = scalar_run.recording.expect("journal captured");
        let report = replay_with(
            &scalar_rec,
            4,
            &ReplayOptions::default(),
            Some(CohortWidth::Wide),
            None,
        )
        .expect("replays");
        assert!(
            report.ok(),
            "scalar→cohort digest mismatches: {:?}",
            report.mismatches
        );
        assert!(report.checked > 0);
    }

    #[test]
    fn concert_recovers_from_checkpoint_plus_journal_suffix() {
        let mut cfg = ConcertConfig::new(8, 4, 12, 55);
        cfg.chaos_rate = 0.05;
        let opts = ConcertRunOptions {
            record: Some(RecorderConfig {
                checkpoint_every: 1,
                ..RecorderConfig::default()
            }),
            snapshot_every: 4,
            ..ConcertRunOptions::default()
        };
        let run = run_with(&cfg, opts).expect("runs");
        let rec = run.recording.expect("journal captured");
        assert_eq!(
            run.snapshots.iter().map(|(b, _)| *b).collect::<Vec<_>>(),
            vec![4, 8, 12]
        );
        // Recover from the beat-8 checkpoint on a *different* shard
        // count: only the journal suffix re-runs, and every remaining
        // digest checkpoint must match — chaos fault schedule included.
        let (beat, snap) = run.snapshots[1].clone();
        assert_eq!(beat, 8);
        let replay_opts = ReplayOptions {
            from_snapshot: Some(snap),
            ..ReplayOptions::default()
        };
        let report = replay_with(&rec, 2, &replay_opts, None, None).expect("replays");
        assert_eq!(report.ticks, 4, "only the suffix re-ran");
        assert!(report.ok(), "mismatches: {:?}", report.mismatches);
        assert!(report.checked > 0, "checkpoints were actually verified");
    }

    #[test]
    fn rebalanced_concert_keeps_its_digest() {
        let cfg = ConcertConfig::new(12, 3, 16, 21);
        let base = run(&cfg).expect("plain");
        let opts = ConcertRunOptions {
            rebalance: Some(RebalancerConfig {
                max_moves: 2,
                threshold: 1.1,
            }),
            ..ConcertRunOptions::default()
        };
        let rb = run_with(&cfg, opts).expect("rebalanced");
        assert_eq!(
            base.digest, rb.report.digest,
            "rebalancing changed concert behaviour"
        );
        assert_eq!(base.played, rb.report.played);
    }

    #[test]
    fn replay_rejects_foreign_recordings() {
        let rec = Recording::default();
        let err = replay(&rec, 2, &ReplayOptions::default()).unwrap_err();
        assert!(err.contains("not a concert recording"), "{err}");
    }

    #[test]
    fn traced_concert_collects_spans_and_level_activity() {
        let cfg = ConcertConfig::new(4, 2, 6, 5);
        let opts = ConcertRunOptions {
            trace_spans: true,
            level_activity: true,
            ..ConcertRunOptions::default()
        };
        let run = run_with(&cfg, opts).expect("runs");
        let ticks = run
            .spans
            .iter()
            .filter(|s| s.kind == hiphop_runtime::SpanKind::Tick)
            .count();
        let reactions = run
            .spans
            .iter()
            .filter(|s| s.kind == hiphop_runtime::SpanKind::Reaction)
            .count();
        assert_eq!(ticks as u64, cfg.ticks, "one tick span per beat");
        assert_eq!(reactions as u64, 4 * cfg.ticks, "per-beat reaction spans");
        let la = &run.report.metrics.level_activity;
        assert!(la.total_evals() > 0, "levelized sweeps were tallied");
    }

    #[test]
    fn watch_hook_fires_on_schedule() {
        let cfg = ConcertConfig::new(3, 1, 8, 1);
        let beats = std::rc::Rc::new(RefCell::new(Vec::new()));
        let sink = beats.clone();
        let opts = ConcertRunOptions {
            watch_every: 3,
            watch: Some(Box::new(move |beat, m| {
                sink.borrow_mut().push((beat, m.reactions));
            })),
            ..ConcertRunOptions::default()
        };
        run_with(&cfg, opts).expect("runs");
        let seen = beats.borrow();
        assert_eq!(seen.iter().map(|(b, _)| *b).collect::<Vec<_>>(), vec![3, 6]);
        assert!(seen.iter().all(|(_, r)| *r > 0));
    }

    #[test]
    fn chaotic_concert_survives_with_rollbacks() {
        let mut cfg = ConcertConfig::new(8, 2, 24, 3);
        cfg.chaos_rate = 0.10;
        let report = run(&cfg).expect("survives chaos");
        assert!(report.faults > 0, "10% action faults across 8×24 beats");
        assert_eq!(report.metrics.rollbacks as usize, report.faults);
        assert_eq!(
            report.metrics.sessions(),
            8,
            "rollback keeps every session live"
        );
    }
}
