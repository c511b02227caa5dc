//! Durability acceptance battery: versioned snapshots, crash-recovery
//! replay, live migration, and elastic resharding.
//!
//! The invariant under test everywhere is *digest transparency*: a
//! session restored from a [`PoolSnapshot`] — on any shard count, under
//! any engine, in any cohort mode, before or after a live migration —
//! must be bit-identical (per [`Machine::state_digest`]) to the session
//! that never stopped. Four angles:
//!
//! 1. **Seeded snapshot/restore sweep.** Random synthetic programs
//!    driven under every engine (levelized/constructive/sparse) ×
//!    cohort mode (off/u64/wide) × shard count (1/3/8), checkpointed
//!    mid-run, restored onto a *different* shard count, and driven in
//!    lockstep with the undisturbed pool: every post-restore tick must
//!    be digest-identical.
//! 2. **Scale + wire format.** A 1000-session pool on 4 shards round-
//!    trips through the JSONL wire format and restores onto 3 shards.
//! 3. **Crash recovery.** A shard is killed for real mid-run (a
//!    panicking factory takes the shard thread down); the pool is
//!    rebuilt from the last checkpoint plus the journal suffix and must
//!    match the digests of the run that never crashed — with chaos
//!    armed, so the restored fault RNGs must resume the same schedule.
//! 4. **Migration mid-retry.** A supervised activity deep in its
//!    backoff schedule is live-migrated to another shard; the adopted
//!    activity must keep its attempt count, its remaining backoff
//!    delay, and its jitter RNG position — proven by lockstep digests
//!    against an unmigrated control pool.
//! 5. **Old engine tags.** Checked-in snapshots (`tests/fixtures/`)
//!    written by the five-engine runtime, tagged `levelized`, `hybrid`
//!    and `naive`, restore onto today's engines and keep replaying
//!    digest-for-digest with a machine that never stopped.

use hiphop_bench::synthetic_program;
use hiphop_compiler::compile_module;
use hiphop_core::prelude::*;
use hiphop_core::rng::Rng;
use hiphop_eventloop::sessions::{SessionBuild, SessionId, SessionPool};
use hiphop_eventloop::supervisor::{
    supervised_async, ActivityPolicy, SupervisedSpec, Supervisor,
};
use hiphop_runtime::{
    machine_for, CohortWidth, EngineMode, Machine, PoolSnapshot, RecorderConfig,
    ReplayOptions,
};
use std::collections::BTreeMap;

fn sweep_seeds() -> u64 {
    std::env::var("HIPHOP_PROPTEST_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// A factory building the same synthetic program for every session,
/// pinned to one engine. Compiles per call: machines are built on the
/// shard threads and the programs are small.
fn synth_factory(
    size: usize,
    seed: u64,
    engine: EngineMode,
) -> impl Fn(SessionId) -> Result<Machine, String> + Clone + Send + Sync {
    move |_id| {
        let module = synthetic_program(size, seed);
        let compiled =
            compile_module(&module, &ModuleRegistry::new()).map_err(|e| e.to_string())?;
        let mut m = Machine::new(compiled.circuit).map_err(|e| e.to_string())?;
        let _ = m.set_engine(engine);
        Ok(m)
    }
}

/// Injects a seeded batch of `i0..i7` inputs into every session for one
/// tick — the same schedule both pools of a lockstep pair see.
fn inject_step(pool: &mut SessionPool, sessions: u64, seed: u64, step: u64) {
    let mut rng = Rng::seed_from_u64(seed ^ step.wrapping_mul(0x9E3779B97F4A7C15));
    for id in 0..sessions {
        for k in 0..8 {
            if rng.gen_bool(0.3) {
                pool.inject(
                    SessionId(id),
                    &format!("i{k}"),
                    Value::from(rng.gen_range(0i64..5)),
                );
            }
        }
    }
}

fn digests_of(pool: &SessionPool) -> BTreeMap<SessionId, String> {
    pool.digests()
        .expect("digests")
        .into_iter()
        .map(|(id, d)| (id, hiphop_runtime::flight::digest_hash(&d)))
        .collect()
}

#[test]
fn snapshot_restore_is_digest_transparent_across_engines_cohorts_and_shards() {
    const SESSIONS: u64 = 6;
    let cohorts = [None, Some(CohortWidth::U64), Some(CohortWidth::Wide)];
    let engines = [
        EngineMode::Levelized,
        EngineMode::Constructive,
        // Sparse carries an incremental baseline across ticks that is
        // deliberately absent from the wire format: the restored twin
        // must rebuild it and still march digest-for-digest.
        EngineMode::Sparse,
    ];
    for case in 0..sweep_seeds() {
        let seed = 0x0D07_AB1E ^ case.wrapping_mul(0x9E3779B97F4A7C15);
        for engine in engines {
            for cohort in cohorts {
                for (shards, reshards) in [(1usize, 3usize), (3, 8), (8, 1)] {
                    let ctx = format!(
                        "seed {seed:#x}, {engine}, cohort {cohort:?}, {shards}->{reshards} shard(s)"
                    );
                    let factory = synth_factory(20, seed, engine);
                    let mut pool = SessionPool::new(shards, 10, factory.clone());
                    pool.set_cohort(cohort).expect("cohort");
                    pool.open_many(SESSIONS).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    for step in 0..3 {
                        inject_step(&mut pool, SESSIONS, seed, step);
                        pool.tick().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    }
                    let snap = pool.snapshot().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_eq!(snap.sessions.len(), SESSIONS as usize, "{ctx}");

                    // Restore onto a different shard count and drive
                    // both pools in lockstep: every tick must agree.
                    let mut twin = SessionPool::new(reshards, 10, factory);
                    twin.set_cohort(cohort).expect("cohort");
                    twin.restore(&snap).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_eq!(digests_of(&twin), digests_of(&pool), "{ctx}: at restore");
                    assert_eq!(twin.ticks(), pool.ticks(), "{ctx}: tick counter");
                    for step in 3..7 {
                        inject_step(&mut pool, SESSIONS, seed, step);
                        inject_step(&mut twin, SESSIONS, seed, step);
                        pool.tick().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        twin.tick().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        assert_eq!(
                            digests_of(&twin),
                            digests_of(&pool),
                            "{ctx}: diverged at tick {step}"
                        );
                    }
                }
            }
        }
    }
}

/// The per-session counter score the scale / crash / migration tests
/// share: `inc` adds to `count`, which is emitted every instant.
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

#[test]
fn thousand_session_pool_reshards_through_the_wire_format() {
    const SESSIONS: u64 = 1000;
    let factory = |_id: SessionId| {
        let compiled = compile_module(&counter_module(), &ModuleRegistry::new())
            .map_err(|e| e.to_string())?;
        Machine::new(compiled.circuit).map_err(|e| e.to_string())
    };
    let mut pool = SessionPool::new(4, 10, factory);
    pool.open_many(SESSIONS).expect("open");
    for step in 0..3u64 {
        for id in 0..SESSIONS {
            if (id + step) % 3 == 0 {
                pool.inject(SessionId(id), "inc", Value::from(step as i64 + 1));
            }
        }
        pool.tick().expect("tick");
    }
    let snap = pool.snapshot().expect("snapshot");
    assert_eq!(snap.sessions.len(), 1000);

    // Serialize, parse back, restore on a *smaller* pool.
    let wire = snap.to_jsonl();
    let parsed = PoolSnapshot::from_jsonl(&wire).expect("wire format parses");
    assert_eq!(parsed, snap, "lossless round trip");
    let mut small = SessionPool::new(3, 10, factory);
    small.restore(&parsed).expect("restore");
    assert_eq!(small.sessions(), 1000);
    assert_eq!(digests_of(&small), digests_of(&pool));

    // And the resharded pool keeps pace.
    for step in 3..5u64 {
        for p in [&mut pool, &mut small] {
            for id in 0..SESSIONS {
                if (id + step) % 3 == 0 {
                    p.inject(SessionId(id), "inc", Value::from(step as i64 + 1));
                }
            }
            p.tick().expect("tick");
        }
        assert_eq!(digests_of(&small), digests_of(&pool), "tick {step}");
    }
}

#[test]
fn killed_shard_recovers_from_checkpoint_plus_journal_suffix() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let bomb = Arc::new(AtomicBool::new(false));
    let chaos_factory = {
        let bomb = bomb.clone();
        move |id: SessionId| {
            if bomb.load(Ordering::SeqCst) {
                // A real crash: the unwind takes the shard thread down.
                panic!("injected shard crash while building {id}");
            }
            let compiled = compile_module(&counter_module(), &ModuleRegistry::new())
                .map_err(|e| e.to_string())?;
            let mut m = Machine::new(compiled.circuit).map_err(|e| e.to_string())?;
            // Seeded per-session faults: recovery must resume the
            // exact fault schedule for the suffix digests to match.
            m.set_chaos(0xFAA17 ^ id.0, 0.1);
            Ok(m)
        }
    };

    let drive = |pool: &mut SessionPool, step: u64| {
        for id in 0..8u64 {
            if (id + step).is_multiple_of(2) {
                pool.inject(SessionId(id), "inc", Value::from(step as i64 + 1));
            }
        }
        pool.tick().expect("tick");
    };

    // The fault-free shadow: the same run, never crashed.
    let mut shadow = SessionPool::new(2, 10, chaos_factory.clone());
    shadow.open_many(8).expect("open");
    (0..8).for_each(|s| drive(&mut shadow, s));
    let want = digests_of(&shadow);

    // The victim records its journal and checkpoints at tick 4.
    let mut pool = SessionPool::new(2, 10, chaos_factory.clone());
    pool.record(
        RecorderConfig { checkpoint_every: 1, ..RecorderConfig::default() },
        BTreeMap::new(),
    )
    .expect("record");
    pool.open_many(8).expect("open");
    let mut checkpoint = None;
    for step in 0..6 {
        drive(&mut pool, step);
        if step == 3 {
            checkpoint = Some(pool.snapshot().expect("snapshot"));
        }
    }
    let rec = pool.recording().expect("journal");

    // Kill a shard for real: the next open unwinds its thread, and the
    // pool reports it instead of hanging or lying.
    bomb.store(true, Ordering::SeqCst);
    let err = pool.open(&[SessionId(9999)]).expect_err("shard must die");
    assert!(err.to_string().contains("gone"), "{err}");
    drop(pool); // the crash site is gone

    // Recovery: restore the tick-4 checkpoint on a *different* shard
    // count and re-drive only the journal suffix (ticks 4 and 5), then
    // catch up live. O(instants since checkpoint), not O(history).
    bomb.store(false, Ordering::SeqCst);
    let mut recovered = SessionPool::new(3, 10, chaos_factory);
    let report = recovered
        .replay(
            &rec,
            &ReplayOptions {
                from_snapshot: checkpoint,
                ..ReplayOptions::default()
            },
        )
        .expect("recovery replays");
    assert!(report.ok(), "{:?}", report.mismatches);
    assert_eq!(report.ticks, 2, "only the journal suffix was re-driven");
    assert!(report.checked > 0, "suffix checkpoints were verified");
    (6..8).for_each(|s| drive(&mut recovered, s));
    assert_eq!(digests_of(&recovered), want, "recovered run == uncrashed run");
}

#[test]
fn migration_mid_retry_preserves_backoff_and_attempt_state() {
    // Every session runs one supervised activity that fails its first
    // three attempts and succeeds on the fourth, under exponential
    // backoff (40ms base, 160ms cap, default jitter — so the adopted
    // activity's jitter RNG position matters too). With tick_ms = 10
    // the success lands around t ≈ 300, well after the migration.
    let rich_factory = |_id: SessionId,
                        ctx: &hiphop_eventloop::sessions::SessionCtx<'_>|
     -> Result<SessionBuild, String> {
        let sup = Supervisor::new(ctx.el.clone());
        let body = supervised_async(
            &sup,
            SupervisedSpec::new("fetch").done("res").policy(
                ActivityPolicy::default()
                    .with_retries(6)
                    .with_backoff(40, 160),
            ),
            |a| {
                let attempt = a.attempt();
                let c = a.completion();
                if attempt >= 4 {
                    // Succeed with the attempt number: a reset attempt
                    // counter would change the emitted value and the
                    // digest would catch it.
                    a.el.set_timeout(5, move |el| c.succeed(el, attempt as i64));
                } else {
                    c.fail(a.el, "connection refused");
                }
            },
        );
        let main = Module::new("Main")
            .inout(SignalDecl::new("res", Direction::InOut))
            .body(body);
        let machine = machine_for(&main, &ModuleRegistry::new()).map_err(|e| e.to_string())?;
        Ok(SessionBuild { machine, supervisor: Some(sup) })
    };

    let mut pool = SessionPool::new_with(3, 10, rich_factory);
    let mut control = SessionPool::new_with(3, 10, rich_factory);
    for p in [&mut pool, &mut control] {
        p.open_many(4).expect("open");
        // t = 0..70: attempt 1 fails at boot, attempt 2 fails around
        // t ≈ 40, and the ~80ms backoff to attempt 3 is now pending —
        // the activity is mid-retry, with no attempt in flight.
        for _ in 0..7 {
            p.tick().expect("tick");
        }
    }
    let victim = SessionId(1);
    let home = pool.shard_of(victim);
    let target = (home + 1) % pool.shards();
    pool.migrate(victim, target).expect("migrate");
    assert_eq!(pool.shard_of(victim), target, "route moved");
    assert_eq!(
        digests_of(&pool),
        digests_of(&control),
        "migration alone changes nothing"
    );

    // Drive both pools to t = 400: the pending retry must fire at the
    // same instant on the new shard, the attempt counter must still
    // read 3, and attempt 4's success must land on the same tick with
    // the same value. Any drift — a reset counter, a lost or rescaled
    // backoff timer, a re-seeded jitter RNG — shows up as a digest
    // mismatch at that tick.
    let mut resolved_at = None;
    for step in 7..40u64 {
        let report = pool.tick().expect("tick");
        control.tick().expect("tick");
        assert_eq!(
            digests_of(&pool),
            digests_of(&control),
            "diverged at tick {step}"
        );
        // The completion reaction runs mailbox-driven *inside* the
        // tick; the scheduled reaction that follows reports the stuck
        // signal value, so watch the value, not the presence bit.
        let res = report
            .session(victim)
            .and_then(|o| o.outputs.iter().rev().find(|s| &*s.name == "res"))
            .map(|s| s.value.clone())
            .filter(|v| *v != Value::Null);
        if let (Some(v), None) = (res, resolved_at) {
            assert_eq!(v, Value::from(4i64), "fourth attempt succeeded");
            resolved_at = Some(step);
        }
    }
    assert!(resolved_at.is_some(), "the migrated activity completed");
}

/// The per-instant inputs of session `session` in the snapshot fixtures
/// (`tests/fixtures/snapshot_*.jsonl`), which were captured after
/// instants 0..6 of `synthetic_program(40, 0x5EED)` under these inputs.
fn fixture_inputs(session: u64, instant: u64) -> Vec<(String, Value)> {
    let mut rng = Rng::seed_from_u64(0xF1C5 ^ session.wrapping_mul(0x9E3779B97F4A7C15) ^ instant);
    let mut inputs = Vec::new();
    for k in 0..8 {
        if rng.gen_bool(0.4) {
            inputs.push((format!("i{k}"), Value::from(rng.gen_range(0i64..5))));
        }
    }
    inputs
}

fn fixture_machine() -> Machine {
    let module = synthetic_program(40, 0x5EED);
    let compiled = compile_module(&module, &ModuleRegistry::new()).expect("compiles");
    Machine::new(compiled.circuit).expect("finalized circuit")
}

fn react_fixture(m: &mut Machine, session: u64, instant: u64) {
    let inputs = fixture_inputs(session, instant);
    let refs: Vec<(&str, Value)> = inputs
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    m.react_with(&refs).expect("reaction");
}

#[test]
fn snapshots_with_retired_engine_tags_restore_and_keep_replaying() {
    const CAPTURED: u64 = 6;
    for (tag, text, resolved) in [
        (
            "levelized",
            include_str!("fixtures/snapshot_levelized.jsonl"),
            EngineMode::Levelized,
        ),
        (
            "hybrid",
            include_str!("fixtures/snapshot_hybrid.jsonl"),
            EngineMode::Levelized,
        ),
        (
            "naive",
            include_str!("fixtures/snapshot_naive.jsonl"),
            EngineMode::Constructive,
        ),
    ] {
        let snap = PoolSnapshot::from_jsonl(text).unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_eq!(snap.sessions.len(), 2, "{tag}");
        for s in &snap.sessions {
            assert_eq!(
                s.machine.engine.as_deref(),
                Some(tag),
                "the fixture carries the old tag"
            );
            let mut restored = fixture_machine();
            restored
                .restore(&s.machine)
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(restored.engine(), resolved, "{tag} resolves to {resolved}");
            assert_eq!(
                hiphop_runtime::snapshot::digest_of(&restored.state_digest()),
                s.digest,
                "{tag}: digest at restore"
            );
            // A machine that never stopped, on the default engine.
            let mut reference = fixture_machine();
            for instant in 0..CAPTURED {
                react_fixture(&mut reference, s.session, instant);
            }
            assert_eq!(
                reference.state_digest(),
                restored.state_digest(),
                "{tag}: at capture"
            );
            for instant in CAPTURED..CAPTURED + 10 {
                react_fixture(&mut reference, s.session, instant);
                react_fixture(&mut restored, s.session, instant);
                assert_eq!(
                    reference.state_digest(),
                    restored.state_digest(),
                    "{tag}: session {} diverged at instant {instant}",
                    s.session
                );
            }
            // Re-captured, the request carries today's name.
            assert_eq!(restored.snapshot().engine.as_deref(), Some(resolved.name()));
        }

        // The pool path verifies every session's digest hash on restore.
        let mut pool = SessionPool::new(2, 10, |_| Ok(fixture_machine()));
        pool.restore(&snap)
            .unwrap_or_else(|e| panic!("{tag}: pool restore: {e}"));
        assert_eq!(pool.ticks(), CAPTURED, "{tag}");
    }
}
