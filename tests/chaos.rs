//! Chaos differential sweep: seeded fault injection against every
//! engine, with a fault-free shadow machine as the oracle.
//!
//! Each case builds the same synthetic program twice — one machine with
//! `set_chaos(seed, rate)` armed, one pristine shadow — and drives both
//! in lockstep over a deterministic input schedule. The invariants:
//!
//! 1. **No panic escapes.** Every injected fault surfaces as a
//!    structured [`RuntimeError::HostPanic`], never an unwinding panic.
//! 2. **Rollback is exact.** After a failed reaction the machine's
//!    [`Machine::state_digest`] equals its pre-reaction digest and
//!    [`Machine::is_poisoned`] is false.
//! 3. **No wedge.** The machine accepts further reactions after every
//!    fault; a faulted instant is simply skipped (the shadow skips it
//!    too, since for the rolled-back machine it never happened).
//! 4. **Differential equality.** On every successful instant the chaos
//!    machine's outputs and digest equal the shadow's — fault injection
//!    plus rollback is observationally a no-op.
//!
//! The sweep width defaults to 100 fault sequences (each run under all
//! three engines — levelized, constructive and sparse)
//! and widens via `HIPHOP_CHAOS_SEEDS`, mirroring
//! `HIPHOP_PROPTEST_SEEDS`.
//!
//! The sparse column is the interesting one for rollback: its
//! incremental baseline survives in `Machine::value` across instants,
//! so an exact rollback must also *invalidate* that baseline — the
//! digest comparison below would catch a stale-baseline replay on the
//! very next successful instant.

use hiphop::compiler::{compile_module_with, CompileOptions};
use hiphop::prelude::*;
use hiphop::runtime::EngineMode;
use hiphop_bench::synthetic_program;
use hiphop_core::rng::Rng;
use hiphop_runtime::RuntimeError;

fn chaos_seeds() -> u64 {
    std::env::var("HIPHOP_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100)
}

fn input_schedule(seed: u64, steps: usize) -> Vec<Vec<(String, Value)>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..steps)
        .map(|_| {
            let mut inputs = Vec::new();
            for k in 0..8 {
                if rng.gen_bool(0.3) {
                    inputs.push((format!("i{k}"), Value::from(rng.gen_range(0i64..5))));
                }
            }
            inputs
        })
        .collect()
}

fn outputs_of(r: &hiphop::runtime::Reaction) -> Vec<String> {
    let mut out: Vec<String> = r
        .outputs
        .iter()
        .map(|o| format!("{}={}:{}", o.name, o.present as u8, o.value))
        .collect();
    out.sort();
    out
}

#[test]
fn chaos_faults_roll_back_and_never_diverge() {
    let sweep = chaos_seeds();
    let mut total_faults = 0u64;
    for case in 0..sweep {
        let seed = 0xC4A05 ^ case.wrapping_mul(0x9E3779B97F4A7C15);
        let mut rng = Rng::seed_from_u64(seed);
        let size = rng.gen_range(10usize..60);
        let module = synthetic_program(size, seed);
        let schedule = input_schedule(seed ^ 0xFA017, 20);
        for mode in [
            EngineMode::Levelized,
            EngineMode::Constructive,
            EngineMode::Sparse,
        ] {
            let build = || {
                let c = compile_module_with(
                    &module,
                    &ModuleRegistry::new(),
                    CompileOptions::default(),
                )
                .expect("compiles");
                let mut m = Machine::new(c.circuit).expect("finalized circuit");
                m.set_engine(mode);
                m
            };
            let mut chaotic = build();
            chaotic.set_chaos(seed, 0.05);
            let mut shadow = build();

            let boot: &[Vec<(String, Value)>] = &[Vec::new()];
            for (step, instant) in boot.iter().chain(schedule.iter()).enumerate() {
                let refs: Vec<(&str, Value)> = instant
                    .iter()
                    .map(|(n, v)| (n.as_str(), v.clone()))
                    .collect();
                let before = chaotic.state_digest();
                match chaotic.react_with(&refs) {
                    Ok(r) => {
                        let s = shadow
                            .react_with(&refs)
                            .unwrap_or_else(|e| panic!("seed {seed} {mode} step {step}: shadow failed: {e}"));
                        assert_eq!(
                            outputs_of(&r),
                            outputs_of(&s),
                            "seed {seed} {mode} step {step}: outputs diverge"
                        );
                        assert_eq!(
                            chaotic.state_digest(),
                            shadow.state_digest(),
                            "seed {seed} {mode} step {step}: state diverges"
                        );
                        assert!(!chaotic.is_poisoned());
                    }
                    Err(RuntimeError::HostPanic { payload, .. }) => {
                        // Invariant 2: exact rollback; invariant 3: the
                        // machine is not poisoned and keeps reacting
                        // (the next loop iteration exercises it).
                        total_faults += 1;
                        assert!(
                            payload.contains("chaos"),
                            "seed {seed} {mode} step {step}: unexpected panic {payload}"
                        );
                        assert!(!chaotic.is_poisoned(), "seed {seed} {mode} step {step}");
                        assert_eq!(
                            chaotic.state_digest(),
                            before,
                            "seed {seed} {mode} step {step}: rollback not exact"
                        );
                        // The instant never happened for the chaotic
                        // machine; the shadow skips it to stay aligned.
                    }
                    Err(other) => panic!(
                        "seed {seed} {mode} step {step}: non-fault error {other:?}"
                    ),
                }
            }
        }
    }
    assert!(
        total_faults > 0,
        "a 5% rate over {sweep} sweeps must inject faults"
    );
}

#[test]
fn wide_chaos_rate_cannot_wedge_a_machine() {
    // Even at a 50% fault rate the machine must stay responsive: every
    // error is structured, every recovery instantaneous.
    for case in 0..8u64 {
        let seed = 0xBADCAFE ^ case;
        let module = synthetic_program(40, seed);
        let c = compile_module_with(&module, &ModuleRegistry::new(), CompileOptions::default())
            .expect("compiles");
        let mut m = Machine::new(c.circuit).expect("finalized circuit");
        m.set_chaos(seed, 0.5);
        let mut ok = 0u32;
        for step in 0..60u32 {
            match m.react_with(&[("i0", Value::from((step % 5) as i64))]) {
                Ok(_) => ok += 1,
                Err(RuntimeError::HostPanic { .. }) => assert!(!m.is_poisoned()),
                Err(other) => panic!("seed {seed} step {step}: {other:?}"),
            }
        }
        assert!(ok > 0, "seed {seed}: some reactions must survive");
    }
}

// ------------------------------------------------------------ pool level

/// Pool-level chaos: a subset of sessions across the shards gets seeded
/// host-panic injection; a fault-free shadow pool runs the identical
/// schedule. Invariants:
///
/// 1. **Blast-radius zero.** A chaotic session's rollback never
///    perturbs its shard-mates: every never-faulted session's digest
///    equals its shadow twin's, tick after tick.
/// 2. **Placement-independence.** Rerunning the same chaotic pool on a
///    different shard count reproduces the same per-session digests and
///    the same fault set (chaos is seeded per session, not per shard).
/// 3. **Accounting.** Every injected fault shows up exactly once in the
///    pool metrics' rollback counter.
#[test]
fn pool_chaos_is_contained_to_the_faulting_session() {
    use hiphop::eventloop::sessions::{SessionId, SessionPool};
    use std::collections::BTreeSet;

    const SESSIONS: u64 = 12;
    const TICKS: u64 = 30;
    const MASTER: u64 = 0x5EED_C4A05;

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Every fourth session is chaotic (rate 0.1); the rest are clean.
    fn chaotic(id: SessionId) -> bool {
        splitmix64(MASTER ^ id.0).is_multiple_of(4)
    }

    fn build_pool(shards: usize, chaos: bool) -> SessionPool {
        SessionPool::new(shards, 10, move |id| {
            let module = synthetic_program(30, MASTER);
            let c = compile_module_with(&module, &ModuleRegistry::new(), CompileOptions::default())
                .map_err(|e| e.to_string())?;
            let mut m = Machine::new(c.circuit).map_err(|e| e.to_string())?;
            if chaos && chaotic(id) {
                m.set_chaos(splitmix64(MASTER ^ !id.0), 0.1);
            }
            Ok(m)
        })
    }

    /// Runs the schedule and returns (per-session digests, fault set,
    /// total faults).
    fn run(pool: &mut SessionPool) -> (std::collections::BTreeMap<SessionId, String>, BTreeSet<SessionId>, u64) {
        let mut faulted = BTreeSet::new();
        let mut total = 0u64;
        let booted = pool.open_many(SESSIONS).expect("boot");
        for f in &booted.faults {
            faulted.insert(f.session);
            total += 1;
        }
        for t in 0..TICKS {
            for s in 0..SESSIONS {
                pool.inject(
                    SessionId(s),
                    &format!("i{}", t % 8),
                    Value::from((t % 5) as i64),
                );
            }
            let report = pool.tick().expect("tick");
            for f in &report.faults {
                assert!(
                    f.error.contains("chaos"),
                    "only injected faults expected: {}",
                    f.error
                );
                assert!(!f.quarantined, "a host panic rolls back, not poisons");
                faulted.insert(f.session);
                total += 1;
            }
        }
        (pool.digests().expect("digests"), faulted, total)
    }

    let mut shadow = build_pool(3, false);
    let (clean_digests, clean_faults, n) = run(&mut shadow);
    assert!(clean_faults.is_empty() && n == 0, "the shadow never faults");

    let mut pool = build_pool(3, true);
    let (digests, faulted, total) = run(&mut pool);
    assert!(
        !faulted.is_empty(),
        "a 10% rate on {} chaotic sessions over {TICKS} ticks must fault",
        (0..SESSIONS).filter(|&s| chaotic(SessionId(s))).count()
    );
    assert!(
        faulted.iter().all(|&s| chaotic(s)),
        "faults only in chaos-armed sessions: {faulted:?}"
    );

    // 1. Blast-radius zero: every never-faulted session marched in
    //    lockstep with its shadow twin.
    for s in (0..SESSIONS).map(SessionId) {
        // (No assertion on the faulted sessions themselves: skipping a
        // rolled-back instant need not leave a lasting state difference
        // in these input-driven programs.)
        if !faulted.contains(&s) {
            assert_eq!(
                digests[&s], clean_digests[&s],
                "session {s:?} was perturbed by a shard-mate's rollback"
            );
        }
    }

    // 3. Accounting: the metrics rollup saw exactly the observed faults.
    let metrics = pool.metrics().expect("metrics");
    assert_eq!(metrics.rollbacks, total, "every fault is one rollback");

    // 2. Placement-independence: the same chaos on 1 shard (everyone is
    //    a shard-mate) and on 4 shards reproduces digests and faults.
    for shards in [1usize, 4] {
        let mut again = build_pool(shards, true);
        let (d2, f2, t2) = run(&mut again);
        assert_eq!(d2, digests, "{shards} shard(s): digests shifted");
        assert_eq!(f2, faulted, "{shards} shard(s): fault set shifted");
        assert_eq!(t2, total, "{shards} shard(s): fault count shifted");
    }

    // 4. The sparse engine under pool chaos: a rollback must also
    //    invalidate the session's incremental baseline, or the next
    //    successful instant replays stale state — which the lockstep
    //    digests against a sparse fault-free shadow would expose. And
    //    since engines are observationally pure, the sparse shadow's
    //    digests equal the default-engine shadow's.
    let mut sparse_shadow = build_pool(3, false);
    sparse_shadow.set_engine(Some(EngineMode::Sparse)).expect("config");
    let (sparse_clean, no_faults, zero) = run(&mut sparse_shadow);
    assert!(no_faults.is_empty() && zero == 0, "the sparse shadow never faults");
    assert_eq!(sparse_clean, clean_digests, "engines are digest-pure");

    let mut sparse_pool = build_pool(3, true);
    sparse_pool.set_engine(Some(EngineMode::Sparse)).expect("config");
    let (sparse_digests, sparse_faulted, sparse_total) = run(&mut sparse_pool);
    assert!(!sparse_faulted.is_empty(), "chaos still fires under sparse");
    assert!(
        sparse_faulted.iter().all(|&s| chaotic(s)),
        "sparse faults only in chaos-armed sessions: {sparse_faulted:?}"
    );
    for s in (0..SESSIONS).map(SessionId) {
        if !sparse_faulted.contains(&s) {
            assert_eq!(
                sparse_digests[&s], sparse_clean[&s],
                "session {s:?} (sparse) was perturbed by a shard-mate's rollback"
            );
        }
    }
    let metrics = sparse_pool.metrics().expect("metrics");
    assert_eq!(metrics.rollbacks, sparse_total, "every sparse fault is one rollback");
}

/// Chaos landing *inside* a bit-parallel cohort: with cohort mode on,
/// every eligible session advances through one lockstep sweep, so an
/// injected host panic fires mid-sweep with up to 32 lane-mates in
/// flight. The faulting session must peel and roll back alone:
///
/// 1. the chaotic cohort pool reproduces the chaotic *scalar* pool
///    exactly — same digests, same fault set, same rollback count —
///    across 1/3/4 shards and both lane widths;
/// 2. never-faulted lane-mates match the fault-free scalar shadow
///    digest for digest (blast radius zero, even inside a lane word).
#[test]
fn pool_chaos_lands_inside_cohorts_and_peels_the_faulting_lane_alone() {
    use hiphop::eventloop::sessions::{SessionId, SessionPool};
    use hiphop::runtime::CohortWidth;
    use std::collections::BTreeSet;

    const SESSIONS: u64 = 33; // one full lane word plus a straggler
    const TICKS: u64 = 20;
    const MASTER: u64 = 0xC4A0_5C04;

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Every fourth session is chaotic (rate 0.1); the rest are clean.
    fn chaotic(id: SessionId) -> bool {
        splitmix64(MASTER ^ id.0).is_multiple_of(4)
    }

    fn build_pool(shards: usize, chaos: bool, cohort: Option<CohortWidth>) -> SessionPool {
        let mut pool = SessionPool::new(shards, 10, move |id| {
            let module = synthetic_program(30, MASTER);
            let c = compile_module_with(&module, &ModuleRegistry::new(), CompileOptions::default())
                .map_err(|e| e.to_string())?;
            let mut m = Machine::new(c.circuit).map_err(|e| e.to_string())?;
            if chaos && chaotic(id) {
                m.set_chaos(splitmix64(MASTER ^ !id.0), 0.1);
            }
            Ok(m)
        });
        pool.set_cohort(cohort).expect("config");
        pool
    }

    fn run(
        pool: &mut SessionPool,
    ) -> (std::collections::BTreeMap<SessionId, String>, BTreeSet<SessionId>, u64) {
        let mut faulted = BTreeSet::new();
        let mut total = 0u64;
        let booted = pool.open_many(SESSIONS).expect("boot");
        for f in &booted.faults {
            faulted.insert(f.session);
            total += 1;
        }
        for t in 0..TICKS {
            for s in 0..SESSIONS {
                pool.inject(
                    SessionId(s),
                    &format!("i{}", t % 8),
                    Value::from((t % 5) as i64),
                );
            }
            let report = pool.tick().expect("tick");
            for f in &report.faults {
                assert!(
                    f.error.contains("chaos"),
                    "only injected faults expected: {}",
                    f.error
                );
                assert!(!f.quarantined, "a peeled lane rolls back, not poisons");
                faulted.insert(f.session);
                total += 1;
            }
        }
        (pool.digests().expect("digests"), faulted, total)
    }

    let mut shadow = build_pool(3, false, None);
    let (clean_digests, clean_faults, n) = run(&mut shadow);
    assert!(clean_faults.is_empty() && n == 0, "the shadow never faults");

    let mut scalar = build_pool(3, true, None);
    let (scalar_digests, scalar_faults, scalar_total) = run(&mut scalar);
    assert!(
        !scalar_faults.is_empty(),
        "a 10% rate on {} chaotic sessions over {TICKS} ticks must fault",
        (0..SESSIONS).filter(|&s| chaotic(SessionId(s))).count()
    );

    for (shards, width) in [
        (1usize, CohortWidth::U64),
        (3, CohortWidth::U64),
        (4, CohortWidth::U64),
        (3, CohortWidth::Wide),
    ] {
        let mut pool = build_pool(shards, true, Some(width));
        let (digests, faulted, total) = run(&mut pool);
        // 1. Cohort mode reproduces the chaotic scalar run exactly: the
        //    per-lane chaos streams, peels and rollbacks are the same
        //    events the scalar sweep would produce.
        assert_eq!(
            digests, scalar_digests,
            "{shards} shard(s) [{width:?}]: digests diverged from scalar chaos"
        );
        assert_eq!(
            faulted, scalar_faults,
            "{shards} shard(s) [{width:?}]: fault set diverged from scalar chaos"
        );
        assert_eq!(total, scalar_total, "{shards} shard(s) [{width:?}]: fault count");
        // 2. Peel isolation: lane-mates never notice a peeled neighbor.
        for s in (0..SESSIONS).map(SessionId) {
            if !faulted.contains(&s) {
                assert_eq!(
                    digests[&s], clean_digests[&s],
                    "session {s:?} [{width:?}] was perturbed by a lane-mate's peel"
                );
            }
        }
        let metrics = pool.metrics().expect("metrics");
        assert_eq!(metrics.rollbacks, total, "every peel is one rollback");
    }
}
