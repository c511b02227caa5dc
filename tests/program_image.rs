//! Program images: every machine built from a clone of one circuit runs
//! one shared image (circuit plus derived schedules and tables), while
//! each machine keeps its own instance state.
//!
//! * Clones of one circuit share one image; a clone mutated after the
//!   copy-on-write and a separately compiled circuit each get their own.
//! * Dropping the last machine frees its image, and building and
//!   dropping many distinct programs leaves the per-thread registry
//!   empty.
//! * Hot swap, snapshot/restore, migration, the sparse engine and cohort
//!   lanes behave digest-identically whether machines share an image or
//!   not.
//! * Each pool shard thread builds its own image.

use hiphop_bench::synthetic_program;
use hiphop_circuit::Circuit;
use hiphop_compiler::compile_module;
use hiphop_core::prelude::*;
use hiphop_core::rng::Rng;
use hiphop_eventloop::sessions::{SessionId, SessionPool};
use hiphop_runtime::image::live_images;
use hiphop_runtime::{cohort_key, react_cohort, EngineMode, Machine};
use std::sync::{Arc, Mutex};

fn compile(stmts: usize, seed: u64) -> Circuit {
    compile_module(&synthetic_program(stmts, seed), &ModuleRegistry::new())
        .expect("compiles")
        .circuit
}

/// Seeded input batches over the synthetic programs' eight inputs.
fn schedule(seed: u64, instants: usize) -> Vec<Vec<(String, Value)>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..instants)
        .map(|_| {
            (0..8)
                .filter(|_| rng.gen_range(0..3) == 0)
                .map(|k| (format!("i{k}"), Value::Bool(true)))
                .collect()
        })
        .collect()
}

fn drive(m: &mut Machine, batch: &[(String, Value)]) {
    let inputs: Vec<(&str, Value)> = batch.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
    m.react_with(&inputs).expect("reacts");
}

#[test]
fn clones_of_one_circuit_share_one_image() {
    let c = compile(120, 1);
    let a = Machine::new(c.clone()).expect("machine");
    let b = Machine::new(c.clone()).expect("machine");
    assert!(a.shares_image(&b));
    assert_eq!(a.circuit().body_id(), c.body_id());
    assert_eq!(live_images(), 1);
}

#[test]
fn mutated_clones_and_separate_compiles_get_their_own_image() {
    let c = compile(120, 1);
    let a = Machine::new(c.clone()).expect("machine");

    let mut renamed = c.clone();
    assert_eq!(renamed.body_id(), c.body_id());
    renamed.name = "Renamed".into();
    assert_ne!(
        renamed.body_id(),
        c.body_id(),
        "the mutation copied the shared body"
    );
    let b = Machine::new(renamed).expect("machine");
    assert!(!a.shares_image(&b));

    let c2 = compile(120, 1);
    let d = Machine::new(c2).expect("machine");
    assert!(!a.shares_image(&d));
    assert_eq!(live_images(), 3);
    // Separately compiled but structurally identical programs still
    // group into one cohort.
    assert_eq!(cohort_key(&a), cohort_key(&d));
    assert_ne!(cohort_key(&a), cohort_key(&b));
    // The original circuit was never touched by the copy-on-write.
    assert_eq!(a.circuit().name, c.name);
    assert!(Machine::new(c).expect("machine").shares_image(&a));
}

#[test]
fn dropping_the_last_machine_frees_its_image() {
    let c = compile(120, 2);
    let a = Machine::new(c.clone()).expect("machine");
    let b = Machine::new(c).expect("machine");
    assert_eq!(live_images(), 1);
    drop(a);
    assert_eq!(live_images(), 1, "b still runs the image");
    drop(b);
    assert_eq!(live_images(), 0);
}

#[test]
fn building_and_dropping_many_distinct_programs_keeps_the_registry_bounded() {
    let src = synthetic_program(24, 3);
    for k in 0..1000 {
        let circuit = compile_module(&src, &ModuleRegistry::new())
            .expect("compiles")
            .circuit;
        let mut m = Machine::new(circuit).expect("machine");
        m.react().expect("boot");
        assert_eq!(live_images(), 1, "iteration {k}");
    }
    assert_eq!(live_images(), 0);
}

#[test]
fn shared_and_private_images_are_digest_identical() {
    let c = compile(200, 4);
    let batches = schedule(4, 60);
    // Two machines on one image, one on a private compile of the same
    // program, one on the sparse engine.
    let mut shared_a = Machine::new(c.clone()).expect("machine");
    let mut shared_b = Machine::new(c.clone()).expect("machine");
    let mut sparse = Machine::new(c.clone()).expect("machine");
    sparse.set_engine(EngineMode::Sparse);
    let mut private = Machine::new(compile(200, 4)).expect("machine");
    assert!(shared_a.shares_image(&shared_b) && shared_a.shares_image(&sparse));
    assert!(!shared_a.shares_image(&private));
    for (k, batch) in batches.iter().enumerate() {
        for m in [&mut shared_a, &mut shared_b, &mut sparse, &mut private] {
            drive(m, batch);
        }
        let d = shared_a.state_digest();
        assert_eq!(shared_b.state_digest(), d, "instant {k}");
        assert_eq!(sparse.state_digest(), d, "instant {k}");
        assert_eq!(private.state_digest(), d, "instant {k}");
        if k == 20 {
            // Snapshot/restore between machines sharing the image, and
            // onto a private image.
            let snap = shared_a.snapshot();
            let mut fresh = Machine::new(c.clone()).expect("machine");
            fresh
                .restore(&snap)
                .expect("restores onto the shared image");
            assert_eq!(fresh.state_digest(), d);
            shared_b = fresh;
            let mut other = Machine::new(compile(200, 4)).expect("machine");
            other.restore(&snap).expect("restores onto a private image");
            assert_eq!(other.state_digest(), d);
            private = other;
        }
        if k == 40 {
            // Hot swap (which restarts control at the boot instant)
            // onto a clone of the running circuit keeps the image; onto
            // a private compile it builds another.
            shared_a.hot_swap(c.clone()).expect("swaps");
            sparse.hot_swap(c.clone()).expect("swaps");
            shared_b.hot_swap(compile(200, 4)).expect("swaps");
            private.hot_swap(compile(200, 4)).expect("swaps");
            assert!(shared_a.shares_image(&sparse));
            assert!(!shared_a.shares_image(&shared_b));
            assert_eq!(sparse.engine(), EngineMode::Sparse);
            assert_eq!(shared_a.state_digest(), shared_b.state_digest());
        }
    }
}

#[test]
fn cohort_lanes_on_one_image_match_scalar_machines() {
    let c = compile(160, 6);
    let batches = schedule(6, 30);
    let mut lanes: Vec<Machine> = (0..5)
        .map(|_| Machine::new(c.clone()).expect("machine"))
        .collect();
    let mut scalars: Vec<Machine> = (0..5)
        .map(|_| Machine::new(compile(160, 6)).expect("machine"))
        .collect();
    for batch in &batches {
        for (s, (lane, scalar)) in lanes.iter_mut().zip(&mut scalars).enumerate() {
            // Different sessions see different suffixes of the batch.
            for (name, v) in &batch[s.min(batch.len())..] {
                lane.set_input(name, Some(v.clone())).expect("input");
                scalar.set_input(name, Some(v.clone())).expect("input");
            }
            scalar.react().expect("reacts");
        }
        let mut refs: Vec<&mut Machine> = lanes.iter_mut().collect();
        for r in react_cohort(&mut refs) {
            r.expect("reacts");
        }
        for (lane, scalar) in lanes.iter().zip(&scalars) {
            assert_eq!(lane.state_digest(), scalar.state_digest());
        }
    }
}

#[test]
fn each_shard_thread_builds_its_own_image_and_migration_keeps_digests() {
    thread_local! {
        static CIRCUIT: std::cell::RefCell<Option<Circuit>> = const { std::cell::RefCell::new(None) };
    }
    let seen: Arc<Mutex<Vec<(std::thread::ThreadId, usize)>>> = Arc::default();
    let log = seen.clone();
    let factory = move |_id: SessionId| -> Result<Machine, String> {
        let m = CIRCUIT.with(|c| {
            let mut c = c.borrow_mut();
            let circuit = c.get_or_insert_with(|| compile(120, 8));
            Machine::new(circuit.clone()).map_err(|e| e.to_string())
        })?;
        log.lock()
            .expect("log")
            .push((std::thread::current().id(), live_images()));
        Ok(m)
    };
    let mut pool = SessionPool::new(2, 10, factory);
    let mut control = SessionPool::new(1, 10, |_id| {
        Machine::new(compile(120, 8)).map_err(|e| e.to_string())
    });
    pool.open_many(24).expect("opens");
    control.open_many(24).expect("opens");
    let batches = schedule(8, 16);
    for (t, batch) in batches.iter().enumerate() {
        for s in 0..24u64 {
            if let Some((name, v)) = batch.get(s as usize % batch.len().max(1)) {
                pool.inject(SessionId(s), name, v.clone());
                control.inject(SessionId(s), name, v.clone());
            }
        }
        pool.tick().expect("ticks");
        control.tick().expect("ticks");
        if t == 5 {
            // Move one session from each shard to the other.
            for s in [0u64, 1] {
                let to = 1 - pool.shard_of(SessionId(s));
                pool.migrate(SessionId(s), to).expect("migrates");
            }
        }
        assert_eq!(
            pool.digests().expect("digests"),
            control.digests().expect("digests")
        );
    }
    let seen = seen.lock().expect("log");
    let threads: std::collections::BTreeSet<String> =
        seen.iter().map(|(id, _)| format!("{id:?}")).collect();
    assert_eq!(threads.len(), 2, "both shards built sessions");
    assert!(
        seen.iter().all(|&(_, images)| images == 1),
        "every build on a shard thread found that thread's one image: {seen:?}"
    );
}
