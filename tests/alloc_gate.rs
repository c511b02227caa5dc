//! Allocation gate: steady-state scalar reactions allocate only what
//! they hand back.
//!
//! This binary installs its own counting global allocator (the system
//! allocator plus one counter, no dependencies). Only threads that opt
//! in are counted — the test thread and the pool's shard thread — so the
//! harness's own bookkeeping never lands in a measurement, and one lock
//! keeps the two tests' windows apart.
//!
//! The counts are exact, so the bounds are deterministic:
//! * a levelized `react_with` makes exactly one allocation, the outputs
//!   vector of the [`Reaction`] it returns;
//! * a 1000-session pool's `inject` plus `tick` makes at most 1.1
//!   allocations per session-reaction: each session's outputs vector,
//!   moved into its `SessionOutputs`, plus per-tick buffers shared by
//!   the whole shard.

use hiphop::core::module::ModuleRegistry;
use hiphop::core::value::Value;
use hiphop::eventloop::sessions::{SessionId, SessionPool};
use hiphop::runtime::{machine_for, EngineMode, Machine};
use hiphop_bench::synthetic_program;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Counts the calling thread's allocations from now on.
fn enroll() {
    COUNTED.with(|c| c.set(true));
}

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Deterministic per-instant input batches over the synthetic
/// program's eight inputs: every input toggles on alternate instants,
/// with a seeded subset present on the others.
fn input_schedule(instants: usize) -> Vec<Vec<(&'static str, Value)>> {
    const NAMES: [&str; 8] = ["i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7"];
    let mut rng = hiphop::core::rng::Rng::seed_from_u64(11);
    (0..instants)
        .map(|k| {
            NAMES
                .iter()
                .filter(|_| k % 2 == 0 || rng.gen_range(0..4) == 0)
                .map(|&n| (n, Value::Bool(true)))
                .collect()
        })
        .collect()
}

#[test]
fn levelized_react_with_allocates_only_its_outputs_vector() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let module = synthetic_program(640, 5);
    let mut m: Machine = machine_for(&module, &ModuleRegistry::new()).expect("compiles");
    assert_eq!(m.engine(), EngineMode::Levelized);
    const WARMUP: usize = 200;
    const MEASURED: usize = 2000;
    let schedule = input_schedule(WARMUP + MEASURED);
    for inputs in &schedule[..WARMUP] {
        m.react_with(inputs).expect("reacts");
    }
    enroll();
    let a0 = allocations();
    for inputs in &schedule[WARMUP..] {
        let r = m.react_with(inputs).expect("reacts");
        assert!(!r.outputs.is_empty());
    }
    let allocs = allocations() - a0;
    assert_eq!(
        allocs, MEASURED as u64,
        "{allocs} allocations over {MEASURED} reactions: only the outputs vector may allocate"
    );
}

#[test]
fn pool_tick_allocates_at_most_1_1_per_session_reaction() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const SESSIONS: u64 = 1000;
    const WARMUP: usize = 20;
    const MEASURED: usize = 40;
    let mut pool = SessionPool::new(1, 10, |_id| {
        enroll();
        thread_local! {
            static CIRCUIT: std::cell::RefCell<Option<hiphop::circuit::Circuit>> =
                const { std::cell::RefCell::new(None) };
        }
        CIRCUIT.with(|c| {
            let mut c = c.borrow_mut();
            if c.is_none() {
                let module = synthetic_program(160, 9);
                let compiled = hiphop::compiler::compile_module(&module, &ModuleRegistry::new())
                    .map_err(|e| e.to_string())?;
                *c = Some(compiled.circuit);
            }
            Machine::new(c.as_ref().expect("compiled above").clone()).map_err(|e| e.to_string())
        })
    });
    pool.open_many(SESSIONS).expect("opens");
    let schedule = input_schedule(WARMUP + MEASURED);
    let beat = |pool: &mut SessionPool, inputs: &[(&'static str, Value)]| {
        for s in 0..SESSIONS {
            // Every session gets one input per beat, rotating through
            // the batch so sessions see different instants.
            if let Some((name, v)) = inputs.get(s as usize % inputs.len().max(1)) {
                pool.inject(SessionId(s), name, v.clone());
            }
        }
        pool.tick().expect("ticks")
    };
    for inputs in &schedule[..WARMUP] {
        beat(&mut pool, inputs);
    }
    enroll();
    let a0 = allocations();
    let mut reactions = 0;
    for inputs in &schedule[WARMUP..] {
        let report = beat(&mut pool, inputs);
        assert!(report.faults.is_empty(), "{:?}", report.faults);
        reactions += report.reactions;
    }
    let allocs = allocations() - a0;
    assert_eq!(reactions, SESSIONS as usize * MEASURED);
    let per_reaction = allocs as f64 / reactions as f64;
    assert!(
        per_reaction <= 1.1,
        "{allocs} allocations over {reactions} session-reactions ({per_reaction:.3} each)"
    );
}
