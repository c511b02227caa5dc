//! Targeted unit suite for the sparse incremental engine.
//!
//! The differential batteries (proptests, chaos, conformance, goldens,
//! durability) prove sparse is *observationally* identical to the dense
//! engines; this suite pins the properties that make it worth having
//! and the baseline-invalidation rules that make it safe:
//!
//! * a quiescent instant evaluates **zero** nets (asserted through
//!   [`LevelActivity`], not timing);
//! * the incremental baseline is rebuilt after everything that can
//!   stale it — `reset`, snapshot `restore`, `hot_swap`, and instants
//!   executed by another engine;
//! * engine selection: the sparse request survives a hot swap and
//!   degrades to the block walker on cyclic circuits;
//! * [`LevelActivity`] counters are honest — the walker's SCC blocks
//!   report the nets they actually evaluated (cross-checked against the
//!   coarse trace's event counts), its dense sweeps book each net to its
//!   level exactly as the sparse rebuild sweep does, and levels the
//!   sparse sweep skips report exactly 0.

use hiphop::lang::{parse_program, HostRegistry};
use hiphop::runtime::telemetry::shared;
use hiphop::runtime::{EngineMode, JsonlSink};
use hiphop::Machine;
use hiphop_core::prelude::*;
use hiphop_runtime::machine_for;

/// The paper's ABRO: wide enough to have real levels, quiet whenever
/// its awaits are pending.
fn abro() -> Module {
    Module::new("ABRO")
        .input(SignalDecl::new("A", Direction::In))
        .input(SignalDecl::new("B", Direction::In))
        .input(SignalDecl::new("R", Direction::In))
        .output(SignalDecl::new("O", Direction::Out))
        .body(Stmt::loop_each(
            Delay::cond(Expr::now("R")),
            Stmt::seq([
                Stmt::par([
                    Stmt::await_(Delay::cond(Expr::now("A"))),
                    Stmt::await_(Delay::cond(Expr::now("B"))),
                ]),
                Stmt::emit("O"),
            ]),
        ))
}

/// A valued score: `count` accumulates `inc`, `up` flags the instants
/// where `count` strictly exceeds its previous value — a `preval` read,
/// the one dependency the circuit carries no edge for.
fn valued_counter() -> Module {
    Module::new("Counter")
        .input(SignalDecl::new("inc", Direction::In))
        .output(
            SignalDecl::new("count", Direction::Out)
                .with_init(0i64)
                .with_combine(Combine::Plus),
        )
        .output(SignalDecl::new("up", Direction::Out))
        .body(Stmt::loop_(Stmt::seq([
            Stmt::if_(
                Expr::now("inc"),
                Stmt::seq([
                    Stmt::emit_val("count", Expr::nowval("inc")),
                    Stmt::if_(
                        Expr::nowval("count").gt(Expr::preval("count")),
                        Stmt::emit("up"),
                    ),
                ]),
            ),
            Stmt::Pause,
        ])))
}

fn machine(module: &Module, mode: EngineMode) -> Machine {
    let mut m = machine_for(module, &ModuleRegistry::new()).expect("compiles");
    assert_eq!(m.set_engine(mode), mode, "engine available");
    m
}

/// Drives `sparse` and a levelized twin through `schedule` (a `;`-split
/// stimulus of presence-only inputs), asserting output sets and state
/// digests agree at every instant. Returns the machines for follow-ups.
fn lockstep(module: &Module, schedule: &str) -> (Machine, Machine) {
    let mut s = machine(module, EngineMode::Sparse);
    let mut d = machine(module, EngineMode::Levelized);
    for (i, instant) in schedule.split(';').enumerate() {
        let inputs: Vec<(&str, Value)> = instant
            .split_whitespace()
            .map(|tok| (tok, Value::Bool(true)))
            .collect();
        let rs = s.react_with(&inputs).expect("sparse reacts");
        let rd = d.react_with(&inputs).expect("dense reacts");
        assert_eq!(
            format!("{:?}", rs.outputs),
            format!("{:?}", rd.outputs),
            "instant {i}: outputs diverge"
        );
        assert_eq!(s.state_digest(), d.state_digest(), "instant {i}: digests diverge");
    }
    (s, d)
}

// ------------------------------------------------------- the fast path

#[test]
fn a_quiescent_instant_evaluates_zero_nets() {
    let mut m = machine(&abro(), EngineMode::Sparse);
    m.enable_level_activity();
    m.react().expect("boot");
    let booted = m.level_activity().expect("armed").total_evals();
    assert!(booted > 0, "the boot instant rebuilds the whole baseline");

    // A arrives: a delta flows, but far less than a full sweep.
    m.react_with(&[("A", Value::Bool(true))]).expect("A");
    let after_a = m.level_activity().expect("armed").total_evals();
    assert!(after_a > booted, "the A edge evaluates something");
    assert!(
        after_a - booted < booted,
        "an incremental instant evaluates fewer nets than the rebuild \
         ({} vs {booted})",
        after_a - booted
    );

    // A withdraws: the presence edge 1->0 flows.
    m.react().expect("quiet");
    let after_quiet = m.level_activity().expect("armed").total_evals();

    // Steady state: nothing changed since the previous instant — the
    // sweep must not evaluate a single net, in any level.
    m.react().expect("quiescent");
    assert_eq!(
        m.level_activity().expect("armed").total_evals(),
        after_quiet,
        "a quiescent instant evaluates zero nets"
    );
    m.react().expect("still quiescent");
    assert_eq!(
        m.level_activity().expect("armed").total_evals(),
        after_quiet,
        "quiescence is stable across instants"
    );

    // And the machine is still alive, not wedged on an empty worklist:
    // A was consumed before quiescence, so B completes the rendezvous.
    let r = m.react_with(&[("B", Value::Bool(true))]).expect("B");
    assert!(r.present("O"), "the rendezvous completes after quiescence");
}

#[test]
fn skipped_levels_report_exactly_zero() {
    let mut m = machine(&abro(), EngineMode::Sparse);
    m.enable_level_activity();
    m.react().expect("boot");
    m.react().expect("settle");
    let before = m.level_activity().expect("armed").clone();
    m.react().expect("quiescent");
    let after = m.level_activity().expect("armed").clone();
    assert_eq!(
        before.evals.len(),
        after.evals.len(),
        "arming is stable across instants"
    );
    for (l, (b, a)) in before.evals.iter().zip(&after.evals).enumerate() {
        assert_eq!(b, a, "level {l}: a skipped level must contribute 0 evals");
    }
    for (l, (b, a)) in before.changed.iter().zip(&after.changed).enumerate() {
        assert_eq!(b, a, "level {l}: a skipped level must contribute 0 changes");
    }
}

// -------------------------------------------- dense/sparse equivalence

#[test]
fn abro_marches_in_lockstep_with_the_dense_engine() {
    lockstep(&abro(), ";A;B;;R;A B;;R;B;A;;;A;R");
}

#[test]
fn valued_preval_reads_stay_digest_identical() {
    // `up` depends on pre-values, which carry no circuit edge: the
    // sparse engine must wake the reader through its subscription
    // tables, both on the emitting instant and the one after.
    let mut s = machine(&valued_counter(), EngineMode::Sparse);
    let mut d = machine(&valued_counter(), EngineMode::Levelized);
    let schedule: &[&[(&str, Value)]] = &[
        &[],
        &[("inc", Value::from(3i64))],
        &[("inc", Value::from(2i64))],
        &[],
        &[],
        &[("inc", Value::from(5i64))],
        &[],
    ];
    for (i, inputs) in schedule.iter().enumerate() {
        let rs = s.react_with(inputs).expect("sparse");
        let rd = d.react_with(inputs).expect("dense");
        assert_eq!(
            format!("{:?}", rs.outputs),
            format!("{:?}", rd.outputs),
            "instant {i}: outputs diverge"
        );
        assert_eq!(s.state_digest(), d.state_digest(), "instant {i}");
    }
}

// --------------------------------------------- baseline invalidation

#[test]
fn reset_invalidates_the_baseline() {
    let (mut s, mut d) = lockstep(&abro(), ";A;B;;");
    s.reset();
    d.reset();
    // Post-reset both machines replay from scratch; a stale sparse
    // baseline would skip the boot work and diverge immediately.
    for instant in [vec![], vec![("A", Value::Bool(true))], vec![]] {
        s.react_with(&instant).expect("sparse");
        d.react_with(&instant).expect("dense");
        assert_eq!(s.state_digest(), d.state_digest(), "post-reset divergence");
    }
}

#[test]
fn restore_onto_a_stale_baseline_rebuilds() {
    // The donor runs one schedule; the recipient runs a *different*
    // schedule first, so its incremental baseline describes foreign
    // state when the snapshot lands on it.
    let (donor, _) = lockstep(&abro(), ";A;;B");
    let snap = donor.snapshot();

    let (mut recipient, _) = lockstep(&abro(), ";B;A B;R;A");
    recipient.restore(&snap).expect("same circuit");
    assert_eq!(recipient.state_digest(), donor.state_digest(), "at restore");

    // A dense twin restored identically is the oracle from here on.
    let mut twin = machine(&abro(), EngineMode::Levelized);
    twin.restore(&snap).expect("same circuit");
    for instant in [
        vec![("A", Value::Bool(true))],
        vec![],
        vec![("R", Value::Bool(true))],
        vec![("A", Value::Bool(true)), ("B", Value::Bool(true))],
    ] {
        recipient.react_with(&instant).expect("sparse");
        twin.react_with(&instant).expect("dense");
        assert_eq!(
            recipient.state_digest(),
            twin.state_digest(),
            "post-restore divergence"
        );
    }
}

#[test]
fn instants_run_by_other_engines_invalidate_the_baseline() {
    // Hop engines every instant: sparse -> constructive -> sparse ...
    // Every hop back lands on a baseline the FIFO engine never
    // maintained; correctness demands a rebuild, and the dense twin
    // catches any skipped one.
    let mut hopper = machine(&abro(), EngineMode::Sparse);
    let mut d = machine(&abro(), EngineMode::Levelized);
    let schedule = ";A;B;;R;A B;;B;A";
    for (i, instant) in schedule.split(';').enumerate() {
        let inputs: Vec<(&str, Value)> = instant
            .split_whitespace()
            .map(|tok| (tok, Value::Bool(true)))
            .collect();
        let mode = if i % 2 == 0 {
            EngineMode::Sparse
        } else {
            EngineMode::Constructive
        };
        assert_eq!(hopper.set_engine(mode), mode);
        hopper.react_with(&inputs).expect("hopper");
        d.react_with(&inputs).expect("dense");
        assert_eq!(hopper.state_digest(), d.state_digest(), "instant {i} [{mode}]");
    }
}

#[test]
fn hot_swap_keeps_the_sparse_request_and_rebuilds() {
    let mut m = machine(&abro(), EngineMode::Sparse);
    m.react().expect("boot");
    m.react_with(&[("A", Value::Bool(true))]).expect("A");

    // Swap in a freshly compiled copy of the same program: signal state
    // carries over by name, control state restarts.
    let compiled = hiphop::compiler::compile_module(&abro(), &ModuleRegistry::new())
        .expect("compiles");
    m.hot_swap(compiled.circuit).expect("swap");
    assert_eq!(
        m.engine(),
        EngineMode::Sparse,
        "the engine request is sticky across a hot swap"
    );

    // The dense oracle goes through the identical swap.
    let mut d = machine(&abro(), EngineMode::Levelized);
    d.react().expect("boot");
    d.react_with(&[("A", Value::Bool(true))]).expect("A");
    let compiled = hiphop::compiler::compile_module(&abro(), &ModuleRegistry::new())
        .expect("compiles");
    d.hot_swap(compiled.circuit).expect("swap");

    for instant in [
        vec![],
        vec![("A", Value::Bool(true))],
        vec![("B", Value::Bool(true))],
        vec![],
    ] {
        m.react_with(&instant).expect("sparse");
        d.react_with(&instant).expect("dense");
        assert_eq!(m.state_digest(), d.state_digest(), "post-swap divergence");
    }
}

// ------------------------------------------------------ engine selection

#[test]
fn sparse_request_degrades_to_hybrid_on_cyclic_circuits() {
    let source = include_str!("../examples/hh/cyclic_arbiter.hh");
    let (module, registry) =
        parse_program(source, "CyclicArbiter", &HostRegistry::new()).expect("parses");
    let mut m = machine_for(&module, &registry).expect("compiles");
    assert_eq!(
        m.set_engine(EngineMode::Sparse),
        EngineMode::Levelized,
        "no level schedule exists for a static cycle"
    );
    m.react().expect("the fallback engine runs the instant");
}

// ----------------------------------------------------- honest counters

/// Sums the `"events":N` fields of a coarse JSONL trace.
fn trace_events(text: &str) -> u64 {
    text.lines()
        .filter_map(|l| {
            let i = l.find("\"events\":")?;
            let rest = &l[i + 9..];
            let end = rest.find(',')?;
            rest[..end].parse::<u64>().ok()
        })
        .sum()
}

#[test]
fn hybrid_level_activity_matches_the_real_event_counts() {
    // The token-ring arbiter's circuit carries a genuine SCC, so the
    // walker's (hybrid) schedule mixes dense and cyclic blocks. The
    // cyclic blocks iterate to a fixpoint — their true eval count is
    // whatever the iteration actually performed, not the block's span.
    // The coarse trace's per-reaction `events` field is the ground truth.
    let source = include_str!("../examples/hh/cyclic_arbiter.hh");
    let (module, registry) =
        parse_program(source, "CyclicArbiter", &HostRegistry::new()).expect("parses");
    let mut m = machine_for(&module, &registry).expect("compiles");
    assert_eq!(m.set_engine(EngineMode::Levelized), EngineMode::Levelized);
    m.enable_level_activity();
    let (sink, buf) = JsonlSink::buffered();
    m.attach_sink(shared(sink.coarse()));
    for instant in ";R1;R2;R1 R2;;R3;R1 R2 R3".split(';') {
        let inputs: Vec<(&str, Value)> = instant
            .split_whitespace()
            .map(|tok| (tok, Value::Bool(true)))
            .collect();
        m.react_with(&inputs).expect("constructive at every instant");
    }
    m.finish_sinks();
    let la = m.level_activity().expect("armed");
    assert_eq!(
        la.total_evals(),
        trace_events(&buf.text()),
        "per-block activity must sum to the events the engine performed"
    );
}

#[test]
fn sparse_level_activity_matches_the_real_event_counts() {
    let mut m = machine(&abro(), EngineMode::Sparse);
    m.enable_level_activity();
    let (sink, buf) = JsonlSink::buffered();
    m.attach_sink(shared(sink.coarse()));
    for instant in ";A;;B;;R;A B".split(';') {
        let inputs: Vec<(&str, Value)> = instant
            .split_whitespace()
            .map(|tok| (tok, Value::Bool(true)))
            .collect();
        m.react_with(&inputs).expect("reacts");
    }
    m.finish_sinks();
    let la = m.level_activity().expect("armed");
    assert_eq!(
        la.total_evals(),
        trace_events(&buf.text()),
        "sparse activity must sum to the events the sweep performed"
    );
}

#[test]
fn walker_books_each_level_like_the_sparse_rebuild_sweep() {
    // The walker runs an acyclic circuit as one dense block; its
    // activity must still land on the level each net sits at, exactly
    // as the sparse engine's full rebuild sweep books it net by net.
    let module = hiphop_bench::synthetic_program(120, 3);
    let mut walker = machine(&module, EngineMode::Levelized);
    let mut sparse = machine(&module, EngineMode::Sparse);
    walker.enable_level_activity();
    sparse.enable_level_activity();
    for step in 0..12i64 {
        // A restore invalidates the sparse baseline, so every sparse
        // instant is a full rebuild sweep.
        let snap = sparse.snapshot();
        sparse.restore(&snap).expect("restore");
        let inputs: Vec<(String, Value)> = (0..8i64)
            .filter(|k| (step + k) % 3 == 0)
            .map(|k| (format!("i{k}"), Value::from(step)))
            .collect();
        let refs: Vec<(&str, Value)> = inputs
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        walker.react_with(&refs).expect("walker reacts");
        sparse.react_with(&refs).expect("sparse reacts");
        assert_eq!(walker.state_digest(), sparse.state_digest(), "step {step}");
    }
    let (levels, _) = walker
        .levelization()
        .expect("synthetic programs are acyclic");
    let lw = walker.level_activity().expect("armed");
    let ls = sparse.level_activity().expect("armed");
    assert_eq!(lw.evals.len(), levels);
    assert!(
        lw.evals.iter().all(|&e| e > 0),
        "every level holds nets and is booked: {:?}",
        lw.evals
    );
    assert_eq!(lw.evals, ls.evals, "per-level evals");
    assert_eq!(lw.changed, ls.changed, "per-level flips");
}
