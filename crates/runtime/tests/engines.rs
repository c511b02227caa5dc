//! Engine-selection semantics: the block walker is the default for
//! every circuit — over the level schedule when the circuit is acyclic,
//! over the SCC-condensed schedule when it is statically cyclic,
//! including circuits that are cyclic *but constructive* (they
//! converge), for which topological levels do not exist.

use hiphop_core::prelude::*;
use hiphop_runtime::{machine_for, EngineMode, Machine, RuntimeError};

/// `X = Y or not Y; Y = X and I` — statically a dependency cycle
/// (X ← Y ← X), but constructively convergent whenever `I` is absent:
/// `and(X, 0)` determines `Y = 0` without looking at `X`, which then
/// determines `X = 1`. Constructive semantics has no excluded middle,
/// so with `I` present the cycle is real and the reaction must fail.
/// The body repeats every instant, so every instant poses the cycle.
fn cyclic_but_constructive() -> Machine {
    let body = Stmt::local(
        vec![
            SignalDecl::new("X", Direction::Local),
            SignalDecl::new("Y", Direction::Local),
        ],
        Stmt::par([
            Stmt::if_(Expr::now("Y").or(Expr::now("Y").not()), Stmt::emit("X")),
            Stmt::if_(Expr::now("X").and(Expr::now("I")), Stmt::emit("Y")),
            Stmt::if_(Expr::now("X"), Stmt::emit("O")),
        ]),
    );
    let module = Module::new("CYC")
        .input(SignalDecl::new("I", Direction::In))
        .output(SignalDecl::new("O", Direction::Out))
        .body(Stmt::loop_(Stmt::seq([body, Stmt::Pause])));
    machine_for(&module, &ModuleRegistry::new()).expect("compiles (with a cycle warning)")
}

fn abro() -> Machine {
    let m = Module::new("ABRO")
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
        ));
    machine_for(&m, &ModuleRegistry::new()).expect("compiles")
}

#[test]
fn acyclic_circuits_default_to_levelized() {
    let m = abro();
    assert_eq!(m.engine(), EngineMode::Levelized);
    let (levels, max_width) = m.levelization().expect("acyclic");
    assert!(levels > 1 && max_width >= 1, "{levels} levels, width {max_width}");
}

#[test]
fn cyclic_circuits_default_to_the_block_walker() {
    let mut m = cyclic_but_constructive();
    assert_eq!(
        m.engine(),
        EngineMode::Levelized,
        "the walker runs the SCC blocks"
    );
    assert!(m.levelization().is_none(), "no level schedule exists");
    assert_eq!(m.set_engine(EngineMode::Levelized), EngineMode::Levelized);
    // The sparse sweep needs levels and falls back to the walker…
    assert_eq!(m.set_engine(EngineMode::Sparse), EngineMode::Levelized);
    // …while the constructive reference runs anything.
    assert_eq!(m.set_engine(EngineMode::Constructive), EngineMode::Constructive);
}

#[test]
fn cyclic_but_constructive_converges_without_the_input() {
    for mode in [EngineMode::Constructive, EngineMode::Levelized] {
        let mut m = cyclic_but_constructive();
        m.set_engine(mode);
        let r = m.react().expect("constructive convergence");
        assert!(r.present("O"), "{mode}: X = or(0, not 0) = 1 emits O");
    }
}

#[test]
fn cyclic_but_constructive_deadlocks_with_the_input() {
    for mode in [EngineMode::Constructive, EngineMode::Levelized] {
        let mut m = cyclic_but_constructive();
        m.set_engine(mode);
        let err = m
            .react_with(&[("I", Value::Bool(true))])
            .expect_err("I present closes the cycle");
        let RuntimeError::Causality { report, .. } = err else {
            panic!("{mode}: expected a causality error, got {err}");
        };
        assert!(report.undetermined > 0, "{mode}: {report:?}");
        assert!(
            report.signals().iter().any(|s| s.starts_with('X') || s.starts_with('Y')),
            "{mode}: the report names a cycle signal: {:?}",
            report.signals()
        );
    }
}

#[test]
fn engine_hops_across_deadlocks_keep_a_cyclic_machine_consistent() {
    // Each engine keeps its own ⊥ bookkeeping: a deadlock left half
    // settled by one engine must not leak into the next instant of the
    // other. The walker resets only its SCC members, so this is the case
    // that would show a stale plane.
    let mut hopper = cyclic_but_constructive();
    let mut twin = cyclic_but_constructive();
    twin.set_engine(EngineMode::Constructive);
    for (step, mode) in [
        EngineMode::Constructive,
        EngineMode::Levelized,
        EngineMode::Levelized,
        EngineMode::Constructive,
    ]
    .into_iter()
    .enumerate()
    {
        hopper.set_engine(mode);
        for m in [&mut hopper, &mut twin] {
            m.react_with(&[("I", Value::Bool(true))])
                .expect_err("I present closes the cycle");
            let r = m.react().expect("the next instant converges");
            assert!(r.present("O"), "step {step} ({mode})");
        }
        assert_eq!(
            hopper.state_digest(),
            twin.state_digest(),
            "step {step} ({mode})"
        );
    }
}

#[test]
fn explicit_engine_requests_are_honored_on_acyclic_circuits() {
    for mode in [
        EngineMode::Levelized,
        EngineMode::Constructive,
        EngineMode::Sparse,
    ] {
        let mut m = abro();
        assert_eq!(m.set_engine(mode), mode);
        m.react().expect("boot");
        let r = m
            .react_with(&[("A", Value::Bool(true)), ("B", Value::Bool(true))])
            .expect("reaction");
        assert!(r.present("O"), "{mode}");
    }
}

#[test]
fn levelized_reports_its_engine_in_reaction_stats() {
    use hiphop_runtime::telemetry::{shared, JsonlSink};
    let mut m = abro();
    let (sink, buf) = JsonlSink::buffered();
    m.attach_sink(shared(sink));
    m.react().expect("boot");
    m.set_engine(EngineMode::Constructive);
    m.react().expect("second");
    m.finish_sinks();
    let text = buf.text();
    assert!(text.contains("\"engine\":\"levelized\""), "{text}");
    assert!(text.contains("\"engine\":\"constructive\""), "{text}");
}

#[test]
fn pre_reads_in_data_expressions_see_this_instant_on_cyclic_circuits() {
    // `S.pre && V.nowval > 0` is a data test, not a wire: it reads S's
    // pre-register net through the expression environment, with no edge
    // to it. Inside a trap the test feeds the trap's exit, created
    // before S, so the condensation order reaches the test before S's
    // register output; the cycle beside it puts the circuit on that
    // order, and the walker must still sweep the register output first.
    let ring = Stmt::loop_(Stmt::seq([
        Stmt::local(
            vec![
                SignalDecl::new("X", Direction::Local),
                SignalDecl::new("Y", Direction::Local),
            ],
            Stmt::par([
                Stmt::if_(Expr::now("Y").or(Expr::now("Y").not()), Stmt::emit("X")),
                Stmt::if_(Expr::now("X").and(Expr::now("I")), Stmt::emit("Y")),
            ]),
        ),
        Stmt::Pause,
    ]));
    let watcher = Stmt::loop_(Stmt::seq([
        Stmt::trap(
            "L",
            Stmt::local(
                vec![SignalDecl::new("S", Direction::Local)],
                Stmt::loop_(Stmt::seq([
                    Stmt::if_(Expr::now("A"), Stmt::emit("S")),
                    Stmt::if_(
                        Expr::pre("S").and(Expr::nowval("V").gt(Expr::num(0.0))),
                        Stmt::seq([Stmt::emit("T"), Stmt::exit("L")]),
                    ),
                    Stmt::Pause,
                ])),
            ),
        ),
        Stmt::Pause,
    ]));
    let module = Module::new("PRE")
        .input(SignalDecl::new("I", Direction::In))
        .input(SignalDecl::new("A", Direction::In))
        .input(SignalDecl::new("V", Direction::In))
        .output(SignalDecl::new("T", Direction::Out))
        .body(Stmt::par([ring, watcher]));
    let run = |mode: EngineMode| {
        let mut m = machine_for(&module, &ModuleRegistry::new()).expect("compiles");
        assert!(m.levelization().is_none(), "the ring is a static cycle");
        m.set_engine(mode);
        let a = || ("A", Value::Bool(true));
        let v = |x: f64| ("V", Value::Num(x));
        let mut trace = Vec::new();
        for inputs in [
            vec![],
            vec![a()],
            vec![v(1.0)],
            vec![a()],
            vec![a(), v(2.0)],
            vec![v(3.0)],
        ] {
            trace.push(m.react_with(&inputs).expect("reaction").present("T"));
        }
        trace
    };
    let reference = run(EngineMode::Constructive);
    assert_eq!(reference, [false, false, true, false, true, false]);
    assert_eq!(run(EngineMode::Levelized), reference);
}
