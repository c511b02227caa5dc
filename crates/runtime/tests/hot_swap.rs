//! Dynamic reconfiguration between reactions (paper §6).

use hiphop_core::prelude::*;
use hiphop_compiler::compile_module;
use hiphop_runtime::{EngineMode, Machine};

fn counter_module(step: f64) -> Module {
    Module::new("Counter")
        .input(SignalDecl::new("inc", Direction::In))
        .output(SignalDecl::new("count", Direction::Out).with_init(0i64))
        .body(Stmt::every(
            Delay::cond(Expr::now("inc")),
            Stmt::emit_val("count", Expr::preval("count").add(Expr::num(step))),
        ))
}

#[test]
fn hot_swap_carries_signal_values() {
    let c1 = compile_module(&counter_module(1.0), &ModuleRegistry::new()).unwrap();
    let mut m = Machine::new(c1.circuit).expect("finalized circuit");
    m.react().unwrap();
    m.react_with(&[("inc", Value::Bool(true))]).unwrap();
    m.react_with(&[("inc", Value::Bool(true))]).unwrap();
    assert_eq!(m.nowval("count"), Value::Num(2.0));

    // Swap in a version counting by 10: the accumulated value persists.
    let c2 = compile_module(&counter_module(10.0), &ModuleRegistry::new()).unwrap();
    m.hot_swap(c2.circuit).expect("finalized circuit");
    m.react().unwrap(); // new program's boot instant
    m.react_with(&[("inc", Value::Bool(true))]).unwrap();
    assert_eq!(m.nowval("count"), Value::Num(12.0), "2 carried over + 10");
}

#[test]
fn hot_swap_carries_vars_and_log() {
    let m1 = Module::new("A")
        .output(SignalDecl::new("o", Direction::Out))
        .body(Stmt::seq([
            Stmt::assign("x", Expr::num(7.0)),
            Stmt::log(Expr::str("before swap")),
            Stmt::Halt,
        ]));
    let c1 = compile_module(&m1, &ModuleRegistry::new()).unwrap();
    let mut m = Machine::new(c1.circuit).expect("finalized circuit");
    m.react().unwrap();

    let m2 = Module::new("B")
        .output(SignalDecl::new("o", Direction::Out))
        .body(Stmt::if_(
            Expr::var("x").eq(Expr::num(7.0)),
            Stmt::seq([Stmt::emit("o"), Stmt::log(Expr::str("after swap"))]),
        ));
    let c2 = compile_module(&m2, &ModuleRegistry::new()).unwrap();
    m.hot_swap(c2.circuit).expect("finalized circuit");
    let r = m.react().unwrap();
    assert!(r.present("o"), "swapped program sees the carried variable");
    assert_eq!(m.log(), ["before swap", "after swap"]);
}

#[test]
fn hot_swap_resets_control_state() {
    let m1 = Module::new("A")
        .output(SignalDecl::new("late", Direction::Out))
        .body(Stmt::seq([Stmt::Pause, Stmt::Pause, Stmt::emit("late"), Stmt::Halt]));
    let c1 = compile_module(&m1, &ModuleRegistry::new()).unwrap();
    let mut m = Machine::new(c1.circuit).expect("finalized circuit");
    m.react().unwrap();
    m.react().unwrap(); // one pause in
    let c2 = compile_module(&m1, &ModuleRegistry::new()).unwrap();
    m.hot_swap(c2.circuit).expect("finalized circuit");
    // The swapped program restarts from its boot instant.
    assert!(!m.react().unwrap().present("late"));
    assert!(!m.react().unwrap().present("late"));
    assert!(m.react().unwrap().present("late"));
}

/// A statically cyclic (but constructively convergent) variant of the
/// counter interface: `X = Y or not Y`, `Y = X and inc`.
fn cyclic_module() -> Module {
    Module::new("Counter")
        .input(SignalDecl::new("inc", Direction::In))
        .output(SignalDecl::new("count", Direction::Out).with_init(0i64))
        .body(Stmt::local(
            vec![
                SignalDecl::new("X", Direction::Local),
                SignalDecl::new("Y", Direction::Local),
            ],
            Stmt::par([
                Stmt::if_(Expr::now("Y").or(Expr::now("Y").not()), Stmt::emit("X")),
                Stmt::if_(Expr::now("X").and(Expr::now("inc")), Stmt::emit("Y")),
            ]),
        ))
}

#[test]
fn hot_swap_rebuilds_the_levelized_schedule() {
    // Acyclic → levelized by default.
    let c1 = compile_module(&counter_module(1.0), &ModuleRegistry::new()).unwrap();
    let mut m = Machine::new(c1.circuit).expect("finalized circuit");
    assert_eq!(m.engine(), EngineMode::Levelized);
    m.react().unwrap();
    m.react_with(&[("inc", Value::Bool(true))]).unwrap();

    // Acyclic → cyclic: the level schedule is gone; the walker runs the
    // swapped circuit's SCC-condensed schedule instead.
    let c2 = compile_module(&cyclic_module(), &ModuleRegistry::new()).unwrap();
    assert!(c2.levels.is_none(), "the swapped-in circuit is cyclic");
    m.hot_swap(c2.circuit).expect("finalized circuit");
    assert_eq!(m.engine(), EngineMode::Levelized);
    assert!(m.levelization().is_none());
    m.react().unwrap();

    // Cyclic → acyclic: the fresh analysis restores the levelized
    // schedule and the carried state is still there.
    let c3 = compile_module(&counter_module(10.0), &ModuleRegistry::new()).unwrap();
    m.hot_swap(c3.circuit).expect("finalized circuit");
    assert_eq!(m.engine(), EngineMode::Levelized);
    assert!(m.levelization().is_some());
    m.react().unwrap();
    m.react_with(&[("inc", Value::Bool(true))]).unwrap();
    assert_eq!(m.nowval("count"), Value::Num(11.0), "1 carried over + 10");
}

#[test]
fn explicit_engine_request_survives_hot_swap() {
    let c1 = compile_module(&counter_module(1.0), &ModuleRegistry::new()).unwrap();
    let mut m = Machine::new(c1.circuit).expect("finalized circuit");
    assert_eq!(
        m.set_engine(EngineMode::Constructive),
        EngineMode::Constructive
    );
    m.react().unwrap();
    let c2 = compile_module(&counter_module(10.0), &ModuleRegistry::new()).unwrap();
    m.hot_swap(c2.circuit).expect("finalized circuit");
    assert_eq!(
        m.engine(),
        EngineMode::Constructive,
        "the request is sticky"
    );
    m.react().unwrap();
    m.react_with(&[("inc", Value::Bool(true))]).unwrap();
    assert_eq!(m.nowval("count"), Value::Num(10.0));
}

#[test]
fn reset_restores_the_initial_configuration() {
    let m1 = counter_module(1.0);
    let c = compile_module(&m1, &ModuleRegistry::new()).unwrap();
    let mut m = Machine::new(c.circuit).expect("finalized circuit");
    m.react().unwrap();
    m.react_with(&[("inc", Value::Bool(true))]).unwrap();
    m.react_with(&[("inc", Value::Bool(true))]).unwrap();
    assert_eq!(m.nowval("count"), Value::Num(2.0));
    m.reset();
    assert_eq!(m.nowval("count"), Value::Num(0.0));
    assert!(!m.is_terminated());
    // Runs again from the boot instant.
    m.react().unwrap();
    m.react_with(&[("inc", Value::Bool(true))]).unwrap();
    assert_eq!(m.nowval("count"), Value::Num(1.0));
}
