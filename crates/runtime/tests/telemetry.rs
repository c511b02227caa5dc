//! Integration tests for the telemetry subsystem: metrics aggregation,
//! structured JSONL traces, VCD export, and causality reports — driven
//! through the full compile-and-react pipeline.

use hiphop_core::prelude::*;
use hiphop_runtime::telemetry::{shared, JsonlSink, SharedBuffer, VcdSink};
use hiphop_runtime::{machine_for, EngineMode, Machine, RuntimeError};

fn machine(body: Stmt, signals: &[(&str, Direction)]) -> Machine {
    let mut m = Module::new("test");
    for (n, d) in signals {
        m = m.signal(SignalDecl::new(*n, *d));
    }
    machine_for(&m.body(body), &ModuleRegistry::new()).expect("compiles")
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
fn metrics_event_counts_match_reactions() {
    let mut m = abro();
    // Queue telemetry is a constructive-engine observable (the levelized
    // default has no queue); pin the engine this test is about.
    assert_eq!(m.set_engine(EngineMode::Constructive), EngineMode::Constructive);
    let metrics = m.enable_metrics();
    let mut total = 0usize;
    total += m.react().unwrap().events;
    for inputs in [&["A"][..], &["B"], &["R"], &["A", "B"]] {
        let refs: Vec<(&str, Value)> =
            inputs.iter().map(|n| (*n, Value::Bool(true))).collect();
        total += m.react_with(&refs).unwrap().events;
    }
    let sink = metrics.borrow();
    assert_eq!(sink.reactions(), 5);
    assert_eq!(
        sink.total_events(),
        total,
        "MetricsSink must mirror Reaction::events exactly"
    );
    let snap = sink.snapshot();
    assert_eq!(snap.reactions, 5);
    assert!(snap.events.min > 0.0, "{snap:?}");
    assert!(snap.queue_hwm.max >= 1.0, "{snap:?}");
    assert_eq!(snap.causality_failures, 0);
}

#[test]
fn metrics_via_machine_accessor() {
    let mut m = abro();
    assert!(m.metrics().is_none(), "no metrics before enable");
    m.enable_metrics();
    m.react().unwrap();
    let snap = m.metrics().expect("enabled");
    assert_eq!(snap.reactions, 1);
    let table = snap.render();
    assert!(table.contains("p95"), "{table}");
    assert!(table.contains("queue hwm"), "{table}");
}

#[test]
fn vcd_export_golden() {
    // A two-instant program with one valued output: the full VCD text is
    // pinned so any format drift is caught.
    let body = Stmt::seq([
        Stmt::emit_val("o", Expr::num(1.0)),
        Stmt::Pause,
        Stmt::emit_val("o", Expr::num(2.0)),
    ]);
    let mut m = machine(body, &[("o", Direction::Out)]);
    let buf = SharedBuffer::new();
    let sink = shared(VcdSink::new("test", &["o"], Box::new(buf.clone())));
    m.attach_sink(sink.clone());
    m.react().unwrap();
    m.react().unwrap();
    m.finish_sinks();
    let expected = "\
$comment hiphop-rs reaction trace (1 time unit = 1 instant) $end
$timescale 1 us $end
$scope module test $end
$var wire 1 ! o $end
$var real 64 \" o.val $end
$upscope $end
$enddefinitions $end
#0
$dumpvars
1!
r1 \"
$end
#1
r2 \"
#2
";
    assert_eq!(buf.text(), expected);
}

#[test]
fn vcd_header_is_gtkwave_parseable() {
    // Structural checks a VCD reader performs before the value section.
    let mut m = abro();
    let buf = SharedBuffer::new();
    m.attach_sink(shared(VcdSink::new("ABRO", &["O"], Box::new(buf.clone()))));
    m.react().unwrap();
    m.react_with(&[("A", Value::Bool(true)), ("B", Value::Bool(true))])
        .unwrap();
    m.finish_sinks();
    let vcd = buf.text();
    assert!(vcd.contains("$timescale 1 us $end"), "{vcd}");
    assert!(vcd.contains("$scope module ABRO $end"), "{vcd}");
    assert!(vcd.contains("$enddefinitions $end"), "{vcd}");
    assert!(vcd.contains("$dumpvars"), "{vcd}");
    assert!(vcd.contains("\n1!\n"), "O present at instant 1: {vcd}");
}

#[test]
fn jsonl_trace_has_reaction_and_net_events() {
    let mut m = abro();
    let (sink, buf) = JsonlSink::buffered();
    m.attach_sink(shared(sink));
    m.react().unwrap();
    m.react_with(&[("A", Value::Bool(true))]).unwrap();
    m.finish_sinks();
    let text = buf.text();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 10, "net events recorded: {}", lines.len());
    assert!(lines[0].starts_with("{\"type\":\"reaction_start\""), "{}", lines[0]);
    assert!(
        lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')),
        "every line is one JSON object"
    );
    assert!(text.contains("\"type\":\"net\""), "{text}");
    assert!(text.contains("\"type\":\"reaction_end\""), "{text}");
    assert!(text.contains("\"outputs\":["), "{text}");
}

#[test]
fn causality_report_names_the_cycle_signal() {
    // if (!X.now) emit X — the paper's §5.2 non-constructive classic.
    // The static analysis now rejects it at machine construction with
    // the same structured report a runtime deadlock would produce.
    let body = Stmt::local(
        vec![SignalDecl::new("X", Direction::Local)],
        Stmt::if_(Expr::now("X").not(), Stmt::emit("X")),
    );
    let compiled = hiphop_compiler::compile_module(
        &Module::new("test").body(body),
        &ModuleRegistry::new(),
    )
    .unwrap();
    let err = Machine::new(compiled.circuit).expect_err("statically non-constructive");
    let RuntimeError::Causality { report, cycle, .. } = err else {
        panic!("expected causality error");
    };
    assert_eq!(cycle, report.nets, "compat shim mirrors the report");
    assert!(report.is_cycle, "a strict dependency cycle is isolated");
    assert!(report.undetermined > 0);
    assert!(
        report.signals().iter().any(|s| s.starts_with('X')),
        "the report names the offending signal: {:?}",
        report.signals()
    );
    assert!(
        report.nets.iter().all(|n| !n.kind.is_empty()),
        "every net carries its NetKind: {report:?}"
    );
    let pretty = report.pretty();
    assert!(pretty.contains("dependency cycle"), "{pretty}");
    assert!(pretty.contains("signals involved"), "{pretty}");
    let json = report.to_json();
    assert!(json.contains("\"type\":\"causality\""), "{json}");
    assert!(json.contains("\"is_cycle\":true"), "{json}");
}

#[test]
fn causality_failure_reaches_the_sinks() {
    // An *input-dependent* cycle passes the static analysis but
    // deadlocks at runtime when `I` is present — the failure flows
    // through the block walker's per-SCC causality check to the sinks.
    let body = Stmt::local(
        vec![
            SignalDecl::new("X", Direction::Local),
            SignalDecl::new("Y", Direction::Local),
        ],
        Stmt::par([
            Stmt::if_(Expr::now("Y").or(Expr::now("Y").not()), Stmt::emit("X")),
            Stmt::if_(Expr::now("X").and(Expr::now("I")), Stmt::emit("Y")),
        ]),
    );
    let mut m = machine(body, &[("I", Direction::In)]);
    let metrics = m.enable_metrics();
    let (sink, buf) = JsonlSink::buffered();
    m.attach_sink(shared(sink));
    assert!(m.react_with(&[("I", Value::Bool(true))]).is_err());
    m.finish_sinks();
    assert_eq!(metrics.borrow().snapshot().causality_failures, 1);
    assert!(buf.text().contains("\"type\":\"causality\""), "{}", buf.text());
}

#[test]
fn logs_flow_through_sinks_and_compat_accessor() {
    let body = Stmt::seq([Stmt::log(Expr::str("hello")), Stmt::log(Expr::str("world"))]);
    let mut m = machine(body, &[]);
    let metrics = m.enable_metrics();
    let (sink, buf) = JsonlSink::buffered();
    m.attach_sink(shared(sink));
    m.react().unwrap();
    // Old accessor still sees the messages…
    assert_eq!(m.log(), ["hello", "world"]);
    // …and so do the sinks.
    assert_eq!(metrics.borrow().snapshot().logs, 2);
    assert!(buf.text().contains("\"message\":\"hello\""), "{}", buf.text());
}

#[test]
fn sinks_survive_hot_swap() {
    let before = Module::new("M")
        .output(SignalDecl::new("o", Direction::Out))
        .body(Stmt::loop_(Stmt::seq([Stmt::emit("o"), Stmt::Pause])));
    let mut m = machine_for(&before, &ModuleRegistry::new()).unwrap();
    let metrics = m.enable_metrics();
    m.react().unwrap();
    let after = Module::new("M")
        .output(SignalDecl::new("o", Direction::Out))
        .body(Stmt::loop_(Stmt::seq([Stmt::Pause, Stmt::emit("o")])));
    let compiled =
        hiphop_compiler::compile_module(&after, &ModuleRegistry::new()).unwrap();
    m.hot_swap(compiled.circuit).expect("finalized circuit");
    m.react().unwrap();
    assert_eq!(
        metrics.borrow().reactions(),
        2,
        "the sink keeps recording across hot swaps"
    );
}
