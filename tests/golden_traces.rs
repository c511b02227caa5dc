//! Golden-trace regression tests: the coarse JSONL trace of each `.hh`
//! example is pinned in `tests/golden/` and replayed under all three
//! evaluation engines. The traces must agree **byte for byte** after
//! normalization, which strips exactly the engine-dependent fields of
//! `reaction_end` (the engine tag, wall-clock duration, event count and
//! queue high-water mark — the constructive queue does not exist under
//! the levelized engine). Everything observable — reaction boundaries,
//! actions, termination, the output sets — must be identical.
//!
//! Regenerate the golden files with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```

use hiphop::lang::{parse_program, HostRegistry};
use hiphop::runtime::telemetry::shared;
use hiphop::runtime::{EngineMode, JsonlSink};
use hiphop::{Machine, RuntimeError};
use hiphop_core::value::Value;
use std::path::PathBuf;

struct Example {
    name: &'static str,
    main: &'static str,
    source: &'static str,
    stimulus: &'static str,
}

const EXAMPLES: &[Example] = &[
    Example {
        name: "abro",
        main: "ABRO",
        source: include_str!("../examples/hh/abro.hh"),
        stimulus: ";A;B;R;A B;B A;R;B;A",
    },
    Example {
        name: "suspend_clock",
        main: "SuspendClock",
        source: include_str!("../examples/hh/suspend_clock.hh"),
        stimulus: ";;HOLD;;HOLD;RESET;;HOLD RESET;",
    },
    Example {
        name: "reincarnation",
        main: "Reincarnate",
        source: include_str!("../examples/hh/reincarnation.hh"),
        stimulus: ";GO;;GO;GO;;GO",
    },
];

/// Strips the engine-dependent fields from a `reaction_end` line; field
/// order is fixed (`seq`, `engine`, `duration_ns`, `events`, `actions`,
/// `queue_hwm`, `terminated`, `outputs`), so two range deletions keep
/// `seq`, `actions` and everything observable.
fn normalize(line: &str) -> String {
    let mut s = line.to_owned();
    if let (Some(a), Some(b)) = (s.find(",\"engine\":"), s.find(",\"actions\":")) {
        s.replace_range(a..b, "");
    }
    if let (Some(a), Some(b)) = (s.find(",\"queue_hwm\":"), s.find(",\"terminated\":")) {
        s.replace_range(a..b, "");
    }
    s
}

/// Runs one example under `mode` with a coarse JSONL sink attached and
/// returns the normalized trace text.
fn trace(example: &Example, mode: EngineMode) -> String {
    let (module, registry) =
        parse_program(example.source, example.main, &HostRegistry::new()).expect("parses");
    let compiled = hiphop::compiler::compile_module(&module, &registry).expect("compiles");
    let mut machine = Machine::new(compiled.circuit).expect("finalized circuit");
    assert_eq!(
        machine.set_engine(mode),
        mode,
        "{}: the example is acyclic, every engine is available",
        example.name
    );
    let (sink, buf) = JsonlSink::buffered();
    machine.attach_sink(shared(sink.coarse()));
    for instant in example.stimulus.split(';') {
        let inputs: Vec<(&str, Value)> = instant
            .split_whitespace()
            .map(|tok| (tok, Value::Bool(true)))
            .collect();
        machine.react_with(&inputs).expect("reaction");
    }
    machine.finish_sinks();
    let mut out = String::new();
    for line in buf.text().lines() {
        out.push_str(&normalize(line));
        out.push('\n');
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.jsonl"))
}

#[test]
fn engines_replay_the_golden_traces_byte_for_byte() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for example in EXAMPLES {
        let levelized = trace(example, EngineMode::Levelized);
        for mode in [EngineMode::Constructive, EngineMode::Sparse] {
            assert_eq!(
                trace(example, mode),
                levelized,
                "{}: {mode} trace diverges from levelized",
                example.name
            );
        }
        let path = golden_path(example.name);
        if update {
            std::fs::write(&path, &levelized).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: no golden file ({e}); run with UPDATE_GOLDEN=1", example.name));
        assert_eq!(
            levelized, golden,
            "{}: trace drifted from tests/golden/{}.jsonl (UPDATE_GOLDEN=1 regenerates)",
            example.name, example.name
        );
    }
}

/// Replays `supervised_abort.hh` — a supervised activity whose every
/// attempt fails, preempted by `abort` mid-retry — under `mode`, and
/// returns the normalized coarse trace (supervision telemetry
/// included: the supervisor publishes into the machine's sinks).
fn supervised_abort_trace(mode: EngineMode) -> String {
    use hiphop::eventloop::supervisor::{
        supervised_hooks, ActivityPolicy, SupervisedSpec, Supervisor,
    };
    use hiphop::eventloop::{Driver, EventLoop};
    use std::cell::RefCell;
    use std::rc::Rc;

    let el = Rc::new(RefCell::new(EventLoop::new()));
    let sup = Supervisor::new(el.clone());
    let (spawn, kill) = supervised_hooks(
        &sup,
        SupervisedSpec::new("fetch").done("res").policy(ActivityPolicy {
            jitter: 0.0,
            ..ActivityPolicy::default().with_retries(10).with_backoff(200, 200)
        }),
        |a| {
            let c = a.completion();
            c.fail(a.el, "connection refused");
        },
    );
    let mut hosts = HostRegistry::new();
    let (sf, kf) = (spawn.f.clone(), kill.f.clone());
    hosts.async_hook("fetch.spawn", move |ctx| (sf)(ctx));
    hosts.async_hook("fetch.kill", move |ctx| (kf)(ctx));

    let source = include_str!("../examples/hh/supervised_abort.hh");
    let (module, registry) = parse_program(source, "SupervisedAbort", &hosts).expect("parses");
    let compiled = hiphop::compiler::compile_module(&module, &registry).expect("compiles");
    let mut machine = Machine::new(compiled.circuit).expect("finalized circuit");
    assert_eq!(machine.set_engine(mode), mode, "the example is acyclic");
    let (sink, buf) = JsonlSink::buffered();
    machine.attach_sink(shared(sink.coarse()));
    sup.attach_sinks(machine.sink_handle());

    let driver = Driver {
        machine: Rc::new(RefCell::new(machine)),
        el: el.clone(),
    };
    // Boot: attempt 1 fails instantly, retry scheduled at t=200.
    driver.react(&[]).expect("boot");
    // Attempts 2 and 3 fail at t=200 and t=400; the next retry would
    // fire at t=600.
    driver.advance_by(500).expect("advance");
    // t=500: abort mid-retry — the kill hook cancels the pending timer.
    driver.react(&[("stop", Value::Bool(true))]).expect("stop");
    assert_eq!(el.borrow().pending(), 0, "{mode}: retry timer cancelled");
    assert_eq!(sup.active(), 0, "{mode}: activity deregistered");
    assert_eq!(sup.stats().killed, 1, "{mode}");
    assert_eq!(sup.stats().retries, 3, "{mode}: three retries scheduled");
    // Nothing further may happen.
    let tail = driver.advance_by(2000).expect("tail");
    assert!(tail.is_empty(), "{mode}: dead activity stays dead");

    driver.machine.borrow_mut().finish_sinks();
    let mut out = String::new();
    for line in buf.text().lines() {
        out.push_str(&normalize(line));
        out.push('\n');
    }
    out
}

#[test]
fn supervised_abort_replays_identically_across_engines() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let levelized = supervised_abort_trace(EngineMode::Levelized);
    assert!(
        levelized.contains("\"type\":\"activity_retry\""),
        "supervision telemetry reaches the coarse trace: {levelized}"
    );
    assert!(
        levelized.contains("\"name\":\"aborted\",\"present\":true"),
        "the abort continuation ran: {levelized}"
    );
    assert!(
        !levelized.contains("\"name\":\"gotit\",\"present\":true"),
        "the activity never completed: {levelized}"
    );
    for mode in [EngineMode::Constructive, EngineMode::Sparse] {
        assert_eq!(
            supervised_abort_trace(mode),
            levelized,
            "supervised_abort: {mode} trace diverges from levelized"
        );
    }
    let path = golden_path("supervised_abort");
    if update {
        std::fs::write(&path, &levelized).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("supervised_abort: no golden file ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        levelized, golden,
        "supervised_abort: trace drifted from tests/golden/supervised_abort.jsonl (UPDATE_GOLDEN=1 regenerates)"
    );
}

/// Replays the token-ring arbiter — cyclic but constructive at every
/// reachable instant — under `mode` and returns the normalized coarse
/// trace. The circuit's pass chain is a real combinational cycle, so the
/// walker runs its SCC-condensed schedule: dense blocks plus one cyclic
/// block iterated to its local fixpoint.
fn cyclic_arbiter_trace(mode: EngineMode) -> String {
    let source = include_str!("../examples/hh/cyclic_arbiter.hh");
    let (module, registry) =
        parse_program(source, "CyclicArbiter", &HostRegistry::new()).expect("parses");
    let compiled = hiphop::compiler::compile_module(&module, &registry).expect("compiles");
    assert!(compiled.levels.is_none(), "the pass chain is a static cycle");
    let mut machine = Machine::new(compiled.circuit).expect("input-dependent, not rejected");
    let resolved = machine.set_engine(mode);
    if mode == EngineMode::Sparse {
        // No level schedule exists for a cyclic circuit: the sparse
        // request degrades to the walker.
        assert_eq!(
            resolved,
            EngineMode::Levelized,
            "sparse falls back on cycles"
        );
    } else {
        assert_eq!(resolved, mode, "every cycle-capable engine is available");
    }
    let (sink, buf) = JsonlSink::buffered();
    machine.attach_sink(shared(sink.coarse()));
    for instant in ";R1;R2;R1 R2;R3;;R1 R2 R3;R2;R1 R3".split(';') {
        let inputs: Vec<(&str, Value)> = instant
            .split_whitespace()
            .map(|tok| (tok, Value::Bool(true)))
            .collect();
        machine.react_with(&inputs).expect("constructive at every instant");
    }
    machine.finish_sinks();
    let mut out = String::new();
    for line in buf.text().lines() {
        out.push_str(&normalize(line));
        out.push('\n');
    }
    out
}

#[test]
fn cyclic_arbiter_replays_identically_across_engines() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let walker = cyclic_arbiter_trace(EngineMode::Levelized);
    // The arbiter actually arbitrates: every station is granted somewhere
    // in the stimulus, and grants reach the trace as present outputs.
    for g in ["G1", "G2", "G3"] {
        assert!(
            walker.contains(&format!("{{\"name\":\"{g}\",\"present\":true")),
            "{g} is granted somewhere: {walker}"
        );
    }
    // Sparse has no level schedule on a cyclic circuit and must fall
    // back to the walker — still byte-identical.
    for mode in [EngineMode::Constructive, EngineMode::Sparse] {
        assert_eq!(
            cyclic_arbiter_trace(mode),
            walker,
            "cyclic_arbiter: {mode} trace diverges from the walker"
        );
    }
    let path = golden_path("cyclic_arbiter");
    if update {
        std::fs::write(&path, &walker).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cyclic_arbiter: no golden file ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        walker, golden,
        "cyclic_arbiter: trace drifted from tests/golden/cyclic_arbiter.jsonl (UPDATE_GOLDEN=1 regenerates)"
    );
}

#[test]
fn causality_cycle_example_is_rejected_at_construction() {
    // The non-constructive example is statically cyclic *and* provably
    // non-constructive: the analyzer rejects it at `Machine::new`, with
    // the full structured causality diagnosis — no reaction needed.
    let source = include_str!("../examples/hh/causality_cycle.hh");
    let (module, registry) =
        parse_program(source, "Paradox", &HostRegistry::new()).expect("parses");
    let compiled = hiphop::compiler::compile_module(&module, &registry).expect("compiles");
    assert!(compiled.cycle_warnings > 0, "statically flagged");
    assert!(compiled.levels.is_none(), "no levelized schedule exists");
    let err = Machine::new(compiled.circuit).expect_err("statically non-constructive");
    let RuntimeError::Causality { report, .. } = err else {
        panic!("expected a causality error, got {err}");
    };
    assert!(report.is_cycle, "a strict dependency cycle is isolated");
    assert!(
        report.signals().iter().any(|s| s.starts_with('X')),
        "the report names the offending signal: {:?}",
        report.signals()
    );
    assert!(report.to_json().contains("\"type\":\"causality\""));
}

#[test]
fn golden_traces_exercise_the_interesting_behaviour() {
    // The pinned traces are only a regression net if they actually show
    // the behaviour the examples exist for.
    let abro = std::fs::read_to_string(golden_path("abro")).expect("golden present");
    assert!(
        abro.contains("{\"name\":\"O\",\"present\":true")
            || abro.contains("\"O\""),
        "ABRO emits O somewhere: {abro}"
    );
    let clock = std::fs::read_to_string(golden_path("suspend_clock")).expect("golden present");
    assert!(clock.contains("TICK"), "{clock}");
    let reinc = std::fs::read_to_string(golden_path("reincarnation")).expect("golden present");
    assert!(reinc.contains("ALIVE"), "{reinc}");
    assert!(
        !reinc
            .lines()
            .any(|l| l.contains("\"name\":\"CAUGHT\",\"present\":true")),
        "reincarnated S must never be seen by the next iteration: {reinc}"
    );
}

// ------------------------------------------------------- application layer

/// Shared tail of the app-layer golden tests: cross-engine agreement on
/// the normalized coarse trace, then byte-comparison against (or
/// regeneration of) `tests/golden/<name>.jsonl`.
fn assert_app_golden(name: &str, trace_of: impl Fn(EngineMode) -> String) {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let levelized = trace_of(EngineMode::Levelized);
    for mode in [EngineMode::Constructive, EngineMode::Sparse] {
        assert_eq!(
            trace_of(mode),
            levelized,
            "{name}: {mode} trace diverges from levelized"
        );
    }
    let path = golden_path(name);
    if update {
        std::fs::write(&path, &levelized).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: no golden file ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        levelized, golden,
        "{name}: trace drifted from tests/golden/{name}.jsonl (UPDATE_GOLDEN=1 regenerates)"
    );
}

/// Replays the §3 login-panel V2 quarantine scenario (three failed
/// logins freeze the panel; the quarantine timer releases it; a correct
/// login then opens and closes a session) under `mode` on the virtual
/// clock, and returns the normalized coarse trace.
fn login_v2_trace(mode: EngineMode) -> String {
    use hiphop::apps::login::AuthConfig;
    use hiphop::apps::login_v2::build_v2;
    use hiphop::eventloop::{Driver, EventLoop};
    use std::cell::RefCell;
    use std::rc::Rc;

    let el = Rc::new(RefCell::new(EventLoop::new()));
    let auth = AuthConfig::single_user(100, "joe", "secret");
    let (main, reg) = build_v2(el.clone(), &auth, false);
    let mut machine = hiphop::machine_for(&main, &reg).expect("login V2 compiles");
    assert_eq!(
        machine.set_engine(mode),
        mode,
        "the weakabort variant is acyclic, every engine is available"
    );
    let (sink, buf) = JsonlSink::buffered();
    machine.attach_sink(shared(sink.coarse()));
    let d = Driver {
        machine: Rc::new(RefCell::new(machine)),
        el,
    };

    d.react(&[]).expect("boot");
    d.react(&[("name", Value::from("joe"))]).expect("name");
    d.react(&[("passwd", Value::from("wrong!"))]).expect("passwd");
    for _ in 0..3 {
        d.react(&[("login", Value::Bool(true))]).expect("login");
        d.advance_by(150).expect("auth reply");
    }
    // Quarantine: `tmo` ticks once per virtual second, restart at tmo > 5.
    d.advance_by(7000).expect("quarantine runs out");
    d.react(&[("passwd", Value::from("secret"))]).expect("fixed passwd");
    d.react(&[("login", Value::Bool(true))]).expect("login again");
    d.advance_by(150).expect("auth accepts");
    d.advance_by(2500).expect("session clock ticks");
    d.react(&[("logout", Value::Bool(true))]).expect("logout");

    d.machine.borrow_mut().finish_sinks();
    let mut out = String::new();
    for line in buf.text().lines() {
        out.push_str(&normalize(line));
        out.push('\n');
    }
    out
}

#[test]
fn login_v2_replays_the_golden_trace_byte_for_byte() {
    let levelized = login_v2_trace(EngineMode::Levelized);
    assert!(
        levelized.contains("\"quarantine\""),
        "three failures must freeze the panel: {levelized}"
    );
    assert!(
        levelized.contains("\"connected\""),
        "the corrected login must open a session: {levelized}"
    );
    assert_app_golden("login_v2", login_v2_trace);
}

/// Replays a compressed Lisinopril day (§4.1) under `mode`: reach the
/// 8PM window, deliver a dose, confirm late enough for the Confirm
/// alert, then press Try again inside the 8 h wall to trip
/// `TryTooCloseError`. One reaction per minute; the normalized coarse
/// trace includes the program's own `hop { log(...) }` lines.
fn pillbox_trace(mode: EngineMode) -> String {
    use hiphop::apps::pillbox::{modules, Pillbox};

    let (main, reg) = modules();
    let compiled = hiphop::compiler::compile_module(&main, &reg).expect("pillbox compiles");
    let mut machine = Machine::new(compiled.circuit).expect("finalized circuit");
    assert_eq!(
        machine.set_engine(mode),
        mode,
        "the pillbox is acyclic, every engine is available"
    );
    let (sink, buf) = JsonlSink::buffered();
    machine.attach_sink(shared(sink.coarse()));

    let mut pb = Pillbox::from_machine(machine, 19 * 60 + 55).expect("boot");
    pb.advance(6).expect("reach the dose window"); // 20:01
    assert!(pb.in_dose_window(), "8PM window open");
    pb.press_try().expect("deliver");
    pb.advance(11).expect("let the confirmation go late");
    assert!(pb.conf_alert(), "confirm alert after 10 minutes");
    pb.press_conf().expect("confirm");
    pb.advance(3).expect("enter the 8 h wall");
    pb.press_try().expect("try too close");
    pb.advance(2).expect("tail");

    pb.machine_mut().finish_sinks();
    let mut out = String::new();
    for line in buf.text().lines() {
        out.push_str(&normalize(line));
        out.push('\n');
    }
    out
}

#[test]
fn pillbox_replays_the_golden_trace_byte_for_byte() {
    let levelized = pillbox_trace(EngineMode::Levelized);
    assert!(
        levelized.contains("dose delivered at minute"),
        "the dose log line is in the trace: {levelized}"
    );
    assert!(
        levelized.contains("try too close"),
        "the wall violation is in the trace: {levelized}"
    );
    assert_app_golden("pillbox", pillbox_trace);
}
