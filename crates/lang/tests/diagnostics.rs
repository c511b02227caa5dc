//! Diagnostics quality: parser locations must flow through compilation
//! into runtime causality reports, so a textual program's deadlock names
//! its source lines and signals (paper §5.2: "an appropriate error
//! message").

use hiphop_lang::{parse_program, HostRegistry};
use hiphop_runtime::{Machine, RuntimeError};

#[test]
fn causality_report_names_signal_and_location() {
    let src = "module M() {\n   signal X;\n   if (!X.now) { emit X(); }\n}";
    let (m, reg) = parse_program(src, "M", &HostRegistry::new()).expect("parses");
    let compiled = hiphop_compiler::compile_module(&m, &reg).expect("compiles");
    assert!(compiled.cycle_warnings > 0, "static warning first");
    // The paradox is provably non-constructive, so construction itself
    // rejects it — with the same located report a runtime stall would carry.
    let err = Machine::new(compiled.circuit).unwrap_err();
    let RuntimeError::Causality { cycle, .. } = &err else {
        panic!("expected causality, got {err}");
    };
    let text = err.to_string();
    // The local signal X appears (with its linked unique suffix).
    assert!(text.contains("signal X"), "{text}");
    // The emit's parser location (line 3) appears on some cycle net.
    assert!(
        cycle.iter().any(|n| n.loc.starts_with("3:")),
        "expected a net at line 3: {text}"
    );
}

#[test]
fn multiple_emission_error_names_the_signal() {
    let src = r#"
        module M(out v = 0) {
           fork { emit v(1); } par { emit v(2); }
        }
    "#;
    let (m, reg) = parse_program(src, "M", &HostRegistry::new()).expect("parses");
    let compiled = hiphop_compiler::compile_module(&m, &reg).expect("compiles");
    let mut machine = Machine::new(compiled.circuit).expect("finalized circuit");
    let err = machine.react().unwrap_err();
    assert!(
        matches!(err, RuntimeError::MultipleEmit { ref signal } if signal == "v"),
        "{err}"
    );
    assert!(err.to_string().contains("combine"), "{err}");
}

#[test]
fn check_errors_carry_parser_positions() {
    // `break` without a trap, at a known position.
    let src = "module M() {\n   break Nowhere;\n}";
    let (m, reg) = parse_program(src, "M", &HostRegistry::new()).expect("parses");
    let err = hiphop_compiler::compile_module(&m, &reg).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("Nowhere"), "{text}");
    assert!(text.contains("2:"), "line number expected: {text}");
}

/// `depth` statements nested as `open … inner … }`.
fn nest(open: &str, depth: usize, inner: &str) -> String {
    format!("module M(in A, out O) {{\n{}{inner}{}\n}}", open.repeat(depth), "}".repeat(depth))
}

/// Parses `src` on a thread with a 64 MiB stack (see [`on_big_stack`]).
fn parse_deep(src: String) -> Result<(), hiphop_lang::ParseError> {
    on_big_stack(move || parse_program(&src, "M", &HostRegistry::new()).map(drop))
}

/// Runs `f` on a thread with a 64 MiB stack. A release `hiphopc` parses
/// and compiles MAX_NESTING levels on its 8 MiB main thread, but the
/// unoptimized frames of a test build are about ten times larger.
fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no stack overflow")
}

#[test]
fn hostile_nesting_is_refused_with_a_located_error_not_a_stack_overflow() {
    use hiphop_lang::MAX_NESTING;
    let deep_emit = format!(
        "module M(out O) {{\n   emit O({}1{});\n}}",
        "(".repeat(20_000),
        ")".repeat(20_000)
    );
    let deep_not = format!(
        "module M(in A, out O) {{\n   if ({}A.now) {{ emit O(); }}\n}}",
        "!".repeat(20_000)
    );
    for (what, src) in [
        ("fork", nest("fork {\n", 20_000, "yield;")),
        ("if", nest("if (A.now) {\n", 3_000, "emit O();")),
        ("paren", deep_emit),
        ("not", deep_not),
    ] {
        let err = parse_deep(src).expect_err(what);
        assert!(
            err.message.contains(&format!("nesting deeper than {MAX_NESTING} levels")),
            "{what}: {err}"
        );
        assert!(err.line >= 1 && err.col >= 1, "{what}: the error is located: {err}");
    }
    // The refusal points at the first token past the limit: fork k
    // opens level k on line k + 1, so fork MAX_NESTING + 1 is refused.
    let err = parse_deep(nest("fork {\n", 20_000, "yield;")).unwrap_err();
    assert_eq!(err.line as usize, MAX_NESTING + 2, "{err}");
}

#[test]
fn nesting_up_to_the_limit_still_parses_and_compiles() {
    use hiphop_lang::MAX_NESTING;
    // The module body's statement is level 1, so MAX_NESTING - 1 forks
    // around one `yield` use every level the parser allows.
    let compiled = on_big_stack(|| {
        let src = nest("fork {\n", MAX_NESTING - 1, "yield;");
        let (m, reg) = parse_program(&src, "M", &HostRegistry::new()).expect("at the limit");
        hiphop_compiler::compile_module(&m, &reg).map(|_| ()).map_err(|e| e.to_string())
    });
    compiled.expect("compiles");
    assert!(parse_deep(nest("fork {\n", MAX_NESTING, "yield;")).is_err(), "one past the limit");
}
