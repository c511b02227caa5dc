//! Esterel-kernel conformance battery.
//!
//! Each case is a compact `.hh` program plus the expected set of present
//! outputs at every instant (instant 0 is the boot reaction). Every case
//! runs under all three compiled engines (the levelized block walker, the
//! constructive reference, sparse) AND the reference AST interpreter; the expectation
//! table is the semantic oracle, so a divergence pinpoints both the
//! construct and the engine that got it wrong.
//!
//! The battery covers the kernel constructs whose semantics are easy to
//! get subtly wrong: strong vs weak abort at the delay instant, suspend,
//! every, nested traps with `break`, sustain, counted await, immediate
//! delays, `do … every`, and local-signal reincarnation. The case table
//! itself lives in `tests/common/mod.rs` so the cohort differential
//! battery (`tests/cohort.rs`) replays the exact same programs.

mod common;

use common::{kernel_case, KernelCase};
use hiphop::lang::{parse_program, HostRegistry};
use hiphop::prelude::*;
use hiphop::runtime::EngineMode;

/// Drives one implementation through boot + the stimulus and asserts the
/// present-output set at every instant.
fn drive(
    name: &str,
    engine: &str,
    stimulus: &[&[&str]],
    expected: &[&str],
    mut react: impl FnMut(&[(&str, Value)]) -> Result<Vec<String>, String>,
) {
    let boot: &[&[&str]] = &[&[]];
    for (i, inputs) in boot.iter().chain(stimulus.iter()).enumerate() {
        let refs: Vec<(&str, Value)> = inputs.iter().map(|n| (*n, Value::from(true))).collect();
        let mut got = react(&refs)
            .unwrap_or_else(|e| panic!("{name} [{engine}]: instant {i}: reaction failed: {e}"));
        got.sort();
        assert_eq!(
            got.join(" "),
            expected[i],
            "{name} [{engine}]: instant {i} (inputs {inputs:?})"
        );
    }
}

/// Runs a case's `Main` module against its expectations under every
/// compiled engine and the reference interpreter.
fn check(case: &KernelCase) {
    let (name, stimulus, expected) = (case.name, case.stimulus, case.expected);
    assert_eq!(
        stimulus.len() + 1,
        expected.len(),
        "{name}: the table must list boot plus one expectation per stimulus instant"
    );
    let (module, registry) = parse_program(case.src, "Main", &HostRegistry::new())
        .unwrap_or_else(|e| panic!("{name}: parse: {e}"));

    for mode in [EngineMode::Levelized, EngineMode::Constructive, EngineMode::Sparse] {
        let mut m = machine_for(&module, &registry)
            .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        assert_eq!(
            m.set_engine(mode),
            mode,
            "{name}: kernel programs are acyclic, every engine must be available"
        );
        drive(name, mode.name(), stimulus, expected, |refs| {
            m.react_with(refs)
                .map(|r| {
                    r.outputs
                        .iter()
                        .filter(|o| o.present)
                        .map(|o| o.name.to_string())
                        .collect()
                })
                .map_err(|e| e.to_string())
        });
    }

    let mut interp = hiphop_interp::Interp::new(&module, &registry)
        .unwrap_or_else(|e| panic!("{name}: interp: {e}"));
    drive(name, "interpreter", stimulus, expected, |refs| {
        interp
            .react_with(refs)
            .map(|r| {
                r.outputs
                    .iter()
                    .filter(|(_, p, _)| *p)
                    .map(|(n, _, _)| n.clone())
                    .collect()
            })
            .map_err(|e| e.to_string())
    });
}

// --------------------------------------------------------------- abort

#[test]
fn strong_abort_preempts_the_body_on_the_delay_instant() {
    // The instant `I` arrives the body must NOT run: `O` is absent and
    // control falls through to the continuation in the same instant.
    check(kernel_case("strong-abort"));
}

#[test]
fn weak_abort_lets_the_body_run_its_final_instant() {
    // Identical program with `weakabort`: on the delay instant the body
    // still runs, so `O` and `done` are simultaneous.
    check(kernel_case("weak-abort"));
}

#[test]
fn sustain_emits_every_instant_until_strongly_aborted() {
    check(kernel_case("sustain"));
}

// ------------------------------------------------------------- suspend

#[test]
fn suspend_freezes_the_body_while_the_guard_is_present() {
    // The guard is not tested in the body's first instant; afterwards a
    // present `S` freezes the body in place and absence resumes it.
    check(kernel_case("suspend"));
}

// --------------------------------------------------------------- every

#[test]
fn every_runs_its_body_at_each_occurrence_never_at_boot() {
    check(kernel_case("every"));
}

#[test]
fn do_every_runs_immediately_then_restarts_on_each_tick() {
    // `do … every` differs from `every` exactly at boot: the body runs
    // once before the first delay elapse.
    check(kernel_case("do-every"));
}

// --------------------------------------------------------- traps/break

#[test]
fn nested_traps_unwind_exactly_to_their_label() {
    // `break U` exits the inner trap only: the outer continuation `B`
    // and the module continuation `C` both run in the same instant.
    check(kernel_case("nested-trap-inner"));
}

#[test]
fn breaking_the_outer_trap_skips_the_inner_continuation() {
    check(kernel_case("nested-trap-outer"));
}

// -------------------------------------------------------- counted await

#[test]
fn counted_await_counts_occurrences_not_instants() {
    // Three occurrences of `I` are needed; the blank instant in the
    // middle must not advance the count.
    check(kernel_case("counted-await"));
}

// ---------------------------------------------------- immediate delays

#[test]
fn await_immediate_elapses_in_the_starting_instant() {
    // After the first await elapses, `await immediate` sees the same
    // occurrence of `I` and falls through within the instant.
    check(kernel_case("await-immediate"));
}

#[test]
fn await_non_immediate_waits_a_full_instant() {
    // The same program without `immediate` needs a second occurrence.
    check(kernel_case("await-non-immediate"));
}

// -------------------------------------------------------- reincarnation

#[test]
fn reincarnated_locals_are_fresh_in_each_loop_iteration() {
    // Left branch: `s` is emitted and tested inside one iteration, so
    // `O` fires every instant. Right branch: `t` is emitted at the END
    // of an iteration and tested at the START of the next — but the
    // loop re-entry reincarnates `t`, so the test always sees a fresh
    // absent signal and `P` must never fire. An implementation that
    // shares one status between incarnations emits `P` from instant 1.
    check(kernel_case("reincarnation"));
}
