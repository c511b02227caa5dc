//! The `dense` workload: one `Machine` running a large synthetic program
//! (the paper's "large Skini score" scale, about 11 900 nets), with no
//! session pool — the single-machine deployment, where the sweep does
//! nearly all the work. The program's source text is printed and parsed
//! in set-up, so the parser and the compiler run on every set-up.

use crate::alloc::allocations;
use crate::oracle::{self, Step};
use crate::trace::{self, Layer, Tracer};
use crate::{traced_instant, Args, Outcome, COUNT_INSTANTS, RSS_INSTANTS, SETUPS};
use hiphop_bench::synthetic_program;
use hiphop_core::module::Module;
use hiphop_core::rng::Rng;
use hiphop_core::signal::Combine;
use hiphop_core::value::Value;
use hiphop_lang::{parse_program, HostRegistry};
use hiphop_runtime::Machine;
use std::time::Instant;

/// Statement budget of the generated program.
const STATEMENTS: usize = 2560;

/// The program is the same on every run, like a deployed score; the
/// workload seed drives the instants' inputs only, so that runs with
/// different seeds measure the same circuit.
const PROGRAM_SEED: u64 = 1;

/// Timed instants re-driven through the interpreter after the run.
const ORACLE_INSTANTS: usize = 400;

const INPUTS: [&str; 8] = ["i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7"];

/// The program's concrete syntax, as the parser reads it.
fn source(module: &Module) -> String {
    let decls: Vec<String> = module
        .interface
        .iter()
        .map(|d| {
            let mut s = format!("{} {}", d.direction, d.name);
            if let Some(init) = &d.init {
                s.push_str(&format!(" = {init}"));
            }
            if let Some(c) = &d.combine {
                s.push_str(match c {
                    Combine::Plus => " combine +",
                    Combine::Mul => " combine *",
                    Combine::And => " combine and",
                    Combine::Or => " combine or",
                    Combine::Min => " combine min",
                    Combine::Max => " combine max",
                    Combine::Append => " combine append",
                    Combine::Host(_) => unreachable!("generated programs use built-in combines"),
                });
            }
            s
        })
        .collect();
    format!(
        "module {}({}) {{\n{}\n}}\n",
        module.name,
        decls.join(", "),
        module.body
    )
}

/// Runs the workload.
pub(crate) fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let module = synthetic_program(STATEMENTS, PROGRAM_SEED);
    let text = source(&module);

    // Set-up: parse, compile, build the machine, boot it.
    let mut setup_s = Vec::new();
    let mut machine: Option<Machine> = None;
    let mut boot = None;
    tracer.set_on(args.trace);
    for k in 0..SETUPS {
        drop(machine.take());
        tracer.set_group(u64::MAX - k as u64);
        let t0 = Instant::now();
        tracer.begin(Layer::Bench, "setup");
        let parsed = tracer.span(Layer::Lang, "parse", || {
            parse_program(&text, &module.name, &HostRegistry::new())
        });
        let (parsed, registry) = match parsed {
            Ok(p) => p,
            Err(e) => {
                out.fail(format!("parse: {e}"));
                return out;
            }
        };
        let compiled = match tracer.span(Layer::Compiler, "compile", || {
            hiphop_compiler::compile_module(&parsed, &registry)
        }) {
            Ok(c) => c,
            Err(e) => {
                out.fail(format!("compile: {e}"));
                return out;
            }
        };
        let stats = compiled.circuit.stats();
        let levels = compiled.levels.unwrap_or(0);
        let built = tracer.span(Layer::Runtime, "machine_new", || {
            Machine::new(compiled.circuit)
        });
        let mut m = match built {
            Ok(m) => m,
            Err(e) => {
                out.fail(format!("Machine::new: {e}"));
                return out;
            }
        };
        let booted = tracer.span(Layer::Runtime, "react", || m.react());
        tracer.end();
        setup_s.push(t0.elapsed().as_secs_f64());
        match booted {
            Ok(r) => boot = Some(r),
            Err(e) => {
                out.fail(format!("boot: {e}"));
                return out;
            }
        }
        out.set("compiler.nets", stats.nets as f64);
        out.set("compiler.registers", stats.registers as f64);
        out.set("compiler.levels", levels as f64);
        machine = Some(m);
    }
    let mut machine = machine.expect("SETUPS > 0");
    let setup_spans = tracer.spans().len();

    // Timed phase: each instant is one `react_with` on a seeded random
    // subset of the inputs.
    let mut rng = Rng::seed_from_u64(args.seed ^ 0xD3_45E0);
    let mut steps = vec![Step {
        inputs: Vec::new(),
        outputs: boot.expect("booted").outputs,
    }];
    let mut all_us = Vec::new();
    let mut count_allocs = 0u64;
    let mut rss_mb = 0.0;
    let mut inputs: Vec<(&str, Value)> = Vec::with_capacity(INPUTS.len());
    let start = Instant::now();
    let deadline = start + args.seconds;
    let mut i = 0u64;
    while Instant::now() < deadline {
        inputs.clear();
        for name in INPUTS {
            if rng.gen_bool(0.5) {
                inputs.push((name, Value::from(rng.gen_range(0i64..5))));
            }
        }
        tracer.set_on(traced_instant(args.trace, i));
        tracer.set_group(i);
        let a0 = allocations();
        let t0 = Instant::now();
        tracer.begin(Layer::Bench, "instant");
        let reacted = tracer.span(Layer::Runtime, "react", || machine.react_with(&inputs));
        tracer.end();
        let dt = t0.elapsed().as_secs_f64();
        let a1 = allocations();
        all_us.push(dt * 1e6);
        out.attempted += 1;
        let reaction = match reacted {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("instant {i}: {e}"));
                i += 1;
                continue;
            }
        };
        if i < COUNT_INSTANTS {
            count_allocs += a1 - a0;
        }
        if steps.len() <= ORACLE_INSTANTS {
            steps.push(Step {
                inputs: inputs
                    .iter()
                    .map(|(n, v)| (n.to_string(), v.clone()))
                    .collect(),
                outputs: reaction.outputs,
            });
        }
        i += 1;
        if i == RSS_INSTANTS {
            rss_mb = crate::peak_rss_mb();
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    if rss_mb == 0.0 {
        rss_mb = crate::peak_rss_mb();
    }
    tracer.set_on(false);

    // Output check: the first ORACLE_INSTANTS instants, re-driven through
    // the interpreter of the generated (not the parsed) program, so the
    // check covers the parser too.
    out.attempted += steps.len() as u64;
    for why in oracle::check(&module, &steps) {
        out.fail(format!("oracle: {why}"));
    }

    crate::set_end_to_end(&mut out, &setup_s, &all_us, i as usize, rss_mb);

    let counted = COUNT_INSTANTS.min(i).max(1) as f64;
    out.set("runtime.allocs_per_reaction", count_allocs as f64 / counted);
    out.set(
        "bench.client_us_per_tick",
        (wall_s * 1e6 - all_us.iter().sum::<f64>()) / i.max(1) as f64,
    );
    if args.trace {
        let spans = tracer.spans();
        out.set(
            "lang.parse_us",
            trace::median(&trace::durations(&spans[..setup_spans], "parse")),
        );
        out.set(
            "compiler.compile_us",
            trace::median(&trace::durations(&spans[..setup_spans], "compile")),
        );
        out.set(
            "runtime.machine_new_us",
            trace::median(&trace::durations(&spans[..setup_spans], "machine_new")),
        );
        out.set(
            "runtime.react_p50_us",
            trace::median(&trace::durations(&spans[setup_spans..], "react")),
        );
        for (layer, ms) in trace::self_ms(spans) {
            out.set(layer.self_metric(), ms);
        }
        out.set(
            "bench.trace_overhead_pct",
            crate::trace_overhead_pct(&all_us),
        );
        out.set("bench.span_coverage", trace::coverage(spans, "instant"));
        // Net evaluations, on a second machine armed with level-activity
        // counters so the timed machine runs unarmed.
        match Machine::new(machine.circuit().clone()) {
            Ok(mut m) => {
                let _ = m.react();
                m.enable_level_activity();
                let n = steps.len().min(COUNT_INSTANTS as usize + 1) - 1;
                for step in &steps[1..=n] {
                    let refs: Vec<(&str, Value)> = step
                        .inputs
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.clone()))
                        .collect();
                    if let Err(e) = m.react_with(&refs) {
                        out.fail(format!("level-activity replay: {e}"));
                    }
                }
                let evals = m.level_activity().map_or(0, |la| la.total_evals());
                out.set("runtime.evals_per_reaction", evals as f64 / n.max(1) as f64);
            }
            Err(e) => out.fail(format!("Machine::new: {e}")),
        }
    }
    out
}
