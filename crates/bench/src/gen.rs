//! Synthetic HipHop program families.
//!
//! [`synthetic_program`] produces programs of a target statement count
//! with a realistic construct mix (sequential waits, emissions, parallel
//! sections, aborts, conditionals, `every` loops) — the workload for the
//! linearity experiments E1/E2a/E4a.
//!
//! [`schizophrenic_program`] produces nested reincarnating loops (local
//! signals + parallels in loop bodies), the worst case the paper
//! mentions: "quadratic expansion can occur in special cases, due to …
//! reincarnation" (E2b).

use hiphop_core::prelude::*;
use hiphop_core::rng::Rng;

/// Builds a deterministic synthetic module with roughly `target_stmts`
/// statements. Inputs `i0..iK`, outputs `o0..oK`.
pub fn synthetic_program(target_stmts: usize, seed: u64) -> Module {
    let mut rng = Rng::seed_from_u64(seed);
    let n_sigs = 8usize;
    let mut module = Module::new(format!("Synth{target_stmts}"));
    for k in 0..n_sigs {
        module = module
            .input(SignalDecl::new(format!("i{k}"), Direction::In))
            .output(
                SignalDecl::new(format!("o{k}"), Direction::Out)
                    .with_init(0i64)
                    .with_combine(Combine::Plus),
            );
    }

    let mut budget = target_stmts as i64;
    let mut blocks: Vec<Stmt> = Vec::new();
    while budget > 0 {
        let block = gen_block(&mut rng, n_sigs, &mut budget, 0);
        blocks.push(block);
    }
    blocks.push(Stmt::Halt);
    module.body(Stmt::seq(blocks))
}

fn sig_in(rng: &mut Rng, n: usize) -> String {
    format!("i{}", rng.gen_range(0..n))
}
fn sig_out(rng: &mut Rng, n: usize) -> String {
    format!("o{}", rng.gen_range(0..n))
}

fn gen_block(rng: &mut Rng, n_sigs: usize, budget: &mut i64, depth: usize) -> Stmt {
    let choice = if depth >= 3 {
        rng.gen_range(0..3)
    } else {
        rng.gen_range(0..9)
    };
    match choice {
        // await; emit
        0 => {
            *budget -= 3;
            Stmt::seq([
                Stmt::await_(Delay::cond(Expr::now(sig_in(rng, n_sigs)))),
                Stmt::emit_val(sig_out(rng, n_sigs), Expr::num(rng.gen_range(0..10) as f64)),
            ])
        }
        // counted await
        1 => {
            *budget -= 2;
            Stmt::await_(Delay::count(
                Expr::num(rng.gen_range(2..5) as f64),
                Expr::now(sig_in(rng, n_sigs)),
            ))
        }
        // conditional emission
        2 => {
            *budget -= 4;
            Stmt::seq([
                Stmt::Pause,
                // `preval` (previous instant): reading the *current* value
                // of a signal the branch may emit would be a causality
                // error, exactly as in Esterel.
                Stmt::if_else(
                    Expr::preval(sig_out(rng, n_sigs)).gt(Expr::num(5.0)),
                    Stmt::emit_val(sig_out(rng, n_sigs), Expr::num(1.0)),
                    Stmt::emit_val(sig_out(rng, n_sigs), Expr::num(2.0)),
                ),
            ])
        }
        // parallel section
        3 => {
            *budget -= 2;
            let a = gen_block(rng, n_sigs, budget, depth + 1);
            let b = gen_block(rng, n_sigs, budget, depth + 1);
            Stmt::par([a, b])
        }
        // abort around a sub-block
        4 => {
            *budget -= 2;
            let inner = gen_block(rng, n_sigs, budget, depth + 1);
            Stmt::abort(
                Delay::cond(Expr::now(sig_in(rng, n_sigs))),
                Stmt::seq([inner, Stmt::Halt]),
            )
        }
        // bounded every
        5 => {
            *budget -= 3;
            let body = Stmt::emit(sig_out(rng, n_sigs));
            Stmt::abort(
                Delay::count(Expr::num(4.0), Expr::now(sig_in(rng, n_sigs))),
                Stmt::every(Delay::cond(Expr::now(sig_in(rng, n_sigs))), body),
            )
        }
        // suspend around a sub-block
        6 => {
            *budget -= 2;
            let inner = gen_block(rng, n_sigs, budget, depth + 1);
            Stmt::abort(
                Delay::count(Expr::num(6.0), Expr::now(sig_in(rng, n_sigs))),
                Stmt::suspend(
                    Delay::cond(Expr::now(sig_in(rng, n_sigs))),
                    Stmt::seq([inner, Stmt::Halt]),
                ),
            )
        }
        // trap exited by a parallel watcher
        7 => {
            *budget -= 4;
            let label = format!("T{}", rng.gen_range(0..1_000_000));
            let inner = gen_block(rng, n_sigs, budget, depth + 1);
            Stmt::trap(
                label.clone(),
                Stmt::par([
                    Stmt::seq([inner, Stmt::Halt]),
                    Stmt::seq([
                        Stmt::await_(Delay::cond(Expr::now(sig_in(rng, n_sigs)))),
                        Stmt::exit(label),
                    ]),
                ]),
            )
        }
        // local signal broadcast between parallel branches
        _ => {
            *budget -= 5;
            let local = format!("ls{}", rng.gen_range(0..1_000_000));
            Stmt::local(
                vec![SignalDecl::new(local.clone(), Direction::Local)],
                Stmt::par([
                    Stmt::seq([
                        Stmt::await_(Delay::cond(Expr::now(sig_in(rng, n_sigs)))),
                        Stmt::emit(local.clone()),
                        Stmt::Pause,
                    ]),
                    Stmt::loop_(Stmt::seq([
                        Stmt::if_(Expr::now(local.clone()), Stmt::emit(sig_out(rng, n_sigs))),
                        Stmt::Pause,
                    ])),
                ]),
            )
        }
    }
}

/// A cyclic-but-constructive workload: the acyclic [`synthetic_program`]
/// of the requested size running in parallel with a small token-ring
/// arbiter whose pass wires form a combinational cycle (the classic
/// constructive-cycle benchmark). The acyclic portion dominates the net
/// count, which is exactly the shape the block walker's SCC blocks exist for:
/// levelized sweeps everywhere, bounded constructive iteration inside
/// the one small SCC. Inputs `i0..i2` double as the arbiter's request
/// lines; grants come out on `g0..g2`.
pub fn cyclic_program(target_stmts: usize, seed: u64) -> Module {
    let base = synthetic_program(target_stmts, seed);

    // Token rotation: exactly one station holds the token each instant.
    let token = Stmt::loop_(Stmt::seq([
        Stmt::emit("ct0"),
        Stmt::Pause,
        Stmt::emit("ct1"),
        Stmt::Pause,
        Stmt::emit("ct2"),
        Stmt::Pause,
    ]));
    // Station k grants its request when it sees the token or the
    // predecessor's pass wire, and passes otherwise. The stations run in
    // parallel; sequencing them would add control dependencies against
    // the ring and break constructiveness.
    let stations = (0..3usize).map(|k| {
        let seen = Expr::now(format!("ct{k}")).or(Expr::now(format!("cp{}", (k + 2) % 3)));
        Stmt::loop_(Stmt::seq([
            Stmt::if_(
                seen,
                Stmt::if_else(
                    Expr::now(format!("i{k}")),
                    Stmt::emit(format!("g{k}")),
                    Stmt::emit(format!("cp{k}")),
                ),
            ),
            Stmt::Pause,
        ]))
    });
    let ring_locals = (0..3usize)
        .flat_map(|k| {
            [
                SignalDecl::new(format!("ct{k}"), Direction::Local),
                SignalDecl::new(format!("cp{k}"), Direction::Local),
            ]
        })
        .collect();
    let ring = Stmt::local(
        ring_locals,
        Stmt::par(std::iter::once(token).chain(stations).collect::<Vec<_>>()),
    );

    let mut module = Module::new(format!("Cyclic{target_stmts}"));
    for d in &base.interface {
        module = module.signal(d.clone());
    }
    for k in 0..3usize {
        module = module.output(SignalDecl::new(format!("g{k}"), Direction::Out));
    }
    module.body(Stmt::par([base.body, ring]))
}

/// The §E15 wide-but-quiet workload: `instances` independent ABRO
/// machines in parallel, each on its own `a{k}`/`b{k}`/`r{k}` input
/// triple, all funnelling their O into one shared presence-only `done`
/// output. A pool-shaped circuit where at any instant almost every
/// instance is halted waiting on inputs that never arrive — the best
/// case for the sparse dirty-set engine (untouched instances cost
/// nothing) and the worst case for a dense sweep (every net is
/// re-evaluated every instant regardless).
///
/// Everything is presence-only and acyclic, so the levelized and sparse
/// engines are both available and no net is pinned hot by value reads.
pub fn wide_quiet_program(instances: usize) -> Module {
    let mut module = Module::new(format!("WideQuiet{instances}"));
    for k in 0..instances {
        module = module
            .input(SignalDecl::new(format!("a{k}"), Direction::In))
            .input(SignalDecl::new(format!("b{k}"), Direction::In))
            .input(SignalDecl::new(format!("r{k}"), Direction::In));
    }
    module = module.output(SignalDecl::new("done", Direction::Out));
    let abro = |k: usize| {
        Stmt::loop_each(
            Delay::cond(Expr::now(format!("r{k}"))),
            Stmt::seq([
                Stmt::par([
                    Stmt::await_(Delay::cond(Expr::now(format!("a{k}")))),
                    Stmt::await_(Delay::cond(Expr::now(format!("b{k}")))),
                ]),
                Stmt::emit("done"),
            ]),
        )
    };
    module.body(Stmt::par((0..instances).map(abro).collect::<Vec<_>>()))
}

/// Nested schizophrenic loops of the given depth: every level is a loop
/// whose body declares a local signal and forks — forcing body
/// duplication at each level.
pub fn schizophrenic_program(depth: usize) -> Module {
    fn level(k: usize) -> Stmt {
        let local = format!("s{k}");
        let inner = if k == 0 {
            Stmt::Pause
        } else {
            // A terminable inner level: the abort lets the loop around it
            // restart, reincarnating the local signal.
            Stmt::abort(
                Delay::count(Expr::num(2.0), Expr::now("tick")),
                level(k - 1),
            )
        };
        Stmt::loop_(Stmt::local(
            vec![SignalDecl::new(local.clone(), Direction::Local)],
            Stmt::par([
                Stmt::seq([Stmt::emit(local.clone()), inner]),
                Stmt::seq([
                    Stmt::if_(Expr::now(local), Stmt::emit("obs")),
                    Stmt::Pause,
                ]),
            ]),
        ))
    }
    Module::new(format!("Schizo{depth}"))
        .input(SignalDecl::new("tick", Direction::In))
        .output(SignalDecl::new("obs", Direction::Out))
        .body(level(depth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiphop_compiler::compile_module;
    use hiphop_core::module::ModuleRegistry;

    #[test]
    fn synthetic_programs_compile_at_all_sizes() {
        for &n in &[10usize, 50, 200] {
            let m = synthetic_program(n, 42);
            let compiled = compile_module(&m, &ModuleRegistry::new())
                .unwrap_or_else(|e| panic!("size {n}: {e}"));
            assert!(compiled.circuit.stats().nets > 0);
        }
    }

    #[test]
    fn synthetic_generator_is_deterministic() {
        let a = synthetic_program(100, 7);
        let b = synthetic_program(100, 7);
        assert_eq!(a.body.to_string(), b.body.to_string());
        let c = synthetic_program(100, 8);
        assert_ne!(a.body.to_string(), c.body.to_string());
    }

    #[test]
    fn synthetic_programs_run_under_random_inputs() {
        let m = synthetic_program(120, 3);
        let compiled = compile_module(&m, &ModuleRegistry::new()).expect("compiles");
        let mut machine = hiphop_runtime::Machine::new(compiled.circuit).expect("finalized circuit");
        machine.react().expect("boot");
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..50 {
            let k = rng.gen_range(0..8);
            machine
                .react_with(&[(
                    &format!("i{k}"),
                    hiphop_core::value::Value::Bool(true),
                )])
                .expect("reacts");
        }
    }

    #[test]
    fn wide_quiet_programs_are_acyclic_and_rendezvous_correctly() {
        let m = wide_quiet_program(40);
        let compiled = compile_module(&m, &ModuleRegistry::new()).expect("compiles");
        assert!(
            compiled.levels.is_some(),
            "the pool must stay acyclic so levelized and sparse both apply"
        );
        let mut machine = hiphop_runtime::Machine::new(compiled.circuit).expect("finalized circuit");
        machine.react().expect("boot");
        let t = hiphop_core::value::Value::Bool(true);
        // Only instance 7 rendezvous; `done` fires exactly when its B lands.
        let r = machine.react_with(&[("a7", t.clone())]).expect("A");
        assert!(!r.present("done"));
        let r = machine.react_with(&[("b7", t.clone())]).expect("B");
        assert!(r.present("done"));
        // Reset re-arms it, ABRO-style.
        let r = machine.react_with(&[("r7", t.clone())]).expect("R");
        assert!(!r.present("done"));
        let r = machine.react_with(&[("a7", t.clone()), ("b7", t)]).expect("AB");
        assert!(r.present("done"));
    }

    #[test]
    fn schizophrenic_sizes_grow_superlinearly() {
        let nets = |d: usize| {
            compile_module(&schizophrenic_program(d), &ModuleRegistry::new())
                .expect("compiles")
                .circuit
                .stats()
                .nets as f64
        };
        let (n1, n2, n3) = (nets(1), nets(3), nets(5));
        // Each level roughly doubles: growth from 3→5 exceeds linear
        // extrapolation of 1→3.
        let linear_guess = n2 + (n2 - n1);
        assert!(
            n3 > 1.5 * linear_guess,
            "superlinear growth expected: {n1} {n2} {n3}"
        );
    }

    #[test]
    fn schizophrenic_programs_execute_correctly() {
        let m = schizophrenic_program(2);
        let compiled = compile_module(&m, &ModuleRegistry::new()).expect("compiles");
        let mut machine = hiphop_runtime::Machine::new(compiled.circuit).expect("finalized circuit");
        machine.react().expect("boot");
        for _ in 0..10 {
            machine
                .react_with(&[("tick", hiphop_core::value::Value::Bool(true))])
                .expect("reincarnation never deadlocks");
        }
    }
}
