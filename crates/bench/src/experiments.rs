//! Experiment runners producing the rows of EXPERIMENTS.md (paper §5.3).

use crate::gen::{cyclic_program, schizophrenic_program, synthetic_program, wide_quiet_program};
use hiphop_compiler::{compile_module, compile_module_with, CompileOptions, CompiledProgram};
use hiphop_core::module::{Module, ModuleRegistry};
use hiphop_core::value::Value;
use hiphop_eventloop::EventLoop;
use hiphop_runtime::{EngineMode, Machine};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// One row of the E1/E2a/E4a size sweep.
#[derive(Debug, Clone, Copy)]
pub struct SizeRow {
    /// Statement count of the source program.
    pub stmts: usize,
    /// Nets after compilation.
    pub nets: usize,
    /// Phase-1 parse time of the printed source, microseconds.
    pub parse_us: f64,
    /// Compile time, microseconds.
    pub compile_us: f64,
    /// Mean reaction time, microseconds (over a random input drive).
    pub reaction_us: f64,
    /// Circuit memory, bytes.
    pub bytes: usize,
}

fn compile_timed(module: &Module) -> (CompiledProgram, f64) {
    let reg = ModuleRegistry::new();
    let t = Instant::now();
    let compiled = compile_module(module, &reg).expect("synthetic program compiles");
    (compiled, t.elapsed().as_secs_f64() * 1e6)
}

/// Measures mean reaction latency over `reactions` random-input instants.
pub fn measure_reactions(machine: &mut Machine, reactions: usize) -> f64 {
    machine.react().expect("boot");
    let t = Instant::now();
    for i in 0..reactions {
        let sig = format!("i{}", i % 8);
        machine
            .react_with(&[(&sig, Value::Bool(true))])
            .expect("reaction");
    }
    t.elapsed().as_secs_f64() * 1e6 / reactions as f64
}

/// Runs the E1/E2a/E4a sweep over the synthetic family.
pub fn size_sweep(sizes: &[usize], seed: u64) -> Vec<SizeRow> {
    sizes
        .iter()
        .map(|&n| {
            let module = synthetic_program(n, seed);
            let stmts = module.body.statement_count();
            // Phase 1: print the module in concrete syntax and time the
            // parse (the paper's textual front-end).
            let iface: Vec<String> = module
                .interface
                .iter()
                .map(|d| format!("{} {}", d.direction, d.name))
                .collect();
            let src = format!("module M({}) {{\n{}\n}}", iface.join(", "), module.body);
            let t = Instant::now();
            let parsed = hiphop_lang::parse_file(&src, &hiphop_lang::HostRegistry::new());
            let parse_us = t.elapsed().as_secs_f64() * 1e6;
            assert!(parsed.is_ok(), "printed source parses");
            let (compiled, compile_us) = compile_timed(&module);
            let stats = compiled.circuit.stats();
            let mut machine = Machine::new(compiled.circuit).expect("finalized circuit");
            let reaction_us = measure_reactions(&mut machine, 200);
            SizeRow {
                stmts,
                nets: stats.nets,
                parse_us,
                compile_us,
                reaction_us,
                bytes: stats.bytes,
            }
        })
        .collect()
}

/// Runs a synthetic program for `instants` reactions with the runtime's
/// aggregating telemetry sink attached, returning the percentile
/// snapshot (the report's E6 section; see
/// `hiphop_runtime::telemetry`).
pub fn telemetry_metrics(n: usize, instants: usize, seed: u64) -> hiphop_runtime::Metrics {
    let module = synthetic_program(n, seed);
    let reg = ModuleRegistry::new();
    let compiled = compile_module(&module, &reg).expect("synthetic program compiles");
    let mut machine = Machine::new(compiled.circuit).expect("finalized circuit");
    machine.enable_metrics();
    machine.react().expect("boot");
    for i in 0..instants {
        let sig = format!("i{}", i % 8);
        machine
            .react_with(&[(&sig, Value::Bool(true))])
            .expect("reaction");
    }
    machine.metrics().expect("metrics enabled")
}

/// One row of the E7 engine comparison: the same synthetic workload
/// driven once per evaluation engine, with the aggregating telemetry
/// sink attached.
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// The engine this row was measured under.
    pub engine: EngineMode,
    /// Percentile snapshot of the drive.
    pub metrics: hiphop_runtime::Metrics,
}

/// E7: block walker (levelized) vs constructive vs sparse reaction
/// latency on the E6 synthetic workload. The program is acyclic, so
/// every engine is available (the walker runs it as one dense block —
/// the same code path E9 times on a cyclic circuit); each engine gets a
/// fresh machine and an identical input drive.
pub fn engine_comparison(n: usize, instants: usize, seed: u64) -> Vec<EngineRow> {
    [
        EngineMode::Levelized,
        EngineMode::Constructive,
        EngineMode::Sparse,
    ]
    .into_iter()
    .map(|mode| {
        let module = synthetic_program(n, seed);
        let compiled =
            compile_module(&module, &ModuleRegistry::new()).expect("synthetic program compiles");
        let mut machine = Machine::new(compiled.circuit).expect("finalized circuit");
        assert_eq!(
            machine.set_engine(mode),
            mode,
            "the synthetic program is acyclic, so every engine is available"
        );
        machine.enable_metrics();
        machine.react().expect("boot");
        for i in 0..instants {
            let sig = format!("i{}", i % 8);
            machine
                .react_with(&[(&sig, Value::Bool(true))])
                .expect("reaction");
        }
        EngineRow {
            engine: mode,
            metrics: machine.metrics().expect("metrics enabled"),
        }
    })
    .collect()
}

/// E9: constructive vs block-walker reaction latency on the cyclic
/// workload ([`cyclic_program`]: a dominant acyclic portion in parallel
/// with a small token-ring SCC). The circuit is statically cyclic, so no
/// level schedule exists; the walker runs the SCC-condensed (hybrid)
/// schedule — dense sweeps over the acyclic regions, local iteration
/// inside the ring — while the constructive engine pays FIFO event
/// propagation everywhere.
pub fn hybrid_comparison(n: usize, instants: usize, seed: u64) -> Vec<EngineRow> {
    [EngineMode::Constructive, EngineMode::Levelized]
        .into_iter()
        .map(|mode| {
            let module = cyclic_program(n, seed);
            let compiled = compile_module(&module, &ModuleRegistry::new())
                .expect("cyclic workload compiles");
            assert!(
                compiled.levels.is_none(),
                "the workload must actually be cyclic"
            );
            let mut machine =
                Machine::new(compiled.circuit).expect("input-dependent cycle, not rejected");
            assert_eq!(
                machine.set_engine(mode),
                mode,
                "both cycle-capable engines are available"
            );
            machine.enable_metrics();
            machine.react().expect("boot");
            for i in 0..instants {
                let sig = format!("i{}", i % 8);
                machine
                    .react_with(&[(&sig, Value::Bool(true))])
                    .expect("constructive at every instant");
            }
            EngineRow {
                engine: mode,
                metrics: machine.metrics().expect("metrics enabled"),
            }
        })
        .collect()
}

/// One row of the E2b reincarnation sweep.
#[derive(Debug, Clone, Copy)]
pub struct SchizoRow {
    /// Loop-nesting depth.
    pub depth: usize,
    /// Statement count.
    pub stmts: usize,
    /// Nets after compilation.
    pub nets: usize,
    /// Growth factor vs the previous depth.
    pub growth: f64,
}

/// Runs the E2b sweep: nets vs nesting depth of schizophrenic loops.
pub fn schizo_sweep(max_depth: usize) -> Vec<SchizoRow> {
    let mut out: Vec<SchizoRow> = Vec::new();
    for depth in 1..=max_depth {
        let module = schizophrenic_program(depth);
        let stmts = module.body.statement_count();
        let (compiled, _) = compile_timed(&module);
        let nets = compiled.circuit.stats().nets;
        let growth = out
            .last()
            .map(|prev| nets as f64 / prev.nets as f64)
            .unwrap_or(1.0);
        out.push(SchizoRow {
            depth,
            stmts,
            nets,
            growth,
        });
    }
    out
}

/// One row of the E3 memory table.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Application name.
    pub name: String,
    /// Statement count.
    pub stmts: usize,
    /// Nets.
    pub nets: usize,
    /// Registers.
    pub registers: usize,
    /// Memory, bytes.
    pub bytes: usize,
    /// Bytes per net.
    pub bytes_per_net: f64,
}

fn memory_row(name: &str, module: &Module, reg: &ModuleRegistry) -> MemoryRow {
    let compiled = compile_module(module, reg).expect("application compiles");
    let stats = compiled.circuit.stats();
    MemoryRow {
        name: name.to_owned(),
        stmts: module.body.statement_count(),
        nets: stats.nets,
        registers: stats.registers,
        bytes: stats.bytes,
        bytes_per_net: stats.bytes_per_net(),
    }
}

/// Builds the E3 memory table over the paper's applications (Lisinopril,
/// login V1/V2, Skini scores at three sizes).
pub fn memory_table() -> Vec<MemoryRow> {
    let mut rows = Vec::new();

    let (pill_main, pill_reg) = hiphop_apps::pillbox::modules();
    rows.push(memory_row("Lisinopril pillbox", &pill_main, &pill_reg));

    let el = Rc::new(RefCell::new(EventLoop::new()));
    let auth = hiphop_apps::login::AuthConfig::single_user(100, "joe", "secret");
    let (v1, reg1) = hiphop_apps::login::build_v1(el.clone(), &auth);
    rows.push(memory_row("Login V1", &v1, &reg1));
    let (v2, reg2) = hiphop_apps::login_v2::build_v2(el, &auth, false);
    rows.push(memory_row("Login V2 (quarantine)", &v2, &reg2));

    let (excerpt, _) = hiphop_skini::paper_excerpt();
    rows.push(memory_row(
        "Skini score (paper excerpt)",
        &excerpt,
        &ModuleRegistry::new(),
    ));
    for (label, shape) in [
        ("Skini score (concert)", hiphop_skini::ScoreShape::concert()),
        (
            "Skini score (classical)",
            hiphop_skini::ScoreShape::classical(),
        ),
    ] {
        let (module, _) = hiphop_skini::generate(shape);
        rows.push(memory_row(label, &module, &ModuleRegistry::new()));
    }
    rows
}

/// E4b: runs a full audience-driven performance of a generated score and
/// reports reaction latency against the 300 ms musical budget.
pub fn skini_latency(
    shape: hiphop_skini::ScoreShape,
    beats: u64,
    seed: u64,
) -> (usize, hiphop_skini::LatencyStats) {
    let (module, comp) = hiphop_skini::generate(shape);
    let compiled = compile_module(&module, &ModuleRegistry::new()).expect("score compiles");
    let nets = compiled.circuit.stats().nets;
    let mut machine = Machine::new(compiled.circuit).expect("finalized circuit");
    let mut audience = hiphop_skini::Audience::new(seed, 0.9);
    let report =
        hiphop_skini::perform(&mut machine, &comp, &mut audience, beats).expect("performs");
    (nets, report.latency)
}

/// One row of the A1 optimizer-ablation table.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Application name.
    pub name: String,
    /// Nets without the optimizer.
    pub raw_nets: usize,
    /// Nets with the optimizer.
    pub opt_nets: usize,
    /// Gate-input edges without the optimizer.
    pub raw_edges: usize,
    /// Gate-input edges with the optimizer.
    pub opt_edges: usize,
}

impl AblationRow {
    /// Fraction of nets removed.
    pub fn reduction(&self) -> f64 {
        1.0 - self.opt_nets as f64 / self.raw_nets as f64
    }
}

/// A1 (ablation): effect of the net-level optimizer on the application
/// suite — one of DESIGN.md's explicit design choices.
pub fn optimizer_ablation() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    let mut push = |name: &str, module: &Module, reg: &ModuleRegistry| {
        let raw = compile_module_with(module, reg, CompileOptions { optimize: false, ..CompileOptions::default() })
            .expect("compiles")
            .circuit
            .stats();
        let opt = compile_module_with(module, reg, CompileOptions { optimize: true, ..CompileOptions::default() })
            .expect("compiles")
            .circuit
            .stats();
        rows.push(AblationRow {
            name: name.to_owned(),
            raw_nets: raw.nets,
            opt_nets: opt.nets,
            raw_edges: raw.fanin_edges,
            opt_edges: opt.fanin_edges,
        });
    };
    let (pill, pill_reg) = hiphop_apps::pillbox::modules();
    push("Lisinopril pillbox", &pill, &pill_reg);
    let el = Rc::new(RefCell::new(EventLoop::new()));
    let auth = hiphop_apps::login::AuthConfig::single_user(100, "joe", "secret");
    let (v1, reg1) = hiphop_apps::login::build_v1(el, &auth);
    push("Login V1", &v1, &reg1);
    let (score, _) = hiphop_skini::generate(hiphop_skini::ScoreShape::concert());
    push("Skini concert score", &score, &ModuleRegistry::new());
    let synth = synthetic_program(500, 2020);
    push("synthetic-500", &synth, &ModuleRegistry::new());
    rows
}

/// E5: the §3 design claim — `weakabort` works, `abort` deadlocks with a
/// reported causality error. Returns the strong variant's error message.
pub fn login_v2_abort_comparison() -> (bool, String) {
    use hiphop_apps::login::AuthConfig;
    use hiphop_apps::login_v2::build_v2;
    use hiphop_eventloop::Driver;

    let drive = |strong: bool| -> Result<(), hiphop_runtime::RuntimeError> {
        let el = Rc::new(RefCell::new(EventLoop::new()));
        let auth = AuthConfig::single_user(100, "joe", "secret");
        let (main, reg) = build_v2(el.clone(), &auth, strong);
        let machine = hiphop_runtime::machine_for(&main, &reg).expect("compiles");
        let d = Driver {
            machine: Rc::new(RefCell::new(machine)),
            el,
        };
        d.react(&[])?;
        d.react(&[("name", Value::from("joe"))])?;
        d.react(&[("passwd", Value::from("wrong!"))])?;
        for _ in 0..3 {
            d.react(&[("login", Value::Bool(true))])?;
            d.advance_by(150)?;
        }
        Ok(())
    };
    let weak_ok = drive(false).is_ok();
    let strong_err = drive(true)
        .expect_err("strong abort must deadlock")
        .to_string();
    (weak_ok, strong_err)
}

/// One row of the E8 robustness-overhead comparison.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Configuration label (`rollback off` / `rollback on` / `chaos 1%`).
    pub label: &'static str,
    /// Percentile snapshot of the drive.
    pub metrics: hiphop_runtime::Metrics,
    /// Reactions that failed with an injected fault and rolled back.
    pub faults: usize,
}

/// E8: cost of the robustness layer on the E6 workload. Three machines
/// drive the same synthetic program: rollback disabled (the raw fast
/// path — errors would poison the machine), rollback enabled (the
/// default: every reaction snapshots its state so errors restore it),
/// and rollback plus seeded fault injection at a 10% per-action rate
/// (host actions are sparse on this workload, so the effective
/// per-reaction fault rate is far lower). Injected faults surface as
/// structured `HostPanic` errors; the drive keeps going and counts
/// them, which is only possible because rollback keeps the machine
/// unpoisoned.
pub fn chaos_overhead(n: usize, instants: usize, seed: u64) -> Vec<ChaosRow> {
    let configs: [(&'static str, bool, f64); 3] = [
        ("rollback off", false, 0.0),
        ("rollback on", true, 0.0),
        ("chaos 10%", true, 0.1),
    ];
    configs
        .into_iter()
        .map(|(label, rollback, rate)| {
            let module = synthetic_program(n, seed);
            let compiled = compile_module(&module, &ModuleRegistry::new())
                .expect("synthetic program compiles");
            let mut machine = Machine::new(compiled.circuit).expect("finalized circuit");
            machine.set_rollback(rollback);
            if rate > 0.0 {
                machine.set_chaos(seed, rate);
            }
            machine.enable_metrics();
            let mut faults = 0usize;
            if machine.react().is_err() {
                faults += 1;
            }
            for i in 0..instants {
                let sig = format!("i{}", i % 8);
                if machine.react_with(&[(&sig, Value::Bool(true))]).is_err() {
                    faults += 1;
                }
            }
            ChaosRow {
                label,
                metrics: machine.metrics().expect("metrics enabled"),
                faults,
            }
        })
        .collect()
}

/// One cell of the E10 session-pool scaling table.
#[derive(Debug, Clone)]
pub struct PoolRow {
    /// Concurrent sessions.
    pub sessions: u64,
    /// Pool shards.
    pub shards: usize,
    /// Pool-wide roll-up (reactions, latency percentiles, critical
    /// path).
    pub metrics: hiphop_runtime::PoolMetrics,
}

thread_local! {
    // Shard threads build one machine per session from the same
    // circuit: compile once per thread, clone per machine.
    static POOL_CIRCUIT: RefCell<Option<((usize, u64), hiphop_circuit::Circuit)>> =
        const { RefCell::new(None) };
}

fn pool_machine(n: usize, seed: u64) -> Result<Machine, String> {
    let circuit = POOL_CIRCUIT.with(|c| -> Result<hiphop_circuit::Circuit, String> {
        let mut c = c.borrow_mut();
        match &*c {
            Some((key, circuit)) if *key == (n, seed) => Ok(circuit.clone()),
            _ => {
                let module = synthetic_program(n, seed);
                let compiled = compile_module(&module, &ModuleRegistry::new())
                    .map_err(|e| e.to_string())?;
                *c = Some(((n, seed), compiled.circuit.clone()));
                Ok(compiled.circuit)
            }
        }
    })?;
    Machine::new(circuit).map_err(|e| e.to_string())
}

/// E10: the sharded session pool on the E6/E7 synthetic workload. Every
/// cell opens `sessions` machines of the same `n`-statement program over
/// `shards` shards and drives `ticks` batched instants with the E7 input
/// schedule (`i{t%8}` per session per tick). Throughput is measured on
/// the pool's critical path — the per-tick maximum across shards of
/// reaction busy time — i.e. the rate an `shards`-core host sustains;
/// per-reaction latency percentiles come from the same per-shard
/// telemetry sinks as E7, so the 1-shard single-session cell is directly
/// comparable to the E7/E9 rows.
pub fn pool_scaling(
    n: usize,
    sessions: &[u64],
    shards: &[usize],
    ticks: u64,
    seed: u64,
) -> Vec<PoolRow> {
    let mut rows = Vec::new();
    for &k in sessions {
        for &s in shards {
            let mut pool =
                hiphop_eventloop::sessions::SessionPool::new(s, 10, move |_id| {
                    pool_machine(n, seed)
                });
            // Serial sweep: on an oversubscribed benchmark host a
            // concurrently swept shard's wall clock includes descheduled
            // time; sweeping one shard at a time keeps the per-shard
            // (and thus critical-path) numbers honest.
            pool.set_serial_sweep(true);
            pool.open_many(k).expect("pool opens");
            for t in 0..ticks {
                let sig = format!("i{}", t % 8);
                for id in 0..k {
                    pool.inject(
                        hiphop_eventloop::sessions::SessionId(id),
                        &sig,
                        Value::Bool(true),
                    );
                }
                let report = pool.tick().expect("tick");
                assert!(report.faults.is_empty(), "synthetic workload never faults");
            }
            rows.push(PoolRow {
                sessions: k,
                shards: s,
                metrics: pool.metrics().expect("metrics"),
            });
        }
    }
    rows
}

/// One cell of the E12 cohort-throughput table.
#[derive(Debug, Clone)]
pub struct CohortRow {
    /// Concurrent sessions.
    pub sessions: u64,
    /// Execution mode: `scalar`, `u64` or `wide`.
    pub mode: &'static str,
    /// Pool-wide roll-up for the run.
    pub metrics: hiphop_runtime::PoolMetrics,
    /// FNV-1a fold of every session's final state digest — the report
    /// asserts all three modes agree before comparing their clocks.
    pub digest: u64,
}

/// E12: bit-parallel cohort throughput — the E10 workload on one shard
/// (serial sweep, so the clock is honest on an oversubscribed host) run
/// scalar, u64-packed and wide-packed. Every session shares one circuit
/// and one engine, so each tick forms a single full-width cohort; the
/// cohort rows pay one level sweep per 32 sessions instead of one per
/// session, and the digest column proves the modes are bit-identical.
pub fn cohort_scaling(n: usize, sessions: &[u64], ticks: u64, seed: u64) -> Vec<CohortRow> {
    use hiphop_eventloop::sessions::{SessionId, SessionPool};
    use hiphop_runtime::CohortWidth;
    let modes: [(&'static str, Option<CohortWidth>); 3] = [
        ("scalar", None),
        ("u64", Some(CohortWidth::U64)),
        ("wide", Some(CohortWidth::Wide)),
    ];
    let mut rows = Vec::new();
    for &k in sessions {
        for (mode, width) in modes {
            let mut pool = SessionPool::new(1, 10, move |_id| pool_machine(n, seed));
            pool.set_serial_sweep(true);
            pool.set_cohort(width).expect("cohort configures");
            pool.open_many(k).expect("pool opens");
            for t in 0..ticks {
                let sig = format!("i{}", t % 8);
                for id in 0..k {
                    pool.inject(SessionId(id), &sig, Value::Bool(true));
                }
                let report = pool.tick().expect("tick");
                assert!(report.faults.is_empty(), "synthetic workload never faults");
            }
            let digest = pool.digests().expect("digests").values().fold(
                0xcbf2_9ce4_8422_2325_u64,
                |h, d| {
                    d.bytes()
                        .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
                },
            );
            rows.push(CohortRow {
                sessions: k,
                mode,
                metrics: pool.metrics().expect("metrics"),
                digest,
            });
        }
    }
    rows
}

/// One row of the E11 recording-overhead comparison.
#[derive(Debug, Clone)]
pub struct RecordingRow {
    /// Whether the flight recorder was armed.
    pub recorded: bool,
    /// Pool-wide roll-up for the run.
    pub metrics: hiphop_runtime::PoolMetrics,
    /// Serialized journal size, bytes (0 when not recording).
    pub journal_bytes: usize,
}

/// E11: flight-recorder overhead — the E10 pool workload run twice,
/// without and with the recorder armed (digest checkpoints every 8
/// ticks). Recording journals every injected input on the pool thread,
/// so the honest cost shows up on reaction latency and critical path.
pub fn recording_overhead(
    n: usize,
    sessions: u64,
    shards: usize,
    ticks: u64,
    seed: u64,
) -> Vec<RecordingRow> {
    [false, true]
        .into_iter()
        .map(|recorded| {
            let mut pool =
                hiphop_eventloop::sessions::SessionPool::new(shards, 10, move |_id| {
                    pool_machine(n, seed)
                });
            pool.set_serial_sweep(true);
            if recorded {
                pool.record(
                    hiphop_runtime::RecorderConfig::default(),
                    std::collections::BTreeMap::new(),
                )
                .expect("recorder arms");
            }
            pool.open_many(sessions).expect("pool opens");
            for t in 0..ticks {
                let sig = format!("i{}", t % 8);
                for id in 0..sessions {
                    pool.inject(
                        hiphop_eventloop::sessions::SessionId(id),
                        &sig,
                        Value::Bool(true),
                    );
                }
                pool.tick().expect("tick");
            }
            let metrics = pool.metrics().expect("metrics");
            let journal_bytes = pool
                .take_recording()
                .map(|r| r.to_jsonl().len())
                .unwrap_or(0);
            RecordingRow {
                recorded,
                metrics,
                journal_bytes,
            }
        })
        .collect()
}

/// One row of the E13 durability-cost table: one checkpoint cadence.
#[derive(Debug, Clone)]
pub struct DurabilityRow {
    /// Beats between checkpoints.
    pub checkpoint_every: u64,
    /// Mean time to capture one whole-pool snapshot, microseconds.
    pub snapshot_us: f64,
    /// Serialized (JSONL) size of the final snapshot, bytes.
    pub snapshot_bytes: usize,
    /// Journal ticks re-driven during recovery (the suffix past the
    /// last checkpoint).
    pub replayed_ticks: u64,
    /// Wall time of a full crash recovery — restore the last
    /// checkpoint onto a fresh pool plus re-drive the journal suffix —
    /// microseconds.
    pub recovery_us: f64,
    /// True when every suffix digest checkpoint matched.
    pub recovered: bool,
}

/// E13: durability cost — snapshot capture, wire size, and crash
/// recovery time as a function of checkpoint cadence. Each row runs
/// the E10 workload (`sessions` machines of an `n`-statement program
/// over `shards` shards) for `ticks` beats with the flight recorder
/// armed, snapshotting every `checkpoint_every` beats; then "crashes"
/// and times the recovery path: restore the last checkpoint onto a
/// fresh pool and re-drive only the journal suffix. The tradeoff the
/// table surfaces: frequent checkpoints cost snapshot time during the
/// run but bound the suffix a recovery must re-execute.
pub fn durability_cost(
    n: usize,
    sessions: u64,
    shards: usize,
    ticks: u64,
    cadences: &[u64],
    seed: u64,
) -> Vec<DurabilityRow> {
    use hiphop_eventloop::sessions::{SessionId, SessionPool};
    cadences
        .iter()
        .map(|&every| {
            let mut pool = SessionPool::new(shards, 10, move |_id| pool_machine(n, seed));
            pool.set_serial_sweep(true);
            pool.record(
                hiphop_runtime::RecorderConfig {
                    checkpoint_every: 1,
                    ..hiphop_runtime::RecorderConfig::default()
                },
                std::collections::BTreeMap::new(),
            )
            .expect("recorder arms");
            pool.open_many(sessions).expect("pool opens");
            let mut checkpoint = None;
            let mut snapshot_us = Vec::new();
            for t in 0..ticks {
                let sig = format!("i{}", t % 8);
                for id in 0..sessions {
                    pool.inject(SessionId(id), &sig, Value::Bool(true));
                }
                pool.tick().expect("tick");
                if (t + 1).is_multiple_of(every) {
                    let start = Instant::now();
                    checkpoint = Some(pool.snapshot().expect("snapshot"));
                    snapshot_us.push(start.elapsed().as_secs_f64() * 1e6);
                }
            }
            let rec = pool.recording().expect("journal");
            let checkpoint = checkpoint.expect("at least one checkpoint");
            let snapshot_bytes = checkpoint.to_jsonl().len();
            let replayed_ticks = ticks - checkpoint.ticks;
            drop(pool); // the crash

            let start = Instant::now();
            let mut recovered = SessionPool::new(shards, 10, move |_id| pool_machine(n, seed));
            recovered.set_serial_sweep(true);
            let report = recovered
                .replay(
                    &rec,
                    &hiphop_runtime::ReplayOptions {
                        from_snapshot: Some(checkpoint),
                        ..hiphop_runtime::ReplayOptions::default()
                    },
                )
                .expect("recovery replays");
            let recovery_us = start.elapsed().as_secs_f64() * 1e6;
            assert_eq!(report.ticks, replayed_ticks, "suffix length");
            DurabilityRow {
                checkpoint_every: every,
                snapshot_us: snapshot_us.iter().sum::<f64>() / snapshot_us.len() as f64,
                snapshot_bytes,
                replayed_ticks,
                recovery_us,
                recovered: report.ok(),
            }
        })
        .collect()
}

/// One row of the E14 schedule-shrinking table: one workload compiled
/// with the fact-driven shrink off and on (both with the syntactic
/// optimizer enabled, so the delta is what the dataflow facts buy).
#[derive(Debug, Clone)]
pub struct ShrinkRow {
    /// Workload label.
    pub workload: String,
    /// Nets without / with the fact-driven shrink.
    pub nets_off: usize,
    /// Nets with the shrink.
    pub nets_on: usize,
    /// Registers without / with the shrink.
    pub registers_off: usize,
    /// Registers with the shrink.
    pub registers_on: usize,
    /// Topological levels without the shrink (`None` = cyclic).
    pub levels_off: Option<usize>,
    /// Topological levels with the shrink.
    pub levels_on: Option<usize>,
    /// Median sweep time without the shrink, microseconds.
    pub p50_off_us: f64,
    /// Median sweep time with the shrink, microseconds.
    pub p50_on_us: f64,
}

impl ShrinkRow {
    /// Fraction of nets the facts removed on top of the syntactic passes.
    pub fn net_reduction(&self) -> f64 {
        1.0 - self.nets_on as f64 / self.nets_off as f64
    }
}

/// Median per-reaction latency over `reactions` random-input instants.
fn median_reaction_us(machine: &mut Machine, reactions: usize) -> f64 {
    machine.react().expect("boot");
    let mut samples = Vec::with_capacity(reactions);
    for i in 0..reactions {
        let sig = format!("i{}", i % 8);
        let t = Instant::now();
        machine
            .react_with(&[(&sig, Value::Bool(true))])
            .expect("reaction");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// E14: fact-driven schedule shrinking — circuit size (nets, registers,
/// topological levels) and median sweep latency with the inter-instant
/// dataflow shrink off vs on, over three workloads:
///
/// 1. a dense acyclic 640-statement program (levelized schedule);
/// 2. its cyclic variant (hybrid schedule; the SCC guard disables fact
///    folding inside undecided cores, so the delta isolates what is
///    still safe to remove);
/// 3. a 1000-session bit-parallel cohort (u64 lanes) of a 64-statement
///    program, where one shrunk schedule is swept once per lane word —
///    shrinking multiplies across the whole pool.
pub fn schedule_shrinking(seed: u64) -> Vec<ShrinkRow> {
    use hiphop_runtime::{react_cohort, CohortWidth};
    let compile = |module: &Module, dataflow: bool| {
        compile_module_with(
            module,
            &ModuleRegistry::new(),
            CompileOptions { optimize: true, dataflow },
        )
        .expect("compiles")
    };
    let mut rows = Vec::new();

    let dense = synthetic_program(640, seed);
    let cyclic = cyclic_program(640, seed);
    for (name, module) in [
        ("dense-640 (levelized)", &dense),
        ("cyclic-640 (hybrid)", &cyclic),
    ] {
        let mut stats = Vec::new();
        for dataflow in [false, true] {
            let c = compile(module, dataflow);
            let s = c.circuit.stats();
            let levels = c.levels;
            let mut m = Machine::new(c.circuit).expect("finalized circuit");
            let p50 = median_reaction_us(&mut m, 200);
            stats.push((s.nets, s.registers, levels, p50));
        }
        rows.push(ShrinkRow {
            workload: name.to_owned(),
            nets_off: stats[0].0,
            nets_on: stats[1].0,
            registers_off: stats[0].1,
            registers_on: stats[1].1,
            levels_off: stats[0].2,
            levels_on: stats[1].2,
            p50_off_us: stats[0].3,
            p50_on_us: stats[1].3,
        });
    }

    // 1000-session cohort: the whole pool sweeps one circuit in lockstep,
    // so the p50 is per-tick (all 1000 sessions), not per-reaction.
    let small = synthetic_program(64, seed ^ 1);
    const SESSIONS: usize = 1000;
    const TICKS: usize = 24;
    let mut stats = Vec::new();
    for dataflow in [false, true] {
        let c = compile(&small, dataflow);
        let s = c.circuit.stats();
        let levels = c.levels;
        let mut machines: Vec<Machine> = (0..SESSIONS)
            .map(|_| Machine::new(c.circuit.clone()).expect("finalized circuit"))
            .collect();
        let mut samples = Vec::with_capacity(TICKS);
        for t in 0..TICKS {
            let sig = format!("i{}", t % 8);
            for m in machines.iter_mut() {
                m.set_input(&sig, Some(Value::Bool(true))).expect("input");
            }
            let start = Instant::now();
            let mut lanes: Vec<&mut Machine> = machines.iter_mut().collect();
            for r in react_cohort(&mut lanes, CohortWidth::U64) {
                r.expect("reaction");
            }
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
        samples.sort_by(f64::total_cmp);
        stats.push((s.nets, s.registers, levels, samples[samples.len() / 2]));
    }
    rows.push(ShrinkRow {
        workload: "cohort-1000×64 (u64 lanes, per-tick)".to_owned(),
        nets_off: stats[0].0,
        nets_on: stats[1].0,
        registers_off: stats[0].1,
        registers_on: stats[1].1,
        levels_off: stats[0].2,
        levels_on: stats[1].2,
        p50_off_us: stats[0].3,
        p50_on_us: stats[1].3,
    });
    rows
}

/// One row of the §E15 sparse-engine comparison: the same workload and
/// drive, once per engine.
#[derive(Debug, Clone)]
pub struct SparseRow {
    /// The engine this row was measured under.
    pub engine: EngineMode,
    /// Nets in the compiled circuit.
    pub nets: usize,
    /// Median per-reaction latency over the drive, microseconds.
    pub p50_us: f64,
    /// Net evaluations tallied by the per-level activity counters over
    /// the whole drive (boot sweep included).
    pub evals: u64,
    /// State digest after the drive — must be identical across rows.
    pub digest: String,
}

/// Drives `machine` through `reactions` instants of `drive(i)` inputs,
/// returning `(p50_us, evals, digest)`.
fn sparse_row_drive(
    machine: &mut Machine,
    reactions: usize,
    drive: impl Fn(usize) -> String,
) -> (f64, u64, String) {
    machine.enable_level_activity();
    machine.react().expect("boot");
    let mut samples = Vec::with_capacity(reactions);
    for i in 0..reactions {
        let sig = drive(i);
        let t = Instant::now();
        machine
            .react_with(&[(&sig, Value::Bool(true))])
            .expect("reaction");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(f64::total_cmp);
    (
        samples[samples.len() / 2],
        machine
            .level_activity()
            .expect("level activity enabled")
            .total_evals(),
        machine.state_digest(),
    )
}

/// §E15 (quiet half): sparse vs levelized on the wide-but-quiet pool
/// ([`wide_quiet_program`]: `instances` parallel ABRO machines, exactly
/// one of which ever sees an input). The dense sweep re-evaluates every
/// net of every halted instance each instant; the sparse engine touches
/// only the fanout cone of the one active instance, so its per-reaction
/// latency is independent of the pool width. Digests prove the rows did
/// the same work.
pub fn wide_quiet(instances: usize, reactions: usize) -> Vec<SparseRow> {
    let module = wide_quiet_program(instances);
    let compiled =
        compile_module(&module, &ModuleRegistry::new()).expect("wide-quiet pool compiles");
    assert!(compiled.levels.is_some(), "acyclic by construction");
    let nets = compiled.circuit.stats().nets;
    [EngineMode::Levelized, EngineMode::Sparse]
        .into_iter()
        .map(|mode| {
            let mut machine =
                Machine::new(compiled.circuit.clone()).expect("finalized circuit");
            assert_eq!(machine.set_engine(mode), mode, "acyclic: both available");
            // Instance 0 cycles through its ABRO protocol; instances
            // 1..N never see an input.
            let (p50_us, evals, digest) =
                sparse_row_drive(&mut machine, reactions, |i| {
                    ["a0", "b0", "r0"][i % 3].to_owned()
                });
            SparseRow { engine: mode, nets, p50_us, evals, digest }
        })
        .collect()
}

/// §E15 (busy half): the no-regression guard. The dense-640 synthetic
/// workload under an every-instant input drive — the levelized engine's
/// home turf — measured under levelized and sparse. Sparse pays dirty
/// bookkeeping on a workload with nothing to skip; the row shows the
/// overhead stays marginal.
pub fn sparse_dense_regression(n: usize, reactions: usize, seed: u64) -> Vec<SparseRow> {
    let module = synthetic_program(n, seed);
    let compiled =
        compile_module(&module, &ModuleRegistry::new()).expect("synthetic program compiles");
    let nets = compiled.circuit.stats().nets;
    [EngineMode::Levelized, EngineMode::Sparse]
        .into_iter()
        .map(|mode| {
            let mut machine =
                Machine::new(compiled.circuit.clone()).expect("finalized circuit");
            assert_eq!(machine.set_engine(mode), mode, "acyclic: both available");
            let (p50_us, evals, digest) =
                sparse_row_drive(&mut machine, reactions, |i| format!("i{}", i % 8));
            SparseRow { engine: mode, nets, p50_us, evals, digest }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::linear_fit;

    #[test]
    fn size_sweep_rows_are_monotone_in_nets() {
        let rows = size_sweep(&[20, 80, 320], 11);
        assert!(rows[0].nets < rows[1].nets && rows[1].nets < rows[2].nets);
        let fit = linear_fit(
            &rows
                .iter()
                .map(|r| (r.stmts as f64, r.nets as f64))
                .collect::<Vec<_>>(),
        );
        assert!(fit.r2 > 0.9, "nets ~ linear in statements: {fit:?}");
    }

    #[test]
    fn memory_table_contains_all_apps() {
        let rows = memory_table();
        assert!(rows.iter().any(|r| r.name.contains("Lisinopril")));
        assert!(rows.iter().any(|r| r.name.contains("classical")));
        for r in &rows {
            assert!(r.nets > 0 && r.bytes > 0, "{r:?}");
        }
        // The classical score is the biggest program.
        let classical = rows.iter().find(|r| r.name.contains("classical")).unwrap();
        assert!(classical.nets > 3000, "classical score is large: {classical:?}");
    }

    #[test]
    fn e5_comparison_matches_the_paper() {
        let (weak_ok, strong_err) = login_v2_abort_comparison();
        assert!(weak_ok);
        assert!(strong_err.contains("causality"), "{strong_err}");
    }

    #[test]
    fn engine_comparison_levelized_wins() {
        // A smaller workload than the report's 640/500 keeps the test
        // quick; the ordering claim is the same.
        let rows = engine_comparison(320, 120, 2020);
        assert_eq!(rows.len(), 3);
        let p50 = |mode: EngineMode| {
            rows.iter()
                .find(|r| r.engine == mode)
                .expect("row present")
                .metrics
                .duration_us
                .p50
        };
        for r in &rows {
            assert_eq!(r.metrics.reactions, 121, "boot + 120 driven instants");
            assert_eq!(r.metrics.causality_failures, 0);
        }
        // The test pins only the claim the walker exists for; sparse's
        // margin depends on how quiet the drive is.
        assert!(
            p50(EngineMode::Levelized) < p50(EngineMode::Constructive),
            "levelized p50 {} µs vs constructive {} µs",
            p50(EngineMode::Levelized),
            p50(EngineMode::Constructive)
        );
    }

    #[test]
    fn hybrid_comparison_hybrid_wins_on_cyclic_workloads() {
        // Smaller than the report's 640/500 to keep the test quick; the
        // ordering claim is the same (the 2× target lives in REPORT.txt).
        let rows = hybrid_comparison(320, 120, 2020);
        assert_eq!(rows.len(), 2);
        let p50 = |mode: EngineMode| {
            rows.iter()
                .find(|r| r.engine == mode)
                .expect("row present")
                .metrics
                .duration_us
                .p50
        };
        for r in &rows {
            assert_eq!(r.metrics.reactions, 121, "boot + 120 driven instants");
            assert_eq!(r.metrics.causality_failures, 0);
        }
        assert!(
            p50(EngineMode::Levelized) < p50(EngineMode::Constructive),
            "walker p50 {} µs vs constructive {} µs",
            p50(EngineMode::Levelized),
            p50(EngineMode::Constructive)
        );
    }

    #[test]
    fn wide_quiet_sparse_is_digest_identical_and_skips_the_pool() {
        let rows = wide_quiet(200, 24);
        let (lev, sparse) = (&rows[0], &rows[1]);
        assert_eq!(lev.engine, EngineMode::Levelized);
        assert_eq!(sparse.engine, EngineMode::Sparse);
        assert_eq!(lev.digest, sparse.digest, "engines must agree exactly");
        // The dense sweep re-evaluates the whole pool every instant;
        // sparse pays one full rebuild at boot and then only instance
        // 0's cone. The counters are deterministic, so the margin is a
        // hard assertion — timing is left to the report binary.
        assert!(
            sparse.evals * 10 <= lev.evals,
            "sparse should skip the quiet pool: {} vs {} evals",
            sparse.evals,
            lev.evals
        );
    }

    #[test]
    fn sparse_dense_regression_rows_do_the_same_work() {
        let rows = sparse_dense_regression(160, 48, 11);
        assert_eq!(rows[0].digest, rows[1].digest, "engines must agree exactly");
        assert!(rows[0].evals > 0 && rows[1].evals > 0);
        assert!(
            rows[1].evals <= rows[0].evals,
            "sparse never evaluates more nets than the dense sweep"
        );
    }

    #[test]
    fn chaos_overhead_rows_behave() {
        let rows = chaos_overhead(80, 120, 2020);
        assert_eq!(rows.len(), 3);
        let by = |label: &str| rows.iter().find(|r| r.label == label).expect("row");
        assert_eq!(by("rollback off").faults, 0);
        assert_eq!(by("rollback on").faults, 0);
        let chaotic = by("chaos 10%");
        assert!(chaotic.faults > 0, "10% over 120 instants injects something");
        // Faulted reactions roll back, so the machine keeps reacting:
        // every instant is accounted for either way.
        assert_eq!(
            chaotic.metrics.reactions + chaotic.faults,
            121,
            "boot + 120 driven instants, minus the rolled-back ones"
        );
        // Determinism: the same seed injects the same schedule.
        let again = chaos_overhead(80, 120, 2020);
        assert_eq!(by("chaos 10%").faults, again[2].faults);
    }

    #[test]
    fn skini_latency_well_under_budget() {
        let (nets, lat) = skini_latency(hiphop_skini::ScoreShape::small(), 50, 3);
        assert!(nets > 0);
        assert!(lat.max_ms() < 300.0, "{} ms", lat.max_ms());
    }

    #[test]
    fn pool_scaling_rows_account_for_every_reaction() {
        let rows = pool_scaling(40, &[8], &[1, 2], 4, 7);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.sessions, 8);
            // Boot + one reaction per session per tick, across shards.
            assert_eq!(row.metrics.reactions as u64, 8 * (4 + 1));
            assert!(row.metrics.throughput_rps() > 0.0);
            assert!(row.metrics.critical_path_us > 0.0);
        }
        assert_eq!(rows[0].shards, 1);
        assert_eq!(rows[1].shards, 2);
    }

    #[test]
    fn cohort_scaling_modes_are_digest_identical() {
        let rows = cohort_scaling(40, &[33], 4, 7);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            // Boot + one reaction per session per tick.
            assert_eq!(row.metrics.reactions as u64, 33 * (4 + 1), "{}", row.mode);
            assert!(row.metrics.throughput_rps() > 0.0, "{}", row.mode);
        }
        // The digest column is the whole point: all three execution
        // modes leave every session in bit-identical state.
        assert_eq!(rows[0].digest, rows[1].digest, "scalar vs u64");
        assert_eq!(rows[0].digest, rows[2].digest, "scalar vs wide");
    }

    #[test]
    fn durability_cost_rows_recover_cleanly() {
        let rows = durability_cost(40, 6, 2, 8, &[2, 8], 7);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.recovered, "every suffix digest matched");
            assert!(row.snapshot_bytes > 0);
            assert!(row.snapshot_us > 0.0);
        }
        // Checkpointing every 2 beats leaves at most a 2-tick suffix;
        // every 8 beats leaves none here (the last beat checkpoints).
        assert!(rows[0].replayed_ticks <= 2, "{rows:?}");
        assert_eq!(rows[1].replayed_ticks, 0, "{rows:?}");
    }

    #[test]
    fn recording_overhead_rows_do_the_same_work() {
        let rows = recording_overhead(40, 6, 2, 4, 7);
        assert_eq!(rows.len(), 2);
        assert!(!rows[0].recorded && rows[1].recorded);
        // Identical workload either way — recording is pure observation.
        assert_eq!(rows[0].metrics.reactions, rows[1].metrics.reactions);
        assert_eq!(rows[0].journal_bytes, 0, "no journal without the recorder");
        assert!(rows[1].journal_bytes > 0, "the armed run serialized a journal");
    }
}
