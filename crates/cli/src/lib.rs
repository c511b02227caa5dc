//! The `hiphopc` driver library: everything the command-line compiler
//! does, exposed as functions so it can be tested without spawning
//! processes.
//!
//! Subcommands:
//!
//! - `check`  — parse + link + static checks;
//! - `analyze`— compile and run the circuit lint framework (constructiveness
//!   verdicts, emission hygiene, dead nets) with `--deny` gating;
//! - `stats`  — circuit statistics after compilation;
//! - `pretty` — pretty-print the linked program;
//! - `dot`    — Graphviz rendering of the compiled circuit;
//! - `run`    — interactive reaction loop: each input line is one instant,
//!   `sig` or `sig=value` tokens set inputs, outputs are printed.

#![warn(missing_docs)]

use hiphop_compiler::{compile_module_with, lint_compiled, CompileOptions};
use hiphop_core::module::link;
use hiphop_core::value::Value;
use hiphop_lang::{parse_file, HostRegistry};
use hiphop_runtime::telemetry::shared;
use hiphop_runtime::{EngineMode, JsonlSink, Machine, VcdSink};
use std::fmt::Write as _;

/// A CLI failure, rendered to stderr by `main`.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for CliError {}

fn fail(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Subcommand.
    pub command: String,
    /// Source file path.
    pub file: String,
    /// Main module name (defaults to the last module in the file).
    pub main: Option<String>,
    /// Disable the optimizer.
    pub no_optimize: bool,
    /// Stimulus for `trace` (instants separated by `;`).
    pub stimulus: Option<String>,
    /// Evaluation engine override for `run`/`trace`/`oracle` — and,
    /// mirrored into [`ServeOptions::engine`] / [`ReplayFlags::engine`],
    /// for `serve`/`replay` too (`None` = automatic: levelized when the
    /// circuit is acyclic).
    pub engine: Option<EngineMode>,
    /// Telemetry outputs for `trace` / `oracle`.
    pub telemetry: TelemetryOptions,
    /// Seeded fault injection for `trace` / `run` (the `oracle`
    /// differential check always runs fault-free).
    pub chaos: ChaosOptions,
    /// Output format for `analyze` (`pretty` or `json`).
    pub format: String,
    /// Lints (by code or name) that make `analyze` exit non-zero.
    pub deny: Vec<String>,
    /// `analyze`: append a one-line JSON dataflow-fact summary
    /// (`--facts`).
    pub facts: bool,
    /// `analyze`: suppress lints recorded in this baseline file
    /// (`--baseline FILE`; JSON lines as produced by `--format json`).
    pub baseline: Option<String>,
    /// Session-pool knobs for `serve`.
    pub serve: ServeOptions,
    /// Window/verification knobs for `replay`.
    pub replay: ReplayFlags,
}

/// Knobs for the `serve` subcommand: a sharded multi-session concert
/// run on the virtual clock (no source file — the score is generated).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Audience sessions to open (`--sessions`).
    pub sessions: u64,
    /// Pool shards (`--shards`).
    pub shards: usize,
    /// Beats to run (`--ticks`).
    pub ticks: u64,
    /// Master seed (`--seed`).
    pub seed: u64,
    /// Generated score family (`--shape small|concert|classical`).
    pub shape: String,
    /// Write a flight-recorder journal (JSONL) to this file (`--record`).
    pub record: Option<String>,
    /// Write a Chrome trace-event JSON file to this path (`--trace-spans`).
    pub trace_spans: Option<String>,
    /// Write a Prometheus text exposition to this path (`--prom`).
    pub prom: Option<String>,
    /// Print a pool-metrics line to stderr every N beats (`--watch N`,
    /// 0 = off).
    pub watch: u64,
    /// Bit-parallel cohort execution (`--cohort`, default scalar). A
    /// pure execution strategy: digests are identical.
    pub cohort: bool,
    /// Write the last pool checkpoint (JSONL) to this file
    /// (`--snapshot FILE`).
    pub snapshot: Option<String>,
    /// Checkpoint the pool every N beats (`--snapshot-every N`, 0 =
    /// only a final checkpoint when `--snapshot` is given).
    pub snapshot_every: u64,
    /// Run the metrics-driven rebalancer after each checkpoint
    /// (`--rebalance`).
    pub rebalance: bool,
    /// Force every session onto this evaluation engine (`--engine E`,
    /// default per-machine automatic). Digest-neutral by construction.
    pub engine: Option<EngineMode>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            sessions: 16,
            shards: 4,
            ticks: 32,
            seed: 0,
            shape: "small".to_owned(),
            record: None,
            trace_spans: None,
            prom: None,
            watch: 0,
            cohort: false,
            snapshot: None,
            snapshot_every: 0,
            rebalance: false,
            engine: None,
        }
    }
}

/// Knobs for the `replay` subcommand (`--from` / `--to` /
/// `--verify-digests`). Digest verification defaults to *on* — a replay
/// that checks nothing answers nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayFlags {
    /// Compare digest checkpoints (`--verify-digests` forces on,
    /// `--no-verify-digests` disables).
    pub verify_digests: bool,
    /// First tick whose checkpoints are checked (`--from`).
    pub from: u64,
    /// Last tick to re-execute (`--to`).
    pub to: u64,
    /// Replay on a bit-parallel cohort pool (`--cohort`) —
    /// recordings are mode-agnostic, so a scalar recording verifies on
    /// a cohort pool and vice versa.
    pub cohort: bool,
    /// Restore this pool checkpoint (from `serve --snapshot`) first and
    /// re-drive only the journal suffix (`--snapshot FILE`). Required
    /// for `--from N` with N > 0.
    pub snapshot: Option<String>,
    /// Re-drive the journal on an all-`engine` pool (`--engine E`) —
    /// recordings are engine-agnostic, so the digests must still match.
    pub engine: Option<EngineMode>,
}

impl Default for ReplayFlags {
    fn default() -> ReplayFlags {
        ReplayFlags {
            verify_digests: true,
            from: 0,
            to: u64::MAX,
            cohort: false,
            snapshot: None,
            engine: None,
        }
    }
}

/// Seeded fault injection knobs (`--chaos-seed` / `--chaos-rate`).
/// Injected faults surface as structured `HostPanic` errors and the
/// failed reaction is rolled back, so a chaotic trace reports the error
/// and keeps going.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosOptions {
    /// PCG32 seed for the fault stream (default 0).
    pub seed: u64,
    /// Per-action fault probability in `[0, 1]`; 0 disables injection.
    pub rate: f64,
}

impl ChaosOptions {
    /// Arms fault injection on `machine` when the rate is non-zero.
    pub fn arm(&self, machine: &mut Machine) {
        if self.rate > 0.0 {
            machine.set_chaos(self.seed, self.rate);
        }
    }
}

/// Telemetry outputs attached to the machine by `trace` and `oracle`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryOptions {
    /// Print a percentile metrics table (stderr).
    pub metrics: bool,
    /// Write a structured JSONL trace to this file.
    pub jsonl: Option<String>,
    /// Write a GTKWave-compatible VCD waveform to this file.
    pub vcd: Option<String>,
}

impl TelemetryOptions {
    /// Attaches the requested sinks to `machine`.
    ///
    /// # Errors
    ///
    /// Fails when an output file cannot be created.
    pub fn attach(&self, machine: &mut Machine) -> Result<(), CliError> {
        if let Some(path) = &self.jsonl {
            let sink = JsonlSink::to_file(path)
                .map_err(|e| fail(format!("cannot create {path}: {e}")))?;
            machine.attach_sink(shared(sink));
        }
        if let Some(path) = &self.vcd {
            let sink = VcdSink::for_machine(machine, path)
                .map_err(|e| fail(format!("cannot create {path}: {e}")))?;
            machine.attach_sink(shared(sink));
        }
        if self.metrics {
            machine.enable_metrics();
        }
        Ok(())
    }
}

/// Parses `argv` (without the program name).
///
/// # Errors
///
/// Fails on unknown flags or missing arguments.
pub fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut it = args.iter();
    let command = it
        .next()
        .ok_or_else(|| fail(USAGE))?
        .clone();
    if command == "--help" || command == "-h" || command == "help" {
        return Err(fail(USAGE));
    }
    let mut file = None;
    let mut main = None;
    let mut no_optimize = false;
    let mut stimulus = None;
    let mut engine = None;
    let mut telemetry = TelemetryOptions::default();
    let mut chaos = ChaosOptions::default();
    let mut format = "pretty".to_owned();
    let mut deny = Vec::new();
    let mut facts = false;
    let mut baseline = None;
    let mut serve = ServeOptions::default();
    let mut replay = ReplayFlags::default();
    let uint = |flag: &str, v: Option<&String>| -> Result<u64, CliError> {
        v.ok_or_else(|| fail(format!("{flag} needs an integer")))?
            .parse()
            .map_err(|e| fail(format!("{flag}: {e}")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--engine" => {
                // Shared by `run`/`trace`/`oracle` (one machine),
                // `serve` (every pooled session) and `replay` (the
                // re-driven pool).
                let name = it.next().ok_or_else(|| {
                    fail("--engine needs a mode (auto, levelized, constructive, sparse)")
                })?;
                engine = match name.as_str() {
                    "auto" => None,
                    other => Some(other.parse::<EngineMode>().map_err(fail)?),
                };
            }
            "--main" => {
                main = Some(
                    it.next()
                        .ok_or_else(|| fail("--main needs a module name"))?
                        .clone(),
                )
            }
            "--stimulus" => {
                stimulus = Some(
                    it.next()
                        .ok_or_else(|| fail("--stimulus needs a string"))?
                        .clone(),
                )
            }
            "--no-optimize" => no_optimize = true,
            "--format" => {
                let f = it
                    .next()
                    .ok_or_else(|| fail("--format needs `pretty` or `json`"))?;
                if f != "pretty" && f != "json" {
                    return Err(fail(format!(
                        "--format must be `pretty` or `json`, not `{f}`"
                    )));
                }
                format = f.clone();
            }
            "--deny" => {
                deny.push(
                    it.next()
                        .ok_or_else(|| fail("--deny needs a lint code or name"))?
                        .clone(),
                );
            }
            "--facts" => facts = true,
            "--baseline" => {
                baseline = Some(
                    it.next()
                        .ok_or_else(|| fail("--baseline needs a file path"))?
                        .clone(),
                )
            }
            "--metrics" => telemetry.metrics = true,
            "--jsonl" => {
                telemetry.jsonl = Some(
                    it.next()
                        .ok_or_else(|| fail("--jsonl needs a file path"))?
                        .clone(),
                )
            }
            "--vcd" => {
                telemetry.vcd = Some(
                    it.next()
                        .ok_or_else(|| fail("--vcd needs a file path"))?
                        .clone(),
                )
            }
            "--sessions" => serve.sessions = uint("--sessions", it.next())?,
            "--shards" => {
                serve.shards = uint("--shards", it.next())? as usize;
                if serve.shards == 0 {
                    return Err(fail("--shards must be at least 1"));
                }
            }
            "--ticks" => serve.ticks = uint("--ticks", it.next())?,
            "--seed" => serve.seed = uint("--seed", it.next())?,
            "--record" => {
                serve.record = Some(
                    it.next()
                        .ok_or_else(|| fail("--record needs a file path"))?
                        .clone(),
                )
            }
            "--trace-spans" => {
                serve.trace_spans = Some(
                    it.next()
                        .ok_or_else(|| fail("--trace-spans needs a file path"))?
                        .clone(),
                )
            }
            "--prom" => {
                serve.prom = Some(
                    it.next()
                        .ok_or_else(|| fail("--prom needs a file path"))?
                        .clone(),
                )
            }
            "--watch" => serve.watch = uint("--watch", it.next())?,
            "--cohort" => {
                // Shared by `serve` (execution mode) and `replay`
                // (pool the recording is re-executed on).
                serve.cohort = true;
                replay.cohort = true;
            }
            "--snapshot" => {
                // Shared by `serve` (checkpoint output file) and
                // `replay` (checkpoint to restore before re-driving).
                let path = it
                    .next()
                    .ok_or_else(|| fail("--snapshot needs a file path"))?
                    .clone();
                serve.snapshot = Some(path.clone());
                replay.snapshot = Some(path);
            }
            "--snapshot-every" => {
                serve.snapshot_every = uint("--snapshot-every", it.next())?;
            }
            "--rebalance" => serve.rebalance = true,
            "--verify-digests" => replay.verify_digests = true,
            "--no-verify-digests" => replay.verify_digests = false,
            "--from" => replay.from = uint("--from", it.next())?,
            "--to" => replay.to = uint("--to", it.next())?,
            "--shape" => {
                let s = it
                    .next()
                    .ok_or_else(|| fail("--shape needs `small`, `concert` or `classical`"))?;
                if !["small", "concert", "classical"].contains(&s.as_str()) {
                    return Err(fail(format!(
                        "--shape must be `small`, `concert` or `classical`, not `{s}`"
                    )));
                }
                serve.shape = s.clone();
            }
            "--chaos-seed" => {
                chaos.seed = it
                    .next()
                    .ok_or_else(|| fail("--chaos-seed needs an integer"))?
                    .parse()
                    .map_err(|e| fail(format!("--chaos-seed: {e}")))?;
            }
            "--chaos-rate" => {
                let rate: f64 = it
                    .next()
                    .ok_or_else(|| fail("--chaos-rate needs a probability in [0, 1]"))?
                    .parse()
                    .map_err(|e| fail(format!("--chaos-rate: {e}")))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(fail("--chaos-rate must be within [0, 1]"));
                }
                chaos.rate = rate;
            }
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(other.to_owned());
            }
            other => return Err(fail(format!("unknown argument `{other}`\n{USAGE}"))),
        }
    }
    let file = if command == "serve" {
        // `serve` runs a generated score: a stray word is refused rather
        // than silently ignored.
        if let Some(stray) = file {
            return Err(fail(format!("serve takes no FILE argument, got `{stray}`\n{USAGE}")));
        }
        String::new()
    } else if command == "replay" {
        file.ok_or_else(|| fail(format!("replay needs a recording file\n{USAGE}")))?
    } else {
        file.ok_or_else(|| fail(format!("missing source file\n{USAGE}")))?
    };
    serve.engine = engine;
    replay.engine = engine;
    Ok(Options {
        command,
        file,
        main,
        no_optimize,
        stimulus,
        engine,
        telemetry,
        chaos,
        format,
        deny,
        facts,
        baseline,
        serve,
        replay,
    })
}

/// Output of [`cmd_serve`]: a one-line JSON summary for stdout plus the
/// optional rendered pool-metrics table (stderr).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// One JSON object summarising the run (stdout).
    pub json: String,
    /// Rendered `--metrics` pool table, when requested.
    pub metrics: Option<String>,
}

/// `serve`: opens `--sessions` audience sessions over `--shards` shards
/// of a [`hiphop_eventloop::sessions::SessionPool`] and drives `--ticks`
/// beats of the generated Skini concert deterministically on the virtual
/// clock. Prints a one-line JSON summary; `--metrics` adds the per-shard
/// roll-up table. The observability plane rides along on request:
/// `--record FILE` writes the flight journal (replayable with the
/// `replay` subcommand), `--trace-spans FILE` writes a Chrome
/// trace-event JSON loadable in Perfetto, `--prom FILE` writes a
/// Prometheus text exposition, and `--watch N` prints a metrics line to
/// stderr every N beats.
///
/// # Errors
///
/// Fails on an unknown `--shape`, a score compile error, a dead
/// shard, or an unwritable output file. Injected chaos faults (from
/// `--chaos-rate`) roll back and are counted, not fatal.
pub fn cmd_serve(
    serve: &ServeOptions,
    chaos: &ChaosOptions,
    metrics: bool,
) -> Result<ServeReport, CliError> {
    let shape = match serve.shape.as_str() {
        "small" => hiphop_skini::ScoreShape::small(),
        "concert" => hiphop_skini::ScoreShape::concert(),
        "classical" => hiphop_skini::ScoreShape::classical(),
        other => return Err(fail(format!("unknown --shape `{other}`"))),
    };
    let cfg = hiphop_skini::ConcertConfig {
        sessions: serve.sessions,
        shards: serve.shards,
        ticks: serve.ticks,
        seed: serve.seed,
        shape,
        chaos_rate: chaos.rate,
    };
    let opts = hiphop_skini::ConcertRunOptions {
        record: serve
            .record
            .as_ref()
            .map(|_| hiphop_runtime::RecorderConfig::default()),
        trace_spans: serve.trace_spans.is_some(),
        // Per-level counters feed the Prometheus exposition.
        level_activity: serve.prom.is_some(),
        cohort: serve.cohort,
        engine: serve.engine,
        // A final checkpoint is always taken when `--snapshot` names a
        // file, even without an explicit `--snapshot-every` cadence.
        snapshot_every: match (serve.snapshot_every, &serve.snapshot) {
            (0, Some(_)) => serve.ticks.max(1),
            (every, _) => every,
        },
        rebalance: serve
            .rebalance
            .then(hiphop_eventloop::sessions::RebalancerConfig::default),
        watch_every: serve.watch,
        watch: (serve.watch > 0).then(|| {
            Box::new(|beat: u64, m: &hiphop_runtime::PoolMetrics| {
                eprintln!(
                    "[watch] beat {beat}: {} reaction(s), {} rollback(s) across {} session(s)",
                    m.reactions,
                    m.rollbacks,
                    m.sessions(),
                );
            }) as Box<dyn FnMut(u64, &hiphop_runtime::PoolMetrics)>
        }),
    };
    let run = hiphop_skini::concert::run_with(&cfg, opts).map_err(fail)?;
    if let Some(path) = &serve.snapshot {
        let (_, snap) = run
            .snapshots
            .last()
            .ok_or_else(|| fail("a snapshot was requested but none was taken"))?;
        std::fs::write(path, snap.to_jsonl())
            .map_err(|e| fail(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = &serve.record {
        let rec = run
            .recording
            .as_ref()
            .ok_or_else(|| fail("recording was requested but not captured"))?;
        std::fs::write(path, rec.to_jsonl())
            .map_err(|e| fail(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = &serve.trace_spans {
        std::fs::write(path, hiphop_runtime::chrome_trace(&run.spans))
            .map_err(|e| fail(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = &serve.prom {
        std::fs::write(path, run.report.metrics.render_prometheus())
            .map_err(|e| fail(format!("cannot write {path}: {e}")))?;
    }
    let report = run.report;
    let json = format!(
        "{{\"sessions\":{},\"shards\":{},\"ticks\":{},\"shape\":\"{}\",\"seed\":{},\"enqueued\":{},\"played\":{},\"faults\":{},\"migrations\":{},\"digest\":\"{:016x}\",\"pool\":{}}}",
        report.sessions,
        serve.shards,
        report.ticks,
        serve.shape,
        serve.seed,
        report.enqueued,
        report.played,
        report.faults,
        report.migrations,
        report.digest,
        report.metrics.to_json(),
    );
    Ok(ServeReport {
        json,
        metrics: metrics.then(|| hiphop_runtime::Metrics::render_pool(&report.metrics)),
    })
}

/// Output of [`cmd_replay`]: the verification report (one JSON object)
/// and whether every checked digest matched — the binary exits non-zero
/// on a mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayRunReport {
    /// One JSON object summarising the replay (stdout).
    pub json: String,
    /// True when no digest mismatches were found.
    pub ok: bool,
}

/// `replay`: re-executes a flight recording (written by `serve
/// --record`) on a fresh pool with `--shards` shards — any shard count,
/// since shard assignment never affects session semantics — and checks
/// digest checkpoints in the `--from`/`--to` window unless
/// `--no-verify-digests`.
///
/// # Errors
///
/// Fails on an unreadable or malformed recording, a foreign scenario, a
/// ring-evicted journal, or a dead shard. Digest *mismatches* are
/// reported in [`ReplayRunReport::ok`], not raised as errors.
pub fn cmd_replay(
    file: &str,
    shards: usize,
    flags: &ReplayFlags,
) -> Result<ReplayRunReport, CliError> {
    let text = std::fs::read_to_string(file)
        .map_err(|e| fail(format!("cannot read {file}: {e}")))?;
    let rec = hiphop_runtime::Recording::from_jsonl(&text).map_err(fail)?;
    let from_snapshot = match &flags.snapshot {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| fail(format!("cannot read {path}: {e}")))?;
            Some(
                hiphop_runtime::PoolSnapshot::from_jsonl(&text)
                    .map_err(|e| fail(format!("{path}: {e}")))?,
            )
        }
        None => None,
    };
    let opts = hiphop_runtime::ReplayOptions {
        from: flags.from,
        to: flags.to,
        verify_digests: flags.verify_digests,
        from_snapshot,
    };
    let report =
        hiphop_skini::concert::replay_with(&rec, shards, &opts, flags.cohort, flags.engine)
            .map_err(fail)?;
    Ok(ReplayRunReport {
        json: report.to_json(),
        ok: report.ok(),
    })
}

/// Usage text.
pub const USAGE: &str = "usage: hiphopc <check|analyze|stats|pretty|dot|run|trace|oracle> FILE [--main MODULE] [--no-optimize] [--stimulus S] [--engine E]
       hiphopc serve [--sessions N] [--shards N] [--ticks N] [--seed N] [--shape S] [--metrics]
                     [--record FILE] [--trace-spans FILE] [--prom FILE] [--watch N] [--cohort]
                     [--snapshot FILE] [--snapshot-every N] [--rebalance] [--engine E]
       hiphopc replay FILE [--shards N] [--from N] [--to N] [--no-verify-digests] [--cohort]
                     [--snapshot FILE] [--engine E]
  check   parse, link and statically check the program
  analyze compile and lint the circuit: constructiveness verdicts per
          cyclic SCC, emission hygiene, dead nets
  stats   print circuit statistics after compilation
  pretty  pretty-print the linked program
  dot     print a Graphviz rendering of the circuit, colored by the
          dataflow facts (constant nets filled, unobservable outlined)
  run     interactive: one line per instant, `sig` or `sig=value` tokens;
          a lone `?` prints the control state without reacting
  trace   render the output waveform for --stimulus \"A;B;;A B\"
  oracle  run --stimulus through the machine AND the reference
          interpreter, reporting any disagreement
  serve   run a sharded multi-session Skini concert on the virtual
          clock: --sessions audience sessions over --shards shards for
          --ticks beats (--shape small|concert|classical, --seed N);
          prints a one-line JSON summary, --metrics adds the per-shard
          table, --chaos-rate injects per-session faults (the fault
          streams derive from --seed)
  replay  re-execute a flight recording (from serve --record) on a
          fresh pool and verify digest checkpoints instant by instant
serve observability flags:
  --record FILE       write the flight-recorder journal (JSONL): every
                      injected input, tick boundary and digest
                      checkpoint, replayable with `hiphopc replay`
  --trace-spans FILE  write tick/sweep/reaction spans as Chrome
                      trace-event JSON (open in Perfetto; one process
                      track per shard)
  --prom FILE         write the pool metrics as a Prometheus text
                      exposition (counters, histograms, per-shard and
                      per-level series)
  --watch N           print a pool-metrics line to stderr every N beats
serve durability flags:
  --snapshot FILE     write the final pool checkpoint (JSONL) to FILE:
                      versioned machine snapshots for every session,
                      restorable onto any shard count
  --snapshot-every N  checkpoint the pool every N beats (the last
                      checkpoint taken is the one written to FILE)
  --rebalance         run the metrics-driven rebalancer after each
                      checkpoint, migrating sessions off hot shards
                      (digest-neutral: placement never affects
                      semantics)
replay flags:
  --shards N            shard count for the replay pool (digests must
                        match on ANY shard count; default 4)
  --from N / --to N     only check checkpoints in this tick window
  --snapshot FILE       restore this checkpoint (from serve --snapshot)
                        first and re-drive only the journal suffix;
                        required for --from N with N > 0
  --verify-digests      compare digest checkpoints (the default)
  --no-verify-digests   just re-execute, skip digest comparison
analyze flags:
  --format pretty|json   human-readable lines (default) or one JSON
                         object per lint
  --deny LINT            exit non-zero if LINT fires (by code `HH001`
                         or name `non-constructive`; repeatable)
  --facts                append a one-line JSON summary of the
                         inter-instant dataflow facts (constant nets,
                         observability, per-signal emit capability)
  --baseline FILE        suppress lints recorded in FILE (JSON lines
                         from a previous `--format json` run); new
                         findings still report and still --deny
engine selection (run, trace, oracle, serve and replay):
  --engine auto          the block walker, levelized (the default)
  --engine levelized     the block walker: dense topological sweeps over
                         acyclic regions, bounded constructive iteration
                         inside the SCCs of a cyclic circuit
  --engine sparse        incremental dirty-set sweep: only nets reachable
                         from changed inputs and flipped registers are
                         re-evaluated (falls back to levelized on cyclic
                         circuits); byte-identical to the walker
  --engine constructive  the paper's FIFO event propagation over the
                         whole circuit, with causality reports
  (`hybrid` and `naive` are accepted as older names of levelized and
  constructive)
  under serve/replay the override applies to every pooled session
  --cohort               (serve, replay) advance the pooled sessions of
                         one program in bit-parallel lockstep cohorts,
                         32 sessions per 64-bit lane word; digest-
                         identical to scalar sweeps
telemetry flags (trace and oracle only):
  --metrics      print a per-reaction percentile table (duration, net
                 events, actions, queue high-water mark) to stderr
  --jsonl FILE   write a structured trace, one JSON object per event line
  --vcd FILE     write the output waveform as a Value Change Dump
                 viewable in GTKWave
fault injection (trace and run; oracle always runs fault-free):
  --chaos-rate P   inject host panics into action nets with probability
                   P per action; each failed reaction is rolled back,
                   reported, and the trace continues
  --chaos-seed N   PCG32 seed for the fault stream (default 0) — the
                   same seed and rate replay the same fault schedule";

fn load(
    source: &str,
    main: Option<&str>,
) -> Result<(hiphop_core::module::Module, hiphop_core::module::ModuleRegistry), CliError> {
    let registry =
        parse_file(source, &HostRegistry::new()).map_err(|e| fail(e.to_string()))?;
    let main_module = match main {
        Some(name) => registry
            .get(name)
            .cloned()
            .ok_or_else(|| fail(format!("no module named `{name}`")))?,
        None => {
            let mut all: Vec<_> = registry.iter().collect();
            if all.len() == 1 {
                all.pop().expect("len checked").clone()
            } else {
                return Err(fail(format!(
                    "file defines {} modules; pick one with --main ({})",
                    all.len(),
                    all.iter().map(|m| m.name.as_str()).collect::<Vec<_>>().join(", ")
                )));
            }
        }
    };
    Ok((main_module, registry))
}

/// `check`: parse + link + static checks. Returns the report text.
///
/// # Errors
///
/// Fails on parse/link/check errors.
pub fn cmd_check(source: &str, main: Option<&str>) -> Result<String, CliError> {
    let (module, registry) = load(source, main)?;
    let linked = link(&module, &registry).map_err(|e| fail(e.to_string()))?;
    let warnings = hiphop_core::check::check(&linked).map_err(|e| fail(e.to_string()))?;
    let mut out = format!("{}: ok ({} interface signals)\n", linked.name, linked.interface.len());
    for w in warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    Ok(out)
}

/// Output of [`cmd_analyze`]: the rendered lints plus whether any
/// `--deny` filter fired (the binary exits non-zero in that case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeReport {
    /// Rendered lint lines (pretty or JSON, one per line).
    pub stdout: String,
    /// True when a lint matching a `--deny` filter fired.
    pub denied: bool,
    /// Lints dropped by the `--baseline` file.
    pub suppressed: usize,
}

/// `analyze`: compile and run the circuit lint framework. Unlike
/// machine construction, this never rejects a non-constructive program —
/// the verdict surfaces as the `HH001` deny-level lint so the whole
/// report is always produced.
///
/// # Errors
///
/// Fails on front-end or compilation errors, or an unknown `--format`.
pub fn cmd_analyze(
    source: &str,
    main: Option<&str>,
    optimize: bool,
    format: &str,
    deny: &[String],
) -> Result<AnalyzeReport, CliError> {
    cmd_analyze_with(source, main, optimize, format, deny, false, None)
}

/// Reads one string-valued field out of a single-line JSON object,
/// undoing the `\\` / `\"` escapes that [`hiphop_compiler::Lint::to_json`]
/// applies. Good enough for baseline files we wrote ourselves; not a
/// general JSON parser.
fn json_string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
    None
}

/// [`cmd_analyze`] with the dataflow extras: `--facts` appends a
/// one-line JSON summary of the inter-instant facts (constants,
/// observability, per-interface-signal emit capability), and
/// `--baseline FILE` suppresses lints already recorded in a previous
/// `--format json` run — matched by `(code, message)` so known findings
/// stay out of the report while anything new still fires `--deny`.
///
/// # Errors
///
/// Additionally fails on an unreadable baseline file.
pub fn cmd_analyze_with(
    source: &str,
    main: Option<&str>,
    optimize: bool,
    format: &str,
    deny: &[String],
    facts: bool,
    baseline: Option<&str>,
) -> Result<AnalyzeReport, CliError> {
    let (module, registry) = load(source, main)?;
    let compiled = compile_module_with(&module, &registry, CompileOptions { optimize, ..CompileOptions::default() })
        .map_err(|e| fail(e.to_string()))?;
    let known: std::collections::HashSet<(String, String)> = match baseline {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| fail(format!("cannot read baseline {path}: {e}")))?
            .lines()
            .filter_map(|l| {
                Some((json_string_field(l, "code")?, json_string_field(l, "message")?))
            })
            .collect(),
        None => Default::default(),
    };
    let all = lint_compiled(&compiled);
    let (suppressed, lints): (Vec<_>, Vec<_>) = all
        .into_iter()
        .partition(|l| known.contains(&(l.code.to_owned(), l.message.clone())));
    let denied: Vec<&hiphop_compiler::Lint> = lints
        .iter()
        .filter(|l| deny.iter().any(|d| l.matches(d)))
        .collect();
    let mut out = String::new();
    match format {
        "json" => {
            for l in &lints {
                let _ = writeln!(out, "{}", l.to_json());
            }
        }
        "pretty" => {
            for l in &lints {
                let _ = writeln!(out, "{}", l.pretty());
            }
            let _ = writeln!(
                out,
                "{}: {} lint(s) ({} denied, {} baseline-suppressed)",
                module.name,
                lints.len(),
                denied.len(),
                suppressed.len()
            );
        }
        other => return Err(fail(format!("unknown --format `{other}`"))),
    }
    if facts {
        let _ = writeln!(out, "{}", facts_json(&compiled.circuit));
    }
    Ok(AnalyzeReport {
        stdout: out,
        denied: !denied.is_empty(),
        suppressed: suppressed.len(),
    })
}

/// One-line JSON summary of the inter-instant dataflow facts.
fn facts_json(circuit: &hiphop_circuit::Circuit) -> String {
    let facts = hiphop_circuit::dataflow::analyze(circuit);
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let signals: Vec<String> = circuit
        .signals()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.direction != hiphop_core::signal::Direction::Local)
        .map(|(i, s)| {
            let cap = facts.emit_capability(circuit, hiphop_circuit::SignalId(i as u32));
            format!(
                "{{\"name\":\"{}\",\"direction\":\"{}\",\"may_emit\":{},\"must_emit\":{}}}",
                esc(&s.name),
                s.direction,
                cap.may,
                cap.must
            )
        })
        .collect();
    format!(
        "{{\"facts\":{{\"nets\":{},\"constant_nets\":{},\"unobservable_nets\":{},\"pinned_registers\":{},\"dep_only_sccs\":{},\"schizophrenic_locals\":{},\"widened\":{},\"signals\":[{}]}}}}",
        circuit.nets().len(),
        facts.constant_nets(circuit),
        facts.unobservable_nets(),
        facts.pinned_registers(),
        facts.dep_only_sccs.len(),
        facts.schizophrenic.len(),
        facts.widened,
        signals.join(",")
    )
}

/// `stats`: compile and report circuit statistics.
///
/// # Errors
///
/// Fails on any front-end or compilation error.
pub fn cmd_stats(source: &str, main: Option<&str>, optimize: bool) -> Result<String, CliError> {
    let (module, registry) = load(source, main)?;
    let compiled = compile_module_with(&module, &registry, CompileOptions { optimize, ..CompileOptions::default() })
        .map_err(|e| fail(e.to_string()))?;
    let stats = compiled.circuit.stats();
    let mut out = String::new();
    let _ = writeln!(out, "module   : {}", module.name);
    let _ = writeln!(out, "stmts    : {}", module.body.statement_count());
    let _ = writeln!(out, "nets     : {}", stats.nets);
    let _ = writeln!(out, "registers: {}", stats.registers);
    let _ = writeln!(out, "signals  : {}", stats.signals);
    let _ = writeln!(out, "edges    : {} (+{} data deps)", stats.fanin_edges, stats.dep_edges);
    let _ = writeln!(out, "memory   : {} bytes ({:.1} B/net)", stats.bytes, stats.bytes_per_net());
    if let Some(rep) = &compiled.optimizer {
        let _ = writeln!(
            out,
            "optimizer: {} -> {} nets, {} -> {} registers (fact-folded {}, pinned {}, pruned {} pre)",
            rep.nets_before,
            rep.nets_after,
            rep.registers_before,
            rep.registers_after,
            rep.fact_constant_nets,
            rep.pinned_registers,
            rep.pruned_pre_registers
        );
    }
    let facts = hiphop_circuit::dataflow::analyze(&compiled.circuit);
    let _ = writeln!(
        out,
        "facts    : {} constant net(s), {} unobservable, {} dep-only scc(s), {} schizophrenic local(s){}",
        facts.constant_nets(&compiled.circuit),
        facts.unobservable_nets(),
        facts.dep_only_sccs.len(),
        facts.schizophrenic.len(),
        if facts.widened { " [widened]" } else { "" }
    );
    match compiled.levels {
        Some(levels) => {
            let _ = writeln!(out, "engine   : levelized ({levels} topological levels)");
        }
        None => {
            let _ = writeln!(
                out,
                "engine   : levelized (combinational cycle: SCC blocks)"
            );
        }
    }
    let analysis = &compiled.analysis;
    if analysis.cyclic_sccs() > 0 {
        let _ = writeln!(
            out,
            "sccs     : {} cyclic (largest {} nets)",
            analysis.cyclic_sccs(),
            analysis.largest_scc()
        );
        let _ = writeln!(
            out,
            "verdicts : {} constructive, {} non-constructive, {} input-dependent",
            analysis.count(hiphop_circuit::Verdict::Constructive),
            analysis.count(hiphop_circuit::Verdict::NonConstructive),
            analysis.count(hiphop_circuit::Verdict::InputDependent)
        );
    }
    if compiled.cycle_warnings > 0 {
        let _ = writeln!(
            out,
            "warning  : {} potential causality cycle(s) (may still be constructive)",
            compiled.cycle_warnings
        );
    }
    for w in &compiled.warnings {
        let _ = writeln!(out, "warning  : {w}");
    }
    Ok(out)
}

/// `pretty`: linked program in concrete syntax.
///
/// # Errors
///
/// Fails on front-end errors.
pub fn cmd_pretty(source: &str, main: Option<&str>) -> Result<String, CliError> {
    let (module, registry) = load(source, main)?;
    let linked = link(&module, &registry).map_err(|e| fail(e.to_string()))?;
    let iface: Vec<String> = linked
        .interface
        .iter()
        .map(|d| format!("{} {}", d.direction, d.name))
        .collect();
    Ok(format!(
        "module {}({}) {{\n{}}}\n",
        linked.name,
        iface.join(", "),
        linked.body
    ))
}

/// `dot`: Graphviz rendering, colored by the dataflow facts —
/// provably-constant nets are gold (true) or gray (false), nets that can
/// never influence anything observable get a gray outline.
///
/// # Errors
///
/// Fails on front-end or compilation errors.
pub fn cmd_dot(source: &str, main: Option<&str>, optimize: bool) -> Result<String, CliError> {
    let (module, registry) = load(source, main)?;
    let compiled = compile_module_with(&module, &registry, CompileOptions { optimize, ..CompileOptions::default() })
        .map_err(|e| fail(e.to_string()))?;
    let facts = hiphop_circuit::dataflow::analyze(&compiled.circuit);
    Ok(compiled.circuit.to_dot_with_facts(&facts))
}

/// `trace`: drives the machine with a stimulus (instants separated by
/// `;`, each a whitespace-separated list of `sig` / `sig=value` tokens;
/// an empty segment is an empty instant) and renders the output-signal
/// waveform.
///
/// # Errors
///
/// Fails on front-end, input or reaction errors.
pub fn cmd_trace(
    source: &str,
    main: Option<&str>,
    optimize: bool,
    stimulus: &str,
) -> Result<String, CliError> {
    Ok(cmd_trace_with(
        source,
        main,
        optimize,
        stimulus,
        None,
        &TelemetryOptions::default(),
        &ChaosOptions::default(),
    )?
    .stdout)
}

/// Output of [`cmd_trace_with`] / [`cmd_oracle_with`]: the main report
/// plus the optional rendered metrics table (printed to stderr by the
/// binary so it composes with piped stdout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Text for stdout.
    pub stdout: String,
    /// Rendered `--metrics` table, when requested.
    pub metrics: Option<String>,
}

/// [`cmd_trace`] with telemetry and fault injection: attaches the
/// requested sinks (JSONL/VCD files are written as a side effect), arms
/// chaos when requested, and drives the stimulus. A failed reaction
/// does not abort the trace: the machine rolls back, the error is
/// reported as a summary line after the waveform, and the remaining
/// instants still run.
///
/// # Errors
///
/// Front-end, input (unknown signal), or output-file errors. Reaction
/// errors are reported in the output instead.
pub fn cmd_trace_with(
    source: &str,
    main: Option<&str>,
    optimize: bool,
    stimulus: &str,
    engine: Option<EngineMode>,
    telemetry: &TelemetryOptions,
    chaos: &ChaosOptions,
) -> Result<TraceReport, CliError> {
    let mut machine = build_machine_with(source, main, optimize, engine)?;
    telemetry.attach(&mut machine)?;
    chaos.arm(&mut machine);
    let outputs: Vec<String> = machine
        .signals()
        .filter(|(_, d, _, _)| d.is_output())
        .map(|(n, _, _, _)| n)
        .collect();
    let refs: Vec<&str> = outputs.iter().map(String::as_str).collect();
    let wf = hiphop_runtime::Waveform::new(&refs).attach(&mut machine);
    let mut errors = Vec::new();
    let run = (|| -> Result<(), CliError> {
        for (t, instant) in stimulus.split(';').enumerate() {
            if instant.trim() == "?" {
                continue; // state inspection token: nothing to trace
            }
            stage_line(&mut machine, instant)?;
            if let Err(e) = machine.react() {
                errors.push(format!("instant {t}: error: {e}"));
            }
        }
        Ok(())
    })();
    // Flush sinks even on a failed stage so the JSONL trace keeps the
    // diagnostics that explain the failure.
    machine.finish_sinks();
    run?;
    let mut rendered = wf.borrow().render();
    for line in &errors {
        rendered.push_str(line);
        rendered.push('\n');
    }
    Ok(TraceReport {
        stdout: rendered,
        metrics: machine.metrics().map(|m| m.render()),
    })
}

/// `oracle`: runs the stimulus through BOTH the circuit machine and the
/// reference AST interpreter and compares their outputs instant by
/// instant — the differential check, exposed for artifact evaluation.
///
/// # Errors
///
/// Front-end errors, reaction errors, or a reported disagreement.
pub fn cmd_oracle(
    source: &str,
    main: Option<&str>,
    optimize: bool,
    stimulus: &str,
) -> Result<String, CliError> {
    Ok(
        cmd_oracle_with(source, main, optimize, stimulus, None, &TelemetryOptions::default())?
            .stdout,
    )
}

/// [`cmd_oracle`] with telemetry sinks attached to the circuit machine
/// (the reference interpreter is not instrumented).
///
/// # Errors
///
/// Front-end errors, reaction errors, output-file errors, or a reported
/// disagreement.
pub fn cmd_oracle_with(
    source: &str,
    main: Option<&str>,
    optimize: bool,
    stimulus: &str,
    engine: Option<EngineMode>,
    telemetry: &TelemetryOptions,
) -> Result<TraceReport, CliError> {
    let (module, registry) = load(source, main)?;
    let compiled = compile_module_with(&module, &registry, CompileOptions { optimize, ..CompileOptions::default() })
        .map_err(|e| fail(e.to_string()))?;
    let mut machine = Machine::new(compiled.circuit).map_err(|e| fail(e.to_string()))?;
    if let Some(mode) = engine {
        machine.set_engine(mode);
    }
    telemetry.attach(&mut machine)?;
    let mut interp =
        hiphop_interp::Interp::new(&module, &registry).map_err(|e| fail(e.to_string()))?;

    let run = oracle_loop(&mut machine, &mut interp, stimulus);
    machine.finish_sinks();
    let out = run?;
    Ok(TraceReport {
        stdout: out,
        metrics: machine.metrics().map(|m| m.render()),
    })
}

fn oracle_loop(
    machine: &mut Machine,
    interp: &mut hiphop_interp::Interp,
    stimulus: &str,
) -> Result<String, CliError> {
    let mut out = String::new();
    for (t, instant) in stimulus.split(';').enumerate() {
        let mut inputs: Vec<(String, Value)> = Vec::new();
        for tok in instant.split_whitespace() {
            let (name, value) = match tok.split_once('=') {
                Some((n, v)) => {
                    let value = v
                        .parse::<f64>()
                        .map(Value::Num)
                        .unwrap_or_else(|_| Value::Str(v.to_owned()));
                    (n.to_owned(), value)
                }
                None => (tok.to_owned(), Value::Bool(true)),
            };
            inputs.push((name, value));
        }
        let refs: Vec<(&str, Value)> = inputs
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        let rm = machine
            .react_with(&refs)
            .map_err(|e| fail(format!("machine at instant {t}: {e}")))?;
        let ri = interp
            .react_with(&refs)
            .map_err(|e| fail(format!("interpreter at instant {t}: {e}")))?;
        let mut ms: Vec<String> = rm
            .outputs
            .iter()
            .map(|o| format!("{}={}:{}", o.name, o.present as u8, o.value))
            .collect();
        ms.sort();
        let mut is: Vec<String> = ri
            .outputs
            .iter()
            .map(|(n, p, v)| format!("{n}={}:{v}", *p as u8))
            .collect();
        is.sort();
        if ms != is {
            return Err(fail(format!(
                "DISAGREEMENT at instant {t}:\n  machine:     {}\n  interpreter: {}",
                ms.join(" "),
                is.join(" ")
            )));
        }
        let _ = writeln!(out, "instant {t}: {}", ms.join(" "));
    }
    let _ = writeln!(out, "machine and reference interpreter agree on all instants");
    Ok(out)
}

/// One step of the `run` REPL: parses an input line (`sig` or
/// `sig=value` tokens, whitespace-separated; empty line = empty instant),
/// reacts, and renders the present outputs.
///
/// # Errors
///
/// Fails on unknown signals or reaction errors (causality etc.).
pub fn run_line(machine: &mut Machine, line: &str) -> Result<String, CliError> {
    if line.trim() == "?" {
        // State inspection instead of a reaction.
        let mut out = String::new();
        let _ = writeln!(out, "control points:");
        let selected = machine.selected();
        if selected.is_empty() {
            let _ = writeln!(out, "  (none — terminated or not booted)");
        }
        for s in selected {
            let _ = writeln!(out, "  - {s}");
        }
        let _ = writeln!(out, "signals:");
        for (name, dir, present, value) in machine.signals() {
            let _ = writeln!(
                out,
                "  {dir:>5} {name} = {value}{}",
                if present { "  (present)" } else { "" }
            );
        }
        return Ok(out.trim_end().to_owned());
    }
    stage_line(machine, line)?;
    let r = machine.react().map_err(|e| fail(e.to_string()))?;
    let mut shown: Vec<String> = r
        .outputs
        .iter()
        .filter(|o| o.present)
        .map(|o| {
            if o.value == Value::Null {
                o.name.to_string() // pure signal
            } else {
                format!("{}={}", o.name, o.value)
            }
        })
        .collect();
    if r.terminated {
        shown.push("<terminated>".to_owned());
    }
    Ok(if shown.is_empty() {
        "(no outputs)".to_owned()
    } else {
        shown.join(" ")
    })
}

/// Stages the inputs of one instant line (`sig` / `sig=value` tokens)
/// without reacting.
///
/// # Errors
///
/// Fails on unknown signals.
pub fn stage_line(machine: &mut Machine, line: &str) -> Result<(), CliError> {
    for tok in line.split_whitespace() {
        let (name, value) = match tok.split_once('=') {
            Some((n, v)) => {
                let value = if let Ok(num) = v.parse::<f64>() {
                    Value::Num(num)
                } else if v == "true" || v == "false" {
                    Value::Bool(v == "true")
                } else {
                    Value::Str(v.to_owned())
                };
                (n, Some(value))
            }
            None => (tok, Some(Value::Bool(true))),
        };
        machine
            .set_input(name, value)
            .map_err(|e| fail(e.to_string()))?;
    }
    Ok(())
}

/// Builds the machine for `run`.
///
/// # Errors
///
/// Fails on front-end or compilation errors.
pub fn build_machine(
    source: &str,
    main: Option<&str>,
    optimize: bool,
) -> Result<Machine, CliError> {
    build_machine_with(source, main, optimize, None)
}

/// [`build_machine`] with an explicit engine override (`None` keeps the
/// automatic choice: levelized when the circuit is acyclic).
///
/// # Errors
///
/// Fails on front-end or compilation errors.
pub fn build_machine_with(
    source: &str,
    main: Option<&str>,
    optimize: bool,
    engine: Option<EngineMode>,
) -> Result<Machine, CliError> {
    let (module, registry) = load(source, main)?;
    let compiled = compile_module_with(&module, &registry, CompileOptions { optimize, ..CompileOptions::default() })
        .map_err(|e| fail(e.to_string()))?;
    let mut machine = Machine::new(compiled.circuit).map_err(|e| fail(e.to_string()))?;
    if let Some(mode) = engine {
        machine.set_engine(mode);
    }
    Ok(machine)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ABRO: &str = r#"
        module ABRO(in A, in B, in R, out O) {
           do {
              fork { await (A.now); } par { await (B.now); }
              emit O();
           } every (R.now)
        }
    "#;

    #[test]
    fn parse_args_variants() {
        let o = parse_args(&[
            "stats".into(),
            "x.hh".into(),
            "--main".into(),
            "M".into(),
            "--no-optimize".into(),
        ])
        .unwrap();
        assert_eq!(o.command, "stats");
        assert_eq!(o.file, "x.hh");
        assert_eq!(o.main.as_deref(), Some("M"));
        assert!(o.no_optimize);
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&["run".into(), "--bogus".into()]).is_err());
        assert!(parse_args(&["check".into()]).is_err());
    }

    #[test]
    fn check_and_stats() {
        let report = cmd_check(ABRO, None).unwrap();
        assert!(report.contains("ABRO: ok"), "{report}");
        let stats = cmd_stats(ABRO, Some("ABRO"), true).unwrap();
        assert!(stats.contains("nets"), "{stats}");
        // Unoptimized circuits are bigger.
        let raw = cmd_stats(ABRO, Some("ABRO"), false).unwrap();
        let get = |s: &str| -> usize {
            s.lines()
                .find(|l| l.starts_with("nets"))
                .and_then(|l| l.split(':').nth(1))
                .and_then(|v| v.trim().parse().ok())
                .unwrap()
        };
        assert!(get(&raw) > get(&stats), "raw {raw} vs opt {stats}");
    }

    #[test]
    fn pretty_reparses() {
        let printed = cmd_pretty(ABRO, None).unwrap();
        assert!(cmd_check(&printed, None).is_ok(), "{printed}");
    }

    #[test]
    fn dot_contains_graph() {
        let dot = cmd_dot(ABRO, None, true).unwrap();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("sig.status"));
    }

    #[test]
    fn run_repl_session() {
        let mut m = build_machine(ABRO, None, true).unwrap();
        assert_eq!(run_line(&mut m, "").unwrap(), "(no outputs)");
        assert_eq!(run_line(&mut m, "A").unwrap(), "(no outputs)");
        assert!(run_line(&mut m, "B").unwrap().contains("O"));
        assert_eq!(run_line(&mut m, "R").unwrap(), "(no outputs)");
        assert!(run_line(&mut m, "A B").unwrap().contains("O"));
        // Unknown signal is reported.
        assert!(run_line(&mut m, "bogus").is_err());
    }

    #[test]
    fn question_mark_inspects_state() {
        let mut m = build_machine(ABRO, None, true).unwrap();
        run_line(&mut m, "").unwrap(); // boot
        run_line(&mut m, "A").unwrap();
        let state = run_line(&mut m, "?").unwrap();
        assert!(state.contains("control points:"), "{state}");
        // One await satisfied (A), the other still pending: at least one
        // pause/halt register is set.
        assert!(state.contains("halt.reg") || state.contains("pause.reg"), "{state}");
        assert!(state.contains("in A"), "{state}");
        assert!(state.contains("out O"), "{state}");
    }

    #[test]
    fn oracle_agrees_on_abro() {
        let out = cmd_oracle(ABRO, None, true, ";A;B;R;A B").unwrap();
        assert!(out.contains("agree on all instants"), "{out}");
        assert!(out.contains("instant 2: O=1"), "{out}");
    }

    #[test]
    fn trace_renders_waveform() {
        let out = cmd_trace(ABRO, None, true, ";A;B;R;A B").unwrap();
        assert!(out.contains("instant 01234"), "{out}");
        assert!(out.contains("O"), "{out}");
        assert!(out.contains("▁▁█▁█"), "O at instants 2 and 4: {out}");
    }

    #[test]
    fn run_with_values() {
        let src = r#"
            module V(in x = 0, out y = 0) {
               do { emit y(x.nowval * 2); } every (x.now)
            }
        "#;
        let mut m = build_machine(src, None, true).unwrap();
        run_line(&mut m, "").unwrap();
        let out = run_line(&mut m, "x=21").unwrap();
        assert!(out.contains("y=42"), "{out}");
        let out = run_line(&mut m, "x=hello").unwrap();
        assert!(out.contains("y=NaN"), "{out}");
    }

    #[test]
    fn parse_args_telemetry_flags() {
        let o = parse_args(&[
            "trace".into(),
            "x.hh".into(),
            "--metrics".into(),
            "--jsonl".into(),
            "t.jsonl".into(),
            "--vcd".into(),
            "t.vcd".into(),
        ])
        .unwrap();
        assert!(o.telemetry.metrics);
        assert_eq!(o.telemetry.jsonl.as_deref(), Some("t.jsonl"));
        assert_eq!(o.telemetry.vcd.as_deref(), Some("t.vcd"));
        assert!(parse_args(&["trace".into(), "x.hh".into(), "--vcd".into()]).is_err());
    }

    #[test]
    fn parse_args_engine_flag() {
        let parse = |mode: &str| {
            parse_args(&["trace".into(), "x.hh".into(), "--engine".into(), mode.into()])
        };
        assert_eq!(parse("auto").unwrap().engine, None);
        assert_eq!(parse("levelized").unwrap().engine, Some(EngineMode::Levelized));
        assert_eq!(parse("constructive").unwrap().engine, Some(EngineMode::Constructive));
        // Older names of the walker and the constructive reference.
        assert_eq!(parse("hybrid").unwrap().engine, Some(EngineMode::Levelized));
        assert_eq!(
            parse("naive").unwrap().engine,
            Some(EngineMode::Constructive)
        );
        assert_eq!(parse("sparse").unwrap().engine, Some(EngineMode::Sparse));
        assert!(parse("turbo").is_err());
        assert!(parse_args(&["trace".into(), "x.hh".into(), "--engine".into()]).is_err());
        // The one global flag also lands on the pooled subcommands.
        let o = parse_args(&["serve".into(), "--engine".into(), "sparse".into()]).unwrap();
        assert_eq!(o.serve.engine, Some(EngineMode::Sparse));
        assert_eq!(o.replay.engine, Some(EngineMode::Sparse));
        let o = parse_args(&[
            "replay".into(),
            "r.jsonl".into(),
            "--engine".into(),
            "levelized".into(),
        ])
        .unwrap();
        assert_eq!(o.replay.engine, Some(EngineMode::Levelized));
        assert_eq!(
            parse_args(&["serve".into()]).unwrap().serve.engine,
            None,
            "no flag, no override"
        );
    }

    #[test]
    fn engine_override_reaches_the_machine() {
        let auto = build_machine_with(ABRO, None, true, None).unwrap();
        assert_eq!(auto.engine(), EngineMode::Levelized, "ABRO is acyclic");
        let forced =
            build_machine_with(ABRO, None, true, Some(EngineMode::Constructive)).unwrap();
        assert_eq!(forced.engine(), EngineMode::Constructive);
        let cyclic = include_str!("../../../examples/hh/cyclic_arbiter.hh");
        let walker = build_machine_with(cyclic, None, true, Some(EngineMode::Sparse)).unwrap();
        assert_eq!(
            walker.engine(),
            EngineMode::Levelized,
            "sparse falls back on a cycle"
        );
        let sparse = build_machine_with(ABRO, None, true, Some(EngineMode::Sparse)).unwrap();
        assert_eq!(sparse.engine(), EngineMode::Sparse, "ABRO is acyclic");
    }

    #[test]
    fn trace_and_oracle_agree_across_engines() {
        let reference = cmd_trace(ABRO, None, true, ";A;B;R;A B").unwrap();
        for mode in [
            EngineMode::Levelized,
            EngineMode::Constructive,
            EngineMode::Sparse,
        ] {
            let out = cmd_trace_with(
                ABRO,
                None,
                true,
                ";A;B;R;A B",
                Some(mode),
                &TelemetryOptions::default(),
                &ChaosOptions::default(),
            )
            .unwrap();
            assert_eq!(out.stdout, reference, "waveform differs under {mode}");
            let oracle = cmd_oracle_with(
                ABRO,
                None,
                true,
                ";A;B;R;A B",
                Some(mode),
                &TelemetryOptions::default(),
            )
            .unwrap();
            assert!(
                oracle.stdout.contains("agree on all instants"),
                "{mode}: {}",
                oracle.stdout
            );
        }
    }

    #[test]
    fn stats_reports_levelization() {
        let stats = cmd_stats(ABRO, Some("ABRO"), true).unwrap();
        assert!(stats.contains("engine   : levelized ("), "{stats}");
        assert!(!stats.contains("sccs"), "acyclic: no SCC lines: {stats}");
        let cyclic = r#"
            module Cyc(out X) {
               if (!X.now) { emit X(); }
            }
        "#;
        let stats = cmd_stats(cyclic, None, true).unwrap();
        assert!(
            stats.contains("engine   : levelized (combinational cycle"),
            "{stats}"
        );
        assert!(stats.contains("sccs     : 1 cyclic (largest "), "{stats}");
        assert!(stats.contains("1 non-constructive"), "{stats}");
    }

    #[test]
    fn analyze_reports_and_denies_non_constructive_programs() {
        let cyclic = r#"
            module Cyc(out X) {
               if (!X.now) { emit X(); }
            }
        "#;
        // `analyze` still compiles the program (no machine is built), so
        // the HH001 deny lint is reported rather than erroring out.
        let report = cmd_analyze(cyclic, None, true, "pretty", &[]).unwrap();
        assert!(report.stdout.contains("deny[HH001] non-constructive"), "{}", report.stdout);
        assert!(!report.denied, "nothing denied without --deny");
        // Denying by name or by code trips the gate.
        for filter in ["non-constructive", "HH001", "hh001"] {
            let report =
                cmd_analyze(cyclic, None, true, "pretty", &[filter.to_owned()]).unwrap();
            assert!(report.denied, "--deny {filter} must fire");
            assert!(report.stdout.contains("(1 denied"), "{}", report.stdout);
        }
        // A clean program denies nothing.
        let clean = cmd_analyze(ABRO, None, true, "pretty", &["HH001".to_owned()]).unwrap();
        assert!(!clean.denied);
        assert!(clean.stdout.contains("ABRO: "), "{}", clean.stdout);
    }

    #[test]
    fn analyze_json_format_emits_one_object_per_lint() {
        let cyclic = r#"
            module Cyc(out X) {
               if (!X.now) { emit X(); }
            }
        "#;
        let report = cmd_analyze(cyclic, None, true, "json", &[]).unwrap();
        let first = report.stdout.lines().next().expect("at least one lint");
        assert!(first.starts_with("{\"code\":\"HH001\""), "{first}");
        assert!(first.contains("\"severity\":\"deny\""), "{first}");
        for line in report.stdout.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn parse_args_analyze_flags() {
        let o = parse_args(&[
            "analyze".into(),
            "x.hh".into(),
            "--format".into(),
            "json".into(),
            "--deny".into(),
            "HH001".into(),
            "--deny".into(),
            "dead-net".into(),
        ])
        .unwrap();
        assert_eq!(o.format, "json");
        assert_eq!(o.deny, vec!["HH001".to_owned(), "dead-net".to_owned()]);
        assert!(parse_args(&["analyze".into(), "x.hh".into(), "--format".into()]).is_err());
        assert!(parse_args(&[
            "analyze".into(),
            "x.hh".into(),
            "--format".into(),
            "yaml".into()
        ])
        .is_err());
        assert!(parse_args(&["analyze".into(), "x.hh".into(), "--deny".into()]).is_err());
        // Defaults.
        let o = parse_args(&["analyze".into(), "x.hh".into()]).unwrap();
        assert_eq!(o.format, "pretty");
        assert!(o.deny.is_empty());
        assert!(!o.facts);
        assert_eq!(o.baseline, None);
        // Dataflow flags.
        let o = parse_args(&[
            "analyze".into(),
            "x.hh".into(),
            "--facts".into(),
            "--baseline".into(),
            "base.json".into(),
        ])
        .unwrap();
        assert!(o.facts);
        assert_eq!(o.baseline.as_deref(), Some("base.json"));
        assert!(parse_args(&["analyze".into(), "x.hh".into(), "--baseline".into()]).is_err());
    }

    #[test]
    fn analyze_facts_line_is_json() {
        let report = cmd_analyze_with(ABRO, None, true, "json", &[], true, None).unwrap();
        let last = report.stdout.lines().last().expect("facts line");
        assert!(last.starts_with("{\"facts\":{\"nets\":"), "{last}");
        // Interface signals carry emit-capability verdicts; O may be
        // emitted but is not emitted in every instant.
        assert!(
            last.contains("{\"name\":\"O\",\"direction\":\"out\",\"may_emit\":true,\"must_emit\":false}"),
            "{last}"
        );
        assert!(!last.contains("\"direction\":\"local\""), "{last}");
    }

    #[test]
    fn analyze_baseline_suppresses_known_lints() {
        let cyclic = r#"
            module Cyc(out X) {
               if (!X.now) { emit X(); }
            }
        "#;
        // First run records the findings; the rerun with that baseline
        // reports nothing and no longer trips --deny.
        let first = cmd_analyze(cyclic, None, true, "json", &[]).unwrap();
        assert!(!first.denied && !first.stdout.is_empty());
        let path = std::env::temp_dir().join("hiphopc_test_baseline.json");
        std::fs::write(&path, &first.stdout).unwrap();
        let deny = vec!["HH001".to_owned()];
        let base = path.to_string_lossy().into_owned();
        let rerun =
            cmd_analyze_with(cyclic, None, true, "json", &deny, false, Some(&base)).unwrap();
        assert!(!rerun.denied, "baselined HH001 must not deny");
        assert_eq!(rerun.stdout, "", "all findings baselined: {}", rerun.stdout);
        assert!(rerun.suppressed >= 1);
        // A different program is not masked by the foreign baseline.
        let other = cmd_analyze_with(ABRO, None, true, "pretty", &[], false, Some(&base)).unwrap();
        assert!(other.stdout.contains("0 baseline-suppressed"), "{}", other.stdout);
        let _ = std::fs::remove_file(path);
        // A missing baseline file is an error, not silence.
        assert!(cmd_analyze_with(ABRO, None, true, "pretty", &[], false, Some("/nonexistent/b.json")).is_err());
    }

    #[test]
    fn stats_reports_optimizer_and_facts() {
        let stats = cmd_stats(ABRO, Some("ABRO"), true).unwrap();
        assert!(stats.contains("optimizer: "), "{stats}");
        assert!(stats.contains(" -> "), "{stats}");
        assert!(stats.contains("facts    : "), "{stats}");
        // The optimizer line is absent when the optimizer is off, the
        // facts line is not (facts are computed either way).
        let raw = cmd_stats(ABRO, Some("ABRO"), false).unwrap();
        assert!(!raw.contains("optimizer: "), "{raw}");
        assert!(raw.contains("facts    : "), "{raw}");
    }

    #[test]
    fn trace_with_metrics_and_files() {
        let dir = std::env::temp_dir();
        let vcd_path = dir.join("hiphopc_test_trace.vcd");
        let jsonl_path = dir.join("hiphopc_test_trace.jsonl");
        let telemetry = TelemetryOptions {
            metrics: true,
            jsonl: Some(jsonl_path.to_string_lossy().into_owned()),
            vcd: Some(vcd_path.to_string_lossy().into_owned()),
        };
        let report = cmd_trace_with(
            ABRO,
            None,
            true,
            ";A;B;R;A B",
            None,
            &telemetry,
            &ChaosOptions::default(),
        )
        .unwrap();
        assert!(report.stdout.contains("▁▁█▁█"), "{}", report.stdout);
        let table = report.metrics.expect("--metrics requested");
        assert!(table.contains("p95"), "{table}");
        assert!(table.contains("5 reaction(s)"), "{table}");
        let vcd = std::fs::read_to_string(&vcd_path).unwrap();
        assert!(vcd.contains("$enddefinitions $end"), "{vcd}");
        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        assert!(jsonl.contains("\"type\":\"reaction_end\""), "{jsonl}");
        let _ = std::fs::remove_file(vcd_path);
        let _ = std::fs::remove_file(jsonl_path);
    }

    #[test]
    fn oracle_with_metrics() {
        let report =
            cmd_oracle_with(ABRO, None, true, ";A;B", None, &TelemetryOptions {
                metrics: true,
                ..TelemetryOptions::default()
            })
            .unwrap();
        assert!(report.stdout.contains("agree on all instants"), "{}", report.stdout);
        assert!(report.metrics.expect("requested").contains("3 reaction(s)"));
    }

    #[test]
    fn parse_args_chaos_flags() {
        let o = parse_args(&[
            "trace".into(),
            "x.hh".into(),
            "--chaos-seed".into(),
            "42".into(),
            "--chaos-rate".into(),
            "0.25".into(),
        ])
        .unwrap();
        assert_eq!(o.chaos.seed, 42);
        assert_eq!(o.chaos.rate, 0.25);
        assert!(parse_args(&["trace".into(), "x.hh".into(), "--chaos-rate".into()]).is_err());
        assert!(parse_args(&[
            "trace".into(),
            "x.hh".into(),
            "--chaos-rate".into(),
            "1.5".into()
        ])
        .is_err());
        assert!(parse_args(&[
            "trace".into(),
            "x.hh".into(),
            "--chaos-seed".into(),
            "nope".into()
        ])
        .is_err());
    }

    #[test]
    fn chaotic_trace_reports_faults_and_keeps_going() {
        // A 100% fault rate: every instant's emit action panics, every
        // reaction rolls back — the trace must still cover the whole
        // stimulus and list one structured error per instant.
        let report = cmd_trace_with(
            ABRO,
            None,
            true,
            ";A;B;R;A B",
            None,
            &TelemetryOptions { metrics: true, ..TelemetryOptions::default() },
            &ChaosOptions { seed: 1, rate: 1.0 },
        )
        .unwrap();
        assert!(
            report.stdout.contains("error: host code panicked"),
            "{}",
            report.stdout
        );
        assert!(
            report.stdout.contains("rolled back"),
            "{}",
            report.stdout
        );
        let table = report.metrics.expect("metrics requested");
        assert!(table.contains("host panics:"), "{table}");
        // A fault-free rerun of the same stimulus is unaffected.
        let clean = cmd_trace(ABRO, None, true, ";A;B;R;A B").unwrap();
        assert!(clean.contains("▁▁█▁█"), "{clean}");
    }

    #[test]
    fn chaotic_trace_is_reproducible() {
        let run = || {
            cmd_trace_with(
                ABRO,
                None,
                true,
                ";A;B;R;A B;A;B;R;A B",
                None,
                &TelemetryOptions::default(),
                &ChaosOptions { seed: 7, rate: 0.4 },
            )
            .unwrap()
            .stdout
        };
        assert_eq!(run(), run(), "same seed, same fault schedule");
    }

    #[test]
    fn parse_args_serve_flags() {
        let o = parse_args(&[
            "serve".into(),
            "--sessions".into(),
            "64".into(),
            "--shards".into(),
            "4".into(),
            "--ticks".into(),
            "10".into(),
            "--seed".into(),
            "9".into(),
            "--shape".into(),
            "concert".into(),
            "--metrics".into(),
        ])
        .unwrap();
        assert_eq!(o.command, "serve");
        assert_eq!(o.file, "", "serve needs no source file");
        assert_eq!(o.serve.sessions, 64);
        assert_eq!(o.serve.shards, 4);
        assert_eq!(o.serve.ticks, 10);
        assert_eq!(o.serve.seed, 9);
        assert_eq!(o.serve.shape, "concert");
        assert!(o.telemetry.metrics);
        // Defaults.
        let o = parse_args(&["serve".into()]).unwrap();
        assert_eq!(o.serve, ServeOptions::default());
        assert!(parse_args(&["serve".into(), "--shards".into(), "0".into()]).is_err());
        assert!(parse_args(&["serve".into(), "--shape".into(), "opera".into()]).is_err());
        assert!(parse_args(&["serve".into(), "--sessions".into()]).is_err());
    }

    #[test]
    fn serve_runs_a_deterministic_pool() {
        let opts = ServeOptions {
            sessions: 12,
            shards: 3,
            ticks: 8,
            seed: 4,
            ..ServeOptions::default()
        };
        let report = cmd_serve(&opts, &ChaosOptions::default(), true).unwrap();
        assert!(report.json.starts_with("{\"sessions\":12,"), "{}", report.json);
        // Boot + one reaction per session per tick.
        assert!(report.json.contains("\"reactions\":108"), "{}", report.json);
        assert!(report.json.contains("\"faults\":0"), "{}", report.json);
        let table = report.metrics.expect("--metrics requested");
        assert!(
            table.contains("12 live session(s), 0 quarantined, over 3 shard(s)"),
            "{table}"
        );
        // Same seed replays the same run (timing fields aside); the
        // digest is shard-agnostic.
        let digest_of = |json: &str| {
            json.split("\"digest\":\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .map(str::to_owned)
        };
        let rerun = cmd_serve(&opts, &ChaosOptions::default(), false).unwrap();
        assert_eq!(digest_of(&rerun.json), digest_of(&report.json));
        let one_shard = cmd_serve(
            &ServeOptions { shards: 1, ..opts.clone() },
            &ChaosOptions::default(),
            false,
        )
        .unwrap();
        assert_eq!(digest_of(&one_shard.json), digest_of(&report.json));
    }

    #[test]
    fn sparse_serve_is_digest_identical_and_replayable() {
        let digest_of = |json: &str| {
            json.split("\"digest\":\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .map(str::to_owned)
        };
        let opts = ServeOptions {
            sessions: 10,
            shards: 3,
            ticks: 8,
            seed: 6,
            ..ServeOptions::default()
        };
        let reference = cmd_serve(&opts, &ChaosOptions::default(), false).unwrap();
        // An all-sparse pool reproduces the default digest on any shard
        // count…
        let rec_path = std::env::temp_dir().join("hiphopc_test_sparse_flight.jsonl");
        for shards in [3usize, 1] {
            let sparse = cmd_serve(
                &ServeOptions {
                    shards,
                    engine: Some(EngineMode::Sparse),
                    record: (shards == 3)
                        .then(|| rec_path.to_string_lossy().into_owned()),
                    ..opts.clone()
                },
                &ChaosOptions::default(),
                false,
            )
            .unwrap();
            assert_eq!(
                digest_of(&sparse.json),
                digest_of(&reference.json),
                "sparse serve diverged at {shards} shard(s)"
            );
        }
        // …and its recording verifies both back on a sparse pool and on
        // a default-engine pool: the journal is engine-agnostic.
        let file = rec_path.to_string_lossy().into_owned();
        for engine in [Some(EngineMode::Sparse), None] {
            let flags = ReplayFlags { engine, ..ReplayFlags::default() };
            let replayed = cmd_replay(&file, 2, &flags).unwrap();
            assert!(replayed.ok, "[{engine:?}] {}", replayed.json);
        }
        let _ = std::fs::remove_file(&rec_path);
    }

    #[test]
    fn serve_with_chaos_counts_faults() {
        let opts = ServeOptions {
            sessions: 8,
            shards: 2,
            ticks: 16,
            seed: 3,
            ..ServeOptions::default()
        };
        let report =
            cmd_serve(&opts, &ChaosOptions { seed: 0, rate: 0.1 }, false).unwrap();
        assert!(!report.json.contains("\"faults\":0"), "{}", report.json);
    }

    #[test]
    fn parse_args_observability_flags() {
        let o = parse_args(&[
            "serve".into(),
            "--record".into(),
            "f.jsonl".into(),
            "--trace-spans".into(),
            "t.json".into(),
            "--prom".into(),
            "m.prom".into(),
            "--watch".into(),
            "8".into(),
        ])
        .unwrap();
        assert_eq!(o.serve.record.as_deref(), Some("f.jsonl"));
        assert_eq!(o.serve.trace_spans.as_deref(), Some("t.json"));
        assert_eq!(o.serve.prom.as_deref(), Some("m.prom"));
        assert_eq!(o.serve.watch, 8);
        assert!(parse_args(&["serve".into(), "--record".into()]).is_err());

        let o = parse_args(&[
            "replay".into(),
            "f.jsonl".into(),
            "--shards".into(),
            "3".into(),
            "--from".into(),
            "2".into(),
            "--to".into(),
            "9".into(),
            "--no-verify-digests".into(),
        ])
        .unwrap();
        assert_eq!(o.command, "replay");
        assert_eq!(o.file, "f.jsonl");
        assert_eq!(o.serve.shards, 3);
        assert_eq!(
            o.replay,
            ReplayFlags {
                verify_digests: false,
                from: 2,
                to: 9,
                ..ReplayFlags::default()
            }
        );
        // Defaults: verification is on over the whole recording.
        let o = parse_args(&["replay".into(), "f.jsonl".into()]).unwrap();
        assert_eq!(o.replay, ReplayFlags::default());
        assert!(parse_args(&["replay".into()]).is_err(), "recording file required");
    }

    #[test]
    fn cohort_serve_matches_scalar_and_replays_across_modes() {
        let o = parse_args(&["serve".into(), "--cohort".into()]).unwrap();
        assert!(o.serve.cohort && o.replay.cohort);
        assert!(!parse_args(&["serve".into()]).unwrap().serve.cohort);
        // A bare flag: the old lane-width argument is no longer accepted.
        assert!(parse_args(&["serve".into(), "--cohort".into(), "u64".into()]).is_err());

        // A cohort serve is digest-identical to the scalar run…
        let rec_path = std::env::temp_dir().join("hiphopc_test_cohort_flight.jsonl");
        let opts = ServeOptions {
            sessions: 12,
            shards: 3,
            ticks: 8,
            seed: 4,
            ..ServeOptions::default()
        };
        let scalar = cmd_serve(&opts, &ChaosOptions::default(), false).unwrap();
        let cohort = cmd_serve(
            &ServeOptions {
                cohort: true,
                record: Some(rec_path.to_string_lossy().into_owned()),
                ..opts
            },
            &ChaosOptions::default(),
            false,
        )
        .unwrap();
        let digest_of = |json: &str| {
            json.split("\"digest\":\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .map(str::to_owned)
        };
        assert_eq!(digest_of(&cohort.json), digest_of(&scalar.json));
        // …and its recording verifies on a scalar pool and back on a
        // cohort pool: the journal is execution-mode-agnostic.
        let file = rec_path.to_string_lossy();
        for cohort in [false, true] {
            let flags = ReplayFlags { cohort, ..ReplayFlags::default() };
            let replayed = cmd_replay(&file, 2, &flags).unwrap();
            assert!(replayed.ok, "[{cohort:?}] {}", replayed.json);
        }
        let _ = std::fs::remove_file(&rec_path);
    }

    #[test]
    fn serve_record_then_replay_round_trips() {
        let dir = std::env::temp_dir();
        let rec_path = dir.join("hiphopc_test_flight.jsonl");
        let trace_path = dir.join("hiphopc_test_spans.json");
        let prom_path = dir.join("hiphopc_test_metrics.prom");
        let opts = ServeOptions {
            sessions: 10,
            shards: 4,
            ticks: 12,
            seed: 21,
            record: Some(rec_path.to_string_lossy().into_owned()),
            trace_spans: Some(trace_path.to_string_lossy().into_owned()),
            prom: Some(prom_path.to_string_lossy().into_owned()),
            ..ServeOptions::default()
        };
        // Chaos on: the replay must reproduce the fault schedule too.
        let report = cmd_serve(&opts, &ChaosOptions { seed: 0, rate: 0.05 }, false).unwrap();
        assert!(report.json.contains("\"digest\":"), "{}", report.json);

        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("hiphop_pool_reactions_total"), "{prom}");

        // Replay on a different shard count: digest-identical.
        let rec_file = rec_path.to_string_lossy().into_owned();
        let replayed = cmd_replay(&rec_file, 2, &ReplayFlags::default()).unwrap();
        assert!(replayed.ok, "{}", replayed.json);
        assert!(replayed.json.contains("\"mismatches\":0"), "{}", replayed.json);

        // A mid-journal window needs a snapshot anchor: without one the
        // pool cannot reconstruct tick-8 state and must say so rather
        // than silently re-executing from tick 0.
        let err = cmd_replay(
            &rec_file,
            1,
            &ReplayFlags { from: 8, to: 12, ..ReplayFlags::default() },
        )
        .unwrap_err();
        assert!(err.to_string().contains("snapshot anchor"), "{err}");

        let _ = std::fs::remove_file(rec_path);
        let _ = std::fs::remove_file(trace_path);
        let _ = std::fs::remove_file(prom_path);
    }

    #[test]
    fn parse_args_durability_flags() {
        let o = parse_args(&[
            "serve".into(),
            "--snapshot".into(),
            "pool.jsonl".into(),
            "--snapshot-every".into(),
            "4".into(),
            "--rebalance".into(),
        ])
        .unwrap();
        assert_eq!(o.serve.snapshot.as_deref(), Some("pool.jsonl"));
        assert_eq!(o.serve.snapshot_every, 4);
        assert!(o.serve.rebalance);
        // `--snapshot` doubles as the replay-side restore anchor.
        assert_eq!(o.replay.snapshot.as_deref(), Some("pool.jsonl"));
        // Defaults: no checkpointing, no rebalancing.
        let o = parse_args(&["serve".into()]).unwrap();
        assert_eq!(o.serve.snapshot, None);
        assert_eq!(o.serve.snapshot_every, 0);
        assert!(!o.serve.rebalance);
        assert!(parse_args(&["serve".into(), "--snapshot".into()]).is_err());
        assert!(parse_args(&["serve".into(), "--snapshot-every".into()]).is_err());
        assert!(
            parse_args(&["serve".into(), "--snapshot-every".into(), "x".into()]).is_err()
        );
    }

    #[test]
    fn serve_snapshot_then_anchored_replay_round_trips() {
        let dir = std::env::temp_dir();
        let rec_path = dir.join("hiphopc_test_durability_flight.jsonl");
        let snap_path = dir.join("hiphopc_test_durability_pool.jsonl");
        let opts = ServeOptions {
            sessions: 10,
            shards: 4,
            ticks: 12,
            seed: 7,
            record: Some(rec_path.to_string_lossy().into_owned()),
            snapshot: Some(snap_path.to_string_lossy().into_owned()),
            snapshot_every: 8,
            rebalance: true,
            ..ServeOptions::default()
        };
        // Chaos on: the restored chaos RNG must resume the same fault
        // schedule for the suffix digests to match.
        let report = cmd_serve(&opts, &ChaosOptions { seed: 0, rate: 0.05 }, false).unwrap();
        assert!(report.json.contains("\"migrations\":"), "{}", report.json);

        let snap_text = std::fs::read_to_string(&snap_path).unwrap();
        assert!(snap_text.contains("\"kind\":\"pool-snapshot\""), "{snap_text}");
        let snap = hiphop_runtime::PoolSnapshot::from_jsonl(&snap_text).unwrap();
        assert_eq!(snap.ticks, 8, "last checkpoint is at beat 8 of 12");

        // Restore the beat-8 checkpoint on a different shard count and
        // re-drive only the journal suffix (ticks 8..12).
        let rec_file = rec_path.to_string_lossy().into_owned();
        let flags = ReplayFlags {
            from: 8,
            snapshot: Some(snap_path.to_string_lossy().into_owned()),
            ..ReplayFlags::default()
        };
        let replayed = cmd_replay(&rec_file, 2, &flags).unwrap();
        assert!(replayed.ok, "{}", replayed.json);
        assert!(replayed.json.contains("\"ticks\":4"), "{}", replayed.json);

        // A malformed snapshot file is a clear error, not a crash.
        std::fs::write(&snap_path, "not a snapshot\n").unwrap();
        let err = cmd_replay(&rec_file, 2, &flags).unwrap_err();
        assert!(err.to_string().contains("pool.jsonl"), "{err}");

        let _ = std::fs::remove_file(rec_path);
        let _ = std::fs::remove_file(snap_path);
    }

    #[test]
    fn replay_rejects_garbage_files() {
        let dir = std::env::temp_dir();
        let path = dir.join("hiphopc_test_not_a_recording.jsonl");
        std::fs::write(&path, "{\"type\":\"nonsense\"}\n").unwrap();
        let err = cmd_replay(&path.to_string_lossy(), 2, &ReplayFlags::default()).unwrap_err();
        assert!(err.to_string().contains("unknown record type"), "{err}");
        let _ = std::fs::remove_file(&path);
        let err = cmd_replay("/nonexistent/x.jsonl", 2, &ReplayFlags::default()).unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
    }

    #[test]
    fn ambiguous_main_is_reported() {
        let two = format!("{ABRO}\nmodule Other(in z) {{ halt; }}");
        let err = cmd_check(&two, None).unwrap_err();
        assert!(err.to_string().contains("--main"), "{err}");
        assert!(cmd_check(&two, Some("Other")).is_ok());
    }
}
