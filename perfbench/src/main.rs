//! The repository benchmark: one workload per process, selected by
//! `--workload`, with its inputs made from `--seed`.
//!
//! ```text
//! hiphop-perfbench --workload concert|dense|durable --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable `metric NAME VALUE UNIT` lines come first; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). The process exits non-zero when an
//! operation failed or an output check disagreed. See `README.md`.

mod alloc;
mod dense;
mod oracle;
mod pool;
mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The end-to-end metrics, `(name, unit)`, reported by every workload.
pub(crate) const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("instant_p50_quiet_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, `(name, unit)`, reported by every traced run;
/// a metric a workload does not exercise reads 0.
pub(crate) const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_us", "us"),
    ("lang.self_ms", "ms"),
    ("compiler.compile_us", "us"),
    ("compiler.nets", "count"),
    ("compiler.registers", "count"),
    ("compiler.levels", "count"),
    ("compiler.self_ms", "ms"),
    ("runtime.machine_new_us", "us"),
    ("runtime.react_p50_us", "us"),
    ("runtime.evals_per_reaction", "count"),
    ("runtime.allocs_per_reaction", "count"),
    ("runtime.busy_us_per_tick", "us"),
    ("runtime.pool_reaction_p50_us", "us"),
    ("runtime.self_ms", "ms"),
    ("sessions.open_us", "us"),
    ("sessions.inject_us_per_tick", "us"),
    ("sessions.tick_us", "us"),
    ("sessions.shard_overhead_us_per_tick", "us"),
    ("sessions.pool_overhead_us_per_tick", "us"),
    ("sessions.allocs_per_reaction", "count"),
    ("sessions.inputs_per_tick", "count"),
    ("sessions.outputs_per_tick", "count"),
    ("sessions.self_ms", "ms"),
    ("flight.checkpoint_tick_us", "us"),
    ("flight.journal_bytes_per_tick", "bytes"),
    ("flight.decode_us", "us"),
    ("flight.replay_us_per_tick", "us"),
    ("flight.recovery_ms", "ms"),
    ("flight.self_ms", "ms"),
    ("snapshot.capture_us", "us"),
    ("snapshot.encode_us", "us"),
    ("snapshot.bytes_per_session", "bytes"),
    ("snapshot.decode_us", "us"),
    ("snapshot.restore_us", "us"),
    ("snapshot.self_ms", "ms"),
    ("bench.client_us_per_tick", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.span_coverage", "ratio"),
];

/// Figures printed as `metric` lines only, `(name, unit)`: end-to-end
/// metrics that are too noisy on a shared host to gate or exist on
/// `durable` only (see `README.md`), and the timed instant count.
const HUMAN: &[(&str, &str)] = &[
    ("reactions_per_s", "1/s"),
    ("instant_p50_us", "us"),
    ("instant_p95_us", "us"),
    ("instant_p99_us", "us"),
    ("recovery_ms", "ms"),
    ("instants", "count"),
];

/// Set-ups per run; `setup_s` is their median.
pub(crate) const SETUPS: usize = 9;

/// Timed instants at the start of the timed phase over which the exact
/// counts (allocations, inputs, bytes) are taken, so that they repeat
/// for a seed whatever the run length. Never traced.
pub(crate) const COUNT_INSTANTS: u64 = 200;

/// `peak_rss_mb` is read after this many timed instants (or at the end
/// of a shorter timed phase), so that memory that grows with the
/// instants served compares at equal work.
pub(crate) const RSS_INSTANTS: u64 = 1000;

/// `instant_p50_quiet_us` is the lowest median over stretches of this
/// many consecutive timed instants, which start every `QUIET_STEP`
/// instants; a shorter timed phase is one stretch.
const QUIET_INSTANTS: usize = 2000;

/// Distance between the starts of two stretches of `QUIET_INSTANTS`.
const QUIET_STEP: usize = 500;

/// The median wall time of one instant over the stretch of
/// `QUIET_INSTANTS` consecutive instants where it is lowest. A shared
/// host alternates, over seconds, between a quiet speed and one up to
/// 1.7 times slower, so the whole-run median jumps between the two
/// with the share of the run each took; the quietest stretch does not.
fn quiet_p50(instant_us: &[f64]) -> f64 {
    if instant_us.len() <= QUIET_INSTANTS {
        return trace::median(instant_us);
    }
    (0..=instant_us.len() - QUIET_INSTANTS)
        .step_by(QUIET_STEP)
        .map(|start| trace::median(&instant_us[start..start + QUIET_INSTANTS]))
        .fold(f64::INFINITY, f64::min)
}

/// In a traced run, instants alternate in blocks of this many between
/// traced and untraced after the count pass, which gives
/// `bench.trace_overhead_pct`.
pub(crate) const TRACE_BLOCK: u64 = 64;

/// Whether a traced run records spans for timed instant `i`.
pub(crate) fn traced_instant(trace: bool, i: u64) -> bool {
    trace && i >= COUNT_INSTANTS && (i / TRACE_BLOCK) % 2 == 1
}

/// `bench.trace_overhead_pct` of a traced run: the median traced
/// instant against the median untraced one, both after the count pass.
pub(crate) fn trace_overhead_pct(instant_us: &[f64]) -> f64 {
    let mut traced = Vec::new();
    let mut plain = Vec::new();
    for (i, &us) in instant_us.iter().enumerate().skip(COUNT_INSTANTS as usize) {
        if traced_instant(true, i as u64) {
            &mut traced
        } else {
            &mut plain
        }
        .push(us);
    }
    (trace::median(&traced) / trace::median(&plain) - 1.0) * 100.0
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    /// `concert`, `dense` or `durable`.
    pub(crate) workload: String,
    /// Input seed.
    pub(crate) seed: u64,
    /// Length of the timed phase.
    pub(crate) seconds: Duration,
    /// Report the per-layer metrics from a traced run.
    pub(crate) trace: bool,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// Operations attempted: reactions, plus the output checks.
    pub(crate) attempted: u64,
    /// Failed operations: faults, pool errors, oracle or digest
    /// mismatches.
    pub(crate) failed: u64,
    /// Why operations failed (printed, never part of the result line).
    pub(crate) failures: Vec<String>,
    /// Metric values by name.
    pub(crate) metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failure.
    pub(crate) fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(why);
        }
    }

    /// Sets a metric.
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Sets the end-to-end metrics every workload reports, from the
/// set-up times, the timed instants' wall times and the reactions they
/// committed.
pub(crate) fn set_end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    instant_us: &[f64],
    reactions: usize,
    rss_mb: f64,
) {
    let system_s = instant_us.iter().sum::<f64>() / 1e6;
    out.set("setup_s", trace::median(setup_s));
    out.set("reactions_per_s", reactions as f64 / system_s);
    out.set("instant_p50_quiet_us", quiet_p50(instant_us));
    out.set("instant_p50_us", trace::median(instant_us));
    out.set("instant_p95_us", trace::quantile(instant_us, 0.95));
    out.set("instant_p99_us", trace::quantile(instant_us, 0.99));
    out.set("peak_rss_mb", rss_mb);
    out.set("instants", instant_us.len() as f64);
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["concert", "dense", "durable"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// Renders the result line. Non-finite values cannot be JSON numbers and
/// never arise from the measurements; they are reported as -1.
fn result_line(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { -1.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hiphop-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "dense" => dense::run(&args),
        "concert" => pool::run(&args, false),
        _ => pool::run(&args, true),
    };
    for why in &outcome.failures {
        println!("failure {why}");
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("metric error_rate {error_rate} ratio");
    for (name, value) in &outcome.metrics {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .chain(HUMAN)
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| *u);
        println!("metric {name} {value} {unit}");
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_line(&outcome, names));
    if outcome.failed > 0 || outcome.attempted == 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_p50_takes_the_lowest_stretch_median() {
        assert_eq!(quiet_p50(&[3.0, 1.0, 2.0]), 2.0);
        let mut us = vec![200.0; 4000];
        us[1500..3500].fill(120.0);
        assert_eq!(quiet_p50(&us), 120.0);
    }
}
