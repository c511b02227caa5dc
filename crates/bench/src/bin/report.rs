//! Regenerates every §5.3 evaluation number as paper-style tables.
//!
//! Run with `cargo run -p hiphop-bench --bin report --release`.

use hiphop_bench::{
    chaos_overhead, engine_comparison, hybrid_comparison, linear_fit,
    login_v2_abort_comparison, memory_table, optimizer_ablation, pool_scaling, schizo_sweep,
    size_sweep, skini_latency, telemetry_metrics,
};

fn main() {
    println!("HipHop reproduction — evaluation report (paper §5.3)");
    println!("=====================================================");

    // ------------------------------------------------------------- E1/E2a/E4a
    let sizes = [20usize, 40, 80, 160, 320, 640, 1280, 2560];
    let rows = size_sweep(&sizes, 2020);

    println!("\nE1 — compile time vs source size (paper: \"roughly proportional\")");
    println!(
        "{:>8} {:>8} {:>12} {:>14}",
        "stmts", "nets", "parse (µs)", "compile (µs)"
    );
    for r in &rows {
        println!(
            "{:>8} {:>8} {:>12.1} {:>14.1}",
            r.stmts, r.nets, r.parse_us, r.compile_us
        );
    }
    let fit = linear_fit(
        &rows
            .iter()
            .map(|r| (r.stmts as f64, r.compile_us))
            .collect::<Vec<_>>(),
    );
    println!("linear fit: {:.2} µs/stmt, R² = {:.4}", fit.slope, fit.r2);

    println!("\nE2a — circuit size vs source size (paper: \"most often linear\")");
    println!("{:>8} {:>8} {:>10}", "stmts", "nets", "nets/stmt");
    for r in &rows {
        println!(
            "{:>8} {:>8} {:>10.2}",
            r.stmts,
            r.nets,
            r.nets as f64 / r.stmts as f64
        );
    }
    let fit = linear_fit(
        &rows
            .iter()
            .map(|r| (r.stmts as f64, r.nets as f64))
            .collect::<Vec<_>>(),
    );
    println!("linear fit: {:.2} nets/stmt, R² = {:.4}", fit.slope, fit.r2);

    println!("\nE2b — reincarnation blow-up (paper: \"quadratic expansion can occur\")");
    println!("{:>6} {:>8} {:>8} {:>8}", "depth", "stmts", "nets", "growth");
    for r in schizo_sweep(7) {
        println!(
            "{:>6} {:>8} {:>8} {:>8.2}",
            r.depth, r.stmts, r.nets, r.growth
        );
    }

    // ------------------------------------------------------------------- E3
    println!("\nE3 — application memory footprints");
    println!(
        "(paper: Lisinopril = 399 nets ≈ 86 KB; large Skini score ≈ 10,000 nets ≈ 2.1 MB; 192–216 B/net in JS)"
    );
    println!(
        "{:<28} {:>7} {:>7} {:>6} {:>10} {:>8}",
        "application", "stmts", "nets", "regs", "KB", "B/net"
    );
    for r in memory_table() {
        println!(
            "{:<28} {:>7} {:>7} {:>6} {:>10.1} {:>8.1}",
            r.name,
            r.stmts,
            r.nets,
            r.registers,
            r.bytes as f64 / 1024.0,
            r.bytes_per_net
        );
    }

    // ------------------------------------------------------------------ E4a
    println!("\nE4a — reaction time vs circuit size (paper: \"roughly linear\")");
    println!("{:>8} {:>8} {:>14}", "stmts", "nets", "reaction (µs)");
    for r in &rows {
        println!("{:>8} {:>8} {:>14.2}", r.stmts, r.nets, r.reaction_us);
    }
    let fit = linear_fit(
        &rows
            .iter()
            .map(|r| (r.nets as f64, r.reaction_us))
            .collect::<Vec<_>>(),
    );
    println!(
        "linear fit: {:.3} µs per 1000 nets, R² = {:.4}",
        fit.slope * 1000.0,
        fit.r2
    );

    // ------------------------------------------------------------------ E4b
    println!("\nE4b — Skini score reaction latency vs the 300 ms musical budget");
    println!("(paper: \"even for the largest available score … never exceeds 15ms\")");
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>10}",
        "score", "nets", "mean (µs)", "max (ms)", "budget"
    );
    for (label, shape, beats) in [
        ("concert", hiphop_skini::ScoreShape::concert(), 256u64),
        ("classical", hiphop_skini::ScoreShape::classical(), 256),
    ] {
        let (nets, lat) = skini_latency(shape, beats, 77);
        println!(
            "{:<12} {:>8} {:>12.1} {:>12.3} {:>10}",
            label,
            nets,
            lat.mean_ns() as f64 / 1000.0,
            lat.max_ms(),
            if lat.max_ms() < 300.0 { "OK" } else { "MISS" }
        );
    }

    // ------------------------------------------------------------------- E5
    println!("\nE5 — §3 design claim: weakabort vs abort in MainV2");
    let (weak_ok, strong_err) = login_v2_abort_comparison();
    println!(
        "weakabort variant: {}",
        if weak_ok { "runs correctly" } else { "FAILED" }
    );
    println!("abort variant: detected and reported —");
    for line in strong_err.lines().take(4) {
        println!("    {line}");
    }
    // ------------------------------------------------------------------ A1
    println!("\nA1 (ablation) — net-level optimizer on the application suite");
    println!(
        "{:<24} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "application", "raw nets", "opt nets", "raw edges", "opt edges", "saved"
    );
    for r in optimizer_ablation() {
        println!(
            "{:<24} {:>9} {:>9} {:>9} {:>9} {:>7.1}%",
            r.name,
            r.raw_nets,
            r.opt_nets,
            r.raw_edges,
            r.opt_edges,
            100.0 * r.reduction()
        );
    }

    // ------------------------------------------------------------------- E6
    println!("\nE6 — runtime telemetry (MetricsSink over a 640-stmt synthetic program)");
    let metrics = telemetry_metrics(640, 500, 2020);
    print!("{}", metrics.render());

    // ------------------------------------------------------------------- E7
    println!("\nE7 — engine comparison (same 640-stmt workload, one drive per engine)");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "engine", "p50 (µs)", "p95 (µs)", "max (µs)", "events p50", "queue p50"
    );
    let rows = engine_comparison(640, 500, 2020);
    for r in &rows {
        println!(
            "{:<14} {:>10.1} {:>10.1} {:>10.1} {:>12.0} {:>12.0}",
            r.engine.name(),
            r.metrics.duration_us.p50,
            r.metrics.duration_us.p95,
            r.metrics.duration_us.max,
            r.metrics.events.p50,
            r.metrics.queue_hwm.p50,
        );
    }
    let p50 = |mode: hiphop_runtime::EngineMode| {
        rows.iter()
            .find(|r| r.engine == mode)
            .map(|r| r.metrics.duration_us.p50)
            .unwrap_or(f64::NAN)
    };
    println!(
        "levelized / constructive p50 ratio: {:.2}×",
        p50(hiphop_runtime::EngineMode::Constructive)
            / p50(hiphop_runtime::EngineMode::Levelized)
    );
    let e7_levelized_p50 = p50(hiphop_runtime::EngineMode::Levelized);

    // ------------------------------------------------------------------- E8
    println!("\nE8 — robustness overhead (same 640-stmt workload; rollback & fault injection)");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>8}",
        "config", "p50 (µs)", "p95 (µs)", "max (µs)", "faults"
    );
    let rows = chaos_overhead(640, 2000, 2020);
    for r in &rows {
        println!(
            "{:<14} {:>10.1} {:>10.1} {:>10.1} {:>8}",
            r.label,
            r.metrics.duration_us.p50,
            r.metrics.duration_us.p95,
            r.metrics.duration_us.max,
            r.faults,
        );
    }
    let p50 = |label: &str| {
        rows.iter()
            .find(|r| r.label == label)
            .map(|r| r.metrics.duration_us.p50)
            .unwrap_or(f64::NAN)
    };
    let overhead = 100.0 * (p50("rollback on") / p50("rollback off") - 1.0);
    println!(
        "rollback (supervision-ready) p50 overhead vs raw fast path: {overhead:+.1}% {}",
        if overhead < 10.0 { "(< 10% budget)" } else { "(OVER 10% budget)" }
    );

    // ------------------------------------------------------------------- E9
    println!("\nE9 — block walker vs constructive on a cyclic workload (640-stmt acyclic portion");
    println!(
        "in parallel with a token-ring arbiter SCC; the walker runs the SCC-condensed schedule)"
    );
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>12}",
        "engine", "p50 (µs)", "p95 (µs)", "max (µs)", "events p50"
    );
    let rows = hybrid_comparison(640, 500, 2020);
    for r in &rows {
        println!(
            "{:<14} {:>10.1} {:>10.1} {:>10.1} {:>12.0}",
            r.engine.name(),
            r.metrics.duration_us.p50,
            r.metrics.duration_us.p95,
            r.metrics.duration_us.max,
            r.metrics.events.p50,
        );
    }
    let p50 = |mode: hiphop_runtime::EngineMode| {
        rows.iter()
            .find(|r| r.engine == mode)
            .map(|r| r.metrics.duration_us.p50)
            .unwrap_or(f64::NAN)
    };
    let speedup =
        p50(hiphop_runtime::EngineMode::Constructive) / p50(hiphop_runtime::EngineMode::Levelized);
    println!(
        "walker speedup over constructive: {speedup:.2}× {}",
        if speedup >= 2.0 { "(≥ 2× target)" } else { "(UNDER 2× target)" }
    );
    println!("acyclic check: E7's levelized row is the same walker over a single dense block.");

    // ------------------------------------------------------------------ E10
    println!("\nE10 — sharded session pool (one 640-stmt machine per session, batched ticks;");
    println!("throughput measured on the pool critical path — the per-tick maximum across");
    println!("shards of sweep time, i.e. the rate an N-core host sustains)");
    println!(
        "{:<10} {:>7} {:>10} {:>10} {:>11} {:>16}",
        "sessions", "shards", "p50 (µs)", "p95 (µs)", "reactions", "throughput (r/s)"
    );
    let rows = pool_scaling(640, &[64, 1000], &[1, 2, 4, 8], 8, 2020);
    for r in &rows {
        println!(
            "{:<10} {:>7} {:>10.1} {:>10.1} {:>11} {:>16.0}",
            r.sessions,
            r.shards,
            r.metrics.duration_us.p50,
            r.metrics.duration_us.p95,
            r.metrics.reactions,
            r.metrics.throughput_rps(),
        );
    }
    let tp = |sessions: u64, shards: usize| {
        rows.iter()
            .find(|r| r.sessions == sessions && r.shards == shards)
            .map(|r| r.metrics.throughput_rps())
            .unwrap_or(f64::NAN)
    };
    let scale = tp(1000, 8) / tp(1000, 1);
    println!(
        "8-shard / 1-shard critical-path throughput on 1000 sessions: {scale:.2}× {}",
        if scale >= 3.0 { "(≥ 3× target)" } else { "(UNDER 3× target)" }
    );
    // A 1-shard single-session pool runs the very E7 drive through the
    // pool plumbing; the sinks time the reactions themselves. The ratio
    // divides two separate wall-clock drives, so it is informational
    // only: on a shared host it swings by ±30% between runs of one build.
    let single = pool_scaling(640, &[1], &[1], 500, 2020);
    let pool_p50 = single[0].metrics.duration_us.p50;
    let ratio = pool_p50 / e7_levelized_p50;
    println!(
        "1-shard single-session p50: {pool_p50:.1} µs vs E7 levelized {e7_levelized_p50:.1} µs \
         ({ratio:.2}×, informational: two separate wall-clock drives)"
    );

    // ------------------------------------------------------------------ E11
    println!("\nE11 — flight-recorder overhead (the 64-session 4-shard E10 row run twice:");
    println!("recorder off vs armed with digest checkpoints every 8 ticks)");
    println!(
        "{:<10} {:>10} {:>10} {:>16} {:>14}",
        "recorder", "p50 (µs)", "p95 (µs)", "throughput (r/s)", "journal (KiB)"
    );
    let rec_rows = hiphop_bench::experiments::recording_overhead(640, 64, 4, 8, 2020);
    for r in &rec_rows {
        println!(
            "{:<10} {:>10.1} {:>10.1} {:>16.0} {:>14.1}",
            if r.recorded { "armed" } else { "off" },
            r.metrics.duration_us.p50,
            r.metrics.duration_us.p95,
            r.metrics.throughput_rps(),
            r.journal_bytes as f64 / 1024.0,
        );
    }
    let overhead = rec_rows[1].metrics.duration_us.p50 / rec_rows[0].metrics.duration_us.p50;
    println!(
        "recording p50 overhead: {:.2}× {}",
        overhead,
        if overhead <= 1.10 { "(≤ 10% target)" } else { "(OVER 10% target)" }
    );

    // ------------------------------------------------------------------ E12
    println!("\nE12 — bit-parallel cohort execution (the 1-shard E10 workload run scalar and");
    println!("bit-packed; 32 sessions share each 64-bit lane word, so the cohort rows pay");
    println!("one level sweep per 32 sessions; digests prove bit-identity)");
    println!(
        "{:<10} {:>8} {:>12} {:>16} {:>18}",
        "sessions", "mode", "reactions", "throughput (r/s)", "digest"
    );
    let cohort_rows = hiphop_bench::experiments::cohort_scaling(640, &[100, 1000], 16, 2020);
    for r in &cohort_rows {
        println!(
            "{:<10} {:>8} {:>12} {:>16.0} {:>18}",
            r.sessions,
            r.mode,
            r.metrics.reactions,
            r.metrics.throughput_rps(),
            format!("{:016x}", r.digest),
        );
    }
    let cohort_tp = |sessions: u64, mode: &str| {
        cohort_rows
            .iter()
            .find(|r| r.sessions == sessions && r.mode == mode)
            .map(|r| r.metrics.throughput_rps())
            .unwrap_or(f64::NAN)
    };
    for sessions in [100u64, 1000] {
        let same = cohort_rows
            .iter()
            .filter(|r| r.sessions == sessions)
            .map(|r| r.digest)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            == 1;
        let speedup = cohort_tp(sessions, "cohort") / cohort_tp(sessions, "scalar");
        println!(
            "cohort / scalar critical-path throughput on {sessions} sessions: {speedup:.2}× {} {}",
            if sessions < 1000 {
                ""
            } else if speedup >= 5.0 {
                "(≥ 5× target)"
            } else {
                "(UNDER 5× target)"
            },
            if same { "[digests identical]" } else { "[DIGEST MISMATCH]" },
        );
    }

    // ------------------------------------------------------------------ E13
    println!("\nE13 — durability cost (the 64-session 4-shard E10 row with the recorder");
    println!("armed, checkpointed at each cadence, then crashed and recovered from the");
    println!("last checkpoint plus the journal suffix)");
    println!(
        "{:<18} {:>14} {:>15} {:>14} {:>14}",
        "checkpoint every", "snapshot (µs)", "snapshot (KiB)", "suffix ticks", "recovery (µs)"
    );
    let dur_rows = hiphop_bench::experiments::durability_cost(640, 64, 4, 16, &[2, 4, 8, 16], 2020);
    for r in &dur_rows {
        println!(
            "{:<18} {:>14.1} {:>15.1} {:>14} {:>14.1} {}",
            r.checkpoint_every,
            r.snapshot_us,
            r.snapshot_bytes as f64 / 1024.0,
            r.replayed_ticks,
            r.recovery_us,
            if r.recovered { "" } else { "[DIGEST MISMATCH]" },
        );
    }
    let all_ok = dur_rows.iter().all(|r| r.recovered);
    println!(
        "recovery digest checks: {}",
        if all_ok { "all matched" } else { "MISMATCHES FOUND" }
    );

    // ------------------------------------------------------------------ E14
    println!("\nE14 — fact-driven schedule shrinking (syntactic optimizer on in both");
    println!("columns; the delta is what the inter-instant dataflow facts remove)");
    println!(
        "{:<36} {:>13} {:>11} {:>11} {:>13} {:>13}",
        "workload", "nets off→on", "regs", "levels", "p50 off (µs)", "p50 on (µs)"
    );
    let fmt_levels = |l: Option<usize>| l.map_or("cyc".to_owned(), |v| v.to_string());
    for r in hiphop_bench::experiments::schedule_shrinking(2020) {
        println!(
            "{:<36} {:>6}→{:<6} {:>4}→{:<5} {:>5}→{:<5} {:>13.1} {:>13.1} ({:+.1}% nets)",
            r.workload,
            r.nets_off,
            r.nets_on,
            r.registers_off,
            r.registers_on,
            fmt_levels(r.levels_off),
            fmt_levels(r.levels_on),
            r.p50_off_us,
            r.p50_on_us,
            -100.0 * r.net_reduction(),
        );
    }

    // ------------------------------------------------------------------ E15
    println!("\nE15 — sparse incremental reactions (10k-instance ABRO pool, one instance");
    println!("active; then the busy dense-640 drive as the no-regression guard)");
    println!(
        "{:<34} {:<14} {:>9} {:>13} {:>13} {:>8}",
        "workload", "engine", "nets", "p50 (µs)", "evals", "digest"
    );
    for (name, rows) in [
        (
            "wide-quiet 10k×ABRO",
            hiphop_bench::experiments::wide_quiet(10_000, 30),
        ),
        (
            "dense-640 busy drive",
            hiphop_bench::experiments::sparse_dense_regression(640, 200, 2020),
        ),
    ] {
        let agree = rows[0].digest == rows[1].digest;
        for r in &rows {
            println!(
                "{:<34} {:<14} {:>9} {:>13.1} {:>13} {:>8}",
                name,
                r.engine.to_string(),
                r.nets,
                r.p50_us,
                r.evals,
                if agree { "=" } else { "DIVERGED" }
            );
        }
        println!(
            "  {}: {:.1}× p50, {:.1}× net evals (sparse over levelized)",
            name,
            rows[0].p50_us / rows[1].p50_us.max(1e-9),
            rows[0].evals as f64 / (rows[1].evals as f64).max(1e-9),
        );
    }

    println!("\ndone.");
}
