//! Acceptance battery for the pool-wide observability plane (the flight
//! recorder, span tracing and metrics exposition):
//!
//! 1. **Record → replay determinism at scale.** A chaos-seeded
//!    1000-session concert recorded on 4 shards, serialized to JSONL,
//!    parsed back, and replayed on a pool with a *different* shard
//!    count must match every digest checkpoint — per instant, per
//!    session — because shard assignment is pure plumbing and chaos
//!    fault schedules derive deterministically from per-session seeds.
//! 2. **Schema validity.** The Chrome trace-event export, the
//!    Prometheus text exposition and `PoolMetrics::to_json` are parsed
//!    and shape-checked with an actual JSON parser (the dependency-free
//!    one the flight recorder ships), not substring matching.
//! 3. **Escaping.** Hostile strings (quotes, backslashes, control
//!    characters, non-ASCII) pushed through the JSONL sink still
//!    produce valid JSON lines.
//! 4. **Hostile nesting.** A document of nothing but `[` is refused with
//!    an error naming the byte offset by the parser, snapshot decode and
//!    journal decode alike, instead of overflowing the stack.

use hiphop_runtime::flight::JSON_MAX_DEPTH;
use hiphop_runtime::{
    chrome_trace, Json, PoolSnapshot, RecorderConfig, Recording, ReplayOptions, SpanKind,
};
use hiphop_skini::concert::{self, scenario_metadata};
use hiphop_skini::{ConcertConfig, ConcertRunOptions};

fn observed_concert(sessions: u64, shards: usize, ticks: u64, seed: u64) -> hiphop_skini::ConcertRun {
    let mut cfg = ConcertConfig::new(sessions, shards, ticks, seed);
    cfg.chaos_rate = 0.02;
    let opts = ConcertRunOptions {
        record: Some(RecorderConfig {
            checkpoint_every: 4,
            ..RecorderConfig::default()
        }),
        trace_spans: true,
        level_activity: true,
        ..ConcertRunOptions::default()
    };
    concert::run_with(&cfg, opts).expect("concert runs")
}

#[test]
fn thousand_session_chaos_recording_replays_on_a_different_shard_count() {
    let run = observed_concert(1000, 4, 8, 0xF11487);
    assert!(run.report.faults > 0, "chaos actually injected faults");
    let rec = run.recording.expect("journal captured");
    assert_eq!(rec.sessions.len(), 1000);
    assert_eq!(rec.boot_digests.len(), 1000);
    assert!(rec.replayable());

    // Round-trip through the versioned JSONL serialization: the replay
    // consumes the *parsed* journal, so the wire format is on the path.
    let wire = rec.to_jsonl();
    let parsed = hiphop_runtime::Recording::from_jsonl(&wire).expect("parses");
    assert_eq!(parsed.sessions, rec.sessions);
    assert_eq!(parsed.ticks.len(), rec.ticks.len());

    // 4 shards recorded, 3 shards replayed: every checkpointed digest —
    // per instant, per session — must still match.
    let report = concert::replay(&parsed, 3, &ReplayOptions::default()).expect("replays");
    assert!(report.ok(), "digest mismatches: {:?}", report.mismatches);
    assert_eq!(report.ticks, 8);
    // Boot digests (1000) + checkpoints at ticks 3 and 7 (2 × 1000).
    assert_eq!(report.checked, 3000, "all checkpoints verified");
}

#[test]
fn replay_window_needs_a_snapshot_anchor_for_a_nonzero_from() {
    let run = observed_concert(40, 2, 12, 9);
    let rec = run.recording.expect("journal");
    // `to` truncates execution: ticks past the window never run.
    let report = concert::replay(
        &rec,
        5,
        &ReplayOptions {
            to: 7,
            ..ReplayOptions::default()
        },
    )
    .expect("replays");
    assert!(report.ok(), "{:?}", report.mismatches);
    assert_eq!(report.ticks, 8, "execution stops after tick 7");
    // Boot digests (40) plus the checkpoints at ticks 3 and 7.
    assert_eq!(report.checked, 120);
    // A nonzero `from` with no snapshot anchor would re-execute the
    // skipped prefix from scratch anyway — that must be a clear error,
    // not a silent full replay dressed up as a suffix one.
    let err = concert::replay(
        &rec,
        5,
        &ReplayOptions {
            from: 8,
            to: 11,
            ..ReplayOptions::default()
        },
    )
    .expect_err("anchorless from > 0 must refuse");
    assert!(err.to_string().contains("snapshot anchor"), "{err}");
}

#[test]
fn tampered_recordings_are_caught_by_digest_verification() {
    let run = observed_concert(12, 2, 8, 77);
    let mut rec = run.recording.expect("journal");
    // Drop one journaled input: the replayed instant diverges and every
    // later checkpoint for that session must flag it.
    let victim = rec
        .ticks
        .iter_mut()
        .find(|t| !t.inputs.is_empty())
        .expect("some tick has inputs");
    victim.inputs.remove(0);
    let report = concert::replay(&rec, 2, &ReplayOptions::default()).expect("replays");
    assert!(!report.ok(), "the tamper must be detected");
    assert!(!report.mismatches.is_empty());
}

#[test]
fn chrome_trace_export_is_schema_valid_json() {
    let run = observed_concert(16, 3, 6, 5);
    assert!(!run.spans.is_empty());
    let trace = chrome_trace(&run.spans);
    let doc = Json::parse(&trace).expect("chrome trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut complete = 0usize;
    let mut metadata = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        match ph {
            "X" => {
                complete += 1;
                assert!(ev.get("name").and_then(Json::as_str).is_some());
                assert!(ev.get("ts").and_then(Json::as_f64).is_some());
                assert!(ev.get("dur").and_then(Json::as_f64).is_some());
                assert!(ev.get("pid").and_then(Json::as_u64).is_some());
                assert!(ev.get("tid").and_then(Json::as_u64).is_some());
            }
            "M" => {
                metadata += 1;
                assert_eq!(ev.get("name").and_then(Json::as_str), Some("process_name"));
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(complete, run.spans.len(), "one complete event per span");
    // One process-name metadata row for the pool plus one per shard.
    assert_eq!(metadata, 1 + 3);

    // The span tree links up: every non-root parent id exists.
    let ids: std::collections::BTreeSet<u64> = run.spans.iter().map(|s| s.id).collect();
    for s in &run.spans {
        if s.parent != 0 {
            assert!(ids.contains(&s.parent), "dangling parent on {:?}", s);
        }
        if s.kind == SpanKind::Reaction {
            assert_ne!(s.parent, 0, "reactions hang off a sweep span");
        }
    }
}

#[test]
fn prometheus_exposition_is_schema_valid_and_shard_rows_sum_to_pool_totals() {
    let run = observed_concert(24, 4, 6, 13);
    let m = &run.report.metrics;
    let prom = m.render_prometheus();

    // Text-exposition shape: every non-comment line is `name{labels} value`,
    // every series is preceded by HELP and TYPE comments for its family.
    let mut families: std::collections::BTreeSet<&str> = Default::default();
    for line in prom.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# ") {
            let mut it = rest.splitn(3, ' ');
            let kind = it.next().unwrap();
            assert!(kind == "HELP" || kind == "TYPE", "{line}");
            families.insert(it.next().expect("family name"));
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("value separated by space");
        let name = series.split('{').next().unwrap();
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        assert!(
            families.contains(family),
            "series {name} lacks HELP/TYPE for {family}"
        );
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable sample value in {line:?}"
        );
    }

    let sample = |needle: &str| -> f64 {
        prom.lines()
            .find(|l| l.starts_with(needle) && !l.starts_with('#'))
            .and_then(|l| l.rsplit_once(' '))
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("no sample for {needle}"))
    };
    // Per-shard rows sum to the pool totals.
    let shard_sum = |family: &str| -> f64 {
        (0..4)
            .map(|s| sample(&format!("{family}{{shard=\"{s}\"}}")))
            .sum()
    };
    assert_eq!(shard_sum("hiphop_shard_reactions_total"), m.reactions as f64);
    assert_eq!(shard_sum("hiphop_shard_sessions"), m.sessions() as f64);
    assert_eq!(sample("hiphop_pool_reactions_total"), m.reactions as f64);

    // Histogram buckets are cumulative and end at +Inf == count.
    let buckets: Vec<f64> = prom
        .lines()
        .filter(|l| l.starts_with("hiphop_pool_reaction_duration_us_bucket"))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
        .collect();
    assert!(!buckets.is_empty());
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "cumulative: {buckets:?}");
    assert_eq!(
        *buckets.last().unwrap(),
        sample("hiphop_pool_reaction_duration_us_count"),
        "+Inf bucket equals the count"
    );

    // Per-level counters exported (level activity was armed).
    assert!(m.level_activity.total_evals() > 0);
    assert!(prom.contains("hiphop_level_net_evals_total{level=\"0\"}"));
}

#[test]
fn pool_metrics_json_parses_and_shard_rows_sum() {
    let run = observed_concert(18, 3, 5, 21);
    let m = &run.report.metrics;
    let doc = Json::parse(&m.to_json()).expect("to_json parses");
    assert_eq!(doc.get("shards").and_then(Json::as_u64), Some(3));
    assert_eq!(
        doc.get("reactions").and_then(Json::as_u64),
        Some(m.reactions as u64)
    );
    let per_shard = doc
        .get("per_shard")
        .and_then(Json::as_array)
        .expect("per_shard array");
    assert_eq!(per_shard.len(), 3);
    let sum: u64 = per_shard
        .iter()
        .map(|s| s.get("reactions").and_then(Json::as_u64).expect("reactions"))
        .sum();
    assert_eq!(sum, m.reactions as u64, "shard rows sum to the pool total");
    let sess: u64 = per_shard
        .iter()
        .map(|s| s.get("sessions").and_then(Json::as_u64).expect("sessions"))
        .sum();
    assert_eq!(sess, m.sessions() as u64);
}

#[test]
fn jsonl_sink_escapes_hostile_strings() {
    use hiphop_core::value::Value;
    use hiphop_runtime::telemetry::{TraceEvent, TraceSink};
    use hiphop_runtime::{JsonlSink, OutputEvent, Reaction};

    let hostile = [
        "quote\"inside",
        "back\\slash",
        "tab\tnewline\ncarriage\r",
        "control\u{1}\u{1f}",
        "unicode é☃ outside",
    ];
    let (mut sink, buf) = JsonlSink::buffered();
    for (i, name) in hostile.iter().enumerate() {
        let reaction = Reaction {
            seq: i as u64,
            outputs: vec![OutputEvent {
                name: (*name).into(),
                present: true,
                value: Value::Str((*name).to_owned()),
            }],
            terminated: false,
            events: 1,
        };
        sink.on_event(&TraceEvent::ReactionEnd {
            reaction: &reaction,
            stats: Default::default(),
        });
        sink.on_event(&TraceEvent::Log {
            seq: i as u64,
            message: name,
        });
    }
    sink.finish();
    let text = buf.text();
    let mut lines = 0;
    for line in text.lines() {
        let doc = Json::parse(line)
            .unwrap_or_else(|e| panic!("line is not valid JSON ({e}): {line}"));
        // The hostile string round-trips through escape + parse intact.
        if doc.get("type").and_then(Json::as_str) == Some("log") {
            let msg = doc.get("message").and_then(Json::as_str).expect("message");
            assert!(hostile.contains(&msg), "mangled: {msg:?}");
        }
        lines += 1;
    }
    assert_eq!(lines, hostile.len() * 2);
}

#[test]
fn scenario_metadata_survives_the_wire_format() {
    let mut cfg = ConcertConfig::new(5, 2, 4, 123);
    cfg.chaos_rate = 0.25;
    let meta = scenario_metadata(&cfg);
    let opts = ConcertRunOptions {
        record: Some(RecorderConfig::default()),
        ..ConcertRunOptions::default()
    };
    let run = concert::run_with(&cfg, opts).expect("runs");
    let rec = run.recording.expect("journal");
    let parsed = hiphop_runtime::Recording::from_jsonl(&rec.to_jsonl()).expect("parses");
    assert_eq!(parsed.scenario, meta, "metadata survives serialization");
    assert_eq!(parsed.scenario.get("seed").map(String::as_str), Some("123"));
    assert_eq!(
        parsed.scenario.get("chaos_rate").map(String::as_str),
        Some("0.25")
    );
}

#[test]
fn hostile_nesting_is_refused_with_an_error_not_a_stack_overflow() {
    let hostile = "[".repeat(200_000);
    let err = Json::parse(&hostile).expect_err("nesting past the limit is refused");
    assert!(err.contains(&format!("at byte {JSON_MAX_DEPTH}")), "{err}");
    let err = PoolSnapshot::from_jsonl(&hostile).expect_err("snapshot decode refuses");
    assert!(err.to_string().contains("at byte"), "{err}");
    let err = Recording::from_jsonl(&hostile).expect_err("journal decode refuses");
    assert!(err.contains("at byte"), "{err}");
    // Objects count toward the same limit, and the limit itself parses.
    assert!(Json::parse(&"{\"k\":".repeat(200_000)).is_err());
    let deepest = format!(
        "{}{}",
        "[".repeat(JSON_MAX_DEPTH),
        "]".repeat(JSON_MAX_DEPTH)
    );
    assert!(Json::parse(&deepest).is_ok());
}
