//! The flight recorder: an instant-indexed input journal with
//! digest-anchored checkpoints and deterministic replay.
//!
//! The paper's reactive model makes replay *possible* — a machine is a
//! deterministic function of its instant-by-instant inputs — and this
//! module makes it *practical* for the pool-scale deployment: a
//! [`Recording`] journals every injected signal (plus tick boundaries
//! and boot/checkpoint state digests) in a versioned, dependency-free
//! JSONL format, and `SessionPool::replay` re-executes the journal on a
//! fresh pool — with any shard count — verifying digests
//! instant-by-instant. This is the ROADMAP's "crash-recovery replay
//! from a snapshot + input journal" substrate: today replay always
//! starts from instant 0 (there is no state snapshot/restore yet), so
//! the journal must be complete — a ring-buffered recording that
//! evicted early ticks still supports inspection but refuses replay.
//!
//! Chaos determinism: injected faults are drawn from per-machine PCG32
//! streams seeded by the scenario (recorded in
//! [`Recording::scenario`]), so a replayed run re-draws the *same*
//! fault schedule and digests match even through rolled-back reactions.
//!
//! The module also hosts the repo's only JSON *parser* ([`Json`]) —
//! hand-rolled like the encoder, used by recording deserialization and
//! by the test batteries to parse-validate every JSON emitter.

use crate::telemetry::{json_escape, json_value};
use hiphop_core::value::Value;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Journal format version written in the header line; bumped on any
/// incompatible schema change. Readers reject versions they don't know.
pub const FLIGHT_FORMAT_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// A minimal JSON parser (the encoder lives in `telemetry`).

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a bound a hostile document (a
/// journal or snapshot of nothing but `[`) would overflow the stack and
/// abort the process; past the bound it returns an error instead.
pub const JSON_MAX_DEPTH: usize = 512;

/// A parsed JSON document. Numbers are `f64` (like the host [`Value`]);
/// objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else).
    ///
    /// # Errors
    ///
    /// A rendered message with the byte offset of the first error —
    /// including nesting deeper than [`JSON_MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.b.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer (exact for values up
    /// to 2^53, which covers every id and counter the runtime emits).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().filter(|n| *n >= 0.0 && n.fract() == 0.0).map(|n| n as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Converts to a host [`Value`]. Exact except for non-finite
    /// numbers, which the encoder writes as strings (`"NaN"`) and which
    /// therefore round-trip as strings.
    pub fn to_value(&self) -> Value {
        match self {
            Json::Null => Value::Null,
            Json::Bool(b) => Value::Bool(*b),
            Json::Num(n) => Value::Num(*n),
            Json::Str(s) => Value::Str(s.clone()),
            Json::Arr(items) => Value::Arr(items.iter().map(Json::to_value).collect()),
            Json::Obj(members) => Value::object(
                members
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.to_value()))
                    .collect::<Vec<_>>(),
            ),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.pos) {
            Some(c @ (b'{' | b'[')) => {
                if self.depth == JSON_MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {JSON_MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if *c == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected byte {c:#04x} at {}", self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, text: &str, v: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.b.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.b[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.b.get(self.pos) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.b.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uDC00-\uDFFF.
                                if self.b.get(self.pos + 1) == Some(&b'\\')
                                    && self.b.get(self.pos + 2) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined =
                                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is valid UTF-8 —
                    // it came in as &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .b
                        .get(self.pos)
                        .is_some_and(|c| (*c & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.b[start..self.pos]).unwrap());
                }
            }
        }
    }

    /// Reads the 4 hex digits following `\u` (cursor on the `u`).
    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.b.len() {
            return Err("truncated \\u escape".to_owned());
        }
        let v = std::str::from_utf8(&self.b[start..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {start}"))?;
        self.pos = end - 1;
        Ok(v)
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.pos))
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Digest hashing.

/// FNV-1a over a state digest, rendered as 16 hex chars. Recordings
/// store hashes, not the (kilobyte-scale) digest text: equality is all
/// replay verification needs, and journals stay small.
pub fn digest_hash(digest: &str) -> String {
    let mut h = 0xcbf29ce484222325u64;
    for b in digest.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    format!("{h:016x}")
}

// ---------------------------------------------------------------------------
// The recording.

/// Recorder knobs.
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfig {
    /// Ring-buffer capacity in ticks; 0 keeps the whole journal. A
    /// bounded recording that evicted ticks still supports inspection
    /// but refuses replay (replay needs the complete history — there is
    /// no state snapshot to start from mid-stream).
    pub capacity_ticks: usize,
    /// Record a digest checkpoint every N ticks (0 = never; 1 =
    /// per-instant verification). Checkpoints digest every live
    /// session, so sparse intervals keep recording overhead low.
    pub checkpoint_every: u64,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig {
            capacity_ticks: 0,
            checkpoint_every: 8,
        }
    }
}

/// One injected input.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedInput {
    /// Target session.
    pub session: u64,
    /// Signal name.
    pub signal: String,
    /// Injected value.
    pub value: Value,
}

/// One tick's journal entry: the injected inputs, plus a digest
/// checkpoint when the recorder's interval lands on this tick.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTick {
    /// Tick number (0-based, pool-wide).
    pub tick: u64,
    /// Inputs injected before this tick, in injection order.
    pub inputs: Vec<RecordedInput>,
    /// Hashed per-session state digests *after* this tick, when
    /// checkpointed ([`digest_hash`] of [`crate::Machine::state_digest`]).
    pub digests: Option<Vec<(u64, String)>>,
}

/// A complete flight recording: scenario metadata, the opened sessions
/// with their boot digests, and the per-tick input journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recording {
    /// Format version ([`FLIGHT_FORMAT_VERSION`]).
    pub version: u64,
    /// Free-form scenario metadata (seed, shape, chaos rate…) — enough
    /// for the scenario owner to rebuild an equivalent session factory.
    pub scenario: BTreeMap<String, String>,
    /// Virtual milliseconds each pool tick advances the shard clocks.
    pub tick_ms: u64,
    /// Sessions opened, in open order.
    pub sessions: Vec<u64>,
    /// Hashed per-session digests after the boot reactions.
    pub boot_digests: Vec<(u64, String)>,
    /// The journal, oldest tick first.
    pub ticks: VecDeque<RecordedTick>,
    /// Ticks evicted by the ring buffer (> 0 makes the recording
    /// non-replayable).
    pub dropped: u64,
}

impl Recording {
    /// Serializes to JSONL: a header line, an `open` line, then one
    /// `tick` line per journal entry (with its optional inline
    /// checkpoint). See `TRACING.md` for the schema.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let scenario: Vec<String> = self
            .scenario
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
            .collect();
        out.push_str(&format!(
            "{{\"type\":\"flight\",\"version\":{},\"tick_ms\":{},\"dropped\":{},\"scenario\":{{{}}}}}\n",
            self.version,
            self.tick_ms,
            self.dropped,
            scenario.join(",")
        ));
        let sessions: Vec<String> = self.sessions.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "{{\"type\":\"open\",\"sessions\":[{}],\"digests\":[{}]}}\n",
            sessions.join(","),
            render_digests(&self.boot_digests)
        ));
        for t in &self.ticks {
            let inputs: Vec<String> = t
                .inputs
                .iter()
                .map(|i| {
                    format!(
                        "{{\"session\":{},\"signal\":\"{}\",\"value\":{}}}",
                        i.session,
                        json_escape(&i.signal),
                        json_value(&i.value)
                    )
                })
                .collect();
            out.push_str(&format!(
                "{{\"type\":\"tick\",\"tick\":{},\"inputs\":[{}]}}\n",
                t.tick,
                inputs.join(",")
            ));
            if let Some(digests) = &t.digests {
                out.push_str(&format!(
                    "{{\"type\":\"checkpoint\",\"tick\":{},\"digests\":[{}]}}\n",
                    t.tick,
                    render_digests(digests)
                ));
            }
        }
        out
    }

    /// Parses a JSONL recording.
    ///
    /// # Errors
    ///
    /// Rejects unknown format versions, malformed lines, and checkpoints
    /// that reference unjournaled ticks.
    pub fn from_jsonl(text: &str) -> Result<Recording, String> {
        let mut rec = Recording::default();
        let mut seen_header = false;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let j = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let ty = j
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: missing \"type\"", lineno + 1))?;
            match ty {
                "flight" => {
                    let version = j.get("version").and_then(Json::as_u64).unwrap_or(0);
                    if version != FLIGHT_FORMAT_VERSION {
                        return Err(format!(
                            "unsupported flight format version {version} (expected {FLIGHT_FORMAT_VERSION})"
                        ));
                    }
                    rec.version = version;
                    rec.tick_ms = j.get("tick_ms").and_then(Json::as_u64).unwrap_or(0);
                    rec.dropped = j.get("dropped").and_then(Json::as_u64).unwrap_or(0);
                    if let Some(members) = j.get("scenario").and_then(Json::members) {
                        for (k, v) in members {
                            rec.scenario
                                .insert(k.clone(), v.as_str().unwrap_or_default().to_owned());
                        }
                    }
                    seen_header = true;
                }
                "open" => {
                    rec.sessions = j
                        .get("sessions")
                        .and_then(Json::as_array)
                        .map(|a| a.iter().filter_map(Json::as_u64).collect())
                        .unwrap_or_default();
                    rec.boot_digests = parse_digests(&j)?;
                }
                "tick" => {
                    let tick = j
                        .get("tick")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("line {}: tick without number", lineno + 1))?;
                    let inputs = j
                        .get("inputs")
                        .and_then(Json::as_array)
                        .map(|a| {
                            a.iter()
                                .filter_map(|i| {
                                    Some(RecordedInput {
                                        session: i.get("session").and_then(Json::as_u64)?,
                                        signal: i.get("signal")?.as_str()?.to_owned(),
                                        value: i.get("value").map(Json::to_value).unwrap_or(Value::Null),
                                    })
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    rec.ticks.push_back(RecordedTick {
                        tick,
                        inputs,
                        digests: None,
                    });
                }
                "checkpoint" => {
                    let tick = j
                        .get("tick")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("line {}: checkpoint without tick", lineno + 1))?;
                    let digests = parse_digests(&j)?;
                    let entry = rec
                        .ticks
                        .iter_mut()
                        .rev()
                        .find(|t| t.tick == tick)
                        .ok_or_else(|| format!("line {}: checkpoint for unjournaled tick {tick}", lineno + 1))?;
                    entry.digests = Some(digests);
                }
                other => return Err(format!("line {}: unknown record type \"{other}\"", lineno + 1)),
            }
        }
        if !seen_header {
            return Err("not a flight recording (missing header line)".to_owned());
        }
        Ok(rec)
    }

    /// Total injected inputs across the journal.
    pub fn input_count(&self) -> usize {
        self.ticks.iter().map(|t| t.inputs.len()).sum()
    }

    /// Whether the journal is complete enough to replay from instant 0.
    pub fn replayable(&self) -> bool {
        self.dropped == 0
    }
}

fn render_digests(digests: &[(u64, String)]) -> String {
    let rows: Vec<String> = digests
        .iter()
        .map(|(id, d)| format!("{{\"session\":{id},\"digest\":\"{}\"}}", json_escape(d)))
        .collect();
    rows.join(",")
}

fn parse_digests(j: &Json) -> Result<Vec<(u64, String)>, String> {
    Ok(j.get("digests")
        .and_then(Json::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|d| {
                    Some((
                        d.get("session").and_then(Json::as_u64)?,
                        d.get("digest")?.as_str()?.to_owned(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default())
}

// ---------------------------------------------------------------------------
// The recorder (armed journaling state; driven by the session pool).

/// Armed journaling state: owns the growing [`Recording`] and applies
/// the ring-buffer and checkpoint policy. The session pool drives it
/// (`SessionPool::record`); it is public so other drivers can journal
/// too.
#[derive(Debug)]
pub struct Recorder {
    cfg: RecorderConfig,
    rec: Recording,
}

impl Recorder {
    /// A fresh recorder with scenario metadata.
    pub fn new(cfg: RecorderConfig, scenario: BTreeMap<String, String>) -> Recorder {
        Recorder {
            cfg,
            rec: Recording {
                version: FLIGHT_FORMAT_VERSION,
                scenario,
                ..Recording::default()
            },
        }
    }

    /// Journals the opened sessions and their (hashed) boot digests.
    pub fn record_open(&mut self, tick_ms: u64, sessions: &[u64], boot_digests: Vec<(u64, String)>) {
        self.rec.tick_ms = tick_ms;
        self.rec.sessions.extend_from_slice(sessions);
        self.rec.boot_digests.extend(
            boot_digests
                .into_iter()
                .map(|(id, d)| (id, digest_hash(&d))),
        );
    }

    /// Whether the policy wants a digest checkpoint after `tick`.
    pub fn wants_checkpoint(&self, tick: u64) -> bool {
        self.cfg.checkpoint_every > 0 && (tick + 1).is_multiple_of(self.cfg.checkpoint_every)
    }

    /// Journals one tick (inputs in injection order, digests hashed when
    /// provided), applying the ring-buffer policy.
    pub fn record_tick(
        &mut self,
        tick: u64,
        inputs: Vec<RecordedInput>,
        digests: Option<Vec<(u64, String)>>,
    ) {
        self.rec.ticks.push_back(RecordedTick {
            tick,
            inputs,
            digests: digests.map(|ds| {
                ds.into_iter().map(|(id, d)| (id, digest_hash(&d))).collect()
            }),
        });
        if self.cfg.capacity_ticks > 0 {
            while self.rec.ticks.len() > self.cfg.capacity_ticks {
                self.rec.ticks.pop_front();
                self.rec.dropped += 1;
            }
        }
    }

    /// The recording so far (cloned; the recorder keeps journaling).
    pub fn snapshot(&self) -> Recording {
        self.rec.clone()
    }

    /// Consumes the recorder, yielding the recording.
    pub fn into_recording(self) -> Recording {
        self.rec
    }
}

// ---------------------------------------------------------------------------
// Replay options and report.

/// Options for `SessionPool::replay`.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// First tick to execute/verify. Without a snapshot anchor this must
    /// be 0: replay is re-execution, and silently re-running the prefix
    /// while only *verifying* the suffix would compare digests against a
    /// mismatched base. `SessionPool::replay` rejects `from > 0` unless
    /// [`ReplayOptions::from_snapshot`] covers the prefix.
    pub from: u64,
    /// Last tick (inclusive) to execute/verify.
    pub to: u64,
    /// Whether to compare checkpoint digests at all.
    pub verify_digests: bool,
    /// Snapshot anchor for crash recovery: restore the pool from this
    /// checkpoint first, then re-drive only the journal suffix (ticks ≥
    /// the snapshot's tick count). Makes recovery O(instants since the
    /// checkpoint) instead of O(all instants). When set, `from` is
    /// raised to the snapshot's tick count automatically.
    pub from_snapshot: Option<crate::snapshot::PoolSnapshot>,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            from: 0,
            to: u64::MAX,
            verify_digests: true,
            from_snapshot: None,
        }
    }
}

/// One digest divergence found during replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestMismatch {
    /// Tick at which the divergence was observed (`u64::MAX` marks the
    /// boot checkpoint).
    pub tick: u64,
    /// The diverged session.
    pub session: u64,
    /// Recorded digest hash.
    pub expected: String,
    /// Replayed digest hash (empty when the session is missing).
    pub actual: String,
}

/// What a replay run observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayReport {
    /// Ticks re-executed.
    pub ticks: u64,
    /// Digest comparisons performed.
    pub checked: usize,
    /// Divergences found (empty = digest-identical replay).
    pub mismatches: Vec<DigestMismatch>,
}

impl ReplayReport {
    /// Whether the replay was digest-identical.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// One-line JSON summary (the CLI `replay` output).
    pub fn to_json(&self) -> String {
        let mismatches: Vec<String> = self
            .mismatches
            .iter()
            .take(16)
            .map(|m| {
                format!(
                    "{{\"tick\":{},\"session\":{},\"expected\":\"{}\",\"actual\":\"{}\"}}",
                    m.tick,
                    m.session,
                    json_escape(&m.expected),
                    json_escape(&m.actual)
                )
            })
            .collect();
        format!(
            "{{\"ok\":{},\"ticks\":{},\"checked\":{},\"mismatches\":{},\"first_mismatches\":[{}]}}",
            self.ok(),
            self.ticks,
            self.checked,
            self.mismatches.len(),
            mismatches.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_round_trips_the_encoder() {
        let v = Value::object([
            ("s", Value::Str("a\"b\\c\nd\te\u{1}".into())),
            ("n", Value::Num(1.5)),
            ("neg", Value::Num(-2e-3)),
            ("b", Value::Bool(true)),
            ("z", Value::Null),
            (
                "arr",
                Value::Arr(vec![Value::Num(1.0), Value::Str("x".into())]),
            ),
        ]);
        let text = json_value(&v);
        let parsed = Json::parse(&text).expect("parses");
        assert_eq!(parsed.to_value(), v);
    }

    #[test]
    fn json_parser_handles_unicode_escapes() {
        let j = Json::parse(r#""aAé😀b""#).expect("parses");
        assert_eq!(j.as_str(), Some("aAé😀b"));
        // Unpaired surrogate degrades to the replacement char.
        let j = Json::parse(r#""x\ud800y""#).expect("parses");
        assert_eq!(j.as_str(), Some("x\u{FFFD}y"));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn recording_round_trips_through_jsonl() {
        let mut rec = Recorder::new(
            RecorderConfig {
                capacity_ticks: 0,
                checkpoint_every: 2,
            },
            BTreeMap::from([("seed".to_owned(), "42".to_owned())]),
        );
        rec.record_open(10, &[0, 1, 2], vec![(0, "a".into()), (1, "b".into()), (2, "c".into())]);
        for t in 0..4u64 {
            let inputs = vec![RecordedInput {
                session: t % 3,
                signal: "beat\"x".to_owned(),
                value: Value::Num(t as f64),
            }];
            let digests = rec
                .wants_checkpoint(t)
                .then(|| vec![(0, format!("d{t}")), (1, "dd".to_owned())]);
            rec.record_tick(t, inputs, digests);
        }
        let rec = rec.into_recording();
        assert_eq!(rec.ticks.len(), 4);
        assert!(rec.ticks[1].digests.is_some(), "checkpoint every 2: after tick 1");
        assert!(rec.ticks[0].digests.is_none());
        let text = rec.to_jsonl();
        let back = Recording::from_jsonl(&text).expect("parses");
        assert_eq!(back, rec, "lossless round-trip");
        assert_eq!(back.scenario["seed"], "42");
        assert_eq!(back.input_count(), 4);
        assert!(back.replayable());
    }

    #[test]
    fn ring_buffer_evicts_and_blocks_replay() {
        let mut rec = Recorder::new(
            RecorderConfig {
                capacity_ticks: 2,
                checkpoint_every: 0,
            },
            BTreeMap::new(),
        );
        rec.record_open(10, &[0], vec![]);
        for t in 0..5u64 {
            rec.record_tick(t, Vec::new(), None);
        }
        let rec = rec.into_recording();
        assert_eq!(rec.ticks.len(), 2);
        assert_eq!(rec.dropped, 3);
        assert_eq!(rec.ticks[0].tick, 3, "oldest retained tick");
        assert!(!rec.replayable());
        // The eviction state survives serialization.
        let back = Recording::from_jsonl(&rec.to_jsonl()).expect("parses");
        assert!(!back.replayable());
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let text = "{\"type\":\"flight\",\"version\":999,\"tick_ms\":10,\"dropped\":0,\"scenario\":{}}\n";
        let err = Recording::from_jsonl(text).expect_err("unknown version");
        assert!(err.contains("version 999"), "{err}");
        let err = Recording::from_jsonl("{\"type\":\"tick\",\"tick\":0,\"inputs\":[]}\n")
            .expect_err("missing header");
        assert!(err.contains("missing header"), "{err}");
    }

    #[test]
    fn digest_hash_is_stable_and_collision_sensitive() {
        assert_eq!(digest_hash("abc"), digest_hash("abc"));
        assert_ne!(digest_hash("abc"), digest_hash("abd"));
        assert_eq!(digest_hash("x").len(), 16);
    }

    #[test]
    fn replay_report_renders_json() {
        let report = ReplayReport {
            ticks: 8,
            checked: 24,
            mismatches: vec![DigestMismatch {
                tick: 3,
                session: 7,
                expected: "aa".into(),
                actual: "bb".into(),
            }],
        };
        let j = Json::parse(report.to_json().trim()).expect("valid JSON");
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("checked").and_then(Json::as_u64), Some(24));
        let m = &j.get("first_mismatches").and_then(Json::as_array).unwrap()[0];
        assert_eq!(m.get("tick").and_then(Json::as_u64), Some(3));
    }
}
