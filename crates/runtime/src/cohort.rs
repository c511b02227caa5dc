//! Bit-parallel cohort execution: one levelized sweep advances many
//! sessions of the same circuit in lockstep.
//!
//! The pool's hot loop (E10) runs N sessions of one compiled program,
//! each through its own scalar level sweep. The sweep is embarrassingly
//! data-parallel across sessions: a net's value is a pure boolean
//! function of fanin values that were computed earlier in topological
//! order. This module packs the per-session net states into a
//! structure-of-arrays layout — one *row* of `u64` lane words per net,
//! [`LANES_PER_WORD`] sessions per word, two bits per session (value bit
//! at `2s`, determined bit at `2s+1`, a two-bit ternary encoding) — and
//! evaluates each pure gate for the whole cohort with branch-free
//! bitwise kernels derived from the existing [`LevelSchedule`] opcodes.
//!
//! Sessions *diverge* wherever per-session state enters the sweep: data
//! tests, emitted values, host atoms, counters, async hooks, chaos
//! draws. Those nets are executed per lane, in schedule order, against
//! the lane's own [`Machine`]: the net's dependency values are
//! *scattered* from the packed rows into the machine's scalar `value`
//! array (⊥ for undetermined nets; the scalar sweep has written every net
//! the action may read by that point) and the existing `eval_test` / `run_action` paths run
//! unchanged — same trace events, same chaos stream, same rollback. A
//! lane whose action fails is *peeled*: its remaining effectful work is
//! skipped for the instant (the scalar engine aborts its sweep the same
//! way) and the machine rolls back alone; its lane-mates never notice.
//!
//! A cohort keeps no reaction frame of its own: each lane runs the
//! machine's begin, commit, finish and rollback steps — the very code
//! [`Machine::react`] runs — and only the sweep between them is packed.
//! A cohort reaction is therefore observationally identical to a scalar
//! one:
//! [`Machine::state_digest`] — computed from the committed registers,
//! presence bits and values that the packed planes produced — matches
//! the scalar digest exactly, which the cohort differential battery
//! (`tests/cohort.rs`) proves across the Esterel conformance table.

use crate::error::RuntimeError;
use crate::levelized::{
    EngineMode, LevelSchedule, CODE_AND, CODE_AND_EARLY, CODE_AND_LATE, CODE_CONST0, CODE_CONST1,
    CODE_INPUT, CODE_OR, CODE_OR_EARLY, CODE_OR_LATE, CODE_REG, CODE_TEST,
};
use crate::machine::{Machine, Reaction};
use hiphop_circuit::{Action, Circuit, NetKind, TestKind};
use hiphop_core::expr::SigAccess;
use std::time::Instant;

/// Sessions per `u64` lane word: two bits per session (value + determined).
pub const LANES_PER_WORD: usize = 32;

/// Value bits of every lane in a word (bit `2s`).
const VAL_MASK: u64 = 0x5555_5555_5555_5555;
/// Determined bits of every lane in a word (bit `2s + 1`).
const DET_MASK: u64 = !VAL_MASK;

/// Per-circuit execution recipe for the cohort sweep, built once per
/// program image and shared by its machines: for every effectful net
/// (test, early or late action), the exact set of nets whose packed
/// values must be scattered into the lane machine before its scalar
/// evaluation runs.
///
/// The set is the net's declared dependency edges plus the `pre` nets of
/// every `S.pre` / `S.preval` read in its expressions — `pre` reads are
/// deliberately dep-edge-free in the compiler (they cannot create
/// causality cycles), but the scalar engines satisfy them from the
/// always-swept `value` array, so the cohort path must materialize them
/// explicitly. Async hook actions take opaque host closures that may
/// read any signal through their environment; their nets are flagged
/// for a full swept-prefix scatter instead.
#[derive(Debug)]
pub struct CohortPlan {
    /// Indexed by net id; empty for pure nets.
    scatter: Vec<Box<[u32]>>,
    /// Nets whose action runs an opaque async hook: scatter every net
    /// swept so far (the scalar engine's exact observable state).
    prefix: Vec<bool>,
}

pub(crate) fn build_plan(circuit: &Circuit, sched: &LevelSchedule) -> CohortPlan {
    let n = circuit.nets().len();
    let mut scatter: Vec<Box<[u32]>> = Vec::with_capacity(n);
    let mut prefix = vec![false; n];
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        if !matches!(
            sched.code[i],
            CODE_TEST | CODE_OR_EARLY | CODE_AND_EARLY | CODE_OR_LATE | CODE_AND_LATE
        ) {
            scatter.push(Box::new([]));
            continue;
        }
        let net = &circuit.nets()[i];
        let mut list: Vec<u32> = net.deps.iter().map(|d| d.index() as u32).collect();
        let mut reads: Vec<(String, SigAccess)> = Vec::new();
        if let NetKind::Test(kind) = &net.kind {
            match kind {
                TestKind::Expr(e) => reads.extend(e.signal_reads()),
                TestKind::CounterElapsed { cond, .. } => reads.extend(cond.signal_reads()),
            }
        }
        if let Some(a) = net.action {
            match &circuit.actions()[a.index()] {
                Action::Emit { value, .. } => {
                    if let Some(e) = value {
                        reads.extend(e.signal_reads());
                    }
                }
                Action::Atom(body) => reads.extend(body.signal_reads()),
                Action::CounterReset { value, .. } => reads.extend(value.signal_reads()),
                Action::AsyncSpawn(_)
                | Action::AsyncKill(_)
                | Action::AsyncSuspend(_)
                | Action::AsyncResume(_) => prefix[i] = true,
                Action::AsyncDone(_) => {}
            }
        }
        for (name, access) in reads {
            if let Some(sig) = circuit.signal_by_name(&name) {
                let info = circuit.signal(sig);
                list.push(match access {
                    SigAccess::Now | SigAccess::NowVal => info.status_net.index() as u32,
                    SigAccess::Pre | SigAccess::PreVal => info.pre_net.index() as u32,
                });
            }
        }
        list.sort_unstable();
        list.dedup();
        scatter.push(list.into_boxed_slice());
    }
    CohortPlan { scatter, prefix }
}

// FNV-1a folding eight bytes per round: the schedule tables digested by
// `structural_key` run to ~16 bytes per net, and a per-byte loop over
// them is slow enough to show up next to the sweep itself.
fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        *h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for &b in chunks.remainder() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fnv_u32s(h: &mut u64, words: &[u32]) {
    let mut chunks = words.chunks_exact(2);
    for c in chunks.by_ref() {
        *h ^= u64::from(c[0]) | (u64::from(c[1]) << 32);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for &word in chunks.remainder() {
        *h ^= u64::from(word);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Whether this machine can join a cohort at all: the levelized engine
/// must be in effect (automatically or by request) and no per-net
/// observability that the shared sweep cannot reproduce may be armed
/// (fine-grained net events, per-level activity accounting). Ineligible
/// machines simply stay on the scalar path.
fn eligible(m: &Machine) -> bool {
    m.image.schedule.is_some()
        && matches!(m.requested, None | Some(EngineMode::Levelized))
        && !m.fine_events
        && m.level_activity.is_none()
}

/// The machine's cohort grouping key: machines with equal keys share a
/// structurally identical compiled program (same schedule tables, same
/// dimensions) and may run in one cohort. `None` means the machine is
/// not cohort-eligible (cyclic circuit, non-levelized engine request,
/// fine-grained tracing) and must stay on the scalar path.
///
/// The key hashes the schedule's structure, so separately compiled but
/// identical programs group together too; it is computed once per
/// program image (eligibility stays dynamic).
pub fn cohort_key(m: &Machine) -> Option<u64> {
    eligible(m).then(|| m.image.cohort_key())
}

/// The structural hash behind [`cohort_key`]: program name, dimensions
/// and every schedule table the shared sweep reads.
pub(crate) fn structural_key(c: &Circuit, sched: &LevelSchedule) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    fnv_bytes(&mut h, c.name.as_bytes());
    for dim in [
        c.nets().len(),
        c.signals().len(),
        c.registers().len(),
        c.counters().len(),
        c.asyncs().len(),
    ] {
        fnv_bytes(&mut h, &(dim as u64).to_le_bytes());
    }
    fnv_u32s(&mut h, &sched.order);
    fnv_bytes(&mut h, &sched.code);
    fnv_u32s(&mut h, &sched.aux);
    fnv_u32s(&mut h, &sched.fanin_start);
    fnv_u32s(&mut h, &sched.fanin_edges);
    h
}

#[inline]
fn lane_word(s: usize) -> usize {
    s / LANES_PER_WORD
}

#[inline]
fn lane_bit(s: usize) -> u64 {
    1u64 << (2 * (s % LANES_PER_WORD))
}

/// Scatters the packed values of `list` into the lane machine's scalar
/// `value` array, with the determined-bit guard: an undetermined net
/// reads as ⊥ (−1). Every net in `list` precedes the reader in schedule
/// order, so the scalar sweep shows the same values at that point.
fn scatter(m: &mut Machine, list: &[u32], rows: &[u64], w: usize, s: usize) {
    let word = lane_word(s);
    let shift = 2 * (s % LANES_PER_WORD);
    for &d in list {
        let cell = rows[d as usize * w + word] >> shift;
        m.value[d as usize] = if cell & 2 != 0 { (cell & 1) as i8 } else { -1 };
    }
}

/// OR-folds one fanin row into `acc` (value bits only). Returns whether
/// every live lane already saturated to the controlling value, enabling
/// the same early exit the scalar fold takes.
#[inline]
fn or_into(acc: &mut [u64], src: &[u64], neg: u64, present: &[u64]) -> bool {
    let mut done = true;
    for ((a, s), p) in acc.iter_mut().zip(src).zip(present) {
        *a |= (*s ^ neg) & VAL_MASK;
        done &= *a & *p == *p;
    }
    done
}

#[inline]
fn and_into(acc: &mut [u64], src: &[u64], neg: u64, present: &[u64]) -> bool {
    let mut done = true;
    for ((a, s), p) in acc.iter_mut().zip(src).zip(present) {
        *a &= (*s ^ neg) & VAL_MASK;
        done &= *a & *p == 0;
    }
    done
}

/// Folds a gate's fanins across the whole cohort into `acc` (value bits).
fn fold_gate(
    rows: &[u64],
    sched: &LevelSchedule,
    i: usize,
    or_gate: bool,
    acc: &mut [u64],
    present: &[u64],
) {
    let w = acc.len();
    acc.fill(if or_gate { 0 } else { VAL_MASK });
    for &edge in sched.fanins(i) {
        let src = &rows[(edge >> 1) as usize * w..(edge >> 1) as usize * w + w];
        let neg = if edge & 1 == 1 { VAL_MASK } else { 0 };
        let saturated = if or_gate {
            or_into(acc, src, neg, present)
        } else {
            and_into(acc, src, neg, present)
        };
        if saturated {
            break;
        }
    }
}

/// Runs one instant for every lane machine in lockstep.
///
/// The caller groups the lanes by [`cohort_key`] — all lanes must share
/// one key. (If the lanes are not cohort-eligible at all, each falls
/// back to its own scalar [`Machine::react`].) Inputs are staged per
/// lane beforehand, exactly as for a scalar reaction; the result vector
/// is index-aligned with `lanes`.
///
/// Each lane runs the machine's begin phase, the packed sweep, then the
/// machine's commit (from the lane's packed bits) and finish phase — or
/// its rollback step when the lane faulted; only the pure-gate middle
/// runs bit-parallel across the cohort.
pub fn react_cohort(lanes: &mut [&mut Machine]) -> Vec<Result<Reaction, RuntimeError>> {
    let k = lanes.len();
    if k == 0 {
        return Vec::new();
    }
    let Some(key0) = cohort_key(lanes[0]) else {
        return lanes.iter_mut().map(|m| m.react()).collect();
    };
    debug_assert!(
        lanes.iter().all(|m| cohort_key(m) == Some(key0)),
        "react_cohort lanes must share one cohort_key"
    );
    let image = lanes[0].image.clone();
    let circuit = &image.circuit;
    let sched = image.schedule.as_ref().expect("eligible lane has a schedule");
    let plan = image.cohort_plan();
    let w = k.div_ceil(LANES_PER_WORD);

    let mut rows = vec![0u64; circuit.nets().len() * w];
    let mut reg_rows = vec![0u64; circuit.registers().len() * w];
    // Value-bit mask of live (not yet peeled) lanes; `present` keeps the
    // full lane population for the saturation early-exit.
    let mut alive = vec![0u64; w];
    let mut failures: Vec<Option<RuntimeError>> = (0..k).map(|_| None).collect();

    // Begin: the machine's own phase stages each lane; its presence set
    // then seeds the input rows (value bits only — the sweep marks them
    // determined) and its registers the packed register plane.
    let t0 = lanes.iter().any(|m| !m.sinks.is_empty()).then(Instant::now);
    for (s, m) in lanes.iter_mut().enumerate() {
        m.begin(circuit);
        let word = lane_word(s);
        let bit = lane_bit(s);
        for &net in &m.present_nets {
            rows[net as usize * w + word] |= bit;
        }
        for (r, on) in m.regs.iter().enumerate() {
            if *on {
                reg_rows[r * w + word] |= bit;
            }
        }
        alive[word] |= bit;
    }
    let present = alive.clone();

    // --------------------------------------------------- the shared sweep
    let mut acc = vec![0u64; w];
    for (pos, &id) in sched.order.iter().enumerate() {
        let i = id as usize;
        let base = i * w;
        match sched.code[i] {
            CODE_CONST0 => rows[base..base + w].fill(DET_MASK),
            CODE_CONST1 => rows[base..base + w].fill(DET_MASK | VAL_MASK),
            CODE_INPUT => {
                for cell in &mut rows[base..base + w] {
                    *cell |= DET_MASK;
                }
            }
            CODE_REG => {
                let r = sched.aux[i] as usize * w;
                for wi in 0..w {
                    rows[base + wi] = DET_MASK | reg_rows[r + wi];
                }
            }
            code @ (CODE_OR | CODE_AND) => {
                fold_gate(&rows, sched, i, code == CODE_OR, &mut acc, &present);
                for wi in 0..w {
                    rows[base + wi] = DET_MASK | acc[wi];
                }
            }
            CODE_TEST => {
                // One control fanin; only control-1 lanes evaluate (and
                // pay counter side effects), matching the scalar engines.
                let edge = sched.fanins(i)[0];
                let src = (edge >> 1) as usize * w;
                let neg = if edge & 1 == 1 { VAL_MASK } else { 0 };
                for wi in 0..w {
                    acc[wi] = (rows[src + wi] ^ neg) & VAL_MASK;
                }
                for wi in 0..w {
                    rows[base + wi] = 0;
                    let mut bits = acc[wi] & alive[wi];
                    while bits != 0 {
                        let t = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let s = wi * LANES_PER_WORD + t / 2;
                        let m = &mut *lanes[s];
                        scatter(m, &plan.scatter[i], &rows, w, s);
                        let mc = m.image.clone();
                        if m.eval_test(&mc.circuit, id) {
                            rows[base + wi] |= 1 << t;
                        }
                    }
                    rows[base + wi] |= DET_MASK;
                }
            }
            code @ (CODE_OR_EARLY | CODE_AND_EARLY | CODE_OR_LATE | CODE_AND_LATE) => {
                let or_gate = matches!(code, CODE_OR_EARLY | CODE_OR_LATE);
                fold_gate(&rows, sched, i, or_gate, &mut acc, &present);
                for wi in 0..w {
                    let mut bits = acc[wi] & alive[wi];
                    while bits != 0 {
                        let t = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let s = wi * LANES_PER_WORD + t / 2;
                        let m = &mut *lanes[s];
                        if plan.prefix[i] {
                            // Opaque async hook: materialize the full
                            // swept prefix, every net the scalar walker
                            // has written this instant at this point.
                            for &pid in &sched.order[..pos] {
                                let p = pid as usize;
                                let cell = rows[p * w + wi] >> (t & !1);
                                m.value[p] = (cell & 1) as i8;
                            }
                        } else {
                            scatter(m, &plan.scatter[i], &rows, w, s);
                        }
                        let mc = m.image.clone();
                        let mut emit_count = std::mem::take(&mut m.emit_count);
                        let ran = m.run_action(&mc.circuit, id, &mut emit_count);
                        m.emit_count = emit_count;
                        if let Err(e) = ran {
                            // Peel: the lane's remaining effectful work
                            // is skipped (the scalar sweep aborts the
                            // same way); it rolls back after the sweep.
                            failures[s] = Some(e);
                            alive[wi] &= !(1u64 << t);
                        }
                    }
                    rows[base + wi] = DET_MASK | acc[wi];
                }
            }
            code => unreachable!("bad opcode {code}"),
        }
    }

    // Finish: each lane commits straight from its packed bits through the
    // machine's one commit, then runs the machine's own finish phase,
    // reporting an equal share of the sweep's wall time.
    let share = t0.map(|t| t.elapsed() / k as u32);
    let mut results = Vec::with_capacity(k);
    for (s, m) in lanes.iter_mut().enumerate() {
        if let Some(e) = failures[s].take() {
            m.abort(EngineMode::Levelized);
            results.push(Err(e));
            continue;
        }
        let word = lane_word(s);
        let shift = 2 * (s % LANES_PER_WORD);
        m.commit_all(circuit, false, |i| rows[i * w + word] >> shift & 1 != 0);
        m.events = sched.order.len();
        let took = share.filter(|_| !m.sinks.is_empty());
        results.push(Ok(m.finish(EngineMode::Levelized, took)));
    }
    results
}
