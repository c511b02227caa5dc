//! The engine selector ([`EngineMode`]) and the schedules of the block
//! walker: topological-sweep evaluation with cycles kept apart.
//!
//! Classic Esterel compilers special-case the common acyclic case: when
//! the combinational graph (gate fanins *plus* data-dependency edges)
//! levelizes, a reaction needs no constructive ⊥-bookkeeping at all —
//! every net can be computed exactly once by sweeping the nets in level
//! order, because all of a net's fanins and dependencies stabilize at
//! strictly lower levels. Actions fire in level order at their net's
//! stabilization point, which subsumes the FIFO engine's
//! micro-scheduling: an action's data dependencies are dependency edges,
//! so they sit below it in the order.
//!
//! A cyclic circuit is swept in its SCC condensation order instead
//! ([`HybridSchedule`]): dense blocks of acyclic nets, and one cyclic
//! block per strongly connected component, iterated to its local
//! constructive fixpoint. An acyclic circuit is the special case of a
//! single dense block over the level schedule, so one walker
//! (`Machine::walk`) serves both; it reads every fanin from the
//! machine's `value` plane, which the sweep itself writes in order.

use crate::machine::Class;
use hiphop_circuit::{Circuit, Condensation, NetKind};
use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

/// The reaction-evaluation strategy of a [`crate::Machine`].
///
/// All three engines implement the same constructive semantics and must
/// agree on every reaction (the differential test battery checks this
/// against the constructive reference and the `hiphop-interp`
/// interpreter); they differ in how the least fixpoint is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// The block walker, selected automatically: dense sweeps in
    /// topological order over acyclic regions (no queue, no
    /// ⊥-bookkeeping), and local constructive iteration inside each
    /// strongly connected component of a cyclic circuit, with an
    /// SCC-scoped causality check. An acyclic circuit is one dense block.
    Levelized,
    /// The constructive FIFO event engine (paper §5.2): linear-time
    /// queue propagation in ternary logic over the whole circuit, with
    /// causality-deadlock reporting — the faithful reference the other
    /// engines are checked against.
    #[default]
    Constructive,
    /// Dirty-set incremental sweep over the level schedule: each
    /// instant seeds a worklist from changed inputs, registers that
    /// flipped at the previous commit, and the standing "hot" set of
    /// side-effectful nets, then propagates through the CSR fanout
    /// tables in level order — untouched levels are skipped entirely.
    /// Byte-identical to [`EngineMode::Levelized`] (the differential
    /// battery proves it); available only for acyclic circuits and
    /// falls back to the block walker otherwise.
    Sparse,
}

impl EngineMode {
    /// Lower-case name used in telemetry encodings, snapshots and the
    /// CLI.
    pub fn name(self) -> &'static str {
        match self {
            EngineMode::Levelized => "levelized",
            EngineMode::Constructive => "constructive",
            EngineMode::Sparse => "sparse",
        }
    }
}

impl fmt::Display for EngineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The one mapping from engine names to modes. `hybrid` and `naive`
/// name engines that were folded into the block walker and the
/// constructive reference; they still parse, so command lines and
/// durable snapshots that carry them keep working.
impl FromStr for EngineMode {
    type Err = String;
    fn from_str(s: &str) -> Result<EngineMode, String> {
        match s {
            "levelized" | "hybrid" => Ok(EngineMode::Levelized),
            "constructive" | "naive" => Ok(EngineMode::Constructive),
            "sparse" => Ok(EngineMode::Sparse),
            other => Err(format!(
                "unknown engine `{other}` (expected levelized, constructive or sparse)"
            )),
        }
    }
}

// Per-net opcodes of the dense schedule. Gates fold their fanins with an
// early exit on the controlling value; EARLY runs its action when the
// gate is 1 (the value is the gate value), LATE determines to 1 only by
// running its action.
pub(crate) const CODE_CONST0: u8 = 0;
pub(crate) const CODE_CONST1: u8 = 1;
pub(crate) const CODE_INPUT: u8 = 2;
pub(crate) const CODE_REG: u8 = 3;
pub(crate) const CODE_OR: u8 = 4;
pub(crate) const CODE_AND: u8 = 5;
pub(crate) const CODE_TEST: u8 = 6;
pub(crate) const CODE_OR_EARLY: u8 = 7;
pub(crate) const CODE_AND_EARLY: u8 = 8;
pub(crate) const CODE_OR_LATE: u8 = 9;
pub(crate) const CODE_AND_LATE: u8 = 10;

/// The precomputed dense schedule of the levelized engine: nets in
/// topological order (grouped by level), per-net opcodes, and fanins
/// flattened into one contiguous array of `net << 1 | negated` words.
#[derive(Debug, Clone)]
pub(crate) struct LevelSchedule {
    /// Every net exactly once, topologically sorted, level-grouped.
    pub(crate) order: Vec<u32>,
    /// Number of topological levels.
    pub(crate) levels: usize,
    /// Start offset of each level in `order` (length `levels + 1`) —
    /// the level-activity counters bucket net evaluations with it.
    pub(crate) level_starts: Vec<u32>,
    /// Width of the widest level.
    pub(crate) max_width: usize,
    /// Per-net opcode (`CODE_*`), indexed by net id.
    pub(crate) code: Vec<u8>,
    /// Per-net auxiliary index (register index for `CODE_REG`).
    pub(crate) aux: Vec<u32>,
    /// CSR offsets into `fanin_edges`, indexed by net id (length n+1).
    pub(crate) fanin_start: Vec<u32>,
    /// Flattened fanin edges, packed as `source_net << 1 | negated`.
    pub(crate) fanin_edges: Vec<u32>,
}

impl LevelSchedule {
    /// Builds the schedule, or `None` when the circuit has a static
    /// combinational cycle and must keep the constructive engine.
    pub(crate) fn build(circuit: &Circuit, class: &[Class]) -> Option<LevelSchedule> {
        let lv = circuit.levelize()?;
        Some(LevelSchedule::with_order(
            circuit,
            class,
            lv.order.iter().map(|id| id.0).collect(),
            lv.levels(),
            lv.level_starts.clone(),
            lv.max_width(),
        ))
    }

    /// Builds the dense per-net tables around an externally supplied net
    /// order (the levelization for acyclic circuits, the condensation
    /// topological order for hybrid scheduling). The tables are net-id
    /// indexed, so they are valid for any order covering every net once.
    pub(crate) fn with_order(
        circuit: &Circuit,
        class: &[Class],
        order: Vec<u32>,
        levels: usize,
        level_starts: Vec<u32>,
        max_width: usize,
    ) -> LevelSchedule {
        let n = circuit.nets().len();
        let mut code = vec![0u8; n];
        let mut aux = vec![0u32; n];
        let mut fanin_start = Vec::with_capacity(n + 1);
        let mut fanin_edges = Vec::new();
        fanin_start.push(0u32);
        for (i, net) in circuit.nets().iter().enumerate() {
            for f in &net.fanins {
                fanin_edges.push((f.net.0 << 1) | f.negated as u32);
            }
            fanin_start.push(fanin_edges.len() as u32);
            let is_or = !matches!(net.kind, NetKind::And);
            code[i] = match (&net.kind, class[i]) {
                (NetKind::Const(false), _) => CODE_CONST0,
                (NetKind::Const(true), _) => CODE_CONST1,
                (NetKind::Input, _) => CODE_INPUT,
                (NetKind::RegOut(r), _) => {
                    aux[i] = r.0;
                    CODE_REG
                }
                (NetKind::Test(_), _) => CODE_TEST,
                (_, Class::Gate) if is_or => CODE_OR,
                (_, Class::Gate) => CODE_AND,
                (_, Class::Early) if is_or => CODE_OR_EARLY,
                (_, Class::Early) => CODE_AND_EARLY,
                (_, Class::Late) if is_or => CODE_OR_LATE,
                (_, Class::Late) => CODE_AND_LATE,
                (kind, class) => unreachable!("net {i}: {kind:?} classified {class:?}"),
            };
        }
        LevelSchedule {
            order,
            levels,
            level_starts,
            max_width,
            code,
            aux,
            fanin_start,
            fanin_edges,
        }
    }

    /// Fanin edges of net `i`.
    #[inline]
    pub(crate) fn fanins(&self, i: usize) -> &[u32] {
        &self.fanin_edges[self.fanin_start[i] as usize..self.fanin_start[i + 1] as usize]
    }
}

/// One contiguous run of the hybrid schedule's net order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Block {
    /// Positions `start..end` of the order form an acyclic run: a single
    /// dense sweep determines every net.
    Dense { start: u32, end: u32 },
    /// Positions `start..end` hold the members of one nontrivial SCC:
    /// iterate them constructively until the local fixpoint.
    Cyclic { start: u32, end: u32 },
}

/// The block walker's schedule: a [`LevelSchedule`] partitioned into
/// dense runs and cyclic blocks. An acyclic circuit is one dense block;
/// a cyclic circuit's order is its SCC condensation's topological order,
/// with one cyclic block per nontrivial SCC.
#[derive(Debug, Clone)]
pub(crate) struct HybridSchedule {
    /// Dense per-net tables plus the condensation topological order.
    pub(crate) sched: Rc<LevelSchedule>,
    /// Partition of `sched.order` into dense and cyclic runs.
    pub(crate) blocks: Vec<Block>,
}

impl HybridSchedule {
    /// Wraps an acyclic circuit's levelized schedule as one dense block,
    /// sharing the allocation with the image's level schedule.
    pub(crate) fn acyclic(sched: Rc<LevelSchedule>) -> HybridSchedule {
        let end = sched.order.len() as u32;
        HybridSchedule {
            sched,
            blocks: vec![Block::Dense { start: 0, end }],
        }
    }

    /// Builds the schedule for a cyclic circuit from its condensation:
    /// the net order is the condensation topological order with every
    /// source net moved to the front, maximal runs of trivial components
    /// collapse into dense blocks, and each nontrivial SCC becomes one
    /// cyclic block. Sources lead because a `pre(S)` read has no edge to
    /// S's pre-register net (a source, so the move keeps the order
    /// topological); the walker reads the value plane without clearing
    /// it, so the source must be swept before its readers.
    pub(crate) fn cyclic(circuit: &Circuit, class: &[Class], cond: &Condensation) -> HybridSchedule {
        let comps = 0..cond.comps() as u32;
        let is_source = |c: &u32| {
            !cond.is_nontrivial(*c) && class[cond.members(*c)[0].index()] == Class::Source
        };
        let mut order = Vec::with_capacity(circuit.nets().len());
        let mut blocks = Vec::new();
        let mut pos = 0u32;
        let mut dense_start = 0u32;
        let mut max_dense = 0usize;
        let sources = comps.clone().filter(is_source);
        for comp in sources.chain(comps.filter(|c| !is_source(c))) {
            order.extend(cond.members(comp).iter().map(|id| id.0));
            let len = cond.members(comp).len() as u32;
            if cond.is_nontrivial(comp) {
                if pos > dense_start {
                    max_dense = max_dense.max((pos - dense_start) as usize);
                    blocks.push(Block::Dense {
                        start: dense_start,
                        end: pos,
                    });
                }
                blocks.push(Block::Cyclic {
                    start: pos,
                    end: pos + len,
                });
                dense_start = pos + len;
            }
            pos += len;
        }
        if pos > dense_start {
            max_dense = max_dense.max((pos - dense_start) as usize);
            blocks.push(Block::Dense {
                start: dense_start,
                end: pos,
            });
        }
        let levels = blocks.len();
        // Blocks partition the order contiguously, so their boundaries
        // double as the schedule's "levels" for activity accounting.
        let mut level_starts: Vec<u32> = blocks
            .iter()
            .map(|b| match b {
                Block::Dense { start, .. } | Block::Cyclic { start, .. } => *start,
            })
            .collect();
        level_starts.push(pos);
        let sched = Rc::new(LevelSchedule::with_order(
            circuit, class, order, levels, level_starts, max_dense,
        ));
        HybridSchedule { sched, blocks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_mode_parses_and_prints() {
        for m in [
            EngineMode::Levelized,
            EngineMode::Constructive,
            EngineMode::Sparse,
        ] {
            assert_eq!(m.name().parse::<EngineMode>(), Ok(m));
            assert_eq!(m.to_string(), m.name());
        }
        assert_eq!("hybrid".parse::<EngineMode>(), Ok(EngineMode::Levelized));
        assert_eq!("naive".parse::<EngineMode>(), Ok(EngineMode::Constructive));
        assert!("queue".parse::<EngineMode>().is_err());
        assert_eq!(EngineMode::default(), EngineMode::Constructive);
    }
}
