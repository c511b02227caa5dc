//! Compile-time constructiveness analysis.
//!
//! The paper defers causality errors (`X = not X`) to the runtime
//! fixpoint; Esterel's own toolchain shows most of them can be decided
//! statically. This module condenses the combinational graph (gate
//! fanins plus data dependencies — registers break cycles by
//! construction) into its strongly connected components, then runs a
//! bounded ternary-symbolic fixpoint per nontrivial SCC to classify it:
//!
//! * [`Verdict::Constructive`] — the SCC stabilizes under *every*
//!   assignment of its free bits (external fanin sources and host-data
//!   tests), so it can never cause a causality error;
//! * [`Verdict::NonConstructive`] — some net of the SCC stays ⊥ under
//!   every assignment (or under every boot-instant assignment), so every
//!   reaction is guaranteed to deadlock and the program can be rejected
//!   before it ever runs;
//! * [`Verdict::InputDependent`] — undecided within budget; the runtime
//!   keeps the constructive iteration and reports failures dynamically.
//!
//! The gate evaluation used here is Kleene's strong ternary logic, the
//! same least-fixpoint semantics the constructive engine implements, but
//! *ignoring* data-dependency edges and action micro-scheduling — an
//! over-approximation of determinability. A net the symbolic fixpoint
//! leaves ⊥ therefore stays ⊥ at runtime too, which makes the
//! `NonConstructive` verdict sound; the `Constructive` verdict
//! additionally requires that the SCC has no internal dependency edges
//! (boolean convergence says nothing about action resolution order).

use crate::circuit::CircuitBody;
use crate::net::{NetId, NetKind};
use std::collections::HashMap;

/// SCC condensation of a circuit's combinational graph, from
/// [`CircuitBody::condensation`]. Component ids are a topological
/// *evaluation* order: every fanin or dependency of a net lives in a
/// component with an id ≤ its consumer's (equal exactly when both sit on
/// the same cycle).
#[derive(Debug, Clone, Default)]
pub struct Condensation {
    /// Component id of each net, indexed by net id.
    comp_of: Vec<u32>,
    /// CSR offsets into `members` (length = component count + 1).
    comp_start: Vec<u32>,
    /// Every net exactly once, grouped by component in component order
    /// (ascending net id within a component). Because component ids are
    /// topological, this doubles as a valid evaluation order.
    members: Vec<NetId>,
    /// Ids of the nontrivial components (more than one net, or a single
    /// net with a self-edge), ascending.
    nontrivial: Vec<u32>,
}

impl Condensation {
    /// Number of components.
    pub fn comps(&self) -> usize {
        self.comp_start.len().saturating_sub(1)
    }

    /// Component id of a net.
    pub fn comp_of(&self, id: NetId) -> u32 {
        self.comp_of[id.index()]
    }

    /// Members of one component, ascending net ids.
    pub fn members(&self, comp: u32) -> &[NetId] {
        let s = self.comp_start[comp as usize] as usize;
        let e = self.comp_start[comp as usize + 1] as usize;
        &self.members[s..e]
    }

    /// Ids of the nontrivial (cyclic) components, ascending — which is
    /// also their topological order.
    pub fn nontrivial(&self) -> &[u32] {
        &self.nontrivial
    }

    /// Whether a component is cyclic.
    pub fn is_nontrivial(&self, comp: u32) -> bool {
        self.nontrivial.binary_search(&comp).is_ok()
    }

    /// Every net exactly once in a topological evaluation order
    /// (component by component; cyclic components appear as contiguous
    /// runs).
    pub fn topo_order(&self) -> &[NetId] {
        &self.members
    }

    /// Size of the largest component.
    pub fn largest(&self) -> usize {
        (0..self.comps())
            .map(|c| self.members(c as u32).len())
            .max()
            .unwrap_or(0)
    }
}

/// Outcome of the per-SCC constructiveness classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Stabilizes under every free-bit assignment; never deadlocks.
    Constructive,
    /// Deadlocks under every assignment (or every boot assignment);
    /// rejected at machine construction.
    NonConstructive,
    /// Undecided within the analysis budget; iterated at runtime.
    InputDependent,
}

impl Verdict {
    /// Lower-case name used by the CLI and lint framework.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Constructive => "constructive",
            Verdict::NonConstructive => "non-constructive",
            Verdict::InputDependent => "input-dependent",
        }
    }
}

/// One nontrivial SCC with its verdict.
#[derive(Debug, Clone)]
pub struct SccVerdict {
    /// Component id in the [`Condensation`].
    pub comp: u32,
    /// Classification of the component.
    pub verdict: Verdict,
}

/// Full analysis result: the condensation plus one verdict per
/// nontrivial SCC (aligned with [`Condensation::nontrivial`]).
#[derive(Debug, Clone, Default)]
pub struct ConstructivenessAnalysis {
    /// The SCC condensation the verdicts refer to.
    pub condensation: Condensation,
    /// Verdicts of the nontrivial components, in topological order.
    pub verdicts: Vec<SccVerdict>,
}

impl ConstructivenessAnalysis {
    /// Members of the first provably non-constructive SCC, if any.
    pub fn first_non_constructive(&self) -> Option<&[NetId]> {
        self.verdicts
            .iter()
            .find(|s| s.verdict == Verdict::NonConstructive)
            .map(|s| self.condensation.members(s.comp))
    }

    /// How many nontrivial SCCs carry `verdict`.
    pub fn count(&self, verdict: Verdict) -> usize {
        self.verdicts.iter().filter(|s| s.verdict == verdict).count()
    }

    /// Number of nontrivial (cyclic) SCCs.
    pub fn cyclic_sccs(&self) -> usize {
        self.verdicts.len()
    }

    /// Size of the largest SCC (1 when the circuit is acyclic).
    pub fn largest_scc(&self) -> usize {
        self.condensation.largest()
    }
}

// Analysis budgets: free-bit enumeration is exponential, so both checks
// cap the bit count, the net count, and the total number of net
// evaluations; anything larger is reported `InputDependent` and left to
// the runtime.
const LOCAL_MAX_BITS: u32 = 12;
const LOCAL_MAX_NETS: usize = 512;
const CONE_MAX_BITS: u32 = 10;
const CONE_MAX_NETS: usize = 2048;
const WORK_BUDGET: u64 = 1 << 22;

impl CircuitBody {
    /// Computes the SCC condensation of the combinational graph (fanin
    /// edges plus data dependencies). Works on unfinalized circuits.
    pub fn condensation(&self) -> Condensation {
        let n = self.nets().len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next = 0usize;
        let mut comp_of = vec![0u32; n];
        let mut comps: Vec<Vec<NetId>> = Vec::new();

        // Iterative Tarjan (mirrors `static_cycles`); components pop in
        // reverse topological order of the consumer→producer edges, i.e.
        // producers first — exactly the evaluation order we want.
        struct Frame {
            v: usize,
            edge: usize,
        }
        let succ = |v: usize| -> Vec<usize> {
            let net = &self.nets()[v];
            let mut s: Vec<usize> = net.fanins.iter().map(|f| f.net.index()).collect();
            s.extend(net.deps.iter().map(|d| d.index()));
            s
        };
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut frames = vec![Frame { v: start, edge: 0 }];
            index[start] = next;
            low[start] = next;
            next += 1;
            stack.push(start);
            on_stack[start] = true;
            while let Some(fr) = frames.last_mut() {
                let v = fr.v;
                let succs = succ(v);
                if fr.edge < succs.len() {
                    let w = succs[fr.edge];
                    fr.edge += 1;
                    if index[w] == usize::MAX {
                        index[w] = next;
                        low[w] = next;
                        next += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push(Frame { v: w, edge: 0 });
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        let comp_id = comps.len() as u32;
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w] = false;
                            comp_of[w] = comp_id;
                            comp.push(NetId(w as u32));
                            if w == v {
                                break;
                            }
                        }
                        comp.sort();
                        comps.push(comp);
                    }
                    frames.pop();
                    if let Some(parent) = frames.last() {
                        let pv = parent.v;
                        low[pv] = low[pv].min(low[v]);
                    }
                }
            }
        }

        let mut comp_start = Vec::with_capacity(comps.len() + 1);
        let mut members = Vec::with_capacity(n);
        let mut nontrivial = Vec::new();
        comp_start.push(0u32);
        for (k, comp) in comps.iter().enumerate() {
            let cyclic = comp.len() > 1
                || succ(comp[0].index()).contains(&comp[0].index());
            if cyclic {
                nontrivial.push(k as u32);
            }
            members.extend_from_slice(comp);
            comp_start.push(members.len() as u32);
        }
        Condensation {
            comp_of,
            comp_start,
            members,
            nontrivial,
        }
    }

    /// Runs the full constructiveness analysis: condensation plus a
    /// bounded ternary-symbolic fixpoint per nontrivial SCC.
    pub fn constructiveness(&self) -> ConstructivenessAnalysis {
        let condensation = self.condensation();
        let verdicts = condensation
            .nontrivial()
            .iter()
            .map(|&comp| SccVerdict {
                comp,
                verdict: self.classify_scc(&condensation, comp),
            })
            .collect();
        ConstructivenessAnalysis {
            condensation,
            verdicts,
        }
    }

    fn classify_scc(&self, cond: &Condensation, comp: u32) -> Verdict {
        let members = cond.members(comp);
        match self.local_check(cond, comp, members) {
            Some(LocalOutcome::AllStuck) => return Verdict::NonConstructive,
            Some(LocalOutcome::AllConverge) => {
                // Boolean convergence alone does not rule out a
                // resolution deadlock through internal dependency edges
                // (e.g. `emit S(S.nowval)`), so those stay undecided.
                let internal_dep = members.iter().any(|&m| {
                    self.net(m)
                        .deps
                        .iter()
                        .any(|d| cond.comp_of(*d) == comp)
                });
                if !internal_dep {
                    return Verdict::Constructive;
                }
            }
            Some(LocalOutcome::Mixed) | None => {}
        }
        // Mixed or over budget: check whether the SCC is stuck under
        // every *boot-instant* assignment (registers at their init
        // values). Registers only commit after a successful reaction, so
        // a machine stuck at boot is stuck forever.
        match self.boot_cone_check(members) {
            Some(true) => Verdict::NonConstructive,
            _ => Verdict::InputDependent,
        }
    }

    /// Enumerates every assignment of the SCC's free bits (deduplicated
    /// external fanin sources, plus the host-data outcome of member test
    /// nets) and runs the Kleene fixpoint restricted to the SCC.
    fn local_check(
        &self,
        cond: &Condensation,
        comp: u32,
        members: &[NetId],
    ) -> Option<LocalOutcome> {
        if members.len() > LOCAL_MAX_NETS {
            return None;
        }
        let lidx: HashMap<NetId, usize> = members
            .iter()
            .enumerate()
            .map(|(k, &m)| (m, k))
            .collect();
        // Free bits: external sources feeding the SCC (constants keep
        // their concrete value instead), then one bit per member that is
        // not a plain gate (test nets — host data — and, defensively,
        // any hand-built source caught in a dep cycle).
        let mut ext: Vec<NetId> = Vec::new();
        let mut member_bit: Vec<Option<usize>> = vec![None; members.len()];
        for (k, &m) in members.iter().enumerate() {
            for f in &self.net(m).fanins {
                if cond.comp_of(f.net) != comp
                    && !matches!(self.net(f.net).kind, NetKind::Const(_))
                    && !ext.contains(&f.net)
                {
                    ext.push(f.net);
                }
            }
            if !matches!(self.net(m).kind, NetKind::Or | NetKind::And) {
                member_bit[k] = Some(0); // patched below
            }
        }
        let mut bits = ext.len();
        for b in member_bit.iter_mut().filter(|b| b.is_some()) {
            *b = Some(bits);
            bits += 1;
        }
        if bits as u32 > LOCAL_MAX_BITS {
            return None;
        }
        let ext_bit: HashMap<NetId, usize> =
            ext.iter().enumerate().map(|(k, &e)| (e, k)).collect();

        let mut work = 0u64;
        let mut any_converged = false;
        let mut any_stuck = false;
        let mut vals = vec![-1i8; members.len()];
        for assignment in 0u64..(1u64 << bits) {
            vals.fill(-1);
            let bit = |b: usize| (assignment >> b) & 1 == 1;
            loop {
                let mut changed = false;
                for (k, &m) in members.iter().enumerate() {
                    if vals[k] >= 0 {
                        continue;
                    }
                    work += 1;
                    if work > WORK_BUDGET {
                        return None;
                    }
                    let net = self.net(m);
                    let read = |src: NetId, negated: bool| -> i8 {
                        let v = match lidx.get(&src) {
                            Some(&j) => vals[j],
                            None => match self.net(src).kind {
                                NetKind::Const(c) => c as i8,
                                _ => bit(ext_bit[&src]) as i8,
                            },
                        };
                        if v < 0 {
                            v
                        } else {
                            (v == 1) as i8 ^ negated as i8
                        }
                    };
                    let v = match &net.kind {
                        NetKind::Or | NetKind::And => {
                            let controlling = matches!(net.kind, NetKind::Or);
                            kleene_fold(
                                net.fanins.iter().map(|f| read(f.net, f.negated)),
                                controlling,
                            )
                        }
                        // A non-gate member: its outcome is a free bit,
                        // gated by the control fanin for tests.
                        _ => match net.fanins.first() {
                            Some(f) => match read(f.net, f.negated) {
                                -1 => -1,
                                0 => 0,
                                _ => bit(member_bit[k].expect("bit assigned")) as i8,
                            },
                            None => bit(member_bit[k].expect("bit assigned")) as i8,
                        },
                    };
                    if v >= 0 {
                        vals[k] = v;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            if vals.iter().any(|&v| v < 0) {
                any_stuck = true;
            } else {
                any_converged = true;
            }
            if any_stuck && any_converged {
                return Some(LocalOutcome::Mixed);
            }
        }
        Some(if any_stuck {
            LocalOutcome::AllStuck
        } else {
            LocalOutcome::AllConverge
        })
    }

    /// Evaluates the transitive fanin cone of the SCC at the boot
    /// instant: registers at their init values, inputs and test
    /// outcomes free. Returns `Some(true)` when some member stays ⊥
    /// under *every* assignment — i.e. the very first reaction (and,
    /// since failed reactions never commit registers, every later one)
    /// is guaranteed to deadlock.
    fn boot_cone_check(&self, members: &[NetId]) -> Option<bool> {
        // Transitive fanin closure (boolean stuckness only flows through
        // fanins, not dependency edges).
        let mut in_cone = vec![false; self.nets().len()];
        let mut cone: Vec<NetId> = Vec::new();
        for &m in members {
            in_cone[m.index()] = true;
            cone.push(m);
        }
        let mut head = 0;
        while head < cone.len() {
            let v = cone[head];
            head += 1;
            if cone.len() > CONE_MAX_NETS {
                return None;
            }
            for f in &self.net(v).fanins {
                if !in_cone[f.net.index()] {
                    in_cone[f.net.index()] = true;
                    cone.push(f.net);
                }
            }
        }
        // Free bits: environment inputs and host-data test outcomes.
        let mut bit_of: HashMap<NetId, usize> = HashMap::new();
        for &v in &cone {
            if matches!(self.net(v).kind, NetKind::Input | NetKind::Test(_)) {
                let b = bit_of.len();
                bit_of.insert(v, b);
            }
        }
        if bit_of.len() as u32 > CONE_MAX_BITS {
            return None;
        }
        let cidx: HashMap<NetId, usize> =
            cone.iter().enumerate().map(|(k, &v)| (v, k)).collect();

        let mut work = 0u64;
        let mut vals = vec![-1i8; cone.len()];
        for assignment in 0u64..(1u64 << bit_of.len()) {
            vals.fill(-1);
            let bit = |v: &NetId| (assignment >> bit_of[v]) & 1 == 1;
            loop {
                let mut changed = false;
                for (k, &v) in cone.iter().enumerate() {
                    if vals[k] >= 0 {
                        continue;
                    }
                    work += 1;
                    if work > WORK_BUDGET {
                        return None;
                    }
                    let net = self.net(v);
                    let read = |src: NetId, negated: bool| -> i8 {
                        let val = vals[cidx[&src]];
                        if val < 0 {
                            val
                        } else {
                            (val == 1) as i8 ^ negated as i8
                        }
                    };
                    let value = match &net.kind {
                        NetKind::Const(c) => *c as i8,
                        NetKind::Input => bit(&v) as i8,
                        NetKind::RegOut(r) => self.registers()[r.index()].init as i8,
                        NetKind::Test(_) => match net.fanins.first() {
                            Some(f) => match read(f.net, f.negated) {
                                -1 => -1,
                                0 => 0,
                                _ => bit(&v) as i8,
                            },
                            None => bit(&v) as i8,
                        },
                        NetKind::Or | NetKind::And => {
                            let controlling = matches!(net.kind, NetKind::Or);
                            kleene_fold(
                                net.fanins.iter().map(|f| read(f.net, f.negated)),
                                controlling,
                            )
                        }
                    };
                    if value >= 0 {
                        vals[k] = value;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            // Members occupy the first positions of `cone`.
            if members.iter().all(|m| vals[cidx[m]] >= 0) {
                return Some(false); // This assignment converges.
            }
        }
        Some(true)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocalOutcome {
    AllConverge,
    AllStuck,
    Mixed,
}

/// Kleene strong ternary gate fold: any controlling input decides the
/// gate; otherwise ⊥ inputs keep it ⊥; otherwise it is the neutral
/// value. Inputs are -1 (⊥), 0, 1 *after* edge polarity.
fn kleene_fold(inputs: impl Iterator<Item = i8>, controlling: bool) -> i8 {
    let c = controlling as i8;
    let mut all_known = true;
    for v in inputs {
        if v < 0 {
            all_known = false;
        } else if v == c {
            return c;
        }
    }
    if all_known {
        1 - c
    } else {
        -1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::net::Fanin;
    use hiphop_core::rng::Rng;

    #[test]
    fn condensation_self_loop() {
        let mut c = Circuit::new("self");
        let x = c.or(vec![], "x");
        c.add_fanin(x, Fanin::neg(x));
        let y = c.and(vec![Fanin::pos(x)], "y");
        let cond = c.condensation();
        assert_eq!(cond.comps(), 2);
        assert_eq!(cond.nontrivial().len(), 1);
        let cyc = cond.nontrivial()[0];
        assert_eq!(cond.members(cyc), &[x]);
        assert!(cond.is_nontrivial(cyc));
        assert!(!cond.is_nontrivial(cond.comp_of(y)));
        // Producer before consumer.
        assert!(cond.comp_of(x) < cond.comp_of(y));
    }

    #[test]
    fn condensation_two_net_cycle() {
        let mut c = Circuit::new("pair");
        let a = c.or(vec![], "a");
        let b = c.or(vec![Fanin::pos(a)], "b");
        c.add_fanin(a, Fanin::pos(b));
        let bystander = c.and(vec![Fanin::pos(b)], "c");
        let cond = c.condensation();
        assert_eq!(cond.comps(), 2);
        assert_eq!(cond.members(cond.nontrivial()[0]), &[a, b]);
        assert!(cond.comp_of(a) < cond.comp_of(bystander));
    }

    #[test]
    fn condensation_nested_sccs() {
        // Two separate cycles chained by a one-way edge stay separate
        // components, ordered producer-first.
        let mut c = Circuit::new("nested");
        let a = c.or(vec![], "a");
        let b = c.or(vec![Fanin::pos(a)], "b");
        c.add_fanin(a, Fanin::pos(b));
        let p = c.or(vec![Fanin::pos(b)], "p");
        let q = c.or(vec![Fanin::pos(p)], "q");
        c.add_fanin(p, Fanin::pos(q));
        let cond = c.condensation();
        assert_eq!(cond.nontrivial().len(), 2);
        let first = cond.nontrivial()[0];
        let second = cond.nontrivial()[1];
        assert_eq!(cond.members(first), &[a, b]);
        assert_eq!(cond.members(second), &[p, q]);
        assert!(first < second, "the feeding cycle comes first");
    }

    #[test]
    fn condensation_dep_edge_only_cycle() {
        let mut c = Circuit::new("deps");
        let a = c.or(vec![], "a");
        let b = c.or(vec![], "b");
        c.add_dep(a, b);
        c.add_dep(b, a);
        let cond = c.condensation();
        assert_eq!(cond.nontrivial().len(), 1);
        assert_eq!(cond.members(cond.nontrivial()[0]), &[a, b]);
        // static_cycles agrees (it is now a view over the condensation).
        assert_eq!(c.static_cycles(), vec![vec![a, b]]);
    }

    #[test]
    fn condensation_is_a_dag_covering_every_net() {
        // Seeded random circuits: every net appears in exactly one
        // component, and every edge points from a component id ≤ the
        // consumer's (equal only inside a cycle).
        let mut rng = Rng::seed_from_u64(0xC0FFEE);
        for _ in 0..50 {
            let n = 2 + (rng.next_u64() % 40) as usize;
            let mut c = Circuit::new("rand");
            for i in 0..n {
                if rng.next_u64().is_multiple_of(4) {
                    c.input("in");
                } else if rng.next_u64().is_multiple_of(2) {
                    c.or(vec![], "or");
                } else {
                    c.and(vec![], "and");
                }
                let _ = i;
            }
            for i in 0..n {
                if matches!(c.net(NetId(i as u32)).kind, NetKind::Input) {
                    continue;
                }
                let fanins = rng.next_u64() % 4;
                for _ in 0..fanins {
                    let src = NetId((rng.next_u64() % n as u64) as u32);
                    let neg = rng.next_u64().is_multiple_of(2);
                    c.add_fanin(
                        NetId(i as u32),
                        if neg { Fanin::neg(src) } else { Fanin::pos(src) },
                    );
                }
                if rng.next_u64().is_multiple_of(8) {
                    let on = NetId((rng.next_u64() % n as u64) as u32);
                    c.add_dep(NetId(i as u32), on);
                }
            }
            let cond = c.condensation();
            // Coverage: every net in exactly one component.
            let mut seen = vec![0u32; n];
            for comp in 0..cond.comps() as u32 {
                for &m in cond.members(comp) {
                    assert_eq!(cond.comp_of(m), comp);
                    seen[m.index()] += 1;
                }
            }
            assert!(seen.iter().all(|&s| s == 1), "every net exactly once");
            assert_eq!(cond.topo_order().len(), n);
            // DAG: edges never point to a later component.
            for i in 0..n {
                let v = NetId(i as u32);
                let vc = cond.comp_of(v);
                for f in &c.net(v).fanins {
                    assert!(cond.comp_of(f.net) <= vc, "fanin respects topo order");
                }
                for d in &c.net(v).deps {
                    assert!(cond.comp_of(*d) <= vc, "dep respects topo order");
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Verdict fixtures.

    /// `X = not X` guarded by a boot register: `x = or(emit)`,
    /// `emit = and(go, !x)`, `go = boot register (init true)`.
    #[test]
    fn paradox_is_non_constructive_via_the_boot_cone() {
        let mut c = Circuit::new("paradox");
        let (_, go) = c.register(true, "boot");
        let x = c.or(vec![], "x");
        let emit = c.and(vec![Fanin::pos(go), Fanin::neg(x)], "emit");
        c.add_fanin(x, Fanin::pos(emit));
        let a = c.constructiveness();
        assert_eq!(a.verdicts.len(), 1);
        // go=0 converges (everything 0), so the local all-assignments
        // check alone is Mixed; the boot cone pins go=1 and finds the
        // cycle stuck under every assignment.
        assert_eq!(a.verdicts[0].verdict, Verdict::NonConstructive);
        assert_eq!(a.first_non_constructive(), Some([x, emit].as_slice()));
    }

    /// `X = X` (self-justification) is equally non-constructive: the
    /// status stays ⊥ forever.
    #[test]
    fn self_justification_is_non_constructive() {
        let mut c = Circuit::new("xx");
        let (_, go) = c.register(true, "boot");
        let x = c.or(vec![], "x");
        let emit = c.and(vec![Fanin::pos(go), Fanin::pos(x)], "emit");
        c.add_fanin(x, Fanin::pos(emit));
        let a = c.constructiveness();
        assert_eq!(a.verdicts[0].verdict, Verdict::NonConstructive);
    }

    /// `x = or(y, !y); y = and(x, i)`: converges when `i=0`, deadlocks
    /// when `i=1` — genuinely input-dependent.
    #[test]
    fn cyclic_but_input_gated_is_input_dependent() {
        let mut c = Circuit::new("gated");
        let i = c.input("i");
        let x = c.or(vec![], "x");
        let y = c.and(vec![Fanin::pos(x), Fanin::pos(i)], "y");
        c.add_fanin(x, Fanin::pos(y));
        c.add_fanin(x, Fanin::neg(y));
        let a = c.constructiveness();
        assert_eq!(a.verdicts[0].verdict, Verdict::InputDependent);
        assert_eq!(a.count(Verdict::InputDependent), 1);
        assert!(a.first_non_constructive().is_none());
    }

    /// A cycle dominated by a constant-1 OR input stabilizes under every
    /// assignment: provably constructive.
    #[test]
    fn constant_controlled_cycle_is_constructive() {
        let mut c = Circuit::new("const");
        let one = c.constant(true, "1");
        let i = c.input("i");
        let x = c.or(vec![Fanin::pos(one)], "x");
        let y = c.and(vec![Fanin::pos(x), Fanin::pos(i)], "y");
        c.add_fanin(x, Fanin::pos(y));
        let a = c.constructiveness();
        assert_eq!(a.verdicts[0].verdict, Verdict::Constructive);
        assert_eq!(a.largest_scc(), 2);
        assert_eq!(a.cyclic_sccs(), 1);
    }

    /// An internal dependency edge blocks the `Constructive` verdict
    /// even when the boolean fixpoint always converges: resolution can
    /// still deadlock.
    #[test]
    fn internal_dep_edge_blocks_the_constructive_verdict() {
        let mut c = Circuit::new("dep");
        let a = c.or(vec![], "a");
        let b = c.or(vec![], "b");
        c.add_dep(a, b);
        c.add_dep(b, a);
        let an = c.constructiveness();
        assert_eq!(an.verdicts[0].verdict, Verdict::InputDependent);
    }

    #[test]
    fn acyclic_circuits_have_no_verdicts() {
        let mut c = Circuit::new("acyclic");
        let a = c.input("a");
        let _ = c.or(vec![Fanin::pos(a)], "b");
        let an = c.constructiveness();
        assert!(an.verdicts.is_empty());
        assert_eq!(an.cyclic_sccs(), 0);
        assert_eq!(an.largest_scc(), 1);
    }
}
