//! The circuit container: nets, registers, signals, counters, asyncs,
//! plus construction helpers, validation, statistics, and static cycle
//! analysis.

use crate::net::{
    Action, ActionId, AsyncId, AsyncInfo, CounterId, CounterInfo, Fanin, Net, NetId, NetKind,
    RegId, Register, SignalId, SignalInfo, TestKind,
};
use hiphop_core::ast::Loc;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

/// An augmented boolean circuit (paper §5.1) ready for simulation.
///
/// Built by `hiphop-compiler`; executed by `hiphop-runtime`. The structure
/// is append-only during construction and sealed by [`CircuitBody::finalize`],
/// which computes fanouts and dependency fanouts for the linear-time
/// simulation (paper §5.2: "execution is linear in the number of net
/// connections and data dependencies").
///
/// A `Circuit` is a copy-on-write handle: clones share one reference-
/// counted [`CircuitBody`] (read through `Deref`), and the first mutation
/// through a shared handle copies the body first (`DerefMut` is
/// [`Rc::make_mut`]). A finalized circuit is therefore an immutable value
/// that any number of machines can run without copying it, and
/// [`Circuit::body_id`] identifies the shared body — the runtime keys its
/// per-program tables on it.
#[derive(Clone, Default)]
pub struct Circuit {
    body: Rc<CircuitBody>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>) -> Circuit {
        Circuit::from(CircuitBody::new(name))
    }

    /// Identity of the shared body: equal for every clone of one circuit
    /// and stable while any of them lives. A copy-on-write mutation moves
    /// the mutated handle to a fresh body (and identity) whenever the
    /// body was shared.
    pub fn body_id(&self) -> usize {
        Rc::as_ptr(&self.body) as usize
    }
}

impl Deref for Circuit {
    type Target = CircuitBody;
    #[inline]
    fn deref(&self) -> &CircuitBody {
        &self.body
    }
}

impl DerefMut for Circuit {
    #[inline]
    fn deref_mut(&mut self) -> &mut CircuitBody {
        Rc::make_mut(&mut self.body)
    }
}

impl From<CircuitBody> for Circuit {
    fn from(body: CircuitBody) -> Circuit {
        Circuit { body: Rc::new(body) }
    }
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.body.fmt(f)
    }
}

/// The contents of a [`Circuit`]: nets, registers, signals, counters,
/// asyncs and actions plus the finalized fanout tables. Reached through
/// the handle's `Deref`; never shared mutably.
#[derive(Debug, Clone, Default)]
pub struct CircuitBody {
    /// Program name.
    pub name: String,
    nets: Vec<Net>,
    registers: Vec<Register>,
    signals: Vec<SignalInfo>,
    counters: Vec<CounterInfo>,
    asyncs: Vec<AsyncInfo>,
    actions: Vec<Action>,
    by_name: HashMap<String, SignalId>,
    /// Net that is 1 exactly at the first reaction (the "boot" wire).
    pub boot_net: Option<NetId>,
    /// Root completion net: 1 when the whole program terminates.
    pub terminated_net: Option<NetId>,
    /// Flattened fanout edges with the consuming edge's polarity, grouped
    /// by source net (compressed sparse rows, computed by
    /// [`CircuitBody::finalize`]). `fanout_start[i]..fanout_start[i+1]`
    /// slices the edges of net `i`.
    fanout_edges: Vec<(NetId, bool)>,
    fanout_start: Vec<u32>,
    /// Flattened dependency fanouts (which nets wait on me), same layout.
    dep_fanout_edges: Vec<NetId>,
    dep_fanout_start: Vec<u32>,
    finalized: bool,
}

impl CircuitBody {
    /// Creates an empty body, for builders that own their circuit
    /// outright until it is done (wrap it with `Circuit::from`).
    pub fn new(name: impl Into<String>) -> CircuitBody {
        CircuitBody {
            name: name.into(),
            ..CircuitBody::default()
        }
    }

    fn push_net(&mut self, net: Net) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(net);
        id
    }

    /// Adds an OR gate over `fanins`.
    pub fn or(&mut self, fanins: Vec<Fanin>, label: &'static str) -> NetId {
        self.push_net(Net {
            kind: NetKind::Or,
            fanins,
            action: None,
            deps: Vec::new(),
            label,
            loc: Loc::synthetic(),
            sig_hint: None,
        })
    }

    /// Adds an AND gate over `fanins`.
    pub fn and(&mut self, fanins: Vec<Fanin>, label: &'static str) -> NetId {
        self.push_net(Net {
            kind: NetKind::And,
            fanins,
            action: None,
            deps: Vec::new(),
            label,
            loc: Loc::synthetic(),
            sig_hint: None,
        })
    }

    /// Adds a constant net.
    pub fn constant(&mut self, v: bool, label: &'static str) -> NetId {
        self.push_net(Net {
            kind: NetKind::Const(v),
            fanins: Vec::new(),
            action: None,
            deps: Vec::new(),
            label,
            loc: Loc::synthetic(),
            sig_hint: None,
        })
    }

    /// Adds an environment input net.
    pub fn input(&mut self, label: &'static str) -> NetId {
        self.push_net(Net {
            kind: NetKind::Input,
            fanins: Vec::new(),
            action: None,
            deps: Vec::new(),
            label,
            loc: Loc::synthetic(),
            sig_hint: None,
        })
    }

    /// Adds a test net controlled by `control`.
    pub fn test(&mut self, control: NetId, kind: TestKind, label: &'static str) -> NetId {
        self.push_net(Net {
            kind: NetKind::Test(kind),
            fanins: vec![Fanin::pos(control)],
            action: None,
            deps: Vec::new(),
            label,
            loc: Loc::synthetic(),
            sig_hint: None,
        })
    }

    /// Adds a register; returns `(reg, output_net)`. The input net is set
    /// later with [`Circuit::set_register_input`] (bodies are translated
    /// before their surrounding control wires exist).
    pub fn register(&mut self, init: bool, label: &'static str) -> (RegId, NetId) {
        let reg = RegId(self.registers.len() as u32);
        let out = self.push_net(Net {
            kind: NetKind::RegOut(reg),
            fanins: Vec::new(),
            action: None,
            deps: Vec::new(),
            label,
            loc: Loc::synthetic(),
            sig_hint: None,
        });
        self.registers.push(Register {
            input: out, // placeholder, replaced by set_register_input
            output: out,
            init,
            label,
        });
        (reg, out)
    }

    /// Connects a register's input equation.
    pub fn set_register_input(&mut self, reg: RegId, input: NetId) {
        self.registers[reg.index()].input = input;
    }

    /// Appends a fanin to an existing gate (used to OR contributions into
    /// signal status nets and register inputs incrementally).
    pub fn add_fanin(&mut self, net: NetId, fanin: Fanin) {
        debug_assert!(matches!(
            self.nets[net.index()].kind,
            NetKind::Or | NetKind::And
        ));
        self.nets[net.index()].fanins.push(fanin);
    }

    /// Attaches an action to a net.
    pub fn attach_action(&mut self, net: NetId, action: Action) -> ActionId {
        let id = ActionId(self.actions.len() as u32);
        self.actions.push(action);
        assert!(
            self.nets[net.index()].action.is_none(),
            "net {net} already has an action"
        );
        self.nets[net.index()].action = Some(id);
        id
    }

    /// Adds a data dependency: `net` must wait for `on` to resolve. A
    /// self-dependency is kept: it makes the net unresolvable, which the
    /// runtime reports as a causality error (e.g. `emit S(S.nowval)`).
    pub fn add_dep(&mut self, net: NetId, on: NetId) {
        if !self.nets[net.index()].deps.contains(&on) {
            self.nets[net.index()].deps.push(on);
        }
    }

    /// Declares a signal instance. The status net must already exist.
    pub fn add_signal(&mut self, info: SignalInfo) -> SignalId {
        let id = SignalId(self.signals.len() as u32);
        self.by_name.insert(info.name.clone(), id);
        self.signals.push(info);
        id
    }

    /// Registers an emitter net for a signal (value-readiness tracking).
    pub fn add_emitter(&mut self, signal: SignalId, net: NetId) {
        self.signals[signal.index()].emitters.push(net);
    }

    /// Declares a delay counter.
    pub fn add_counter(&mut self, label: &'static str) -> CounterId {
        let id = CounterId(self.counters.len() as u32);
        self.counters.push(CounterInfo { label });
        id
    }

    /// Declares an async instance.
    pub fn add_async(&mut self, info: AsyncInfo) -> AsyncId {
        let id = AsyncId(self.asyncs.len() as u32);
        self.asyncs.push(info);
        id
    }

    /// Sets the debug metadata of a net.
    pub fn describe(&mut self, net: NetId, loc: Loc, sig_hint: Option<SignalId>) {
        let n = &mut self.nets[net.index()];
        n.loc = loc;
        n.sig_hint = sig_hint;
    }

    // ------------------------------------------------------------------
    // Accessors.

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }
    /// All registers.
    pub fn registers(&self) -> &[Register] {
        &self.registers
    }
    /// All signals.
    pub fn signals(&self) -> &[SignalInfo] {
        &self.signals
    }
    /// All counters.
    pub fn counters(&self) -> &[CounterInfo] {
        &self.counters
    }
    /// All async instances.
    pub fn asyncs(&self) -> &[AsyncInfo] {
        &self.asyncs
    }
    /// All actions.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }
    /// A net by id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }
    /// A signal by id.
    pub fn signal(&self, id: SignalId) -> &SignalInfo {
        &self.signals[id.index()]
    }
    /// Looks a signal up by (linked) name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).copied()
    }
    /// Fanouts of a net with the consuming edge's polarity (requires
    /// [`Circuit::finalize`]).
    pub fn fanouts(&self, id: NetId) -> &[(NetId, bool)] {
        let s = self.fanout_start[id.index()] as usize;
        let e = self.fanout_start[id.index() + 1] as usize;
        &self.fanout_edges[s..e]
    }
    /// Nets depending on `id` (requires [`Circuit::finalize`]).
    pub fn dep_fanouts(&self, id: NetId) -> &[NetId] {
        let s = self.dep_fanout_start[id.index()] as usize;
        let e = self.dep_fanout_start[id.index() + 1] as usize;
        &self.dep_fanout_edges[s..e]
    }
    /// Whether [`Circuit::finalize`] has run.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    // ------------------------------------------------------------------
    // Sealing.

    /// Computes fanout and dependency-fanout tables; call once after
    /// construction.
    ///
    /// The tables are compressed sparse rows: one contiguous edge array
    /// per table plus per-net start offsets, so a reaction's fanout walks
    /// touch dense cache-friendly memory instead of a `Vec` per net.
    pub fn finalize(&mut self) {
        let n = self.nets.len();
        let mut fan_count = vec![0u32; n];
        let mut dep_count = vec![0u32; n];
        for net in &self.nets {
            for f in &net.fanins {
                fan_count[f.net.index()] += 1;
            }
            for d in &net.deps {
                dep_count[d.index()] += 1;
            }
        }
        let prefix = |counts: &[u32]| -> Vec<u32> {
            let mut start = Vec::with_capacity(counts.len() + 1);
            let mut acc = 0u32;
            start.push(0);
            for &c in counts {
                acc += c;
                start.push(acc);
            }
            start
        };
        let fanout_start = prefix(&fan_count);
        let dep_fanout_start = prefix(&dep_count);
        let mut fanout_edges = vec![(NetId(0), false); *fanout_start.last().unwrap() as usize];
        let mut dep_fanout_edges = vec![NetId(0); *dep_fanout_start.last().unwrap() as usize];
        // Second pass: scatter edges; cursors start at each row's offset,
        // preserving consumer order within a row.
        let mut fan_cur: Vec<u32> = fanout_start[..n].to_vec();
        let mut dep_cur: Vec<u32> = dep_fanout_start[..n].to_vec();
        for (i, net) in self.nets.iter().enumerate() {
            for f in &net.fanins {
                let c = &mut fan_cur[f.net.index()];
                fanout_edges[*c as usize] = (NetId(i as u32), f.negated);
                *c += 1;
            }
            for d in &net.deps {
                let c = &mut dep_cur[d.index()];
                dep_fanout_edges[*c as usize] = NetId(i as u32);
                *c += 1;
            }
        }
        self.fanout_edges = fanout_edges;
        self.fanout_start = fanout_start;
        self.dep_fanout_edges = dep_fanout_edges;
        self.dep_fanout_start = dep_fanout_start;
        self.finalized = true;
    }

    /// Structural sanity checks; panics on an internally inconsistent
    /// circuit (compiler bug), returns `self` for chaining in tests.
    ///
    /// # Panics
    ///
    /// On dangling net references, tests without exactly one control
    /// fanin, inputs/constants/registers with fanins, or actions referring
    /// to out-of-range entities.
    pub fn validate(&self) {
        let n = self.nets.len() as u32;
        for (i, net) in self.nets.iter().enumerate() {
            for f in &net.fanins {
                assert!(f.net.0 < n, "net {i}: dangling fanin {}", f.net);
            }
            for d in &net.deps {
                assert!(d.0 < n, "net {i}: dangling dep {d}");
            }
            match &net.kind {
                NetKind::Input | NetKind::Const(_) | NetKind::RegOut(_) => {
                    assert!(net.fanins.is_empty(), "net {i} ({:?}) has fanins", net.kind);
                }
                NetKind::Test(_) => {
                    assert_eq!(net.fanins.len(), 1, "test net {i} needs 1 control fanin");
                }
                NetKind::Or | NetKind::And => {}
            }
            if let Some(a) = net.action {
                assert!((a.0 as usize) < self.actions.len(), "net {i}: bad action");
            }
        }
        for (i, r) in self.registers.iter().enumerate() {
            assert!(r.input.0 < n, "register {i}: dangling input");
            assert!(
                matches!(self.nets[r.output.index()].kind, NetKind::RegOut(id) if id.index() == i),
                "register {i}: output net mismatch"
            );
        }
        for s in &self.signals {
            assert!(s.status_net.0 < n);
            assert!(s.pre_net.0 < n);
            for e in &s.emitters {
                assert!(e.0 < n);
            }
        }
    }

    // ------------------------------------------------------------------
    // Rewriting (used by the optimizer; circuit must not be finalized).

    /// Replaces a net's fanins and dependency list.
    pub fn set_net_edges(&mut self, id: NetId, fanins: Vec<Fanin>, deps: Vec<NetId>) {
        assert!(!self.finalized, "cannot rewrite a finalized circuit");
        let n = &mut self.nets[id.index()];
        n.fanins = fanins;
        n.deps = deps;
    }

    /// Redirects every structural net reference (register inputs, signal
    /// nets, emitter lists, async notify wires, boot/terminated) through
    /// `f`.
    pub fn remap_references(&mut self, f: &mut dyn FnMut(NetId) -> NetId) {
        assert!(!self.finalized, "cannot rewrite a finalized circuit");
        for r in &mut self.registers {
            r.input = f(r.input);
            // r.output is a RegOut net, never redirected.
        }
        for s in &mut self.signals {
            s.status_net = f(s.status_net);
            s.pre_net = f(s.pre_net);
            if let Some(i) = &mut s.input_net {
                *i = f(*i);
            }
            for e in &mut s.emitters {
                *e = f(*e);
            }
        }
        for a in &mut self.asyncs {
            a.notify_net = f(a.notify_net);
        }
        if let Some(b) = &mut self.boot_net {
            *b = f(*b);
        }
        if let Some(t) = &mut self.terminated_net {
            *t = f(*t);
        }
    }

    /// Drops nets whose `live` flag is false, compacting net and register
    /// ids and remapping every reference.
    ///
    /// # Panics
    ///
    /// Panics if a live net references a dead one (the caller must mark
    /// transitively).
    pub fn compact_nets(&mut self, live: &[bool]) {
        assert!(!self.finalized, "cannot rewrite a finalized circuit");
        assert_eq!(live.len(), self.nets.len());
        let mut net_map: Vec<Option<NetId>> = vec![None; self.nets.len()];
        let mut next = 0u32;
        for (i, &alive) in live.iter().enumerate() {
            if alive {
                net_map[i] = Some(NetId(next));
                next += 1;
            }
        }
        let remap = |id: NetId| -> NetId {
            net_map[id.index()].unwrap_or_else(|| panic!("live net references dead net {id}"))
        };

        // Registers live iff their output net is live.
        let mut reg_map: Vec<Option<RegId>> = vec![None; self.registers.len()];
        let mut new_regs = Vec::new();
        for (i, r) in self.registers.iter().enumerate() {
            if live[r.output.index()] {
                reg_map[i] = Some(RegId(new_regs.len() as u32));
                new_regs.push(Register {
                    input: remap(r.input),
                    output: remap(r.output),
                    init: r.init,
                    label: r.label,
                });
            }
        }

        let old = std::mem::take(&mut self.nets);
        for (i, mut net) in old.into_iter().enumerate() {
            if !live[i] {
                continue;
            }
            for f in &mut net.fanins {
                f.net = remap(f.net);
            }
            for d in &mut net.deps {
                *d = remap(*d);
            }
            if let NetKind::RegOut(r) = &mut net.kind {
                *r = reg_map[r.index()].expect("live RegOut has live register");
            }
            self.nets.push(net);
        }
        self.registers = new_regs;
        for s in &mut self.signals {
            s.status_net = remap(s.status_net);
            s.pre_net = remap(s.pre_net);
            if let Some(i) = &mut s.input_net {
                *i = remap(*i);
            }
            for e in &mut s.emitters {
                *e = remap(*e);
            }
        }
        for a in &mut self.asyncs {
            a.notify_net = remap(a.notify_net);
        }
        if let Some(b) = &mut self.boot_net {
            *b = remap(*b);
        }
        if let Some(t) = &mut self.terminated_net {
            *t = remap(*t);
        }
    }

    // ------------------------------------------------------------------
    // Analyses.

    /// Strongly connected components of the combinational graph with more
    /// than one net (or a self-loop). These are the *potential* causality
    /// cycles the paper says deserve a compile-time warning; at runtime
    /// they may still evaluate constructively.
    pub fn static_cycles(&self) -> Vec<Vec<NetId>> {
        // A view over the SCC condensation (see `analysis.rs`): the
        // nontrivial components in topological order, members sorted by
        // ascending net id.
        let cond = self.condensation();
        cond.nontrivial()
            .iter()
            .map(|&comp| cond.members(comp).to_vec())
            .collect()
    }

    /// Topological levelization of the combinational graph (fanin edges
    /// plus data dependencies; registers break cycles by construction), or
    /// `None` if the graph has a static cycle — exactly when
    /// [`Circuit::static_cycles`] is non-empty.
    ///
    /// This is the classic Esterel acyclic-circuit strategy: when the
    /// graph levelizes, a reaction can be evaluated by a single dense
    /// sweep in level order with no constructive ⊥-bookkeeping, because
    /// every fanin *and* every data dependency of a net stabilizes at a
    /// strictly lower level.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is not finalized (the Kahn pass walks the
    /// fanout tables).
    pub fn levelize(&self) -> Option<Levelization> {
        assert!(self.finalized, "levelize requires a finalized circuit");
        let n = self.nets.len();
        let mut indegree = vec![0u32; n];
        for (i, net) in self.nets.iter().enumerate() {
            indegree[i] = (net.fanins.len() + net.deps.len()) as u32;
        }
        let mut level_of = vec![0u32; n];
        let mut order: Vec<NetId> = Vec::with_capacity(n);
        let mut level_starts = vec![0u32];
        let mut frontier: Vec<NetId> = (0..n as u32)
            .filter(|&i| indegree[i as usize] == 0)
            .map(NetId)
            .collect();
        let mut level = 0u32;
        while !frontier.is_empty() {
            // Canonical within-level order: ascending net id.
            frontier.sort_unstable();
            order.extend_from_slice(&frontier);
            level_starts.push(order.len() as u32);
            let mut next = Vec::new();
            for &v in &frontier {
                let mut relax = |w: NetId| {
                    let d = &mut indegree[w.index()];
                    *d -= 1;
                    if *d == 0 {
                        // The last predecessor of `w` sits on this level,
                        // so `w` belongs to the next one.
                        level_of[w.index()] = level + 1;
                        next.push(w);
                    }
                };
                for &(w, _) in self.fanouts(v) {
                    relax(w);
                }
                for &w in self.dep_fanouts(v) {
                    relax(w);
                }
            }
            frontier = next;
            level += 1;
        }
        if order.len() < n {
            return None; // A combinational cycle kept some nets unready.
        }
        Some(Levelization {
            order,
            level_starts,
            level_of,
        })
    }

    /// Statistics for the paper's §5.3 measurements.
    pub fn stats(&self) -> CircuitStats {
        let fanin_edges = self.nets.iter().map(|x| x.fanins.len()).sum();
        let dep_edges = self.nets.iter().map(|x| x.deps.len()).sum();
        CircuitStats {
            nets: self.nets.len(),
            registers: self.registers.len(),
            signals: self.signals.len(),
            counters: self.counters.len(),
            asyncs: self.asyncs.len(),
            actions: self.actions.len(),
            fanin_edges,
            dep_edges,
            bytes: self.memory_bytes(),
        }
    }

    /// Estimated memory footprint of the circuit structure in bytes
    /// (struct sizes plus owned heap), the analogue of the paper's
    /// "192 to 216 bytes per net" JavaScript accounting.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = size_of::<CircuitBody>();
        for net in &self.nets {
            total += size_of::<Net>();
            total += net.fanins.capacity() * size_of::<Fanin>();
            total += net.deps.capacity() * size_of::<NetId>();
        }
        total += self.registers.capacity() * size_of::<Register>();
        total += self.actions.capacity() * size_of::<Action>();
        total += self.fanout_edges.capacity() * size_of::<(NetId, bool)>();
        total += self.fanout_start.capacity() * size_of::<u32>();
        total += self.dep_fanout_edges.capacity() * size_of::<NetId>();
        total += self.dep_fanout_start.capacity() * size_of::<u32>();
        for s in &self.signals {
            total += size_of::<SignalInfo>()
                + s.name.capacity()
                + s.emitters.capacity() * size_of::<NetId>();
        }
        total += self.counters.capacity() * size_of::<CounterInfo>();
        total += self.asyncs.capacity() * size_of::<AsyncInfo>();
        total
    }

    /// Graphviz dot rendering for debugging small circuits. Nets caught
    /// in a static cycle are filled with a per-SCC color so the cycles
    /// stand out.
    pub fn to_dot(&self) -> String {
        self.render_dot(None)
    }

    /// Like [`Circuit::to_dot`], but additionally colors nets by their
    /// inter-instant dataflow facts: provably-0 nets fill gray, provably-1
    /// nets fill gold, and unobservable nets get a dashed gray outline.
    /// SCC cycle fills take precedence (a cyclic net keeps its SCC color).
    pub fn to_dot_with_facts(&self, facts: &crate::dataflow::CircuitFacts) -> String {
        self.render_dot(Some(facts))
    }

    fn render_dot(&self, facts: Option<&crate::dataflow::CircuitFacts>) -> String {
        use std::fmt::Write as _;
        const SCC_PALETTE: [&str; 6] = [
            "lightsalmon",
            "lightblue",
            "palegreen",
            "khaki",
            "plum",
            "lightpink",
        ];
        let cond = self.condensation();
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.name);
        let _ = writeln!(s, "  rankdir=LR; node [fontsize=9];");
        for (i, net) in self.nets.iter().enumerate() {
            let shape = match net.kind {
                NetKind::Or => "ellipse",
                NetKind::And => "box",
                NetKind::Input => "invtriangle",
                NetKind::Const(_) => "plaintext",
                NetKind::RegOut(_) => "doublecircle",
                NetKind::Test(_) => "diamond",
            };
            let extra = match net.kind {
                NetKind::Const(v) => format!("={}", v as u8),
                _ => String::new(),
            };
            let act = if net.action.is_some() { "*" } else { "" };
            let comp = cond.comp_of(NetId(i as u32));
            let fill = if cond.is_nontrivial(comp) {
                let scc = cond
                    .nontrivial()
                    .iter()
                    .position(|&c| c == comp)
                    .unwrap_or(0);
                format!(
                    ", style=filled, fillcolor={}",
                    SCC_PALETTE[scc % SCC_PALETTE.len()]
                )
            } else if let Some(facts) = facts {
                let mut attrs = String::new();
                match facts.values[i].singleton() {
                    Some(false) => attrs.push_str(", style=filled, fillcolor=gray85"),
                    Some(true) => attrs.push_str(", style=filled, fillcolor=gold"),
                    None => {}
                }
                if !facts.observable[i] {
                    attrs.push_str(", color=gray50");
                }
                attrs
            } else {
                String::new()
            };
            let _ = writeln!(
                s,
                "  n{i} [label=\"{}{}{}#{i}\", shape={shape}{fill}];",
                net.label, extra, act
            );
            for f in &net.fanins {
                let style = if f.negated { " [arrowhead=odot]" } else { "" };
                let _ = writeln!(s, "  n{} -> n{i}{style};", f.net.index());
            }
            for d in &net.deps {
                let _ = writeln!(s, "  n{} -> n{i} [style=dashed,color=gray];", d.index());
            }
        }
        for r in &self.registers {
            let _ = writeln!(
                s,
                "  n{} -> n{} [style=dotted,label=\"reg\"];",
                r.input.index(),
                r.output.index()
            );
        }
        s.push_str("}\n");
        s
    }
}

/// A topological levelization of an acyclic combinational graph, from
/// [`Circuit::levelize`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Levelization {
    /// Every net exactly once, in topological order, grouped by level
    /// (level 0 first; ascending net id within a level).
    pub order: Vec<NetId>,
    /// Start offset of each level in `order` (length = `levels() + 1`).
    pub level_starts: Vec<u32>,
    /// Topological level of each net, indexed by net id.
    pub level_of: Vec<u32>,
}

impl Levelization {
    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.level_starts.len().saturating_sub(1)
    }
    /// Size of the widest level (the sweep's available parallelism).
    pub fn max_width(&self) -> usize {
        self.level_starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }
    /// The nets of one level.
    pub fn level(&self, i: usize) -> &[NetId] {
        &self.order[self.level_starts[i] as usize..self.level_starts[i + 1] as usize]
    }
    /// Per-level population, in level order — the width histogram
    /// behind [`Levelization::max_width`]. The sum equals
    /// `order.len()`.
    pub fn widths(&self) -> Vec<usize> {
        self.level_starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect()
    }
}

/// Aggregate circuit statistics (experiments E2/E3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CircuitStats {
    /// Number of nets.
    pub nets: usize,
    /// Number of registers.
    pub registers: usize,
    /// Number of signal instances.
    pub signals: usize,
    /// Number of delay counters.
    pub counters: usize,
    /// Number of async instances.
    pub asyncs: usize,
    /// Number of attached actions.
    pub actions: usize,
    /// Total gate-input connections.
    pub fanin_edges: usize,
    /// Total data-dependency edges.
    pub dep_edges: usize,
    /// Estimated structure memory in bytes.
    pub bytes: usize,
}

impl CircuitStats {
    /// Average bytes per net (the paper reports 192–216 B/net for the
    /// JavaScript object representation).
    pub fn bytes_per_net(&self) -> f64 {
        if self.nets == 0 {
            0.0
        } else {
            self.bytes as f64 / self.nets as f64
        }
    }
    /// Average connections per net (the paper: "nodes are on average
    /// connected to two other nets").
    pub fn avg_fanin(&self) -> f64 {
        if self.nets == 0 {
            0.0
        } else {
            self.fanin_edges as f64 / self.nets as f64
        }
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nets, {} regs, {} signals, {} edges (+{} deps), {:.1} B/net, {} KB",
            self.nets,
            self.registers,
            self.signals,
            self.fanin_edges,
            self.dep_edges,
            self.bytes_per_net(),
            self.bytes / 1024
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_circuit() {
        let mut c = Circuit::new("t");
        let a = c.input("a");
        let b = c.input("b");
        let o = c.or(vec![Fanin::pos(a), Fanin::neg(b)], "o");
        let (reg, out) = c.register(false, "r");
        c.set_register_input(reg, o);
        c.finalize();
        c.validate();
        assert_eq!(c.nets().len(), 4);
        assert_eq!(c.fanouts(a), &[(o, false)]);
        assert_eq!(c.fanouts(b), &[(o, true)]);
        assert!(c.fanouts(out).is_empty());
        assert_eq!(c.registers()[0].input, o);
    }

    #[test]
    fn stats_counts_edges() {
        let mut c = Circuit::new("t");
        let a = c.input("a");
        let b = c.or(vec![Fanin::pos(a)], "b");
        let _ = c.and(vec![Fanin::pos(a), Fanin::pos(b)], "c");
        c.finalize();
        let st = c.stats();
        assert_eq!(st.nets, 3);
        assert_eq!(st.fanin_edges, 3);
        assert!(st.bytes > 0);
        assert!(st.bytes_per_net() > 0.0);
        assert!(st.avg_fanin() > 0.9);
    }

    #[test]
    fn static_cycle_detection_finds_x_not_x() {
        // X = not X: a single OR net with a negated self fanin.
        let mut c = Circuit::new("cycle");
        let x = c.or(vec![], "x");
        c.add_fanin(x, Fanin::neg(x));
        c.finalize();
        let cycles = c.static_cycles();
        assert_eq!(cycles, vec![vec![x]]);
    }

    #[test]
    fn static_cycle_detection_finds_mutual_pair() {
        let mut c = Circuit::new("cycle2");
        let a = c.or(vec![], "a");
        let b = c.or(vec![Fanin::pos(a)], "b");
        c.add_fanin(a, Fanin::pos(b));
        // An acyclic bystander.
        let _ = c.and(vec![Fanin::pos(b)], "c");
        c.finalize();
        let cycles = c.static_cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0], vec![a, b]);
    }

    #[test]
    fn registers_break_cycles() {
        let mut c = Circuit::new("reg");
        let (reg, out) = c.register(false, "r");
        let next = c.or(vec![Fanin::neg(out)], "next");
        c.set_register_input(reg, next);
        c.finalize();
        assert!(c.static_cycles().is_empty());
    }

    #[test]
    fn dot_output_mentions_nets() {
        let mut c = Circuit::new("d");
        let a = c.input("inA");
        let _ = c.or(vec![Fanin::neg(a)], "gate");
        let dot = c.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("inA"));
        assert!(dot.contains("arrowhead=odot"));
    }

    #[test]
    fn dot_colors_cyclic_nets_by_scc() {
        let mut c = Circuit::new("cyc");
        let x = c.or(vec![], "x");
        c.add_fanin(x, Fanin::neg(x));
        let _ = c.and(vec![Fanin::pos(x)], "sink");
        let dot = c.to_dot();
        assert!(dot.contains("fillcolor=lightsalmon"), "{dot}");
        assert_eq!(dot.matches("style=filled").count(), 1, "only the cycle");

        let mut ac = Circuit::new("acyclic");
        let a = ac.input("a");
        let _ = ac.or(vec![Fanin::pos(a)], "gate");
        assert!(!ac.to_dot().contains("style=filled"));
    }

    #[test]
    fn dot_with_facts_colors_constants_and_unobservable_nets() {
        let mut c = Circuit::new("facts");
        let c0 = c.constant(false, "c0");
        let i = c.input("i");
        // dead = i & 0 is provably 0; nothing here is observable (no
        // signals, actions or boot/terminated wiring).
        let _dead = c.and(vec![Fanin::pos(i), Fanin::pos(c0)], "dead");
        let facts = crate::dataflow::analyze(&c);
        let dot = c.to_dot_with_facts(&facts);
        assert!(dot.contains("fillcolor=gray85"), "{dot}");
        assert!(dot.contains("color=gray50"), "{dot}");
        // The plain rendering is unchanged by the facts feature.
        assert!(!c.to_dot().contains("gray85"));
    }

    #[test]
    fn levelize_orders_a_diamond() {
        let mut c = Circuit::new("diamond");
        let a = c.input("a");
        let l = c.or(vec![Fanin::pos(a)], "l");
        let r = c.and(vec![Fanin::neg(a)], "r");
        let o = c.or(vec![Fanin::pos(l), Fanin::pos(r)], "o");
        c.finalize();
        let lv = c.levelize().expect("acyclic");
        assert_eq!(lv.levels(), 3);
        assert_eq!(lv.level(0), &[a]);
        assert_eq!(lv.level(1), &[l, r]);
        assert_eq!(lv.level(2), &[o]);
        assert_eq!(lv.level_of, vec![0, 1, 1, 2]);
        assert_eq!(lv.max_width(), 2);
        assert_eq!(lv.order.len(), c.nets().len());
    }

    #[test]
    fn levelize_widths_partition_the_order() {
        let mut c = Circuit::new("widths");
        let a = c.input("a");
        let b = c.input("b");
        let l = c.or(vec![Fanin::pos(a)], "l");
        let r = c.and(vec![Fanin::pos(a), Fanin::neg(b)], "r");
        let _o = c.or(vec![Fanin::pos(l), Fanin::pos(r)], "o");
        c.finalize();
        let lv = c.levelize().expect("acyclic");
        assert_eq!(lv.widths(), vec![2, 2, 1]);
        assert_eq!(lv.widths().iter().sum::<usize>(), lv.order.len());
        assert_eq!(lv.widths().iter().copied().max().unwrap(), lv.max_width());
    }

    #[test]
    fn levelize_counts_dep_edges() {
        // b has no fanin from a but depends on it: still level(a) < level(b).
        let mut c = Circuit::new("deps");
        let a = c.input("a");
        let b = c.or(vec![], "b");
        c.add_dep(b, a);
        c.finalize();
        let lv = c.levelize().expect("acyclic");
        assert_eq!(lv.level_of[a.index()], 0);
        assert_eq!(lv.level_of[b.index()], 1);
    }

    #[test]
    fn levelize_rejects_cycles_exactly_when_static_cycles_fire() {
        let mut c = Circuit::new("cycle");
        let x = c.or(vec![], "x");
        c.add_fanin(x, Fanin::neg(x));
        c.finalize();
        assert!(!c.static_cycles().is_empty());
        assert!(c.levelize().is_none());

        let mut c2 = Circuit::new("reg");
        let (reg, out) = c2.register(false, "r");
        let next = c2.or(vec![Fanin::neg(out)], "next");
        c2.set_register_input(reg, next);
        c2.finalize();
        assert!(c2.static_cycles().is_empty());
        assert!(c2.levelize().is_some());
    }

    #[test]
    #[should_panic(expected = "already has an action")]
    fn double_action_panics() {
        let mut c = Circuit::new("a");
        let n = c.or(vec![], "n");
        let sig = SignalId(0);
        c.attach_action(n, Action::Emit { signal: sig, value: None });
        c.attach_action(n, Action::Emit { signal: sig, value: None });
    }
}
