//! Statement-to-circuit translation.
//!
//! Each statement compiles to a sub-circuit with the classical Esterel
//! interface wires (paper §5.1, following Berry's constructive-semantics
//! circuit translation):
//!
//! - **GO** — start the statement this instant;
//! - **RES** — resume it if it holds registers;
//! - **SUSP** — freeze its registers for this instant;
//! - **KILL** — clear its registers at the end of the instant;
//!
//! and returns **SEL** (some register inside is set) plus the completion
//! nets **K0** (terminate), **K1** (pause), **K2+d** (exit of the trap at
//! depth `d`). Parallel branches are reconciled by the max-code
//! synchronizer in [`crate::synchronizer`].

use crate::reincarnation::needs_duplication;
use crate::CompileError;
use hiphop_circuit::{
    Action, AsyncInfo, CircuitBody, Fanin, NetId, SignalId, SignalInfo, TestKind,
};
use hiphop_core::ast::{AsyncSpec, Delay, Loc, Stmt};
use hiphop_core::expr::{BinOp, Expr, SigAccess, UnOp};
use hiphop_core::signal::SignalDecl;
use std::collections::HashMap;

/// Control wires fed into a statement's sub-circuit.
#[derive(Debug, Clone, Copy)]
pub struct Wires {
    /// Start wire.
    pub go: NetId,
    /// Resume wire.
    pub res: NetId,
    /// Suspend wire.
    pub susp: NetId,
    /// Kill wire (clears registers: trap exits and weak aborts).
    pub kill: NetId,
    /// Preemption-notification wire: asserted by *any* enclosing
    /// preemption (strong abort, weak abort, trap exit) in its firing
    /// instant. It does not touch registers — strong abort clears them by
    /// masking RES — but lets `async` statements run their `kill` hooks
    /// whatever preempted them (paper §2.2.5: "killed for any reason").
    pub abrt: NetId,
}

/// A translated statement: selection wire plus completion nets by code.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// 1 iff some register inside the statement is set.
    pub sel: NetId,
    /// `k[0]` terminate, `k[1]` pause, `k[2+d]` trap exits.
    pub k: Vec<NetId>,
}

pub(crate) struct Translator {
    /// The circuit under construction, owned outright (the shareable
    /// copy-on-write handle is made once translation ends).
    pub c: CircuitBody,
    pub const0: NetId,
    pub const1: NetId,
    scopes: Vec<HashMap<String, SignalId>>,
    traps: Vec<String>,
    /// (reader net, signal): reader must wait for the signal's value —
    /// resolved against the signal's final emitter set in [`Self::fixup`].
    pending_value_deps: Vec<(NetId, SignalId)>,
}

impl Translator {
    pub fn new(name: &str) -> Translator {
        let mut c = CircuitBody::new(name);
        let const0 = c.constant(false, "const0");
        let const1 = c.constant(true, "const1");
        Translator {
            c,
            const0,
            const1,
            scopes: vec![HashMap::new()],
            traps: Vec::new(),
            pending_value_deps: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Signals.

    /// Creates a signal instance: status OR-net, `pre` register, and the
    /// environment injection net for inputs.
    pub fn make_signal(&mut self, decl: &SignalDecl, unique_name: String) -> SignalId {
        self.make_signal_at(decl, unique_name, Loc::synthetic())
    }

    /// [`Translator::make_signal`] stamping the declaring statement's
    /// source location on the status net, so signal lints can point at
    /// the declaration.
    pub fn make_signal_at(&mut self, decl: &SignalDecl, unique_name: String, loc: Loc) -> SignalId {
        let status = self.c.or(vec![], "sig.status");
        let input_net = if decl.direction.is_input() {
            let i = self.c.input("sig.in");
            self.c.add_fanin(status, Fanin::pos(i));
            Some(i)
        } else {
            None
        };
        let (pre_reg, pre_out) = self.c.register(false, "sig.pre");
        self.c.set_register_input(pre_reg, status);
        let id = self.c.add_signal(SignalInfo {
            name: unique_name,
            direction: decl.direction,
            init: decl.init.clone(),
            combine: decl.combine.clone(),
            status_net: status,
            pre_net: pre_out,
            input_net,
            emitters: Vec::new(),
        });
        self.c.describe(status, loc, Some(id));
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(decl.name.clone(), id);
        id
    }

    fn lookup(&self, name: &str, loc: &Loc) -> Result<SignalId, CompileError> {
        for scope in self.scopes.iter().rev() {
            if let Some(id) = scope.get(name) {
                return Ok(*id);
            }
        }
        Err(CompileError::UnboundSignal {
            signal: name.to_owned(),
            loc: loc.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Expressions.

    /// Rewrites the signal names in an expression to their circuit-unique
    /// names (locals are renamed per incarnation), so the runtime can
    /// resolve them through the circuit's name table.
    fn resolve_expr(&self, e: &Expr) -> Expr {
        let mut e = e.clone();
        e.rename_signals(&mut |n| {
            for scope in self.scopes.iter().rev() {
                if let Some(id) = scope.get(n) {
                    return self.c.signal(*id).name.clone();
                }
            }
            n.to_owned()
        });
        e
    }

    /// Registers the data dependencies of `expr` on `net`: status nets for
    /// `.now`, status + emitters for `.nowval` (emitters are fixed up at
    /// the end of compilation).
    fn add_expr_deps(&mut self, net: NetId, expr: &Expr, loc: &Loc) -> Result<(), CompileError> {
        for (name, access) in expr.signal_reads() {
            let sig = self.lookup(&name, loc)?;
            match access {
                SigAccess::Now => {
                    let status = self.c.signal(sig).status_net;
                    self.c.add_dep(net, status);
                }
                SigAccess::NowVal => {
                    let status = self.c.signal(sig).status_net;
                    self.c.add_dep(net, status);
                    self.pending_value_deps.push((net, sig));
                }
                SigAccess::Pre | SigAccess::PreVal => {}
            }
        }
        Ok(())
    }

    /// Attempts to compile a boolean expression into pure wires (status
    /// and `pre` accesses combined with `!`, `&&`, `||`). Returns the
    /// fanin (with polarity) when possible; this keeps presence tests as
    /// plain gates exactly as in Esterel's translation.
    fn try_wire(&mut self, e: &Expr, loc: &Loc) -> Result<Option<Fanin>, CompileError> {
        Ok(match e {
            Expr::Lit(v) => Some(Fanin::pos(if v.truthy() { self.const1 } else { self.const0 })),
            Expr::Sig(name, SigAccess::Now) => {
                let sig = self.lookup(name, loc)?;
                Some(Fanin::pos(self.c.signal(sig).status_net))
            }
            Expr::Sig(name, SigAccess::Pre) => {
                let sig = self.lookup(name, loc)?;
                Some(Fanin::pos(self.c.signal(sig).pre_net))
            }
            Expr::Unary(UnOp::Not, inner) => self.try_wire(inner, loc)?.map(|f| Fanin {
                net: f.net,
                negated: !f.negated,
            }),
            Expr::Binary(BinOp::And, a, b) => {
                match (self.try_wire(a, loc)?, self.try_wire(b, loc)?) {
                    (Some(fa), Some(fb)) => {
                        Some(Fanin::pos(self.c.and(vec![fa, fb], "wire.and")))
                    }
                    _ => None,
                }
            }
            Expr::Binary(BinOp::Or, a, b) => {
                match (self.try_wire(a, loc)?, self.try_wire(b, loc)?) {
                    (Some(fa), Some(fb)) => Some(Fanin::pos(self.c.or(vec![fa, fb], "wire.or"))),
                    _ => None,
                }
            }
            _ => None,
        })
    }

    /// Compiles `cond` gated by `control`: pure-status conditions become
    /// gates, anything else a test net with data dependencies.
    fn compile_cond(
        &mut self,
        control: NetId,
        cond: &Expr,
        loc: &Loc,
        label: &'static str,
    ) -> Result<NetId, CompileError> {
        if let Some(f) = self.try_wire(cond, loc)? {
            Ok(self.c.and(vec![Fanin::pos(control), f], label))
        } else {
            let resolved = self.resolve_expr(cond);
            let t = self.c.test(control, TestKind::Expr(resolved), label);
            self.add_expr_deps(t, cond, loc)?;
            self.c.describe(t, loc.clone(), None);
            Ok(t)
        }
    }

    /// Compiles a delay's "elapsed at resumption" net. For counted delays
    /// this allocates a counter, resets it on `go`, and decrements on each
    /// occurrence.
    fn compile_delay_res(
        &mut self,
        go: NetId,
        check: NetId,
        delay: &Delay,
        loc: &Loc,
    ) -> Result<NetId, CompileError> {
        match &delay.count {
            None => self.compile_cond(check, &delay.cond, loc, "delay.elapsed"),
            Some(count_expr) => {
                let counter = self.c.add_counter("delay.count");
                let reset_value = self.resolve_expr(count_expr);
                let reset = self.action_net(
                    go,
                    Action::CounterReset {
                        counter,
                        value: reset_value,
                    },
                    "counter.reset",
                );
                self.add_expr_deps(reset, count_expr, loc)?;
                let elapsed_cond = self.resolve_expr(&delay.cond);
                let t = self.c.test(
                    check,
                    TestKind::CounterElapsed {
                        counter,
                        cond: elapsed_cond,
                    },
                    "counter.elapsed",
                );
                // No dependency between reset and the elapsed test: at a
                // loop-restart instant the old incarnation's decrement must
                // run *before* the new incarnation's reset, and the natural
                // net order (elapsed → K0 → GO → reset) provides exactly
                // that; at the start instant the test's control is 0, so
                // the two never race in the other direction.
                let _ = reset;
                self.add_expr_deps(t, &delay.cond, loc)?;
                self.c.describe(t, loc.clone(), None);
                Ok(t)
            }
        }
    }

    /// Wraps `src` in a single-fanin OR carrying `action`.
    fn action_net(&mut self, src: NetId, action: Action, label: &'static str) -> NetId {
        let n = self.c.or(vec![Fanin::pos(src)], label);
        self.c.attach_action(n, action);
        n
    }

    fn k_get(&self, compiled: &Compiled, i: usize) -> NetId {
        compiled.k.get(i).copied().unwrap_or(self.const0)
    }

    fn or2(&mut self, a: NetId, b: NetId, label: &'static str) -> NetId {
        if a == self.const0 {
            return b;
        }
        if b == self.const0 {
            return a;
        }
        self.c.or(vec![Fanin::pos(a), Fanin::pos(b)], label)
    }

    // ------------------------------------------------------------------
    // Statements.

    pub fn stmt(&mut self, s: &Stmt, w: Wires) -> Result<Compiled, CompileError> {
        match s {
            Stmt::Nothing => Ok(Compiled {
                sel: self.const0,
                k: vec![w.go],
            }),
            Stmt::Pause => Ok(self.pause(w)),
            Stmt::Halt => Ok(self.halt(w)),
            Stmt::Emit { signal, value, loc } => self.emit(signal, value.as_ref(), loc, w),
            Stmt::Atom { body, loc } => {
                let resolved_body = match body {
                    hiphop_core::ast::AtomBody::Assign(v, e) => {
                        hiphop_core::ast::AtomBody::Assign(v.clone(), self.resolve_expr(e))
                    }
                    hiphop_core::ast::AtomBody::Log(e) => {
                        hiphop_core::ast::AtomBody::Log(self.resolve_expr(e))
                    }
                    host @ hiphop_core::ast::AtomBody::Host { .. } => host.clone(),
                };
                let act = self.action_net(w.go, Action::Atom(resolved_body), "atom");
                for (name, access) in body.signal_reads() {
                    let sig = self.lookup(&name, loc)?;
                    match access {
                        SigAccess::Now => {
                            let st = self.c.signal(sig).status_net;
                            self.c.add_dep(act, st);
                        }
                        SigAccess::NowVal => {
                            let st = self.c.signal(sig).status_net;
                            self.c.add_dep(act, st);
                            self.pending_value_deps.push((act, sig));
                        }
                        _ => {}
                    }
                }
                self.c.describe(act, loc.clone(), None);
                Ok(Compiled {
                    sel: self.const0,
                    k: vec![act],
                })
            }
            Stmt::Seq(ss) => self.seq(ss, w),
            Stmt::Par(ss) => self.par(ss, w),
            Stmt::Loop(body) => self.loop_(body, w),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                loc,
            } => self.if_(cond, then_branch, else_branch, loc, w),
            Stmt::Abort {
                delay,
                weak,
                body,
                loc,
            } => self.abort(delay, *weak, body, loc, w),
            Stmt::Suspend { delay, body, loc } => self.suspend(delay, body, loc, w),
            Stmt::Trap { label, body, .. } => self.trap(label, body, w),
            Stmt::Exit { label, loc } => self.exit(label, loc, w),
            Stmt::Local { decls, body, loc } => {
                self.scopes.push(HashMap::new());
                for d in decls {
                    // Loop duplication may instantiate the same source
                    // declaration twice; make the circuit-level name unique.
                    let unique = format!("{}@{}", d.name, self.c.signals().len());
                    self.make_signal_at(d, unique, loc.clone());
                }
                let r = self.stmt(body, w);
                self.scopes.pop();
                r
            }
            Stmt::Async { spec, loc } => self.async_(spec, loc, w),
            Stmt::Await { .. }
            | Stmt::Sustain { .. }
            | Stmt::Every { .. }
            | Stmt::LoopEach { .. } => Err(CompileError::NotDesugared {
                statement: format!("{s}").trim().to_owned(),
            }),
            Stmt::Run { module, loc, .. } => Err(CompileError::NotLinked {
                module: module.clone(),
                loc: loc.clone(),
            }),
        }
    }

    fn pause(&mut self, w: Wires) -> Compiled {
        let (reg, out) = self.c.register(false, "pause.reg");
        let hold = self.c.and(vec![Fanin::pos(w.susp), Fanin::pos(out)], "pause.hold");
        let set = self.c.or(vec![Fanin::pos(w.go), Fanin::pos(hold)], "pause.set");
        let reg_in = self
            .c
            .and(vec![Fanin::pos(set), Fanin::neg(w.kill)], "pause.next");
        self.c.set_register_input(reg, reg_in);
        let k0 = self.c.and(vec![Fanin::pos(w.res), Fanin::pos(out)], "pause.k0");
        Compiled {
            sel: out,
            k: vec![k0, w.go],
        }
    }

    fn halt(&mut self, w: Wires) -> Compiled {
        let (reg, out) = self.c.register(false, "halt.reg");
        let alive = self.c.or(vec![Fanin::pos(w.res), Fanin::pos(w.susp)], "halt.alive");
        let hold = self.c.and(vec![Fanin::pos(alive), Fanin::pos(out)], "halt.hold");
        let set = self.c.or(vec![Fanin::pos(w.go), Fanin::pos(hold)], "halt.set");
        let reg_in = self
            .c
            .and(vec![Fanin::pos(set), Fanin::neg(w.kill)], "halt.next");
        self.c.set_register_input(reg, reg_in);
        // Invariant: an active statement emits exactly one completion code
        // per instant. The kernel `halt = loop { pause }` re-emits K1 at
        // every resumption (pause K0 → loop GO → new pause K1); the direct
        // register translation must do the same or parallel synchronizers
        // would see a silent active branch and block sibling trap exits.
        let resumed = self
            .c
            .and(vec![Fanin::pos(w.res), Fanin::pos(out)], "halt.k1res");
        let k1 = self
            .c
            .or(vec![Fanin::pos(w.go), Fanin::pos(resumed)], "halt.k1");
        Compiled {
            sel: out,
            k: vec![self.const0, k1],
        }
    }

    fn emit(
        &mut self,
        signal: &str,
        value: Option<&Expr>,
        loc: &Loc,
        w: Wires,
    ) -> Result<Compiled, CompileError> {
        let sig = self.lookup(signal, loc)?;
        let act = self.action_net(
            w.go,
            Action::Emit {
                signal: sig,
                value: value.map(|e| self.resolve_expr(e)),
            },
            "emit",
        );
        if let Some(e) = value {
            self.add_expr_deps(act, e, loc)?;
        }
        let status = self.c.signal(sig).status_net;
        self.c.add_fanin(status, Fanin::pos(act));
        self.c.add_emitter(sig, act);
        self.c.describe(act, loc.clone(), Some(sig));
        Ok(Compiled {
            sel: self.const0,
            k: vec![act],
        })
    }

    fn seq(&mut self, ss: &[Stmt], w: Wires) -> Result<Compiled, CompileError> {
        let mut go = w.go;
        let mut sels = Vec::new();
        let mut ks: Vec<Vec<NetId>> = Vec::new(); // codes >= 1 accumulated
        let mut k0 = w.go; // empty sequence terminates instantly
        for s in ss {
            let c = self.stmt(s, Wires { go, ..w })?;
            go = self.k_get(&c, 0);
            k0 = go;
            if c.sel != self.const0 {
                sels.push(c.sel);
            }
            for (i, &net) in c.k.iter().enumerate().skip(1) {
                if net == self.const0 {
                    continue;
                }
                while ks.len() <= i {
                    ks.push(Vec::new());
                }
                ks[i].push(net);
            }
        }
        let sel = self.or_many(sels, "seq.sel");
        let mut k = vec![k0];
        for (i, nets) in ks.into_iter().enumerate() {
            if i == 0 {
                continue;
            }
            while k.len() <= i {
                k.push(self.const0);
            }
            k[i] = self.or_many(nets, "seq.k");
        }
        Ok(Compiled { sel, k })
    }

    fn or_many(&mut self, nets: Vec<NetId>, label: &'static str) -> NetId {
        match nets.len() {
            0 => self.const0,
            1 => nets[0],
            _ => self.c.or(nets.into_iter().map(Fanin::pos).collect(), label),
        }
    }

    fn par(&mut self, ss: &[Stmt], w: Wires) -> Result<Compiled, CompileError> {
        let mut branches = Vec::new();
        for s in ss {
            branches.push(self.stmt(s, w)?);
        }
        crate::synchronizer::synchronize(self, &branches, w)
    }

    fn loop_(&mut self, body: &Stmt, w: Wires) -> Result<Compiled, CompileError> {
        if needs_duplication(body) {
            // Two full copies with separate registers; each copy's K0
            // starts the other (Esterel v5 loop-body duplication curing
            // schizophrenia; paper §5.3 "reincarnation").
            let g1 = self.c.or(vec![Fanin::pos(w.go)], "loop.go1");
            let g2 = self.c.or(vec![], "loop.go2");
            let c1 = self.stmt(body, Wires { go: g1, ..w })?;
            let c2 = self.stmt(body, Wires { go: g2, ..w })?;
            let k0_1 = self.k_get(&c1, 0);
            let k0_2 = self.k_get(&c2, 0);
            self.c.add_fanin(g2, Fanin::pos(k0_1));
            self.c.add_fanin(g1, Fanin::pos(k0_2));
            let sel = self.or2(c1.sel, c2.sel, "loop.sel");
            let max = c1.k.len().max(c2.k.len());
            let mut k = vec![self.const0];
            for i in 1..max {
                let a = self.k_get(&c1, i);
                let b = self.k_get(&c2, i);
                k.push(self.or2(a, b, "loop.k"));
            }
            Ok(Compiled { sel, k })
        } else {
            let go = self.c.or(vec![Fanin::pos(w.go)], "loop.go");
            let c = self.stmt(body, Wires { go, ..w })?;
            let k0 = self.k_get(&c, 0);
            self.c.add_fanin(go, Fanin::pos(k0));
            let mut k = c.k.clone();
            if !k.is_empty() {
                k[0] = self.const0;
            }
            Ok(Compiled { sel: c.sel, k })
        }
    }

    fn if_(
        &mut self,
        cond: &Expr,
        then_branch: &Stmt,
        else_branch: &Stmt,
        loc: &Loc,
        w: Wires,
    ) -> Result<Compiled, CompileError> {
        let test = self.compile_cond(w.go, cond, loc, "if.cond")?;
        let then_go = self
            .c
            .and(vec![Fanin::pos(w.go), Fanin::pos(test)], "if.then");
        let else_go = self
            .c
            .and(vec![Fanin::pos(w.go), Fanin::neg(test)], "if.else");
        let t = self.stmt(then_branch, Wires { go: then_go, ..w })?;
        let e = self.stmt(else_branch, Wires { go: else_go, ..w })?;
        let sel = self.or2(t.sel, e.sel, "if.sel");
        let max = t.k.len().max(e.k.len());
        let mut k = Vec::with_capacity(max);
        for i in 0..max {
            let a = self.k_get(&t, i);
            let b = self.k_get(&e, i);
            k.push(self.or2(a, b, "if.k"));
        }
        Ok(Compiled { sel, k })
    }

    fn abort(
        &mut self,
        delay: &Delay,
        weak: bool,
        body: &Stmt,
        loc: &Loc,
        w: Wires,
    ) -> Result<Compiled, CompileError> {
        if delay.immediate && delay.count.is_some() {
            return Err(CompileError::ImmediateCountedDelay { loc: loc.clone() });
        }
        // Body selection is register-based, so referencing it through a
        // placeholder OR is not a combinational cycle.
        let sel_hold = self.c.or(vec![], "abort.selhold");
        let check = self
            .c
            .and(vec![Fanin::pos(w.res), Fanin::pos(sel_hold)], "abort.check");
        let fire_res = self.compile_delay_res(w.go, check, delay, loc)?;
        let fire_go = if delay.immediate {
            Some(self.compile_cond(w.go, &delay.cond, loc, "abort.immediate")?)
        } else {
            None
        };
        let fire_any = match fire_go {
            Some(fg) => self.or2(fire_res, fg, "abort.fire"),
            None => fire_res,
        };
        // Strong abort needs no KILL: masking RES already clears the
        // body's registers (they only hold through GO/RES/SUSP). Routing
        // `fire` into KILL would wrongly clear the *new* incarnation's
        // registers when the abort sits in a single-copy loop that
        // restarts at the abort instant. Weak abort genuinely needs KILL
        // (the body runs at the abort instant and would re-arm its
        // registers), which is why weak aborts take the duplicated loop
        // translation (see `reincarnation`).
        let body_kill = if weak {
            self.or2(w.kill, fire_any, "abort.kill")
        } else {
            w.kill
        };
        let body_abrt = self.or2(w.abrt, fire_any, "abort.abrt");
        let (body_go, body_res) = if weak {
            (w.go, w.res)
        } else {
            let bg = match fire_go {
                Some(fg) => self
                    .c
                    .and(vec![Fanin::pos(w.go), Fanin::neg(fg)], "abort.bodygo"),
                None => w.go,
            };
            let br = self
                .c
                .and(vec![Fanin::pos(w.res), Fanin::neg(fire_res)], "abort.bodyres");
            (bg, br)
        };
        let c = self.stmt(
            body,
            Wires {
                go: body_go,
                res: body_res,
                susp: w.susp,
                kill: body_kill,
                abrt: body_abrt,
            },
        )?;
        self.c.add_fanin(sel_hold, Fanin::pos(c.sel));
        let body_k0 = self.k_get(&c, 0);
        let k0_raw = self.or2(body_k0, fire_any, "abort.k0");
        let (k0, k1) = if weak {
            // The body runs at the (weak) abort instant; a statement emits
            // exactly one completion code, and trap exits dominate — its
            // kernel expansion `trap T' { body; exit T' || await d; exit
            // T' }` yields the *max* code, so K0/K1 are masked whenever
            // the body raised an exit in the same instant.
            let exits: Vec<NetId> = c
                .k
                .iter()
                .copied()
                .skip(2)
                .filter(|&n| n != self.const0)
                .collect();
            let higher = self.or_many(exits, "abort.exits");
            let k0 = if higher == self.const0 {
                k0_raw
            } else {
                self.c
                    .and(vec![Fanin::pos(k0_raw), Fanin::neg(higher)], "abort.k0w")
            };
            let body_k1 = self.k_get(&c, 1);
            let k1 = self
                .c
                .and(vec![Fanin::pos(body_k1), Fanin::neg(fire_any)], "abort.k1w");
            (k0, k1)
        } else {
            (k0_raw, self.k_get(&c, 1))
        };
        let mut k = vec![k0, k1];
        k.extend(c.k.iter().copied().skip(2));
        Ok(Compiled { sel: c.sel, k })
    }

    fn suspend(
        &mut self,
        delay: &Delay,
        body: &Stmt,
        loc: &Loc,
        w: Wires,
    ) -> Result<Compiled, CompileError> {
        if delay.immediate {
            return Err(CompileError::UnsupportedImmediateSuspend { loc: loc.clone() });
        }
        let sel_hold = self.c.or(vec![], "suspend.selhold");
        let check = self.c.and(
            vec![Fanin::pos(w.res), Fanin::pos(sel_hold)],
            "suspend.check",
        );
        let fire = self.compile_delay_res(w.go, check, delay, loc)?;
        let body_res = self
            .c
            .and(vec![Fanin::pos(w.res), Fanin::neg(fire)], "suspend.res");
        let body_susp = self.or2(w.susp, fire, "suspend.susp");
        let c = self.stmt(
            body,
            Wires {
                go: w.go,
                res: body_res,
                susp: body_susp,
                kill: w.kill,
                abrt: w.abrt,
            },
        )?;
        self.c.add_fanin(sel_hold, Fanin::pos(c.sel));
        let body_k1 = self.k_get(&c, 1);
        let k1 = self.or2(body_k1, fire, "suspend.k1");
        let mut k = vec![self.k_get(&c, 0), k1];
        k.extend(c.k.iter().copied().skip(2));
        Ok(Compiled { sel: c.sel, k })
    }

    fn trap(&mut self, label: &str, body: &Stmt, w: Wires) -> Result<Compiled, CompileError> {
        let kill_in = self.c.or(vec![Fanin::pos(w.kill)], "trap.kill");
        let abrt_in = self.c.or(vec![Fanin::pos(w.abrt)], "trap.abrt");
        self.traps.push(label.to_owned());
        let c = self.stmt(
            body,
            Wires {
                kill: kill_in,
                abrt: abrt_in,
                ..w
            },
        );
        self.traps.pop();
        let c = c?;
        let caught = self.k_get(&c, 2);
        self.c.add_fanin(kill_in, Fanin::pos(caught));
        self.c.add_fanin(abrt_in, Fanin::pos(caught));
        let body_k0 = self.k_get(&c, 0);
        let k0 = self.or2(body_k0, caught, "trap.k0");
        let mut k = vec![k0, self.k_get(&c, 1)];
        // Codes above 2 shift down by one (outer traps get closer).
        for i in 3..c.k.len() {
            k.push(c.k[i]);
        }
        Ok(Compiled { sel: c.sel, k })
    }

    fn exit(&mut self, label: &str, loc: &Loc, w: Wires) -> Result<Compiled, CompileError> {
        // Innermost enclosing trap with this label wins (shadowing).
        let pos = self
            .traps
            .iter()
            .rposition(|t| t == label)
            .ok_or_else(|| CompileError::UnknownTrapLabel {
                label: label.to_owned(),
                loc: loc.clone(),
            })?;
        let depth = self.traps.len() - 1 - pos;
        let mut k = vec![self.const0, self.const0];
        for _ in 0..depth {
            k.push(self.const0);
        }
        k.push(w.go);
        Ok(Compiled {
            sel: self.const0,
            k,
        })
    }

    fn async_(&mut self, spec: &AsyncSpec, loc: &Loc, w: Wires) -> Result<Compiled, CompileError> {
        let signal = match &spec.done_signal {
            Some(name) => Some(self.lookup(name, loc)?),
            None => None,
        };
        let notify = self.c.input("async.notify");
        let async_id = self.c.add_async(AsyncInfo {
            spec: spec.clone(),
            signal,
            notify_net: notify,
            label: "async",
        });
        let (reg, out) = self.c.register(false, "async.reg");

        // Spawn on GO — always attached: the action manages the instance's
        // generation state (active flag, fresh handle); the user hook
        // inside it is optional.
        let spawn = self.action_net(w.go, Action::AsyncSpawn(async_id), "async.spawn");

        // Done: resumed, selected, notified.
        let done_raw = self.c.and(
            vec![Fanin::pos(w.res), Fanin::pos(out), Fanin::pos(notify)],
            "async.doneraw",
        );
        let done = self.action_net(done_raw, Action::AsyncDone(async_id), "async.done");
        if let Some(sig) = signal {
            let status = self.c.signal(sig).status_net;
            self.c.add_fanin(status, Fanin::pos(done));
            self.c.add_emitter(sig, done);
        }

        // State register: set on go, held while selected, cleared on done
        // or kill.
        let alive = self
            .c
            .or(vec![Fanin::pos(w.res), Fanin::pos(w.susp)], "async.alive");
        let hold = self
            .c
            .and(vec![Fanin::pos(alive), Fanin::pos(out)], "async.hold");
        let set = self
            .c
            .or(vec![Fanin::pos(w.go), Fanin::pos(hold)], "async.set");
        let reg_in = self.c.and(
            vec![Fanin::pos(set), Fanin::neg(w.kill), Fanin::neg(done)],
            "async.next",
        );
        self.c.set_register_input(reg, reg_in);

        // Kill action: runs when the statement is preempted while active
        // (including its start instant) — by a trap exit (KILL) or any
        // abort (ABRT). Always attached (it retires the generation so
        // stale notifications are discarded); ordered after spawn through
        // the `spawn` net.
        {
            let active = self
                .c
                .or(vec![Fanin::pos(out), Fanin::pos(spawn)], "async.active");
            let die = self
                .c
                .or(vec![Fanin::pos(w.kill), Fanin::pos(w.abrt)], "async.die");
            let killed = self
                .c
                .and(vec![Fanin::pos(die), Fanin::pos(active)], "async.killed");
            self.action_net(killed, Action::AsyncKill(async_id), "async.killact");
        }
        // Suspend/resume hooks with edge detection.
        if spec.on_suspend.is_some() || spec.on_resume.is_some() {
            let susp_now = self
                .c
                .and(vec![Fanin::pos(w.susp), Fanin::pos(out)], "async.suspnow");
            let (sreg, sout) = self.c.register(false, "async.suspreg");
            self.c.set_register_input(sreg, susp_now);
            if spec.on_suspend.is_some() {
                let edge = self.c.and(
                    vec![Fanin::pos(susp_now), Fanin::neg(sout)],
                    "async.suspedge",
                );
                self.action_net(edge, Action::AsyncSuspend(async_id), "async.suspact");
            }
            if spec.on_resume.is_some() {
                let edge = self.c.and(
                    vec![Fanin::pos(w.res), Fanin::pos(out), Fanin::pos(sout)],
                    "async.resedge",
                );
                self.action_net(edge, Action::AsyncResume(async_id), "async.resact");
            }
        }

        // Same completion-code invariant as `halt`: while selected and
        // resumed but not yet notified, the async contributes K1.
        let waiting = self.c.and(
            vec![Fanin::pos(w.res), Fanin::pos(out), Fanin::neg(notify)],
            "async.waiting",
        );
        let k1 = self
            .c
            .or(vec![Fanin::pos(spawn), Fanin::pos(waiting)], "async.k1");
        Ok(Compiled {
            sel: out,
            k: vec![done, k1],
        })
    }

    // ------------------------------------------------------------------
    // Finalization.

    /// Resolves pending `.nowval` dependencies against the final emitter
    /// sets.
    pub fn fixup_value_deps(&mut self) {
        let pending = std::mem::take(&mut self.pending_value_deps);
        for (net, sig) in pending {
            let emitters = self.c.signal(sig).emitters.clone();
            for e in emitters {
                self.c.add_dep(net, e);
            }
        }
    }
}
