//! The constructive reference engine ([`crate::EngineMode::Constructive`]):
//! the paper's §5.2 linear-time constructive simulation.
//!
//! Each reaction computes the least fixpoint of the circuit in Scott's
//! ternary logic {⊥, 0, 1}. Nets stabilize through a FIFO of
//! determination/resolution events; attached actions run exactly when
//! their net stabilizes to 1 and their data dependencies have resolved,
//! which realizes the paper's micro-scheduling. If the queue drains with
//! ⊥ nets remaining, the reaction fails with a reported causality cycle.
//!
//! The engine needs no schedule, so it runs any circuit, and it shares
//! nothing with the block walker beyond the action and test evaluators:
//! that independence is what makes it the reference the differential
//! batteries check the walker and the sparse engine against. It stays
//! off the hot path; its ⊥ bookkeeping below is sized on first use.

use crate::causality::analyze;
use crate::error::RuntimeError;
use crate::machine::{Class, Machine};
use crate::telemetry::TraceEvent;
use hiphop_circuit::{Circuit, NetId, NetKind};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The net's value became known.
    Det(u32),
    /// The net's action ran (or will never run): dependents may fire.
    Res(u32),
}

/// Per-machine ⊥ bookkeeping of the constructive engine, reset in full
/// at the start of every constructive reaction.
#[derive(Debug, Default)]
pub(crate) struct ConstructiveScratch {
    /// Fanins not yet determined, per net.
    undet: Vec<u32>,
    /// Data dependencies not yet resolved, per net.
    deps_left: Vec<u32>,
    /// Whether the net's action is waiting on its dependencies.
    armed: Vec<bool>,
    /// Whether the net is settled: its value is known and its action
    /// ran or never will.
    resolved: Vec<bool>,
    queue: VecDeque<Ev>,
}

impl Machine {
    /// Runs one constructive reaction over the staged inputs: resets the
    /// ⊥ bookkeeping, seeds the sources, propagates to the least
    /// fixpoint, and reports a causality error if any net is left
    /// undetermined or unresolved.
    pub(crate) fn constructive_fixpoint(
        &mut self,
        circuit: &Circuit,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let n = circuit.nets().len();
        let cx = &mut self.cx;
        if cx.undet.len() != n {
            cx.undet = vec![0; n];
            cx.deps_left = vec![0; n];
            cx.armed = vec![false; n];
            cx.resolved = vec![false; n];
        }
        cx.resolved.fill(false);
        cx.armed.fill(false);
        cx.queue.clear();
        for (i, net) in circuit.nets().iter().enumerate() {
            cx.undet[i] = net.fanins.len() as u32;
            cx.deps_left[i] = net.deps.len() as u32;
        }
        self.value[..n].fill(-1);

        // Determine sources.
        for (i, net) in circuit.nets().iter().enumerate() {
            let v = match net.kind {
                NetKind::Const(c) => c,
                NetKind::Input => self.input_present[i],
                NetKind::RegOut(r) => self.regs[r.index()],
                _ => continue,
            };
            self.value[i] = v as i8;
            self.cx.resolved[i] = true;
            self.cx.queue.push_back(Ev::Det(i as u32));
            self.cx.queue.push_back(Ev::Res(i as u32));
        }
        // Gates with no fanins are their neutral constant (an empty OR is
        // 0, an empty AND is 1); they receive no feed, so settle them now.
        for (i, net) in circuit.nets().iter().enumerate() {
            if net.fanins.is_empty() && matches!(net.kind, NetKind::Or | NetKind::And) {
                let neutral = matches!(net.kind, NetKind::And);
                self.gate_value(circuit, i as u32, neutral, emit_count)?;
            }
        }

        // Propagate to fixpoint.
        while let Some(ev) = self.cx.queue.pop_front() {
            self.events += 1;
            // +1 counts the event just popped.
            self.queue_hwm = self.queue_hwm.max(self.cx.queue.len() + 1);
            match ev {
                Ev::Det(i) => {
                    let v = self.value[i as usize] == 1;
                    if self.fine_events {
                        self.emit_trace(TraceEvent::NetStabilized {
                            net: i,
                            label: circuit.nets()[i as usize].label,
                            value: v,
                        });
                    }
                    // Fanouts are (target, edge-polarity).
                    for &(j, neg) in circuit.fanouts(NetId(i)) {
                        self.feed(circuit, j.0, v ^ neg, emit_count)?;
                    }
                }
                Ev::Res(i) => {
                    for &NetId(d) in circuit.dep_fanouts(NetId(i)) {
                        let d = d as usize;
                        self.cx.deps_left[d] -= 1;
                        if self.cx.deps_left[d] == 0 && self.cx.armed[d] && !self.cx.resolved[d] {
                            self.fire(circuit, d as u32, emit_count)?;
                        }
                    }
                }
            }
        }

        // Constructive check: everything must be determined and resolved.
        let is_stuck = |i: usize| self.value[i] < 0 || !self.cx.resolved[i];
        let undetermined = (0..n).filter(|&i| is_stuck(i)).count();
        if undetermined > 0 {
            let stuck: Vec<bool> = (0..n).map(is_stuck).collect();
            let report = analyze(circuit, &stuck, undetermined, self.seq);
            if !self.sinks.is_empty() {
                self.emit_trace(TraceEvent::CausalityFailure { report: &report });
            }
            return Err(RuntimeError::Causality {
                cycle: report.nets.clone(),
                undetermined,
                report,
            });
        }
        Ok(())
    }

    fn feed(
        &mut self,
        circuit: &Circuit,
        j: u32,
        v: bool,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let ji = j as usize;
        let class = self.image.class[ji];
        if self.value[ji] != -1 || (self.cx.armed[ji] && class != Class::Early) {
            return Ok(());
        }
        match class {
            Class::Source => Ok(()),
            Class::Test => {
                if v {
                    self.arm(circuit, j, emit_count)
                } else {
                    self.value[ji] = 0;
                    self.cx.queue.push_back(Ev::Det(j));
                    self.resolve(j);
                    Ok(())
                }
            }
            _ => {
                let controlling = self.image.is_or[ji];
                if v == controlling {
                    self.gate_value(circuit, j, controlling, emit_count)
                } else {
                    self.cx.undet[ji] -= 1;
                    if self.cx.undet[ji] == 0 {
                        self.gate_value(circuit, j, !controlling, emit_count)
                    } else {
                        Ok(())
                    }
                }
            }
        }
    }

    fn gate_value(
        &mut self,
        circuit: &Circuit,
        j: u32,
        v: bool,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let ji = j as usize;
        match self.image.class[ji] {
            Class::Gate => {
                self.value[ji] = v as i8;
                self.cx.queue.push_back(Ev::Det(j));
                self.resolve(j);
                Ok(())
            }
            Class::Early => {
                self.value[ji] = v as i8;
                self.cx.queue.push_back(Ev::Det(j));
                if v {
                    self.arm(circuit, j, emit_count)
                } else {
                    self.resolve(j);
                    Ok(())
                }
            }
            Class::Late => {
                if v {
                    self.arm(circuit, j, emit_count)
                } else {
                    self.value[ji] = 0;
                    self.cx.queue.push_back(Ev::Det(j));
                    self.resolve(j);
                    Ok(())
                }
            }
            Class::Source | Class::Test => unreachable!("gate_value on non-gate"),
        }
    }

    fn arm(
        &mut self,
        circuit: &Circuit,
        j: u32,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        self.cx.armed[j as usize] = true;
        if self.cx.deps_left[j as usize] == 0 {
            self.fire(circuit, j, emit_count)
        } else {
            Ok(())
        }
    }

    fn fire(
        &mut self,
        circuit: &Circuit,
        j: u32,
        emit_count: &mut [u32],
    ) -> Result<(), RuntimeError> {
        let ji = j as usize;
        match self.image.class[ji] {
            Class::Test => {
                let v = self.eval_test(circuit, j);
                self.value[ji] = v as i8;
                self.cx.queue.push_back(Ev::Det(j));
                self.resolve(j);
                Ok(())
            }
            Class::Early => {
                self.run_action(circuit, j, emit_count)?;
                self.resolve(j);
                Ok(())
            }
            Class::Late => {
                self.run_action(circuit, j, emit_count)?;
                self.value[ji] = 1;
                self.cx.queue.push_back(Ev::Det(j));
                self.resolve(j);
                Ok(())
            }
            Class::Source | Class::Gate => unreachable!("fire on actionless net"),
        }
    }

    fn resolve(&mut self, j: u32) {
        self.cx.resolved[j as usize] = true;
        self.cx.queue.push_back(Ev::Res(j));
    }
}
