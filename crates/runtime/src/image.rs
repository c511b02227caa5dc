//! Program images: everything a machine derives from its circuit, built
//! once per circuit body and shared by every machine that runs it.
//!
//! A session pool runs hundreds of machines of one compiled program on
//! each shard. Their *instance state* — registers, signal values, the
//! net-value scratch — is per machine, but the circuit and every table
//! derived from it (net classes, the level and hybrid schedules, the
//! interned output names, the sparse engine's subscription tables, the
//! cohort plan and key, the snapshot structural hash) are pure functions
//! of the circuit. A [`ProgramImage`] holds them once.
//!
//! [`Circuit`] clones share one copy-on-write body, so the image is found
//! by body identity ([`Circuit::body_id`]) in a thread-local registry of
//! `Weak` references: [`ProgramImage::for_circuit`] — the one path
//! [`crate::Machine::new`] takes — returns the live image of a body it
//! has seen on this thread, or builds and registers a new one.
//!
//! Lifetime rules:
//! * Machines hold the image strongly; the registry only weakly. The last
//!   machine of a program to drop frees its image, and the image's `Drop`
//!   removes its registry entry, so the registry holds exactly the live
//!   images of the thread.
//! * The image holds its circuit body strongly, so while the image lives
//!   no other handle can mutate that body in place: any mutation through a
//!   clone copies it first and so gets a new identity (and a new image).
//! * Images never cross threads (`Rc`, like machines): each thread —
//!   every pool shard in particular — builds its own.
//!
//! Tables that only some workloads need (sparse, cohort, structural hash)
//! are built on first use and then kept on the image.

use crate::causality::analyze;
use crate::cohort::{build_plan, structural_key, CohortPlan};
use crate::error::RuntimeError;
use crate::levelized::{HybridSchedule, LevelSchedule};
use crate::machine::Class;
use crate::snapshot::circuit_struct_hash;
use crate::sparse::SparseTables;
use hiphop_circuit::{Action, Circuit, NetKind};
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};
use std::sync::Arc;

thread_local! {
    /// Live images of this thread, keyed by circuit body identity.
    static REGISTRY: RefCell<HashMap<usize, Weak<ProgramImage>>> = RefCell::new(HashMap::new());
}

/// The immutable per-program half of a machine (see the module docs).
pub(crate) struct ProgramImage {
    pub(crate) circuit: Circuit,
    /// Per-net evaluation strategy.
    pub(crate) class: Box<[Class]>,
    /// Whether each gate is an OR (controlling value 1).
    pub(crate) is_or: Box<[bool]>,
    /// The dense level schedule; exists iff the circuit is acyclic.
    pub(crate) schedule: Option<Rc<LevelSchedule>>,
    /// The hybrid schedule (always exists: non-constructive circuits are
    /// rejected when the image is built).
    pub(crate) hybrid: HybridSchedule,
    /// Output-direction interface signals as (signal index, interned
    /// name): every reaction snapshots them without re-allocating names.
    pub(crate) out_signals: Box<[(u32, Arc<str>)]>,
    sparse: OnceCell<SparseTables>,
    cohort_plan: OnceCell<CohortPlan>,
    cohort_key: OnceCell<u64>,
    struct_hash: OnceCell<u64>,
}

impl ProgramImage {
    /// The image of `circuit`'s body on this thread: the live one if a
    /// machine already runs it, else a freshly built and registered one.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnfinalizedCircuit`] for an unsealed circuit and
    /// [`RuntimeError::Causality`] when the static constructiveness
    /// analysis proves a combinational cycle can never stabilize.
    pub(crate) fn for_circuit(circuit: Circuit) -> Result<Rc<ProgramImage>, RuntimeError> {
        if !circuit.is_finalized() {
            return Err(RuntimeError::UnfinalizedCircuit {
                program: circuit.name.clone(),
            });
        }
        let key = circuit.body_id();
        if let Some(image) = REGISTRY.with(|r| r.borrow().get(&key).and_then(Weak::upgrade)) {
            return Ok(image);
        }
        let image = Rc::new(ProgramImage::build(circuit)?);
        REGISTRY.with(|r| r.borrow_mut().insert(key, Rc::downgrade(&image)));
        Ok(image)
    }

    fn build(circuit: Circuit) -> Result<ProgramImage, RuntimeError> {
        let n = circuit.nets().len();
        let mut class = Vec::with_capacity(n);
        let mut is_or = Vec::with_capacity(n);
        for net in circuit.nets() {
            is_or.push(!matches!(net.kind, NetKind::And));
            class.push(match &net.kind {
                NetKind::Const(_) | NetKind::Input | NetKind::RegOut(_) => Class::Source,
                NetKind::Test(_) => Class::Test,
                NetKind::Or | NetKind::And => {
                    match net.action.map(|a| &circuit.actions()[a.index()]) {
                        None => Class::Gate,
                        Some(Action::Emit { .. }) | Some(Action::AsyncDone(_)) => Class::Early,
                        Some(_) => Class::Late,
                    }
                }
            });
        }
        let out_signals = circuit
            .signals()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.direction.is_output())
            .map(|(i, s)| (i as u32, Arc::from(s.name.as_str())))
            .collect();
        // Acyclicity analysis: precompute the dense level schedule when
        // the combinational graph levelizes (the common case). Cyclic
        // circuits run the static constructiveness analysis: provably
        // non-constructive ones are rejected here — before any reaction —
        // and the rest get an SCC-condensed hybrid schedule.
        let schedule = LevelSchedule::build(&circuit, &class).map(Rc::new);
        let hybrid = match &schedule {
            Some(s) => HybridSchedule::acyclic(s.clone()),
            None => {
                let analysis = circuit.constructiveness();
                if let Some(members) = analysis.first_non_constructive() {
                    let mut stuck = vec![false; n];
                    for m in members {
                        stuck[m.index()] = true;
                    }
                    let report = analyze(&circuit, &stuck, members.len(), 0);
                    return Err(RuntimeError::Causality {
                        cycle: report.nets.clone(),
                        undetermined: members.len(),
                        report,
                    });
                }
                HybridSchedule::cyclic(&circuit, &class, &analysis.condensation)
            }
        };
        Ok(ProgramImage {
            circuit,
            class: class.into(),
            is_or: is_or.into(),
            schedule,
            hybrid,
            out_signals,
            sparse: OnceCell::new(),
            cohort_plan: OnceCell::new(),
            cohort_key: OnceCell::new(),
            struct_hash: OnceCell::new(),
        })
    }

    /// The sparse engine's static tables (acyclic circuits only).
    pub(crate) fn sparse(&self) -> &SparseTables {
        self.sparse.get_or_init(|| {
            let sched = self
                .schedule
                .as_ref()
                .expect("sparse engine without a schedule");
            SparseTables::build(&self.circuit, sched)
        })
    }

    /// The cohort execution plan (acyclic circuits only).
    pub(crate) fn cohort_plan(&self) -> &CohortPlan {
        self.cohort_plan.get_or_init(|| {
            let sched = self
                .schedule
                .as_ref()
                .expect("cohort plan without a schedule");
            build_plan(&self.circuit, sched)
        })
    }

    /// The structural cohort grouping key (acyclic circuits only).
    pub(crate) fn cohort_key(&self) -> u64 {
        *self.cohort_key.get_or_init(|| {
            let sched = self
                .schedule
                .as_ref()
                .expect("cohort key without a schedule");
            structural_key(&self.circuit, sched)
        })
    }

    /// [`circuit_struct_hash`] of the circuit, computed once.
    pub(crate) fn struct_hash(&self) -> u64 {
        *self
            .struct_hash
            .get_or_init(|| circuit_struct_hash(&self.circuit))
    }
}

impl Drop for ProgramImage {
    fn drop(&mut self) {
        let key = self.circuit.body_id();
        // `try_with`: an image dropped during thread teardown may outlive
        // the registry itself.
        let _ = REGISTRY.try_with(|r| {
            if let Ok(mut r) = r.try_borrow_mut() {
                if r.get(&key).is_some_and(|w| w.strong_count() == 0) {
                    r.remove(&key);
                }
            }
        });
    }
}

/// Number of live program images on the calling thread — one per
/// distinct circuit body some machine on this thread is running.
pub fn live_images() -> usize {
    REGISTRY.with(|r| r.borrow().len())
}
