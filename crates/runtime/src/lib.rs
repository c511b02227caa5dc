//! The HipHop runtime: a reactive machine executing compiled circuits with
//! constructive (ternary least-fixpoint) semantics, causality-error
//! reporting, valued signals, and the `async` bridge to the host world.
//!
//! # Examples
//!
//! Running the ABRO classic:
//!
//! ```
//! use hiphop_core::prelude::*;
//! use hiphop_runtime::machine_for;
//!
//! let abro = Module::new("ABRO")
//!     .input(SignalDecl::new("A", Direction::In))
//!     .input(SignalDecl::new("B", Direction::In))
//!     .input(SignalDecl::new("R", Direction::In))
//!     .output(SignalDecl::new("O", Direction::Out))
//!     .body(Stmt::loop_each(
//!         Delay::cond(Expr::now("R")),
//!         Stmt::seq([
//!             Stmt::par([
//!                 Stmt::await_(Delay::cond(Expr::now("A"))),
//!                 Stmt::await_(Delay::cond(Expr::now("B"))),
//!             ]),
//!             Stmt::emit("O"),
//!         ]),
//!     ));
//!
//! let mut m = machine_for(&abro, &ModuleRegistry::new())?;
//! m.react()?; // boot instant
//! let r = m.react_with(&[("A", Value::Bool(true)), ("B", Value::Bool(true))])?;
//! assert!(r.present("O"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![allow(clippy::type_complexity)] // Rc<dyn Fn> hook signatures are the API

pub mod causality;
pub mod cohort;
mod constructive;
mod env;
pub mod error;
pub mod flight;
pub mod isolate;
pub mod levelized;
pub mod machine;
pub mod snapshot;
pub mod image;
mod sparse;
pub mod telemetry;
pub mod waveform;

pub use causality::CausalityReport;
pub use cohort::{cohort_key, react_cohort, CohortWidth};
pub use error::{CycleNet, RuntimeError};
pub use flight::{
    DigestMismatch, Json, Recorder, RecorderConfig, RecordedInput, RecordedTick, Recording,
    ReplayOptions, ReplayReport,
};
pub use levelized::EngineMode;
pub use machine::{Machine, OutputEvent, Reaction};
pub use snapshot::{
    circuit_struct_hash, ActivitySnapshot, AsyncSnapshot, ChaosSnapshot, MachineSnapshot,
    PoolSnapshot, SessionSnapshot, SnapshotError, SNAPSHOT_FORMAT_VERSION,
};
pub use telemetry::{
    chrome_trace, ChromeTraceSink, Histogram, JsonlSink, LevelActivity, Metrics, MetricsSink,
    PoolMetrics, ReactionStats, ShardRollup, SharedSink, SinkSet, SpanCollector, SpanKind, SpanRecord, Summary,
    TraceEvent, TraceSink, VcdSink,
};
pub use waveform::{SharedWaveform, Waveform};

use hiphop_compiler::{compile_module, CompileError};
use hiphop_core::module::{Module, ModuleRegistry};

/// Compiles `main` against `registry` and wraps it in a fresh machine —
/// the one-call analogue of loading a `.hh.js` module in the paper.
///
/// # Errors
///
/// Propagates linking, checking and translation errors. A statically
/// non-constructive program (the paper's `X = not X`) is rejected here
/// as [`CompileError::NonConstructive`], carrying the rendered
/// [`CausalityReport`] — no reaction needs to run.
pub fn machine_for(main: &Module, registry: &ModuleRegistry) -> Result<Machine, CompileError> {
    let compiled = compile_module(main, registry)?;
    let program = compiled.circuit.name.clone();
    Machine::new(compiled.circuit).map_err(|e| match e {
        RuntimeError::Causality { report, .. } => CompileError::NonConstructive {
            program,
            report: report.pretty(),
        },
        other => unreachable!("compiled circuits are finalized: {other}"),
    })
}
