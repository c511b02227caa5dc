//! Augmented boolean circuits — the compilation target of HipHop programs
//! (paper §5.1).
//!
//! A circuit is "a list of equations between nets": combinational gates
//! (with negated fanins standing for `not`), unit-delay registers, and
//! *augmented* nets carrying host data expressions ([`net::TestKind`]) or
//! side effects ([`net::Action`]), linked by explicit data-dependency
//! edges that drive the runtime's micro-scheduling.
//!
//! # Examples
//!
//! ```
//! use hiphop_circuit::{Circuit, Fanin};
//!
//! let mut c = Circuit::new("demo");
//! let a = c.input("a");
//! let b = c.input("b");
//! let o = c.or(vec![Fanin::pos(a), Fanin::neg(b)], "a_or_not_b");
//! c.finalize();
//! assert_eq!(c.fanouts(a), &[(o, false)]);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod circuit;
pub mod dataflow;
pub mod net;

pub use analysis::{Condensation, ConstructivenessAnalysis, SccVerdict, Verdict};
pub use dataflow::{CircuitFacts, ConstFacts, EmitCapability, Transfer, ValueSet};
pub use circuit::{Circuit, CircuitBody, CircuitStats, Levelization};
pub use net::{
    Action, ActionId, AsyncId, AsyncInfo, CounterId, CounterInfo, Fanin, Net, NetId, NetKind,
    RegId, Register, SignalId, SignalInfo, TestKind,
};
