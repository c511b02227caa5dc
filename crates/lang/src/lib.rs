//! Phase 1 of the HipHop compiler (paper §5): the textual front-end.
//!
//! Parses the concrete HipHop syntax used throughout the paper into core
//! AST [`hiphop_core::module::Module`]s. Where HipHop.js embeds arbitrary
//! JavaScript (async bodies, host atoms), the textual syntax references
//! *named* hooks from a [`host::HostRegistry`]; pure data expressions are
//! parsed into the interpreted expression language.
//!
//! # Examples
//!
//! ```
//! use hiphop_lang::{parse_program, HostRegistry};
//! use hiphop_runtime::Machine;
//! use hiphop_compiler::compile_module;
//!
//! let src = r#"
//!     module Blink(in tick, out led) {
//!         every (tick.now) { emit led(); }
//!     }
//! "#;
//! let (main, registry) = parse_program(src, "Blink", &HostRegistry::new())?;
//! let compiled = compile_module(&main, &registry)?;
//! let mut m = Machine::new(compiled.circuit)?;
//! m.react()?;
//! let r = m.react_with(&[("tick", hiphop_core::value::Value::Bool(true))])?;
//! assert!(r.present("led"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![allow(clippy::type_complexity)] // Rc<dyn Fn> hook signatures are the API

pub mod error;
pub mod host;
pub mod lexer;
pub mod parser;
pub mod token;

pub use error::ParseError;
pub use host::HostRegistry;
pub use parser::{parse_file, parse_program, MAX_NESTING};
