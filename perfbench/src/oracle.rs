//! The output check: re-drives recorded inputs through the reference
//! interpreter (`hiphop_interp`, which shares no code with the compiler
//! or the machine) and compares every output's presence and value.

use hiphop_core::module::{Module, ModuleRegistry};
use hiphop_core::value::Value;
use hiphop_interp::{Interp, InterpReaction};
use hiphop_runtime::OutputEvent;

/// One recorded instant: the inputs the program received and the
/// outputs it returned for them.
pub(crate) struct Step {
    /// Inputs, in injection order.
    pub(crate) inputs: Vec<(String, Value)>,
    /// Outputs as the program reported them.
    pub(crate) outputs: Vec<OutputEvent>,
}

/// Re-drives `steps` (the first of which is the boot reaction)
/// through a fresh interpreter of `module`. Returns one description per
/// instant whose outputs disagree.
pub(crate) fn check(module: &Module, steps: &[Step]) -> Vec<String> {
    let mut interp = match Interp::new(module, &ModuleRegistry::new()) {
        Ok(i) => i,
        Err(e) => return vec![format!("interpreter rejects the program: {e}")],
    };
    let mut mismatches = Vec::new();
    for (n, step) in steps.iter().enumerate() {
        let refs: Vec<(&str, Value)> = step
            .inputs
            .iter()
            .map(|(name, v)| (name.as_str(), v.clone()))
            .collect();
        match interp.react_with(&refs) {
            Ok(reaction) => {
                if let Some(why) = disagreement(&reaction, &step.outputs) {
                    mismatches.push(format!("instant {n}: {why}"));
                }
            }
            Err(e) => mismatches.push(format!("instant {n}: interpreter error: {e}")),
        }
    }
    mismatches
}

fn disagreement(expected: &InterpReaction, got: &[OutputEvent]) -> Option<String> {
    if expected.outputs.len() != got.len() {
        return Some(format!(
            "{} outputs, the interpreter has {}",
            got.len(),
            expected.outputs.len()
        ));
    }
    for o in got {
        let Some((_, present, value)) = expected.outputs.iter().find(|(n, _, _)| *n == *o.name)
        else {
            return Some(format!("output {} is unknown to the interpreter", o.name));
        };
        if *present != o.present || value.to_string() != o.value.to_string() {
            return Some(format!(
                "{} is {}:{}, the interpreter says {}:{}",
                o.name, o.present as u8, o.value, *present as u8, value
            ));
        }
    }
    None
}
