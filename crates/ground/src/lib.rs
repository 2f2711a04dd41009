//! # olp-ground — grounding ordered logic programs
//!
//! Turns an [`olp_core::OrderedProgram`] (rules with variables,
//! function symbols, and arithmetic comparisons) into a
//! [`GroundProgram`]: flat instances over packed literals, tagged with
//! their source component, plus per-component *views* (`ground(C*)`).
//!
//! Two grounders are provided:
//!
//! * [`ground_exhaustive`] — full instantiation over the depth-bounded
//!   Herbrand universe. The semantic reference; exact per §2 of the
//!   paper. Exponential in rule arity, intended for the paper's example
//!   programs and for validating the smart grounder.
//! * [`ground_smart`] — relevance-restricted, join-based instantiation.
//!   Sound and complete for the **least model, assumption-free models
//!   and stable models** (everything the paper derives *from rules*);
//!   arbitrary models containing assumptions over unreached atoms are
//!   out of its scope. See [`smart`] for the algorithm and the
//!   eternal-attacker construction that keeps overruling/defeating
//!   faithful.
//!
//! ```
//! use olp_core::World;
//! use olp_parser::parse_program;
//! use olp_ground::{ground_smart, GroundConfig};
//!
//! let mut w = World::new();
//! let prog = parse_program(&mut w, "
//!     parent(a,b). parent(b,c).
//!     anc(X,Y) :- parent(X,Y).
//!     anc(X,Y) :- parent(X,Z), anc(Z,Y).
//! ").unwrap();
//! let g = ground_smart(&mut w, &prog, &GroundConfig::default()).unwrap();
//! // 2 facts + 2 base instances + 1 transitive instance: the smart
//! // grounder only materialises derivable joins (exhaustive would
//! // produce 2 + 4 + 8 = 14 over the 2-constant universe… and far
//! // more as constants grow).
//! assert_eq!(g.len(), 5);
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::must_use_candidate,
    clippy::missing_panics_doc,
    clippy::missing_errors_doc,
    clippy::module_name_repetitions,
    clippy::cast_possible_truncation,
    clippy::doc_markdown,
    clippy::too_many_lines,
    clippy::similar_names,
    // Fixpoint/join code is written in the paper's notation: single
    // letters (rule r, literal l, component c) are the clearest names.
    clippy::many_single_char_names,
    // Local helper items next to their single use site read better
    // than hoisting them above unrelated setup code.
    clippy::items_after_statements
)]

pub mod delta;
pub mod exhaustive;
pub mod flat;
mod join;
pub mod program;
pub mod smart;
pub mod universe;

pub use delta::{DeltaGrounder, DeltaRuleId, GroundDelta};
pub use exhaustive::ground_exhaustive;
pub use flat::{FlatIdx, FlatPatch, FlatView, PredStats, ProgramStats};
pub use program::{GroundProgram, GroundRule, RuleIdx};
pub use smart::ground_smart;
pub use universe::{herbrand_universe, signature, GroundConfig, GroundError, Signature};
