//! # olp-semantics — the declarative semantics of ordered logic programs
//!
//! Implements §2 of *"Extending Logic Programming"* (Laenens, Saccà &
//! Vermeir, SIGMOD 1990) over the ground programs produced by
//! [`olp_ground`]:
//!
//! * [`Interpretation`] — consistent 3-valued assignments (`B_P ∪ ¬B_P`);
//! * [`View`] — a compiled component view `ground(C*)` with the five
//!   rule statuses of Definition 2 (applicable / applied / blocked /
//!   overruled / defeated);
//! * [`least_model`] — the least fixpoint of the ordered immediate
//!   transformation `V_{P,C}` (Def. 4, Lemma 1, Prop. 1, Thm. 1b): the
//!   least model, intersection of all models, assumption-free;
//! * [`is_model`] — Definition 3;
//! * [`greatest_assumption_set`] / [`is_assumption_free`] —
//!   Definitions 6–8 and Theorem 1a;
//! * [`stable_models`] and friends — Definition 9 (maximal
//!   assumption-free models), exhaustive models (Def. 5b, Prop. 2),
//!   total models (Def. 5a);
//! * [`Decomposition`] — the independent rule groups of the dependency
//!   graph: product-form enumeration of stable and assumption-free
//!   models (on by default in [`stable_models`]);
//! * [`least_model_first`] — stable, skeptical and credulous readings
//!   that search only the groups the least model leaves contested.
//!
//! ## Quick example (the paper's Fig. 1)
//!
//! ```
//! use olp_core::{CompId, World};
//! use olp_parser::{parse_ground_literal, parse_program};
//! use olp_ground::{ground_exhaustive, GroundConfig};
//! use olp_semantics::{least_model, View};
//!
//! let mut world = World::new();
//! let prog = parse_program(&mut world, "
//!     module c2 {
//!         bird(penguin). bird(pigeon).
//!         fly(X) :- bird(X).
//!         -ground_animal(X) :- bird(X).
//!     }
//!     module c1 < c2 {
//!         ground_animal(penguin).
//!         -fly(X) :- ground_animal(X).
//!     }").unwrap();
//! let ground = ground_exhaustive(&mut world, &prog, &GroundConfig::default()).unwrap();
//!
//! // In the specific component c1 the penguin does not fly…
//! let c1 = prog.component_by_name(world.syms.get("c1").unwrap()).unwrap();
//! let m1 = least_model(&View::new(&ground, c1));
//! let no_fly = parse_ground_literal(&mut world, "-fly(penguin)").unwrap();
//! assert!(m1.holds(no_fly));
//!
//! // …while in the general component c2 it does (inheritance is
//! // one-way: exceptions live below).
//! let c2 = prog.component_by_name(world.syms.get("c2").unwrap()).unwrap();
//! let m2 = least_model(&View::new(&ground, c2));
//! assert!(m2.holds(no_fly.complement()));
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

pub mod assumption;
pub mod decomp;
pub mod explain;
pub mod fixpoint;
pub mod flat_eval;
pub mod least_first;
pub mod model;
pub mod prove;
pub mod skeptical;
pub mod stable;
pub mod stable_solver;
pub mod view;

pub use assumption::{
    enabled_version, greatest_assumption_set, has_no_assumption_set, is_assumption_free, t_fixpoint,
};
pub use decomp::{
    enumerate_assumption_free_decomposed, enumerate_assumption_free_decomposed_budgeted,
    stable_models_decomposed, stable_models_decomposed_budgeted, stable_models_decomposed_cached,
    Decomposition, GroupMemo,
};
pub use explain::{explain, explain_budgeted, explain_in, render_why, Fate, Proof, Why};
pub use fixpoint::{
    least_model, least_model_budgeted, least_model_naive, least_model_naive_budgeted, v_step,
};
pub use flat_eval::{
    flatten, least_model_delta_flat, least_model_flat, least_model_flat_budgeted,
    least_model_flat_definite,
};
pub use least_first::{least_model_first, LeastFirst};
pub use model::{check_model, is_model, ModelViolation};
pub use olp_core::{
    Budget, Eval, Inconsistency, Interpretation, InterruptReason, Interrupted, Truth,
};
pub use prove::{prove, prove_budgeted, relevance_cone, relevance_cone_budgeted};
pub use skeptical::{
    credulous_consequences, credulous_consequences_budgeted, skeptical_consequences,
    skeptical_consequences_budgeted,
};
pub use stable::{
    derivability_closure, enumerate_assumption_free, enumerate_assumption_free_budgeted,
    enumerate_models, extend_to_exhaustive, has_total_model, is_exhaustive, maximal_only,
    maximal_only_budgeted, stable_models, stable_models_budgeted,
    stable_models_monolithic_budgeted, stable_models_naive,
};
pub use stable_solver::{
    enumerate_assumption_free_parallel, enumerate_assumption_free_parallel_budgeted,
    enumerate_assumption_free_propagating, enumerate_assumption_free_propagating_budgeted,
    stable_models_parallel, stable_models_parallel_budgeted, stable_models_propagating,
};
pub use view::{LocalIdx, View, ViewStats};

/// Intersection of a non-empty family of interpretations, as literal
/// sets (the empty family yields the empty interpretation).
pub fn interp_intersection(ms: &[Interpretation]) -> Interpretation {
    let mut out = match ms.first() {
        Some(m) => m.clone(),
        None => return Interpretation::new(),
    };
    for m in &ms[1..] {
        let drop: Vec<olp_core::GLit> = out.literals().filter(|&l| !m.holds(l)).collect();
        for l in drop {
            out.remove(l);
        }
    }
    out
}
