//! # olp-core — data model for ordered logic programming
//!
//! This crate implements the basic language of *"Extending Logic
//! Programming"* (Laenens, Saccà & Vermeir, SIGMOD 1990): terms,
//! predicates, literals (with classical negation allowed in rule heads),
//! rules, *components* (modules) and *ordered programs* (finite partially
//! ordered sets of components).
//!
//! ## Representation strategy
//!
//! Logic-programming engines are dominated by term and atom comparisons,
//! and a naive `Rc`-based term graph both fragments the heap and makes
//! ownership awkward. Everything here is therefore **interned**:
//!
//! * strings → [`Sym`] (a `u32`) via [`SymbolTable`],
//! * predicate symbol + arity → [`PredId`] via [`PredTable`],
//! * ground terms → [`GTermId`] via a hash-consing [`TermStore`],
//! * ground atoms → [`AtomId`] via a hash-consing [`AtomStore`],
//! * signed ground literals → [`GLit`], a single `u32` (atom id shifted
//!   left, sign in the low bit), so a rule body is a flat `Box<[GLit]>`.
//!
//! All stores live in a single [`World`] value with plain single
//! ownership; ids are `Copy` and freely shareable. Equality of ground
//! terms/atoms is id equality.
//!
//! Non-ground syntax (rules as written, before grounding) uses the owned
//! [`Term`] tree, which is cheap because rules are small and grounding
//! immediately converts to ids.
//!
//! ## Module map
//!
//! * [`fxhash`] — the FxHash algorithm (local implementation; see DESIGN.md).
//! * [`symbol`] — string interning.
//! * [`pred`] — predicate table.
//! * [`gterm`] — hash-consed ground terms and atoms.
//! * [`interp`] — consistent 3-valued interpretations over ground atoms.
//! * [`literal`] — signs, non-ground literals, packed ground literals.
//! * [`term`] — non-ground terms, arithmetic expressions, comparisons.
//! * [`rule`] — rules and body items.
//! * [`program`] — components, ordered programs, the component partial order.
//! * [`bitset`] — a small dense bit set used throughout the workspace.
//! * [`budget`] — the engine-wide resource governor (step budgets,
//!   deadlines, cancellation, anytime [`Eval`] outcomes).
//! * [`scc`] — generic iterative Tarjan strongly-connected components,
//!   shared by every dependency-graph consumer.
//! * [`span`] — source positions ([`Pos`]) and the per-program
//!   [`SpanTable`] recorded by the parser for diagnostics.
//! * [`world`] — the [`World`] bundle of interners.

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
// Pedantic lints we deliberately opt out of: this is an interner-heavy
// crate where u32 ids and usize indices interconvert constantly, most
// constructors are obviously-useful without `#[must_use]`, and the
// panics are index-contract violations already documented on the types.
#![allow(
    clippy::must_use_candidate,
    clippy::missing_panics_doc,
    clippy::missing_errors_doc,
    clippy::module_name_repetitions,
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::doc_markdown,
    clippy::too_many_lines,
    clippy::similar_names,
    clippy::many_single_char_names,
    clippy::return_self_not_must_use
)]

pub mod bitset;
pub mod budget;
pub mod fxhash;
pub mod gterm;
pub mod interp;
pub mod literal;
pub mod pred;
pub mod program;
pub mod rule;
pub mod scc;
pub mod span;
pub mod symbol;
pub mod term;
pub mod world;

pub use bitset::BitSet;
pub use budget::{Budget, Eval, InterruptReason, Interrupted, Ticker};
pub use fxhash::{FxHashMap, FxHashSet};
pub use gterm::{AtomId, AtomStore, GTerm, GTermId, GroundAtom, TermStore};
pub use interp::{Inconsistency, Interpretation, Truth};
pub use literal::{GLit, Literal, Sign};
pub use pred::{PredId, PredTable};
pub use program::{CompId, Component, Order, OrderError, OrderedProgram};
pub use rule::{Aexp, BodyItem, Cmp, CmpOp, EvalError, Rule};
pub use scc::{tarjan_scc, tarjan_scc_csr};
pub use span::{Pos, RuleSpan, SpanTable};
pub use symbol::{Sym, SymbolTable};
pub use term::Term;
pub use world::World;
