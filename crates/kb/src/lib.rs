//! # olp-kb — ordered logic programming as a knowledge-base system
//!
//! The paper positions ordered logic programming as "a step toward the
//! construction of knowledge base systems of great flexibility":
//! modules are objects, the `<` hierarchy is `isa` inheritance, local
//! rules overrule inherited defaults, and specialisation doubles as
//! versioning (§1, §5). This crate packages those claims as an API:
//!
//! ```
//! use olp_kb::{GroundStrategy, KbBuilder};
//! use olp_core::Truth;
//!
//! let mut b = KbBuilder::new();
//! b.rules("bird", "
//!     bird(penguin). bird(pigeon).
//!     fly(X) :- bird(X).
//! ").unwrap();
//! b.isa("penguin_facts", "bird");
//! b.rules("penguin_facts", "
//!     ground_animal(penguin).
//!     -fly(X) :- ground_animal(X).
//! ").unwrap();
//! let mut kb = b.build(GroundStrategy::Smart).unwrap();
//! assert_eq!(kb.truth("penguin_facts", "fly(penguin)").unwrap(), Truth::False);
//! assert_eq!(kb.truth("bird", "fly(penguin)").unwrap(), Truth::True);
//! ```
//!
//! Extensional data lives in [`Relation`]s (Example 6's "parent defined
//! through a database relation") and is loaded into objects as facts.

#![warn(missing_docs)]

pub mod durable;
pub mod kb;
pub mod relation;
pub mod snapshot;

pub use durable::{DurableKb, RecoveryReport};
pub use kb::{default_threads, GroundStrategy, Kb, KbBuilder, KbError, QueryOptions};
pub use olp_core::{Budget, Eval, InterruptReason, Interrupted};
pub use olp_store::{Durability, StoreError};
pub use relation::{ArityMismatch, Relation};
pub use snapshot::KbSnapshot;
