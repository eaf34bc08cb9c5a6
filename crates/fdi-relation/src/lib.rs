//! # fdi-relation — a relational substrate with marked nulls
//!
//! Storage layer for the reproduction of *Vassiliou, "Functional
//! Dependencies and Incomplete Information", VLDB 1980*. Everything a
//! 1980 relational instance needs, built from scratch:
//!
//! * [`symbol`] — interned constant symbols;
//! * [`attrs`] — attribute ids and bitset attribute sets;
//! * [`value`] — values: constants, **marked nulls** (the paper's
//!   missing/unknown null), and the **nothing** element of the extended
//!   NS-rules;
//! * [`domain`] — finite, known domains (the paper's standing
//!   assumption), plus unbounded domains for classical algorithms;
//! * [`schema`] — relation schemes;
//! * [`nec`] — null-equality constraints as a union–find (Definition 1);
//! * [`rowid`] — stable row identity: the [`RowId`] slot handle that
//!   survives deletes unchanged (no positional renumbering);
//! * [`mod@tuple`] / [`instance`] — tuples and relation instances stored
//!   in a slot arena (`O(1)` tombstoning deletes, explicit
//!   [`Instance::compact`](instance::Instance::compact)), with a
//!   figure-style text format and ASCII rendering;
//! * [`completion`] — the completion sets `AP(t, R)` / `AP(r, R)` of §4,
//!   with counting and budgeted enumeration;
//! * [`lattice`] — the §2 approximation ordering lifted to instances;
//! * [`serial`] — byte-codec primitives for the **exact-state**
//!   serialization ([`Instance::encode_state`](instance::Instance::encode_state))
//!   that the `fdi-store` durability layer snapshots and replays against.
//!
//! ## Example
//!
//! ```
//! use fdi_relation::schema::Schema;
//! use fdi_relation::instance::Instance;
//! use fdi_relation::completion::CompletionSpace;
//!
//! let schema = Schema::builder("R")
//!     .attribute("A", ["a1", "a2"])
//!     .attribute("B", ["b1", "b2", "b3"])
//!     .build()
//!     .unwrap();
//! // `-` is an anonymous null; `?x` a marked null shared between rows.
//! let r = Instance::parse(schema, "a1 ?x\na2 ?x").unwrap();
//! let space = CompletionSpace::for_instance(&r, r.schema().all_attrs()).unwrap();
//! assert_eq!(space.count(), 3); // the shared null ranges over dom(B)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod attrs;
pub mod completion;
pub mod domain;
pub mod error;
pub mod instance;
pub mod lattice;
pub mod nec;
pub mod rowid;
pub mod schema;
pub mod serial;
pub mod symbol;
pub mod tuple;
pub mod value;

pub use attrs::{AttrId, AttrSet};
pub use completion::CompletionSpace;
pub use domain::Domain;
pub use error::RelationError;
pub use instance::{CanonValue, CanonicalInstance, Instance};
pub use nec::{NecSnapshot, NecStore, NecUndo};
pub use rowid::{RowId, RowIdShard};
pub use schema::{AttrDef, DomainSpec, Schema, SchemaBuilder};
pub use serial::DecodeError;
pub use symbol::{Symbol, SymbolTable};
pub use tuple::Tuple;
pub use value::{NullId, Value};
