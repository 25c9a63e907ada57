#![warn(missing_docs)]

//! # receivers-objectbase
//!
//! The object-base data model of Andries, Cabibbo, Paredaens and Van den
//! Bussche, *Applying an Update Method to a Set of Receivers* (PODS 1995),
//! Section 2 and Section 4.1.
//!
//! An **object-base schema** is a finite, edge-labeled, directed graph whose
//! nodes are *class names* and whose edges `(B, e, C)` carry pairwise
//! distinct *property names* `e` (Definition 2.1). An **instance** of a
//! schema is a finite labeled directed graph whose nodes are *objects*
//! labeled by class names and whose edges `(o, e, p)` instantiate schema
//! edges (Definition 2.2).
//!
//! This crate provides:
//!
//! * [`Schema`] / [`SchemaBuilder`] — schemas with interned class and
//!   property names ([`ClassId`], [`PropId`]) and [`SchemaItem`]s;
//! * [`Oid`] — typed object identifiers drawn from pairwise disjoint
//!   per-class universes;
//! * [`Instance`] — validated instances (no dangling edges), with
//!   set-theoretic operations in the "instance = set of its items" view of
//!   Definition 4.1;
//! * [`PartialInstance`] — possibly-dangling item sets (Definition 4.3),
//!   the dangling-edge eliminator [`PartialInstance::largest_instance`]
//!   (the operator *G* of Definition 4.4) and restriction `I|X`
//!   (Definition 4.5);
//! * [`Signature`], [`Receiver`] and [`ReceiverSet`] — method signatures and
//!   receivers (Definitions 2.4 and 2.5), including key sets (Section 3);
//! * [`gen`] — random schema/instance/receiver generators used by the test
//!   suite and the benchmark harness;
//! * [`examples`] — the drinker/bar/beer running example of the paper and
//!   constructors for each of its Figures 1–5.

pub mod delta;
pub mod display;
pub mod error;
pub mod examples;
pub mod extended;
pub mod gen;
pub mod index;
pub mod instance;
pub mod io;
pub mod item;
pub mod method;
pub mod oid;
pub mod partial;
pub mod receiver;
pub mod schema;
pub mod view;

pub use delta::{redo_ops, undo_ops, DeltaOp, InstanceTxn};
pub use error::{ObjectBaseError, Result};
pub use index::{sorted_diff, EdgeIndex};
pub use instance::Instance;
pub use item::{Edge, Item};
pub use method::{FnMethod, InPlaceOutcome, MethodOutcome, UpdateMethod};
pub use oid::Oid;
pub use partial::PartialInstance;
pub use receiver::{Receiver, ReceiverSet, Signature};
pub use schema::{ClassId, PropId, Property, Schema, SchemaBuilder, SchemaItem};
pub use view::{DeltaObserver, NullObserver};
