//! Hypercube topology and subcube algebra.
//!
//! This crate provides the topological substrate used throughout the AOFT
//! reproduction of McMillin & Ni, *Reliable Distributed Sorting Through the
//! Application-Oriented Fault Tolerance Paradigm* (ICDCS 1989):
//!
//! * [`NodeId`] — a node label in an *n*-dimensional hypercube, with the bit
//!   arithmetic (neighbors, partners, Hamming distance) the paper relies on.
//! * [`Hypercube`] — the graph `G(P, E)` of Section 1: `N = 2^n` vertices with
//!   an edge wherever two labels differ in exactly one bit.
//! * [`Subcube`] — the *home subcube* `SC_{i,j}` of Definition 4, the unit over
//!   which every constraint predicate of the paper is evaluated.
//! * [`NodeSet`] — an arbitrary-size bitset over node ids, replacing the
//!   paper's `1 << node` masks (which only work for `N ≤` word size).
//! * [`routing`] — e-cube routing and the vertex-disjoint path families that
//!   justify the consistency predicate Φ_C (Lemma 6).
//! * [`gray`] — binary-reflected Gray codes and the ring embedding.
//!
//! # Examples
//!
//! ```
//! use aoft_hypercube::{Hypercube, NodeId, Subcube};
//!
//! let cube = Hypercube::new(3)?;
//! assert_eq!(cube.len(), 8);
//!
//! // Node 5 = 0b101 has neighbors across each of the three dimensions.
//! let five = NodeId::new(5);
//! let neighbors: Vec<u32> = (0..cube.dim()).map(|d| five.neighbor(d).raw()).collect();
//! assert_eq!(neighbors, vec![4, 7, 1]);
//!
//! // The home subcube SC_{2,5} covers nodes 4..=7.
//! let sc = Subcube::home(2, five);
//! assert_eq!((sc.start().index(), sc.end().index()), (4, 7));
//! # Ok::<(), aoft_hypercube::DimensionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations, unreachable_pub)]

mod error;
pub mod gray;
mod node_id;
mod nodeset;
pub mod routing;
mod subcube;
mod topology;

pub use error::DimensionError;
pub use node_id::NodeId;
pub use nodeset::NodeSet;
pub use routing::{DisjointPaths, Path};
pub use subcube::Subcube;
pub use topology::Hypercube;

/// Maximum hypercube dimension this crate supports.
///
/// `2^MAX_DIMENSION` nodes must fit comfortably in memory both for
/// simulation state and for `NodeSet` bitmasks; 24 (16 Mi nodes) is far
/// beyond anything the simulator instantiates and matches the projection
/// range of the paper's Figure 7.
pub const MAX_DIMENSION: u32 = 24;
