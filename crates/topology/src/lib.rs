//! Network topology substrate for the Dynamic Quarantine reproduction.
//!
//! The paper runs its simulations on three kinds of topologies:
//!
//! * a **200-node star** (Section 4, Figure 1),
//! * a **1,000-node power-law graph** generated by BRITE with
//!   "characteristics similar to an AS topology such as the Oregon router
//!   views" (Sections 5.4 and 6, Figures 4, 6, 8) — reproduced here with a
//!   seeded Barabási–Albert [generator](generators::barabasi_albert),
//! * a **hierarchical subnet topology** for the within-subnet experiments
//!   (Figure 5), built by [`generators::SubnetTopologyBuilder`].
//!
//! On top of the raw [`Graph`] this crate provides BFS shortest-path
//! [`routing`] with per-link load counts (the paper weights each
//! rate-limited link's budget "proportional to the number of routing table
//! entries the link occupies") behind a [`RoutingBackend`] trait — the
//! dense all-pairs [`RoutingTable`] for paper-scale worlds, the
//! memory-bounded [`lazy::LazyRouting`] per-query bidirectional search
//! for huge flat topologies,
//! and the two-level [`hier::HierRouting`] composition for large
//! hierarchical worlds (dense gateway core + pendant-tree arrays) —
//! degree-based [role assignment](roles)
//! ("the top 5% and 10% of nodes with the most number of connections as
//! backbone and edge routers"), and [path-coverage](paths) computation —
//! the `α` of Equation 6.
//!
//! # Example
//!
//! ```
//! use dynaquar_topology::generators;
//! use dynaquar_topology::roles::{assign_by_degree, Role};
//! use dynaquar_topology::routing::RoutingTable;
//!
//! let graph = generators::barabasi_albert(100, 2, 42).expect("valid parameters");
//! assert!(graph.is_connected());
//! let roles = assign_by_degree(&graph, 0.05, 0.10);
//! assert_eq!(roles.iter().filter(|r| **r == Role::Backbone).count(), 5);
//! let routing = RoutingTable::shortest_paths(&graph);
//! assert!(routing.path(0.into(), 99.into()).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod export;
pub mod generators;
pub mod generators_extra;
pub mod graph;
pub mod hier;
pub mod lazy;
pub mod metrics;
pub mod paths;
pub mod roles;
pub mod routing;

pub use error::Error;
pub use graph::{Csr, EdgeId, Graph, NodeId};
pub use hier::HierRouting;
pub use lazy::{LazyRouting, RoutingKind};
pub use routing::{RoutingBackend, RoutingTable};
