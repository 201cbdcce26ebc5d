//! Discrete-event packet-level worm propagation simulator — the
//! reproduction's substitute for the paper's ns-2 based simulator
//! (Section 5.4).
//!
//! The simulation semantics follow the paper exactly:
//!
//! * time advances in **ticks**; at each tick every infected node
//!   attempts to infect others "with infection probability β";
//! * infection packets are **routed along shortest paths**, one hop per
//!   tick;
//! * rate-limited links "only route packets at a rate of γ" — a per-tick
//!   packet cap with queuing of the excess;
//! * rate-limited links get "a base communication rate of 10 packets per
//!   second" multiplied by "a link weight that is proportional to the
//!   number of routing table entries the link occupies"
//!   ([`plan::RateLimitPlan::weighted_link_caps`]);
//! * hosts may carry egress filters (host-based rate limiting), nodes may
//!   carry forwarding caps (hub-node rate limiting);
//! * from a delay tick `d` onward, each unpatched host is immunized with
//!   probability µ per tick (Section 6);
//! * results are averaged over several seeded runs
//!   ([`runner::run_averaged`]), ten in the paper.
//!
//! # Example
//!
//! A Code-Red-style random worm on the paper's 1,000-node power-law
//! graph, no rate limiting:
//!
//! ```
//! use dynaquar_netsim::config::{SimConfig, WormBehavior};
//! use dynaquar_netsim::sim::Simulator;
//! use dynaquar_netsim::world::World;
//! use dynaquar_topology::generators;
//!
//! let graph = generators::barabasi_albert(200, 2, 7).expect("valid");
//! let world = World::from_power_law(graph, 0.05, 0.10);
//! let config = SimConfig::builder()
//!     .beta(0.8)
//!     .horizon(120)
//!     .initial_infected(1)
//!     .build()
//!     .expect("valid config");
//! let result = Simulator::new(&world, &config, WormBehavior::random(), 42).run();
//! assert!(result.infected_fraction.final_value() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod background;
pub mod config;
pub mod env;
pub mod error;
pub mod faults;
pub mod metrics;
pub mod observer;
pub mod plan;
pub mod runner;
pub mod shard;
pub mod sim;
pub mod snapshot;
mod soa;
pub mod strategy;
mod streams;
pub mod world;

pub use config::{CheckpointPolicy, SimConfig, WormBehavior};
pub use error::Error;
pub use faults::{FaultPlan, FaultSchedule};
pub use metrics::{
    ChannelEventSink, DropReason, FanoutObserver, JsonlEventWriter, KindCounts, MetricsObserver,
    PacketAccounting, PacketKind, Phase, PhaseProfile, TickBlock, TickFeed,
};
pub use plan::RateLimitPlan;
pub use runner::{ParallelConfig, RunOutcome, RunTiming, RunnerError, SupervisorConfig, WorkerStats};
pub use sim::{SimResult, Simulator};
pub use snapshot::{Snapshot, SnapshotError};
pub use strategy::SimStrategy;
pub use world::World;
