//! The catalogue of `DYNAQUAR_*` environment overrides.
//!
//! Every knob the stack reads from the environment parses through one
//! shared helper — [`env_override`] from `dynaquar-parallel`, re-exported
//! here — so unset/empty/`auto` always defer silently and an
//! unrecognized value always falls back with exactly one process-wide
//! warning naming it. The variables:
//!
//! | Variable | Values | Consulted by |
//! |---|---|---|
//! | [`THREADS_ENV`] (`DYNAQUAR_THREADS`) | positive integer | `ParallelConfig::from_env` — ensemble worker-pool size (seed-level parallelism) |
//! | [`STRATEGY_ENV`] (`DYNAQUAR_STRATEGY`) | `tick` \| `event` \| `auto` | `SimStrategy::Auto` resolution at simulator construction |
//! | [`ROUTING_ENV`] (`DYNAQUAR_ROUTING`) | `dense` \| `lazy` \| `hier` \| `auto` | `RoutingKind::Auto` resolution at world construction |
//!
//! All three are *pure performance knobs*: the engine's determinism
//! contract guarantees bit-identical results for any thread count,
//! stepping strategy, and routing backend, which is why CI can re-run
//! the whole suite — fingerprints included — under every combination.
//!
//! `DYNAQUAR_SHARDS` is retired: the engine no longer splits one world
//! across threads, and nothing reads the variable. Its name survives
//! only as `crate::shard::SHARDS_ENV` for the benchmark harness.

pub use crate::strategy::STRATEGY_ENV;
pub use dynaquar_parallel::{env_override, EnvParse, THREADS_ENV};
pub use dynaquar_topology::lazy::ROUTING_ENV;
