//! Simulation-strategy selection: tick-driven vs. event-driven stepping.
//!
//! Both strategies execute the same per-tick phase sequence with the
//! same mutation paths; they differ only in how each phase *enumerates*
//! its candidates:
//!
//! * **Tick** sweeps every host in every phase — `O(hosts)` per tick
//!   regardless of how many hosts are doing anything;
//! * **Event** asks the engine's activity indexes (the sorted infected
//!   set, the set of hosts with pending throttled scans, the
//!   self-patch and quarantine timers) — `O(active + in-flight)` per
//!   tick.
//!
//! Because [`crate::world::World::hosts`] is sorted ascending by node
//! id and every tick-path sweep visits hosts in that same order while
//! merely *skipping* inactive ones, enumerating the identical candidate
//! subset from a sorted index reproduces the exact RNG draw sequence
//! and side-effect order; each scanner also draws from its own per-host
//! stream (see `netsim::streams`), so its targets never depend on which
//! other hosts the sweep visited. The two strategies are therefore
//! **bit-identical** — an equivalence pinned by the differential suite
//! in `crates/netsim/tests/engine_equivalence.rs` and the strategy pins
//! in `crates/netsim/tests/engine_fingerprints.rs`. The immunization
//! sweep shares the contract since its old `O(hosts)` carve-out was
//! retired: both strategies enumerate the sorted unpatched-host index
//! (`O(unpatched)` while active) and the draws are stateless hash
//! Bernoullis per `(seed, tick, host)` — see `netsim::streams` — so
//! enumeration order cannot perturb them.

use dynaquar_parallel::{env_override, EnvParse};
use serde::{Deserialize, Serialize};

/// Environment variable consulted by [`SimStrategy::Auto`]: `tick` or
/// `event` forces that strategy for every Auto-configured run (the CI
/// strategy matrix drives the whole test suite through each engine this
/// way). Unset, empty, or `auto` falls back to the size rule; any other
/// value also falls back but emits a one-shot warning naming the bad
/// value — a typo must not silently change which engine ran.
pub const STRATEGY_ENV: &str = "DYNAQUAR_STRATEGY";

/// Node count above which [`SimStrategy::Auto`] picks the event-driven
/// engine — the same threshold
/// [`RoutingKind::Auto`](dynaquar_topology::lazy::RoutingKind) uses to
/// leave the dense routing table, so "large world" means one thing
/// across the stack.
pub const EVENT_AUTO_LIMIT: usize = dynaquar_topology::lazy::DENSE_AUTO_LIMIT;

/// How the engine steps a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SimStrategy {
    /// Defer to [`STRATEGY_ENV`] when set, else the size rule: tick at
    /// or below [`EVENT_AUTO_LIMIT`] nodes (every paper-scale world and
    /// pinned fingerprint is untouched), event-driven above.
    #[default]
    Auto,
    /// Always sweep every host each tick (the original engine).
    Tick,
    /// Always enumerate from the activity indexes.
    Event,
}

impl SimStrategy {
    /// Resolves `Auto` against a concrete node count (and the
    /// [`STRATEGY_ENV`] override); `Tick`/`Event` pass through.
    pub fn resolve(self, nodes: usize) -> SimStrategy {
        match self {
            SimStrategy::Tick | SimStrategy::Event => self,
            SimStrategy::Auto => {
                // A misspelled override must not silently fall through
                // to the size rule (it would change which engine the
                // whole run used) — the shared helper warns once per
                // process and falls back.
                let forced = env_override(
                    STRATEGY_ENV,
                    "\"tick\", \"event\", or \"auto\" \
                     (falling back to the auto size rule)",
                    |v| match v.to_ascii_lowercase().as_str() {
                        "tick" => EnvParse::Value(SimStrategy::Tick),
                        "event" => EnvParse::Value(SimStrategy::Event),
                        // Explicitly asking for the default is not a typo.
                        "auto" => EnvParse::Default,
                        _ => EnvParse::Invalid,
                    },
                );
                if let Some(s) = forced {
                    return s;
                }
                if nodes > EVENT_AUTO_LIMIT {
                    SimStrategy::Event
                } else {
                    SimStrategy::Tick
                }
            }
        }
    }
}

impl std::fmt::Display for SimStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SimStrategy::Auto => "auto",
            SimStrategy::Tick => "tick",
            SimStrategy::Event => "event",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for SimStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(SimStrategy::Auto),
            "tick" => Ok(SimStrategy::Tick),
            "event" => Ok(SimStrategy::Event),
            other => Err(format!("unknown strategy {other} (want auto|tick|event)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_strategies_resolve_to_themselves() {
        assert_eq!(SimStrategy::Tick.resolve(1_000_000), SimStrategy::Tick);
        assert_eq!(SimStrategy::Event.resolve(10), SimStrategy::Event);
    }

    #[test]
    fn auto_uses_the_routing_threshold() {
        // The env override is process-global; only exercise the size
        // rule when the variable is not set (the CI matrix sets it for
        // whole jobs, never inside one).
        if std::env::var(STRATEGY_ENV).is_err() {
            assert_eq!(SimStrategy::Auto.resolve(EVENT_AUTO_LIMIT), SimStrategy::Tick);
            assert_eq!(
                SimStrategy::Auto.resolve(EVENT_AUTO_LIMIT + 1),
                SimStrategy::Event
            );
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in [SimStrategy::Auto, SimStrategy::Tick, SimStrategy::Event] {
            assert_eq!(s.to_string().parse::<SimStrategy>().unwrap(), s);
        }
        assert!("Event".parse::<SimStrategy>().is_ok());
        assert!("turbo".parse::<SimStrategy>().is_err());
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(SimStrategy::default(), SimStrategy::Auto);
    }
}
