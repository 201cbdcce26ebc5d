//! The four workloads and the spec documents generated for them.
//!
//! Every input the program sees is a JSON spec produced here from the
//! workload seed. Fixed parameters (world shape, β, horizon, defense)
//! come from the workload; the seed only picks the simulation seeds.
//! Settings a spec leaves out stay at their defaults, so routing,
//! stepping strategy and sharding are resolved by `Auto`.

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperPowerlaw1k,
    OutbreakSubnet100k,
    FlatPowerlaw20k,
    ServeWhatif,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperPowerlaw1k,
        Workload::OutbreakSubnet100k,
        Workload::FlatPowerlaw20k,
        Workload::ServeWhatif,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPowerlaw1k => "paper-powerlaw-1k",
            Workload::OutbreakSubnet100k => "outbreak-subnet-100k",
            Workload::FlatPowerlaw20k => "flat-powerlaw-20k",
            Workload::ServeWhatif => "serve-whatif",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct simulation seeds one run cycles through, so a run's
    /// median does not hang on a single epidemic trajectory. The
    /// untraced `serve-whatif` run instead submits a fresh spec per job;
    /// its count here is the traced run's job set.
    pub fn spec_count(self) -> usize {
        match self {
            Workload::PaperPowerlaw1k => 8,
            Workload::OutbreakSubnet100k => 8,
            Workload::FlatPowerlaw20k => 20,
            Workload::ServeWhatif => 16,
        }
    }

    /// The spec of the `k`-th input of a run with workload seed `seed`.
    /// For `serve-whatif` this is the `k`-th submitted job.
    pub fn spec(self, seed: u64, k: u64) -> String {
        let sim_seed = sim_seed(seed, self, k);
        match self {
            Workload::PaperPowerlaw1k => format!(
                r#"{{"topology": {{"kind": "power_law", "nodes": 1000, "edges_per_node": 2, "seed": 9}},
  "worm": {{"selector": "random"}},
  "beta": 0.8, "horizon": 200, "initial_infected": 3,
  "deployment": "backbone",
  "params": {{"link_base_cap": 0.3, "backbone_node_cap": 0.05}},
  "immunization": {{"at_infected_fraction": 0.2, "mu": 0.05}},
  "runs": 1, "seed": {sim_seed}}}
"#
            ),
            Workload::OutbreakSubnet100k => format!(
                r#"{{"topology": {{"kind": "subnets", "backbone": 32, "subnets": 400, "hosts_per_subnet": 250}},
  "worm": {{"selector": "random"}},
  "beta": 0.5, "horizon": 40, "initial_infected": 400,
  "deployment": "none",
  "runs": 1, "seed": {sim_seed}}}
"#
            ),
            Workload::FlatPowerlaw20k => format!(
                r#"{{"topology": {{"kind": "power_law", "nodes": 20000, "edges_per_node": 2, "seed": 42}},
  "worm": {{"selector": "random"}},
  "beta": 0.2, "horizon": 40, "initial_infected": 10,
  "deployment": "none",
  "runs": 1, "seed": {sim_seed}}}
"#
            ),
            Workload::ServeWhatif => format!(
                r#"{{"topology": {{"kind": "star", "leaves": 500}},
  "worm": {{"selector": "random"}},
  "beta": 0.8, "horizon": 120, "initial_infected": 2,
  "deployment": {{"hosts": 1.0}},
  "params": {{"host_window_ticks": 200, "host_max_new_targets": 1, "host_release_period_ticks": 10}},
  "quarantine": {{"queue_threshold": 3}},
  "runs": 1, "seed": {sim_seed}}}
"#
            ),
        }
    }
}

/// The what-if applied to every `serve-whatif` job: the same outbreak
/// from the fork tick on, with every defense removed.
pub const FORK_OVERRIDES: &str = r#"{"deployment": "none"}"#;

/// The tick `serve-whatif` asks to fork at. The daemon resumes a fork
/// from the latest checkpoint at or below it, so with
/// [`CHECKPOINT_EVERY`] at 40 every fork starts at tick 40 and runs the
/// 80 ticks after it; the report records the tick as `fork_tick`.
pub const FORK_AT_TICK: u64 = 60;

/// The daemon's default checkpoint cadence on `serve-whatif`.
pub const CHECKPOINT_EVERY: u64 = 40;

/// Simulation seed of input `k`: a SplitMix64 mix of the workload
/// seed, the workload and `k`, kept within the spec's integer range.
pub fn sim_seed(seed: u64, workload: Workload, k: u64) -> u64 {
    let tag = Workload::ALL
        .iter()
        .position(|w| *w == workload)
        .expect("workload is listed") as u64;
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag << 32)
        .wrapping_add(k);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 33
}
