//! The retired intra-world sharding knob: every engine phase is one
//! serial sweep, and nothing reads the environment variable below.

/// Name of the retired shard-count environment variable. Nothing reads
/// it: setting it has no effect on any run. The constant stays only
/// because the benchmark harness still names it when it refuses
/// performance overrides; remove it at the next change to the benchmark.
pub const SHARDS_ENV: &str = "DYNAQUAR_SHARDS";
