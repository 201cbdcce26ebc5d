//! Multi-run averaging under a resilient supervisor, on a deterministic
//! worker pool.
//!
//! "Unless specified otherwise, each simulation is averaged over 10
//! individual runs" (Section 5.4). Runs differ only in their RNG seed and
//! share the (expensive, immutable) [`World`], so they parallelize
//! trivially — and because every run's randomness is derived from its own
//! seed, fanning the ensemble out over a bounded
//! [`dynaquar_parallel::ParallelConfig`] pool and collecting results **in
//! seed order** makes `run_averaged`, `run_supervised`, and
//! [`AveragedResult::infected_envelope`] bit-identical to the serial path
//! for any thread count. The pool size defaults to the `DYNAQUAR_THREADS`
//! environment variable, then to the machine's available parallelism; the
//! `*_parallel` variants take an explicit config.
//!
//! The supervisor wraps every seeded run in [`std::panic::catch_unwind`]:
//! a run that panics (e.g. an injected fault from
//! [`crate::faults::FaultPlan`], or a genuine bug on one seed) is retried
//! immediately with a fresh derived seed, and dropped after
//! [`SupervisorConfig::max_attempts`] failures instead of taking the
//! whole batch down. [`AveragedResult::outcomes`] records what
//! happened to each seed, and [`AveragedResult::timings`] /
//! [`AveragedResult::workers`] record per-run wall clock and per-worker
//! utilization so ensemble speedup is observable;
//! [`RunnerError::QuorumNotReached`] is returned when fewer than
//! [`SupervisorConfig::min_survivors`] runs survive.

use crate::config::{CheckpointPolicy, SimConfig, WormBehavior};
use crate::metrics::{PacketAccounting, PhaseProfile};
use crate::sim::{SimResult, Simulator};
use crate::snapshot::Snapshot;
use crate::world::World;
use dynaquar_epidemic::TimeSeries;
pub use dynaquar_parallel::{ParallelConfig, WorkerStats};
use std::fmt;
use std::time::Duration;

/// The averaged outcome of several seeded runs.
///
/// Equality ignores the observational timing fields (`timings`,
/// `workers`, `batch_wall` compare — they are deterministic-shaped — but
/// the merged [`phases`](AveragedResult::phases) profile does not), so
/// bit-identity assertions across thread counts keep holding.
#[derive(Debug, Clone)]
pub struct AveragedResult {
    /// Mean infected fraction per tick (over surviving runs).
    pub infected_fraction: TimeSeries,
    /// Mean ever-infected fraction per tick (over surviving runs).
    pub ever_infected_fraction: TimeSeries,
    /// Mean immunized fraction per tick (over surviving runs).
    pub immunized_fraction: TimeSeries,
    /// The individual surviving runs, in seed order.
    pub runs: Vec<SimResult>,
    /// Per-seed provenance, in input order: one entry per requested
    /// seed, including the seeds whose runs were dropped.
    pub outcomes: Vec<RunOutcome>,
    /// Per-seed wall-clock provenance, in input order (covers the whole
    /// retry loop for that seed, dropped seeds included). Timing fields
    /// are *observational*: they vary run to run even though every
    /// series in this struct is bit-identical across thread counts.
    pub timings: Vec<RunTiming>,
    /// Per-worker pool utilization for this batch, by worker id.
    pub workers: Vec<WorkerStats>,
    /// End-to-end wall clock of the batch, fan-out to last join.
    pub batch_wall: Duration,
    /// The packet ledgers of every surviving run, merged (summed) —
    /// conservation holds for the sum exactly as for each run.
    pub accounting: PacketAccounting,
    /// The phase profiles of every surviving run, merged (summed).
    /// Observational: excluded from `PartialEq`.
    pub phases: PhaseProfile,
}

impl PartialEq for AveragedResult {
    fn eq(&self, other: &Self) -> bool {
        // `phases` is deliberately ignored: wall-clock timing differs
        // between bit-identical batches. (`timings`/`workers`/
        // `batch_wall` were part of equality before the profile existed
        // and stay so for compatibility.)
        self.infected_fraction == other.infected_fraction
            && self.ever_infected_fraction == other.ever_infected_fraction
            && self.immunized_fraction == other.immunized_fraction
            && self.runs == other.runs
            && self.outcomes == other.outcomes
            && self.timings == other.timings
            && self.workers == other.workers
            && self.batch_wall == other.batch_wall
            && self.accounting == other.accounting
    }
}

impl AveragedResult {
    /// The pointwise `(min, max)` envelope of the infected-fraction
    /// curves across runs — the run-to-run spread behind the mean.
    pub fn infected_envelope(&self) -> (TimeSeries, TimeSeries) {
        envelope(self.runs.iter().map(|r| &r.infected_fraction))
    }

    /// Number of requested seeds whose run was dropped after exhausting
    /// its retry budget.
    pub fn dropped_runs(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, RunOutcome::Dropped { .. }))
            .count()
    }
}

/// Wall-clock provenance for one requested seed's supervised run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunTiming {
    /// The requested seed.
    pub seed: u64,
    /// Pool worker (0-based) that executed this seed's retry loop.
    pub worker: usize,
    /// Wall-clock time spent on this seed (all attempts).
    pub wall: Duration,
}

/// What became of one requested seed under the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The run completed on its first attempt.
    Completed {
        /// The requested seed.
        seed: u64,
    },
    /// The run panicked at least once and succeeded on a retry with a
    /// derived seed.
    Retried {
        /// The requested seed.
        seed: u64,
        /// Total attempts spent (including the successful one).
        attempts: u32,
        /// The derived seed the surviving attempt actually ran with.
        final_seed: u64,
    },
    /// Every attempt panicked; the run contributes nothing to the
    /// average.
    Dropped {
        /// The requested seed.
        seed: u64,
        /// Attempts spent before giving up.
        attempts: u32,
    },
    /// The run panicked mid-flight and was resumed from its latest
    /// on-disk checkpoint (same seed, same trajectory — the result is
    /// bit-identical to a run that never crashed). Only produced when
    /// the config carries a
    /// [`CheckpointPolicy`](crate::config::CheckpointPolicy).
    ResumedFromCheckpoint {
        /// The requested seed (also the seed the resumed run finished
        /// with — resume does not reseed).
        seed: u64,
        /// Total attempts spent (the crashed one plus the resume).
        attempts: u32,
        /// The checkpoint tick the run restarted from.
        resumed_at_tick: u64,
    },
}

impl RunOutcome {
    /// Whether this seed produced a surviving run.
    pub fn survived(&self) -> bool {
        !matches!(self, RunOutcome::Dropped { .. })
    }
}

/// Error returned by [`run_supervised`] when too few runs survive.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunnerError {
    /// Fewer runs survived the supervisor's retries than the configured
    /// quorum requires.
    QuorumNotReached {
        /// Runs that completed (possibly after retries).
        survivors: usize,
        /// Minimum survivors required.
        quorum: usize,
        /// Seeds requested.
        total: usize,
    },
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::QuorumNotReached {
                survivors,
                quorum,
                total,
            } => write!(
                f,
                "quorum not reached: {survivors} of {total} runs survived, need {quorum}"
            ),
        }
    }
}

impl std::error::Error for RunnerError {}

/// Retry and quorum policy for [`run_supervised`]. A failed attempt is
/// retried at once: the engine is CPU-only and deterministic per seed,
/// so there is nothing to wait out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Attempts per seed before the run is dropped (minimum 1).
    pub max_attempts: u32,
    /// Minimum surviving runs for the batch to count (minimum 1).
    pub min_survivors: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_attempts: 3,
            min_survivors: 1,
        }
    }
}

impl SupervisorConfig {
    /// Sets the per-seed attempt budget.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Sets the survivor quorum.
    pub fn with_min_survivors(mut self, survivors: usize) -> Self {
        self.min_survivors = survivors;
        self
    }
}

/// One attempt the supervisor asks a run function to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunAttempt {
    /// The originally requested seed.
    pub seed: u64,
    /// 1-based attempt counter for this seed.
    pub attempt: u32,
    /// The seed this attempt should actually run with (equals `seed` on
    /// the first attempt, a derived seed on retries).
    pub run_seed: u64,
}

/// Derives the seed for a retry so the fresh attempt takes a different
/// random trajectory (SplitMix64-style mix of seed and attempt).
fn derive_retry_seed(seed: u64, attempt: u32) -> u64 {
    let mut z = seed ^ (u64::from(attempt)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pointwise min/max over series sampled on identical grids (truncated
/// to the shortest).
fn envelope<'a, I: IntoIterator<Item = &'a TimeSeries>>(series: I) -> (TimeSeries, TimeSeries) {
    let series: Vec<&TimeSeries> = series.into_iter().collect();
    let len = series.iter().map(|s| s.len()).min().unwrap_or(0);
    let mut lo = TimeSeries::with_capacity(len);
    let mut hi = TimeSeries::with_capacity(len);
    for i in 0..len {
        let mut t = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for s in &series {
            let (pt, v) = s.points()[i];
            t = pt;
            min = min.min(v);
            max = max.max(v);
        }
        lo.push(t, min);
        hi.push(t, max);
    }
    (lo, hi)
}

/// Runs the retry loop for one seed. Returns the outcome and, if any
/// attempt survived, its result.
fn supervise_one<F>(
    seed: u64,
    supervisor: &SupervisorConfig,
    run: &F,
) -> (RunOutcome, Option<SimResult>)
where
    F: Fn(RunAttempt) -> SimResult,
{
    let budget = supervisor.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let run_seed = if attempt == 1 {
            seed
        } else {
            derive_retry_seed(seed, attempt)
        };
        let call = RunAttempt {
            seed,
            attempt,
            run_seed,
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(call))) {
            Ok(result) => {
                let outcome = if attempt == 1 {
                    RunOutcome::Completed { seed }
                } else {
                    RunOutcome::Retried {
                        seed,
                        attempts: attempt,
                        final_seed: run_seed,
                    }
                };
                return (outcome, Some(result));
            }
            Err(_) => {
                if attempt >= budget {
                    return (
                        RunOutcome::Dropped {
                            seed,
                            attempts: attempt,
                        },
                        None,
                    );
                }
            }
        }
    }
}

/// Supervised multi-run driver over an arbitrary run function — the
/// engine behind [`run_supervised`], exposed so tests (and callers with
/// custom per-seed setups) can inject their own run body, including one
/// that panics. Pool size comes from `DYNAQUAR_THREADS` / available
/// parallelism; see [`run_supervised_with_parallel`] for an explicit
/// thread count.
///
/// `run` receives a [`RunAttempt`] and should execute the simulation
/// with `run_seed`; a panic in `run` counts as a failed attempt.
pub fn run_supervised_with<F>(
    seeds: &[u64],
    supervisor: &SupervisorConfig,
    run: F,
) -> Result<AveragedResult, RunnerError>
where
    F: Fn(RunAttempt) -> SimResult + Sync,
{
    run_supervised_with_parallel(seeds, supervisor, &ParallelConfig::from_env(), run)
}

/// [`run_supervised_with`] on an explicitly sized worker pool.
///
/// Determinism: each seed's retry loop is a pure function of the seed
/// (the per-seed RNG stream and the SplitMix64 retry-seed derivation
/// never consult shared state), and results are collected in seed
/// order — so every series and outcome in the returned
/// [`AveragedResult`] is bit-identical for any `parallel.threads()`,
/// including 1. Only the timing fields vary between executions.
pub fn run_supervised_with_parallel<F>(
    seeds: &[u64],
    supervisor: &SupervisorConfig,
    parallel: &ParallelConfig,
    run: F,
) -> Result<AveragedResult, RunnerError>
where
    F: Fn(RunAttempt) -> SimResult + Sync,
{
    run_batch(seeds, supervisor, parallel, |seed| {
        supervise_one(seed, supervisor, &run)
    })
}

/// Fans one supervision function out over the seed list and assembles
/// the surviving results into an [`AveragedResult`] — shared by the
/// retry-only and checkpoint-resume supervision paths so the quorum,
/// ordering, and merge semantics cannot drift apart.
fn run_batch<S>(
    seeds: &[u64],
    supervisor: &SupervisorConfig,
    parallel: &ParallelConfig,
    supervise: S,
) -> Result<AveragedResult, RunnerError>
where
    S: Fn(u64) -> (RunOutcome, Option<SimResult>) + Sync,
{
    let (results, report) =
        dynaquar_parallel::ordered_map_report(parallel, seeds.to_vec(), |_, seed| supervise(seed));

    let quorum = supervisor.min_survivors.max(1);
    let outcomes: Vec<RunOutcome> = results.iter().map(|(o, _)| *o).collect();
    let runs: Vec<SimResult> = results.into_iter().filter_map(|(_, r)| r).collect();
    if runs.len() < quorum {
        return Err(RunnerError::QuorumNotReached {
            survivors: runs.len(),
            quorum,
            total: seeds.len(),
        });
    }

    let timings: Vec<RunTiming> = report
        .timings
        .iter()
        .map(|t| RunTiming {
            seed: seeds[t.index],
            worker: t.worker,
            wall: t.wall,
        })
        .collect();

    let infected: Vec<TimeSeries> = runs.iter().map(|r| r.infected_fraction.clone()).collect();
    let ever: Vec<TimeSeries> = runs
        .iter()
        .map(|r| r.ever_infected_fraction.clone())
        .collect();
    let immune: Vec<TimeSeries> = runs.iter().map(|r| r.immunized_fraction.clone()).collect();

    let mut accounting = PacketAccounting::default();
    let mut phases = PhaseProfile::default();
    for r in &runs {
        accounting.merge(&r.accounting);
        phases.merge(&r.phases);
    }

    Ok(AveragedResult {
        infected_fraction: TimeSeries::mean_of(&infected),
        ever_infected_fraction: TimeSeries::mean_of(&ever),
        immunized_fraction: TimeSeries::mean_of(&immune),
        runs,
        outcomes,
        timings,
        workers: report.workers,
        batch_wall: report.wall,
        accounting,
        phases,
    })
}

/// Runs the simulation once per seed (on the default worker pool, each
/// under the supervisor's retry policy) and averages the surviving
/// series pointwise.
pub fn run_supervised(
    world: &World,
    config: &SimConfig,
    behavior: WormBehavior,
    seeds: &[u64],
    supervisor: &SupervisorConfig,
) -> Result<AveragedResult, RunnerError> {
    run_supervised_parallel(
        world,
        config,
        behavior,
        seeds,
        supervisor,
        &ParallelConfig::from_env(),
    )
}

/// [`run_supervised`] on an explicitly sized worker pool.
///
/// When the config carries a
/// [`CheckpointPolicy`](crate::config::CheckpointPolicy), a crashed run
/// is first resumed from its latest checkpoint (preserving the seed's
/// exact trajectory) before the reseeding retry ladder is considered;
/// see [`RunOutcome::ResumedFromCheckpoint`].
pub fn run_supervised_parallel(
    world: &World,
    config: &SimConfig,
    behavior: WormBehavior,
    seeds: &[u64],
    supervisor: &SupervisorConfig,
    parallel: &ParallelConfig,
) -> Result<AveragedResult, RunnerError> {
    if let Some(policy) = config.checkpoint() {
        return run_batch(seeds, supervisor, parallel, |seed| {
            supervise_one_checkpointed(world, config, behavior, seed, supervisor, policy)
        });
    }
    run_supervised_with_parallel(seeds, supervisor, parallel, |a: RunAttempt| {
        Simulator::new(world, config, behavior, a.run_seed).run()
    })
}

/// Supervision for one seed when checkpoints are on disk: fresh run
/// first; on panic, resume the same trajectory from the latest
/// checkpoint (with injected panics disarmed — the physical fault
/// schedule is untouched, see
/// [`FaultPlan::without_injected_panics`](crate::faults::FaultPlan::without_injected_panics));
/// only if no checkpoint exists or the resume itself dies does the
/// reseeding retry ladder take over.
fn supervise_one_checkpointed(
    world: &World,
    config: &SimConfig,
    behavior: WormBehavior,
    seed: u64,
    supervisor: &SupervisorConfig,
    policy: &CheckpointPolicy,
) -> (RunOutcome, Option<SimResult>) {
    let fresh = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Simulator::new(world, config, behavior, seed).run()
    }));
    if let Ok(result) = fresh {
        return (RunOutcome::Completed { seed }, Some(result));
    }

    // The crashed attempt checkpointed as it went; restart from the
    // latest snapshot instead of burning the whole prefix. The resumed
    // run keeps checkpointing (same policy), but must not re-arm the
    // panic injection that just killed us — it would fire on every
    // resume at or before its tick.
    if let Ok(snap) = Snapshot::read(&policy.path_for(seed)) {
        let resume_config = config
            .clone()
            .with_faults(config.faults().without_injected_panics());
        let resumed_at_tick = snap.tick();
        let resumed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Simulator::resume_with(world, &resume_config, behavior, &snap).map(Simulator::run)
        }));
        if let Ok(Ok(result)) = resumed {
            return (
                RunOutcome::ResumedFromCheckpoint {
                    seed,
                    attempts: 2,
                    resumed_at_tick,
                },
                Some(result),
            );
        }
    }

    // No checkpoint landed before the crash (or the resume failed too):
    // fall back to the plain retry ladder from attempt 2, mirroring
    // `supervise_one`'s reseed ordering.
    let budget = supervisor.max_attempts.max(1);
    let mut attempt = 1u32;
    loop {
        if attempt >= budget {
            return (
                RunOutcome::Dropped {
                    seed,
                    attempts: attempt,
                },
                None,
            );
        }
        attempt += 1;
        let run_seed = derive_retry_seed(seed, attempt);
        let retried = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Simulator::new(world, config, behavior, run_seed).run()
        }));
        if let Ok(result) = retried {
            return (
                RunOutcome::Retried {
                    seed,
                    attempts: attempt,
                    final_seed: run_seed,
                },
                Some(result),
            );
        }
    }
}

/// Runs the simulation once per seed (on the default worker pool) and
/// averages the resulting series pointwise.
///
/// Panicking runs are retried and, failing that, dropped from the
/// average (see [`run_supervised`] and [`AveragedResult::outcomes`]).
///
/// # Panics
///
/// Panics if `seeds` is empty, or if *no* run at all survives the
/// default retry policy.
pub fn run_averaged(
    world: &World,
    config: &SimConfig,
    behavior: WormBehavior,
    seeds: &[u64],
) -> AveragedResult {
    run_averaged_parallel(world, config, behavior, seeds, &ParallelConfig::from_env())
}

/// [`run_averaged`] on an explicitly sized worker pool. The averaged
/// series are bit-identical to the serial path for any thread count.
///
/// # Panics
///
/// Panics if `seeds` is empty, or if *no* run at all survives the
/// default retry policy.
pub fn run_averaged_parallel(
    world: &World,
    config: &SimConfig,
    behavior: WormBehavior,
    seeds: &[u64],
    parallel: &ParallelConfig,
) -> AveragedResult {
    assert!(!seeds.is_empty(), "need at least one seed");
    match run_supervised_parallel(
        world,
        config,
        behavior,
        seeds,
        &SupervisorConfig::default(),
        parallel,
    ) {
        Ok(avg) => avg,
        Err(e) => panic!("no simulation run survived: {e}"),
    }
}

/// The paper's default seed set: ten runs.
pub fn default_seeds() -> Vec<u64> {
    (0..10).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaquar_topology::generators;

    fn world() -> World {
        World::from_star(generators::star(49).unwrap())
    }

    fn config() -> SimConfig {
        SimConfig::builder()
            .beta(0.8)
            .horizon(50)
            .initial_infected(1)
            .build()
            .unwrap()
    }

    #[test]
    fn average_of_identical_seeds_equals_single_run() {
        let w = world();
        let avg = run_averaged(&w, &config(), WormBehavior::random(), &[5, 5]);
        let single = Simulator::new(&w, &config(), WormBehavior::random(), 5).run();
        assert_eq!(avg.infected_fraction, single.infected_fraction);
        assert_eq!(
            avg.outcomes,
            vec![
                RunOutcome::Completed { seed: 5 },
                RunOutcome::Completed { seed: 5 }
            ]
        );
    }

    #[test]
    fn average_smooths_between_runs() {
        let w = world();
        let avg = run_averaged(&w, &config(), WormBehavior::random(), &[1, 2, 3, 4]);
        assert_eq!(avg.runs.len(), 4);
        assert_eq!(avg.dropped_runs(), 0);
        // The average lies between the min and max of the individual runs
        // at every recorded tick.
        for (i, (t, v)) in avg.infected_fraction.iter().enumerate() {
            let values: Vec<f64> = avg
                .runs
                .iter()
                .map(|r| r.infected_fraction.points()[i].1)
                .collect();
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "tick {t}");
        }
    }

    #[test]
    fn envelope_brackets_the_mean() {
        let w = world();
        let avg = run_averaged(&w, &config(), WormBehavior::random(), &[1, 2, 3]);
        let (lo, hi) = avg.infected_envelope();
        assert_eq!(lo.len(), avg.infected_fraction.len());
        for (((_, l), (_, m)), (_, h)) in lo
            .iter()
            .zip(avg.infected_fraction.iter())
            .zip(hi.iter())
        {
            assert!(l <= m + 1e-12 && m <= h + 1e-12);
        }
    }

    #[test]
    fn default_seeds_are_ten() {
        assert_eq!(default_seeds().len(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_panics() {
        let w = world();
        run_averaged(&w, &config(), WormBehavior::random(), &[]);
    }

    #[test]
    fn persistent_panicker_is_dropped_and_survivors_average() {
        let w = world();
        let cfg = config();
        let result = run_supervised_with(
            &[1, 2, 3],
            &SupervisorConfig::default(),
            |a: RunAttempt| {
                if a.seed == 2 {
                    panic!("injected: seed 2 always fails");
                }
                Simulator::new(&w, &cfg, WormBehavior::random(), a.run_seed).run()
            },
        )
        .expect("two survivors beat the default quorum of one");
        assert_eq!(result.runs.len(), 2);
        assert_eq!(result.dropped_runs(), 1);
        assert_eq!(result.outcomes[0], RunOutcome::Completed { seed: 1 });
        assert_eq!(
            result.outcomes[1],
            RunOutcome::Dropped {
                seed: 2,
                attempts: 3
            }
        );
        assert_eq!(result.outcomes[2], RunOutcome::Completed { seed: 3 });
        // The average equals the mean of the two survivors only.
        let expected = run_averaged(&w, &cfg, WormBehavior::random(), &[1, 3]);
        assert_eq!(result.infected_fraction, expected.infected_fraction);
    }

    #[test]
    fn transient_failure_is_retried_with_derived_seed() {
        let w = world();
        let cfg = config();
        let result = run_supervised_with(
            &[7],
            &SupervisorConfig::default(),
            |a: RunAttempt| {
                if a.attempt == 1 {
                    panic!("injected: first attempt fails");
                }
                Simulator::new(&w, &cfg, WormBehavior::random(), a.run_seed).run()
            },
        )
        .expect("retry succeeds");
        assert_eq!(result.runs.len(), 1);
        match result.outcomes[0] {
            RunOutcome::Retried {
                seed: 7,
                attempts: 2,
                final_seed,
            } => assert_ne!(final_seed, 7, "retry must use a fresh seed"),
            ref o => panic!("expected a retried outcome, got {o:?}"),
        }
    }

    #[test]
    fn quorum_failure_is_a_typed_error() {
        let err = run_supervised_with(
            &[1, 2],
            &SupervisorConfig::default().with_max_attempts(2),
            |_: RunAttempt| -> SimResult { panic!("injected: everything fails") },
        )
        .unwrap_err();
        assert_eq!(
            err,
            RunnerError::QuorumNotReached {
                survivors: 0,
                quorum: 1,
                total: 2
            }
        );
        assert!(err.to_string().contains("quorum not reached"));
    }

    #[test]
    fn thread_count_does_not_change_the_average() {
        let w = world();
        let cfg = config();
        let seeds: Vec<u64> = (0..6).collect();
        let serial = run_averaged_parallel(
            &w,
            &cfg,
            WormBehavior::random(),
            &seeds,
            &ParallelConfig::serial(),
        );
        for threads in [2, 4, 8] {
            let pooled = run_averaged_parallel(
                &w,
                &cfg,
                WormBehavior::random(),
                &seeds,
                &ParallelConfig::new(threads),
            );
            assert_eq!(serial.infected_fraction, pooled.infected_fraction);
            assert_eq!(serial.runs, pooled.runs, "threads = {threads}");
            assert_eq!(serial.outcomes, pooled.outcomes);
        }
    }

    #[test]
    fn merged_accounting_sums_runs_and_conserves() {
        let w = world();
        let avg = run_averaged(&w, &config(), WormBehavior::random(), &[1, 2, 3]);
        let mut expected = crate::metrics::PacketAccounting::default();
        for r in &avg.runs {
            assert!(r.accounting.is_conserved());
            expected.merge(&r.accounting);
        }
        assert_eq!(avg.accounting, expected);
        assert!(avg.accounting.is_conserved());
        assert_eq!(
            avg.accounting.worm.delivered,
            avg.runs.iter().map(|r| r.delivered_packets).sum::<u64>()
        );
        // The merged profile covers every surviving run's ticks.
        assert_eq!(avg.phases.ticks, 3 * 50);
    }

    #[test]
    fn timings_cover_every_seed_in_order() {
        let w = world();
        let avg = run_averaged_parallel(
            &w,
            &config(),
            WormBehavior::random(),
            &[3, 1, 4, 1, 5],
            &ParallelConfig::new(2),
        );
        let timed_seeds: Vec<u64> = avg.timings.iter().map(|t| t.seed).collect();
        assert_eq!(timed_seeds, vec![3, 1, 4, 1, 5]);
        assert!(avg.timings.iter().all(|t| t.worker < 2));
        assert!(avg.workers.len() <= 2);
        let executed: usize = avg.workers.iter().map(|w| w.items).sum();
        assert_eq!(executed, 5);
        assert!(avg.batch_wall >= avg.timings.iter().map(|t| t.wall).max().unwrap());
    }
}
