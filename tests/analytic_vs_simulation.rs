//! Cross-validation of the analytical models against the packet-level
//! simulator — the reproduction's answer to the paper's "the simulation
//! results confirm our analytical models".

use dynaquar::epidemic::logistic::Logistic;
use dynaquar::epidemic::star::LeafRateLimit;
use dynaquar::prelude::*;
use dynaquar::topology::generators;

fn star_world(leaves: usize) -> World {
    World::from_star(generators::star(leaves).expect("valid star"))
}

fn averaged_star_run(world: &World, config: &SimConfig, runs: u64) -> TimeSeries {
    let seeds: Vec<u64> = (0..runs).collect();
    dynaquar::netsim::runner::run_averaged(world, config, WormBehavior::random(), &seeds)
        .infected_fraction
}

#[test]
fn simulated_star_tracks_logistic_model() {
    let world = star_world(199);
    let config = SimConfig::builder()
        .beta(0.8)
        .horizon(60)
        .initial_infected(1)
        .build()
        .expect("valid");
    let sim = averaged_star_run(&world, &config, 6);
    let model = Logistic::new(199.0, 0.8, 1.0).expect("valid").series(0.0, 60.0, 1.0);

    // Both saturate near 100%.
    assert!(sim.final_value() > 0.98);
    assert!(model.final_value() > 0.98);
    // Time to 50% within a small constant factor: the simulated worm
    // pays two routing hops per infection the model ignores.
    let ts = sim.time_to_reach(0.5).expect("saturates");
    let tm = model.time_to_reach(0.5).expect("saturates");
    assert!(ts >= tm, "simulation cannot beat the fluid model");
    assert!(ts < 3.5 * tm, "sim {ts:.1} vs model {tm:.1}");
}

#[test]
fn host_filter_fraction_matches_equation_three_ordering() {
    // Equation 3 predicts a slowdown linear in the filtered fraction.
    // Verify the simulated time-to-40% is monotone in q and bracketed by
    // the no-RL and all-RL extremes.
    let world = star_world(149);
    let run_with_fraction = |q: f64| {
        let hosts: Vec<_> = world
            .hosts()
            .iter()
            .copied()
            .take((world.hosts().len() as f64 * q) as usize)
            .collect();
        let mut plan = RateLimitPlan::none();
        plan.filter_hosts(
            &hosts,
            dynaquar::netsim::plan::HostFilter::dropping(100, 1),
        );
        let config = SimConfig::builder()
            .beta(0.8)
            .horizon(200)
            .initial_infected(2)
            .plan(plan)
            .build()
            .expect("valid");
        averaged_star_run(&world, &config, 6)
            .time_to_reach(0.4)
            .unwrap_or(f64::INFINITY)
    };
    let t0 = run_with_fraction(0.0);
    let t30 = run_with_fraction(0.3);
    let t60 = run_with_fraction(0.6);
    assert!(t0 <= t30 * 1.05, "t0 {t0:.1} vs t30 {t30:.1}");
    assert!(t30 <= t60 * 1.05, "t30 {t30:.1} vs t60 {t60:.1}");
    assert!(t60 > 1.2 * t0, "60% filtering should visibly slow the worm");

    // The analytic counterpart agrees on the ordering.
    let model_t = |q: f64| {
        LeafRateLimit::new(150.0, q, 0.8, 0.01, 2.0)
            .expect("valid")
            .time_to_fraction(0.4)
            .expect("reachable")
    };
    assert!(model_t(0.0) < model_t(0.3));
    assert!(model_t(0.3) < model_t(0.6));
}

#[test]
fn hub_cap_reproduces_equation_five_saturation() {
    // With a binding hub cap the infection grows at a bounded rate: the
    // simulated curve's growth between 20% and 60% should be roughly
    // linear (hub-saturated regime), unlike the exponential no-RL curve.
    let star = generators::star(199).expect("valid");
    let hub = star.hub;
    let world = World::from_star(star);
    let mut plan = RateLimitPlan::none();
    plan.limit_node_forwarding(hub, 2.0);
    let config = SimConfig::builder()
        .beta(0.8)
        .horizon(200)
        .initial_infected(2)
        .plan(plan)
        .build()
        .expect("valid");
    let sim = averaged_star_run(&world, &config, 6);

    let t20 = sim.time_to_reach(0.2).expect("reached");
    let t40 = sim.time_to_reach(0.4).expect("reached");
    let t60 = sim.time_to_reach(0.6).expect("reached");
    // Equal infection increments take roughly equal time under a hard
    // cap (within 45% of each other; the paper's Equation 5 is exactly
    // linear in I for I << N).
    let d1 = t40 - t20;
    let d2 = t60 - t40;
    assert!(
        (d1 - d2).abs() < 0.45 * d1.max(d2),
        "increments d1 {d1:.1} vs d2 {d2:.1} not roughly linear"
    );
    // And the cap binds: ~2 infections per tick maximum.
    let infected_per_tick = 0.2 * 199.0 / d1;
    assert!(infected_per_tick < 3.0, "cap of 2/tick exceeded: {infected_per_tick:.1}");
}

/// Three-way cross-validation on the 200-node star: the exact Gillespie
/// stochastic process, the RK4-integrated SI fluid ODE, and the
/// packet-level simulator must tell one consistent story.
///
/// The quantitative leg: the RK4 solution of `dI/dt = β·I·(N−I)/N` must
/// lie inside a seeded bootstrap confidence band of the Gillespie
/// ensemble mean at every grid point — the fluid model is statistically
/// indistinguishable from the mean of the exact process it is the limit
/// of. The packet simulator (which pays two real routing hops per
/// infection that both homogeneous models ignore) is held to the same
/// qualitative contract as [`simulated_star_tracks_logistic_model`]:
/// same saturation, bounded time dilation.
#[test]
fn gillespie_ode_and_packet_sim_tell_one_story() {
    use dynaquar::epidemic::ode::{solve_fixed, FnSystem, Rk4};
    use dynaquar::epidemic::stochastic::StochasticWorm;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const N: f64 = 199.0; // 200-node star: hub + 199 infectable leaves
    const BETA: f64 = 0.8;
    const I0: f64 = 4.0;
    const HORIZON: f64 = 40.0;
    const GRID: usize = 81;
    const ENSEMBLE: u64 = 80;
    const RESAMPLES: usize = 400;

    // Gillespie ensemble, every trajectory on a common grid.
    let process = StochasticWorm::new(N as u64, BETA, 0.0, I0 as u64).expect("valid");
    let paths: Vec<TimeSeries> = (0..ENSEMBLE)
        .map(|k| process.sample_path(HORIZON, 1000 + k).resampled(0.0, HORIZON, GRID))
        .collect();
    let ensemble_mean = TimeSeries::mean_of(&paths);

    // RK4 fluid limit of the same process.
    let si = FnSystem::new(1, |_t, y: &[f64], dy: &mut [f64]| {
        dy[0] = BETA * y[0] * (N - y[0]) / N;
    });
    let ode = solve_fixed(&si, &mut Rk4::new(1), 0.0, &[I0], HORIZON, 0.05)
        .component(0)
        .scaled(1.0 / N)
        .resampled(0.0, HORIZON, GRID);

    // Seeded bootstrap: resample the ensemble (with replacement),
    // recompute the mean curve, and take per-time-point 0.5%/99.5%
    // percentiles as the confidence band.
    let mut rng = SmallRng::seed_from_u64(2026);
    let mut boot_means: Vec<Vec<f64>> = Vec::with_capacity(RESAMPLES);
    for _ in 0..RESAMPLES {
        let draw: Vec<TimeSeries> = (0..paths.len())
            .map(|_| paths[rng.gen_range(0..paths.len())].clone())
            .collect();
        boot_means.push(TimeSeries::mean_of(&draw).iter().map(|(_, v)| v).collect());
    }
    let band = |i: usize| {
        let mut vals: Vec<f64> = boot_means.iter().map(|m| m[i]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = vals[(vals.len() as f64 * 0.005) as usize];
        let hi = vals[((vals.len() as f64 * 0.995) as usize).min(vals.len() - 1)];
        (lo, hi)
    };
    // Grid-interpolation slack: both curves are piecewise-linear
    // resamplings of processes with O(1/N) granularity.
    let slack = 2.0 / N;
    for (i, (t, ode_v)) in ode.iter().enumerate() {
        let (lo, hi) = band(i);
        assert!(
            ode_v >= lo - slack && ode_v <= hi + slack,
            "t={t:.1}: ODE {ode_v:.4} outside bootstrap band [{lo:.4}, {hi:.4}]"
        );
    }
    // The band is a real constraint, not vacuously wide: at the
    // ensemble's mid-epidemic point it must be far narrower than the
    // epidemic itself.
    let mid = ensemble_mean
        .time_to_reach(0.5)
        .expect("ensemble saturates");
    let mid_idx = (mid / HORIZON * (GRID - 1) as f64).round() as usize;
    let (lo, hi) = band(mid_idx);
    assert!(hi - lo < 0.25, "degenerate band [{lo:.3}, {hi:.3}] at t={mid:.1}");

    // Third leg: the packet-level simulator on the same star, same β,
    // same seeds-per-run averaging used elsewhere in this suite.
    let world = star_world(199);
    let config = SimConfig::builder()
        .beta(BETA)
        .horizon(120)
        .initial_infected(I0 as usize)
        .build()
        .expect("valid");
    let sim = averaged_star_run(&world, &config, 6);
    assert!(sim.final_value() > 0.98, "packet sim must saturate");
    assert!((ensemble_mean.final_value() - 1.0).abs() < 1e-9);
    assert!(ode.final_value() > 0.98);
    let t_sim = sim.time_to_reach(0.5).expect("saturates");
    let t_ode = ode.time_to_reach(0.5).expect("saturates");
    let t_gil = ensemble_mean.time_to_reach(0.5).expect("saturates");
    // The two homogeneous references agree closely with each other...
    assert!(
        (t_ode - t_gil).abs() < 0.2 * t_ode.max(t_gil),
        "ODE t50 {t_ode:.1} vs Gillespie t50 {t_gil:.1}"
    );
    // ...and the packet simulator is slower (it routes every scan over
    // two hub hops) but by a bounded constant factor.
    assert!(t_sim >= t_ode, "simulation cannot beat the fluid model");
    assert!(t_sim < 3.5 * t_ode, "sim {t_sim:.1} vs ODE {t_ode:.1}");
}

#[test]
fn backbone_model_matches_measured_alpha() {
    // Build the power-law world, measure the path coverage alpha, feed
    // it to Equation 6, and check the simulated backbone deployment
    // lands in the model's ballpark ordering.
    use dynaquar::epidemic::backbone::BackboneRateLimit;
    use dynaquar::topology::paths::node_coverage;
    use dynaquar::topology::roles::Role;

    let spec = TopologySpec::PowerLaw {
        nodes: 300,
        edges_per_node: 2,
        seed: 9,
    };
    let world = spec.build();
    let hosts = world.hosts().to_vec();
    let backbone = world.nodes_with_role(Role::Backbone);
    let alpha = node_coverage(world.graph(), &hosts, &backbone, false);
    assert!(alpha > 0.5, "power-law backbone should cover most paths");

    let n = hosts.len() as f64;
    let model_none = BackboneRateLimit::new(n, 0.8, 0.0, 0.0, 3.0).expect("valid");
    let model_bb = BackboneRateLimit::new(n, 0.8, alpha, 0.0, 3.0).expect("valid");
    let tm_none = model_none.time_to_fraction(0.5, 2000.0, 0.5).expect("reached");
    let tm_bb = model_bb.time_to_fraction(0.5, 2000.0, 0.5).expect("reached");
    assert!(tm_bb > 2.0 * tm_none);

    let params = RateLimitParams {
        link_base_cap: 0.3,
        backbone_node_cap: Some(0.05),
        ..RateLimitParams::default()
    };
    let base = Scenario::new(spec)
        .beta(0.8)
        .horizon(300)
        .initial_infected(3)
        .runs(3)
        .params(params);
    let sim_none = base.clone().run_simulated_on(&world);
    let sim_bb = base
        .clone()
        .deployment(Deployment::Backbone)
        .run_simulated_on(&world);
    let ts_none = sim_none.infected.time_to_reach(0.5).expect("reached");
    let ts_bb = sim_bb.infected.time_to_reach(0.5).expect("reached");
    // Same qualitative statement in both worlds.
    assert!(ts_bb > 2.0 * ts_none, "sim: {ts_bb:.1} vs {ts_none:.1}");
}
