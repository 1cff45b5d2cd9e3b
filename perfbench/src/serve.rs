//! `serve_tiered_flash`: online serving of tiered MT-WND through an hour of generated
//! flash-crowd traffic, re-driven from public calls — an [`OnlineController`] watching the
//! windows of a [`StreamingSim`] — so the bootstrap plan, query generation, dispatch and
//! controller can be timed apart. The traced run proves the re-driven loop reproduces
//! the scenario façade's serve report bit for bit.

use crate::report::{median, ms, peak_rss_mb, percentile, sub_seed, Checks, RunResult, Setups};
use crate::{specs, Args};
use ribbon::accounting::transition_overlap_cost;
use ribbon::scenario::ServeReport;
use ribbon::{
    ControllerAction, OnlineController, OnlineOutcome, ReconfigEvent, Scenario, VariantSwitchEvent,
};
use ribbon_cloudsim::streaming::{StreamingSim, StreamingSimConfig};
use ribbon_cloudsim::{AdmissionClass, LatencyModel, PhasedQueryStream, PoolSpec, Query};
use std::time::{Duration, Instant};

/// Simulated traffic per serve, in seconds: one hour of MT-WND load.
const DURATION_S: f64 = 3600.0;
/// Serves per run, each on its own traffic and planner seed derived from `--seed`. A
/// serve's cost swings with its seed (the controller replans on some seeds and not on
/// others), and a median over all of a run's serves jumps with the share of slow seeds
/// among them; `run_s` is instead the mean over a dozen seeds of each seed's median
/// serve, and `setup_s` the median of passes that set up every seed once.
const SUB_SEEDS: usize = 12;
/// Queries generated per chunk of the serve loop; the traced run reads the clock per
/// chunk and per closed window, never per query.
const CHUNK: usize = 8192;

/// The workload's name, which also prefixes its spec files.
const NAME: &str = "serve_tiered_flash";

/// Writes sub-seed `k`'s spec: `seed` drives both the traffic and the planner.
fn write_spec(seed: u64, k: usize) -> Result<String, String> {
    specs::scenario(
        "mtwnd_tiered_flash.toml",
        &format!("{NAME}-{k}.toml"),
        seed,
        |spec| {
            spec.workload.stream_seed = Some(seed);
            if let Some(t) = spec.traffic.as_mut() {
                t.duration_s = Some(DURATION_S);
            }
        },
    )
}

/// A scenario with its controller bootstrapped: everything before the first query.
struct Deployed {
    scenario: Scenario,
    controller: OnlineController,
}

fn setup(path: &str) -> Result<(Deployed, [Duration; 2]), String> {
    let t0 = Instant::now();
    let scenario = Scenario::load(path).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let os = &scenario.online_settings;
    let controller = OnlineController::bootstrap_with_policy(
        &scenario.workload,
        &os.initial_search,
        os.controller.clone(),
        scenario.spec.seed,
        scenario.policy.clone(),
    )
    .ok_or("the bootstrap search found no configuration meeting QoS")?
    .with_tiers(scenario.tiers.clone());
    let t2 = Instant::now();
    Ok((
        Deployed {
            scenario,
            controller,
        },
        [t1 - t0, t2 - t1],
    ))
}

/// Layer times of one traced serve loop.
#[derive(Default)]
struct LoopClock {
    generate: Duration,
    push: Duration,
    observe: Duration,
    reconfigure: Duration,
    replan_ms: Vec<f64>,
}

/// What one pass of the serve loop produced.
struct Served {
    outcome: OnlineOutcome,
    offered: u64,
    offered_per_tier: Vec<u64>,
    recorded_queries: usize,
    replans: usize,
    wall: Duration,
}

fn elapsed_since(t: Option<Instant>) -> Duration {
    t.map_or(Duration::ZERO, |t| t.elapsed())
}

/// The serve loop of `ribbon::online::serve_online_tiered`, re-driven from public calls
/// over a bootstrapped controller. With `TRACE` it reads the clock around each chunk of
/// generated queries and around each controller and reconfiguration call.
fn serve_pass<const TRACE: bool>(
    sc: &Scenario,
    mut controller: OnlineController,
    clock: &mut LoopClock,
) -> Served {
    let workload = &sc.workload;
    let settings = &sc.online_settings;
    let traffic = sc
        .traffic
        .as_ref()
        .expect("serve specs compile with traffic");
    let now = || TRACE.then(Instant::now);

    let wall = Instant::now();
    let initial_config = controller.current_config().to_vec();
    let base_profile = workload.profile();
    let variant_profile = workload
        .has_variant_axis()
        .then(|| workload.variant_profile());
    let model: &dyn LatencyModel = match &variant_profile {
        Some(vp) => vp,
        None => &base_profile,
    };
    let pool = workload.diverse_pool_spec(&initial_config);
    let sim_config = StreamingSimConfig {
        target_latency_s: sc.policy.deadline_s(),
        tail_percentile: sc.policy.tail_percentile(),
        window: settings.window,
        spin_up_factor: settings.spin_up_factor,
    };
    let mut sim = StreamingSim::new(&pool, model, sim_config);
    let mut assigner = sc.tiers.as_ref().map(|set| {
        sim.enable_tiers(set.clone());
        set.assigner()
    });

    let mut windows = Vec::new();
    let mut events: Vec<ReconfigEvent> = Vec::new();
    let mut variant_events: Vec<VariantSwitchEvent> = Vec::new();
    let mut pending: Option<(PoolSpec, f64, usize)> = None;
    let mut closed = Vec::new();
    let mut stream = PhasedQueryStream::new(traffic.clone());
    let mut chunk: Vec<Query> = Vec::with_capacity(CHUNK);
    let mut offered = 0u64;
    loop {
        let t = now();
        chunk.clear();
        chunk.extend(stream.by_ref().take(CHUNK));
        clock.generate += elapsed_since(t);
        if chunk.is_empty() {
            break;
        }
        offered += chunk.len() as u64;

        let chunk_start = now();
        let mut inside = Duration::ZERO;
        for q in &chunk {
            if let Some((final_pool, apply_at, event_idx)) = pending.take() {
                if q.arrival >= apply_at {
                    let t = now();
                    events[event_idx].completed = Some(sim.reconfigure(&final_pool, apply_at));
                    let d = elapsed_since(t);
                    clock.reconfigure += d;
                    inside += d;
                } else {
                    pending = Some((final_pool, apply_at, event_idx));
                }
            }
            match assigner.as_mut() {
                Some(a) => {
                    sim.push_tiered_into(q, a.next_tier(), &mut closed);
                }
                None => sim.push_into(q, &mut closed),
            }
            for w in closed.drain(..) {
                let end_s = w.end_s;
                let replans_before = controller.replans();
                let t = now();
                let action = controller.observe_action(&w);
                let d = elapsed_since(t);
                clock.observe += d;
                inside += d;
                if TRACE && controller.replans() > replans_before {
                    clock.replan_ms.push(ms(d));
                }
                if let Some(ControllerAction::SwitchVariant {
                    from,
                    to,
                    trigger,
                    window_index,
                }) = action
                {
                    sim.set_serving_variant(to);
                    variant_events.push(VariantSwitchEvent {
                        trigger,
                        window_index,
                        at_s: end_s,
                        from,
                        to,
                    });
                } else if let Some(ControllerAction::Reconfig(plan)) = action {
                    pending = None;
                    let new_pool = workload.diverse_pool_spec(&plan.config);
                    let old_counts = sim.current_pool().counts.clone();
                    let union: Vec<u32> = plan
                        .config
                        .iter()
                        .zip(&old_counts)
                        .map(|(&n, &o)| n.max(o))
                        .collect();
                    let two_phase = union != plan.config && union != old_counts;
                    let first_pool = if two_phase {
                        workload.diverse_pool_spec(&union)
                    } else {
                        new_pool.clone()
                    };
                    let t = now();
                    let applied = sim.reconfigure(&first_pool, end_s);
                    let d = elapsed_since(t);
                    clock.reconfigure += d;
                    inside += d;
                    let transition_cost_usd = transition_overlap_cost(
                        &applied.old_pool,
                        &new_pool,
                        applied.ready_at_s - applied.at_s,
                    );
                    if two_phase {
                        pending = Some((new_pool, applied.ready_at_s, events.len()));
                    }
                    events.push(ReconfigEvent {
                        trigger: plan.trigger,
                        window_index: plan.window_index,
                        planned_qps: plan.planned_qps,
                        config: plan.config,
                        applied,
                        completed: None,
                        transition_cost_usd,
                    });
                }
                windows.push(w);
            }
        }
        clock.push += elapsed_since(chunk_start).saturating_sub(inside);
    }
    let t = now();
    if let Some((final_pool, apply_at, event_idx)) = pending.take() {
        events[event_idx].completed = Some(sim.reconfigure(&final_pool, apply_at));
    }
    windows.extend(sim.finish_windows());
    let stats = sim.stats();
    let duration_s = stats.makespan.max(sim.clock());
    let outcome = OnlineOutcome {
        initial_config,
        windows,
        events,
        variant_events,
        variant_served: sim.variant_served().to_vec(),
        final_variant: sim.serving_variant(),
        total_cost_usd: sim.cost_so_far(duration_s),
        duration_s,
        final_config: controller.current_config().to_vec(),
        final_hourly_cost: sim.current_pool().hourly_cost(),
        tier_totals: sim.tier_totals().to_vec(),
        tiers: sc.tiers.clone(),
        stats,
    };
    clock.push += elapsed_since(t);
    Served {
        offered_per_tier: assigner.map(|a| a.counts().to_vec()).unwrap_or_default(),
        recorded_queries: sim.latencies().len(),
        replans: controller.replans(),
        offered,
        wall: wall.elapsed(),
        outcome,
    }
}

/// Conservation and window checks of one serve pass.
fn check_served(checks: &mut Checks, sc: &Scenario, s: &Served) {
    let o = &s.outcome;
    let served = o.stats.num_queries as u64;
    let drops: u64 = o.tier_totals.iter().map(|t| t.admission_drops).sum();
    checks.check(served + drops == s.offered, || {
        format!("served {served} + dropped {drops} != offered {}", s.offered)
    });
    if !o.tier_totals.is_empty() {
        checks.check(o.tier_totals.len() == s.offered_per_tier.len(), || {
            "tier rows and tier offers differ in length".to_string()
        });
        for (i, (t, &offered)) in o.tier_totals.iter().zip(&s.offered_per_tier).enumerate() {
            checks.check(t.served + t.admission_drops == offered, || {
                format!(
                    "tier {i}: served {} + dropped {} != offered {offered}",
                    t.served, t.admission_drops
                )
            });
        }
        let tier_served: u64 = o.tier_totals.iter().map(|t| t.served).sum();
        checks.check(tier_served == served, || {
            format!("tier rows serve {tier_served}, the model row {served}")
        });
    }
    let window_served: usize = o.windows.iter().map(|w| w.num_queries).sum();
    checks.check(window_served == o.stats.num_queries, || {
        format!(
            "windows hold {window_served} served queries, the stream {}",
            o.stats.num_queries
        )
    });
    let window = sc.online_settings.window;
    let traffic_s = sc.traffic.as_ref().map_or(0.0, |t| t.duration_s);
    let expected = (traffic_s / window.step_s).ceil() as usize;
    checks.check(o.windows.len() == expected, || {
        format!(
            "{} windows for {traffic_s} s of traffic in {} s windows (expected {expected})",
            o.windows.len(),
            window.step_s
        )
    });
}

/// On-time queries of the premium tiers ÷ their offered queries (0 when untiered).
fn premium_satisfaction(sc: &Scenario, s: &Served) -> f64 {
    let Some(set) = &sc.tiers else {
        return 0.0;
    };
    let (mut on_time, mut offered) = (0u64, 0u64);
    for (i, spec) in set.tiers().iter().enumerate() {
        if spec.class == AdmissionClass::Premium {
            on_time += s.outcome.tier_totals[i].satisfied;
            offered += s.offered_per_tier[i];
        }
    }
    if offered == 0 {
        0.0
    } else {
        on_time as f64 / offered as f64
    }
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let paths = (0..SUB_SEEDS)
        .map(|k| write_spec(sub_seed(args.seed, k), k))
        .collect::<Result<Vec<_>, _>>()?;
    let mut res = RunResult::new(args.trace);
    if args.trace {
        return traced(args, &paths[0], res);
    }
    // One set-up of every sub-seed, timed together: a `setup_s` sample.
    let setup_pass = || -> Result<Duration, String> {
        let mut total = Duration::ZERO;
        for path in &paths {
            total += setup(path)?.1.iter().sum::<Duration>();
        }
        Ok(total)
    };
    let started = Instant::now();
    let mut setups = Setups::new(args.seconds);
    let mut run_s = Vec::new();
    let mut per_seed: Vec<Vec<f64>> = vec![Vec::new(); SUB_SEEDS];
    let mut reports: Vec<ServeReport> = Vec::new();
    let (mut offered, mut on_time, mut replans) = (0u64, 0u64, 0usize);
    let (mut billed_usd, mut served_s) = (0.0, 0.0);
    // One serve per sub-seed, then further serves (cycling through the sub-seeds again)
    // while the budget allows another of median length.
    while run_s.len() < SUB_SEEDS
        || started.elapsed().as_secs_f64() + median(&run_s) <= args.seconds.as_secs_f64()
    {
        while setups.due() {
            setups.record_batch(setup_pass()?, SUB_SEEDS);
        }
        let k = run_s.len() % SUB_SEEDS;
        let (d, _) = setup(&paths[k])?;
        let served = serve_pass::<false>(&d.scenario, d.controller, &mut LoopClock::default());
        run_s.push(served.wall.as_secs_f64());
        per_seed[k].push(served.wall.as_secs_f64());

        res.attempted += served.offered;
        let before = res.checks.failures();
        check_served(&mut res.checks, &d.scenario, &served);
        let report = ServeReport::from_outcome(&served.outcome);
        match reports.get(k) {
            Some(r) => res.checks.check(*r == report, || {
                format!("repeated serves of sub-seed {k} differ")
            }),
            None => {
                offered += served.offered;
                on_time += served.outcome.stats.satisfied as u64;
                replans += served.replans;
                billed_usd += report.total_cost_usd;
                served_s += report.duration_s;
                reports.push(report);
            }
        }
        if res.checks.failures() > before {
            res.failed += 1;
        }
    }
    while setups.more() {
        setups.record_batch(setup_pass()?, SUB_SEEDS);
    }

    eprintln!(
        "{} seed {}: {} serves over {SUB_SEEDS} sub-seeds ({offered} queries, {replans} \
         replans in one serve of each), run_s {run_s:?}",
        NAME,
        args.seed,
        run_s.len(),
    );
    res.set("setup_s", setups.median());
    res.set(
        "run_s",
        per_seed.iter().map(|t| median(t)).sum::<f64>() / SUB_SEEDS as f64,
    );
    res.set("peak_rss_mb", peak_rss_mb()?);
    res.set("cost_usd_per_hr", billed_usd * 3600.0 / served_s);
    res.set("qos_satisfaction", on_time as f64 / offered as f64);
    Ok(res)
}

/// The traced run: an untraced pass (the overhead reference), a traced pass, and the
/// façade's own serve, which both passes must reproduce exactly.
fn traced(args: &Args, path: &str, mut res: RunResult) -> Result<RunResult, String> {
    let (d, _) = setup(path)?;
    let plain = serve_pass::<false>(&d.scenario, d.controller, &mut LoopClock::default());

    let (d, [load, bootstrap]) = setup(path)?;
    let mut clock = LoopClock::default();
    let served = serve_pass::<true>(&d.scenario, d.controller, &mut clock);
    let sc = d.scenario;

    res.attempted = served.offered;
    check_served(&mut res.checks, &sc, &served);
    let report = ServeReport::from_outcome(&served.outcome);
    res.checks
        .check(report == ServeReport::from_outcome(&plain.outcome), || {
            "the traced serve differs from the untraced one".to_string()
        });
    let facade = sc.run().map_err(|e| e.to_string())?;
    let facade_serve = facade
        .serve
        .ok_or("the façade report has no serve section")?;
    res.checks.check(report == facade_serve, || {
        format!(
            "the re-driven serve loop differs from the façade: cost {} vs {}, \
             satisfaction {:?} vs {:?}, windows {} vs {}, events {} vs {}",
            report.total_cost_usd,
            facade_serve.total_cost_usd,
            report.satisfaction_rate,
            facade_serve.satisfaction_rate,
            report.windows,
            facade_serve.windows,
            report.events.len(),
            facade_serve.events.len()
        )
    });
    if !res.checks.passed() {
        res.failed = 1;
    }
    eprintln!(
        "{} seed {}: traced serve reproduces the façade: {}",
        NAME,
        args.seed,
        res.checks.passed()
    );

    let o = &served.outcome;
    let layer = clock.generate + clock.push + clock.observe + clock.reconfigure;
    res.set("scenario.load_ms", ms(load));
    res.set("online.bootstrap_ms", ms(bootstrap));
    res.set("online.observe_ms", ms(clock.observe));
    res.set("online.windows", o.windows.len() as f64);
    res.set("online.replans", served.replans as f64);
    res.set("online.replan_p50_ms", percentile(&clock.replan_ms, 50.0));
    res.set("online.replan_p95_ms", percentile(&clock.replan_ms, 95.0));
    res.set("online.reconfigurations", o.events.len() as f64);
    res.set("phased.generate_ms", ms(clock.generate));
    res.set("phased.queries", served.offered as f64);
    res.set("streaming.push_ms", ms(clock.push));
    res.set(
        "streaming.push_ns_per_query",
        clock.push.as_secs_f64() * 1e9 / served.offered as f64,
    );
    res.set("streaming.reconfigure_ms", ms(clock.reconfigure));
    res.set("streaming.recorded_queries", served.recorded_queries as f64);
    res.set("streaming.billed_usd", o.total_cost_usd);
    res.set(
        "tier.preemptions",
        o.tier_totals.iter().map(|t| t.preemptions).sum::<u64>() as f64,
    );
    res.set(
        "tier.admission_drops",
        o.tier_totals.iter().map(|t| t.admission_drops).sum::<u64>() as f64,
    );
    res.set(
        "tier.premium_satisfaction",
        premium_satisfaction(&sc, &served),
    );
    res.set("trace.wall_ms", ms(served.wall));
    res.set(
        "trace.coverage",
        layer.as_secs_f64() / served.wall.as_secs_f64(),
    );
    res.set(
        "trace.overhead",
        served.wall.as_secs_f64() / plain.wall.as_secs_f64(),
    );
    Ok(res)
}
