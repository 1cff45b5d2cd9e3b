//! `fleet_shared_tiered`: MT-WND (premium/standard/bulk tiers) and untiered DIEN planned
//! jointly and served on one pool with a shared slice — the only workload through
//! `ribbon::fleet`, the router's shared slice and the sharded serve engine.

use crate::report::{median, ms, peak_rss_mb, Checks, RunResult, Setups};
use crate::{specs, Args};
use ribbon::scenario::RunMode;
use ribbon::{serve_fleet, Fleet, FleetEvaluator, FleetPlanner, FleetReport, RibbonFleetPlanner};
use ribbon_cloudsim::sharded::partition_groups;
use ribbon_cloudsim::{AdmissionClass, PhasedQueryStream};
use std::time::{Duration, Instant};

const BASE: &str = "fleet_tiered_mix.toml";
/// Every traffic phase of the bundled fleet is stretched by this factor: 40 s of
/// traffic becomes 30 minutes.
const STRETCH: f64 = 45.0;

/// Writes the workload's fleet spec with the given mode and shard count.
fn write_spec(seed: u64, mode: RunMode, shards: usize) -> Result<String, String> {
    let name = format!("fleet_shared_tiered-{}-{shards}.toml", mode.name());
    specs::fleet(BASE, &name, seed, |spec| {
        spec.mode = mode;
        spec.shards = Some(shards);
        for model in spec.models.iter_mut() {
            if let Some(t) = model.traffic.as_mut() {
                for p in t.phases.iter_mut().flatten() {
                    p.duration_s *= STRETCH;
                }
                if let Some(d) = t.duration_s.as_mut() {
                    *d *= STRETCH;
                }
            }
        }
    })
}

/// Loads the fleet and makes its joint plan, which decides the initial allocation:
/// everything before the first query. `serve_fleet` plans again inside `run_s`. The load
/// and the joint evaluator alone take a third of a millisecond and follow the state the
/// previous operation left the allocator and caches in more than their own work: in one
/// 90-second probe, batches of 50 ranged from 0.30 to 0.74 ms each while the load and
/// plan stayed within 15% of 3.1 s.
fn setup(path: &str) -> Result<(Fleet, [Duration; 2]), String> {
    let t0 = Instant::now();
    let fleet = Fleet::load(path).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    RibbonFleetPlanner.plan(&fleet).map_err(|e| e.to_string())?;
    Ok((fleet, [t1 - t0, t1.elapsed()]))
}

/// Offered queries per member and per member tier, counted by regenerating each
/// member's stream (outside every timed region).
struct Offered {
    per_member: Vec<u64>,
    per_tier: Vec<Vec<u64>>,
}

fn offered(fleet: &Fleet) -> Offered {
    let mut per_member = Vec::new();
    let mut per_tier = Vec::new();
    for m in &fleet.members {
        let traffic = m
            .scenario
            .traffic
            .clone()
            .expect("serve members have traffic");
        let n = PhasedQueryStream::new(traffic).count() as u64;
        per_member.push(n);
        per_tier.push(match &m.scenario.tiers {
            Some(set) => {
                let mut a = set.assigner();
                for _ in 0..n {
                    a.next_tier();
                }
                a.counts().to_vec()
            }
            None => Vec::new(),
        });
    }
    Offered {
        per_member,
        per_tier,
    }
}

/// Conservation and window checks of one fleet serve.
fn check_report(checks: &mut Checks, fleet: &Fleet, offered: &Offered, r: &FleetReport) {
    let Some(totals) = &r.serve else {
        checks.check(false, || "the fleet report has no serve totals".to_string());
        return;
    };
    let mut all_served = 0usize;
    let mut all_drops = 0u64;
    for (m, (member, report)) in fleet.members.iter().zip(&r.models).enumerate() {
        let Some(serve) = &report.serve else {
            checks.check(false, || format!("member {m} has no serve section"));
            continue;
        };
        let drops: u64 = serve.tiers.iter().map(|t| t.admission_drops).sum();
        let served = serve.queries as u64;
        all_served += serve.queries;
        all_drops += drops;
        checks.check(served + drops == offered.per_member[m], || {
            format!(
                "{}: served {served} + dropped {drops} != offered {}",
                member.name, offered.per_member[m]
            )
        });
        if !serve.tiers.is_empty() {
            for (i, (t, &o)) in serve.tiers.iter().zip(&offered.per_tier[m]).enumerate() {
                checks.check(t.served + t.admission_drops == o, || {
                    format!(
                        "{} tier {i}: served {} + dropped {} != offered {o}",
                        member.name, t.served, t.admission_drops
                    )
                });
            }
            let tier_served: u64 = serve.tiers.iter().map(|t| t.served).sum();
            checks.check(tier_served == served, || {
                format!(
                    "{}: tier rows serve {tier_served}, the model row {served}",
                    member.name
                )
            });
        }
        let window_served: usize = serve.window_stats.iter().map(|w| w.num_queries).sum();
        checks.check(window_served == serve.queries, || {
            format!(
                "{}: windows hold {window_served} served queries, the member {}",
                member.name, serve.queries
            )
        });
        let window = member.scenario.online_settings.window;
        let traffic_s = member
            .scenario
            .traffic
            .as_ref()
            .map_or(0.0, |t| t.duration_s);
        let expected = (traffic_s / window.step_s).ceil() as usize;
        checks.check(serve.windows == expected, || {
            format!(
                "{}: {} windows for {traffic_s} s of traffic (expected {expected})",
                member.name, serve.windows
            )
        });
    }
    checks.check(
        totals.queries == all_served && totals.admission_drops == all_drops,
        || {
            format!(
                "fleet totals ({} served, {} dropped) differ from the member rows ({all_served}, {all_drops})",
                totals.queries, totals.admission_drops
            )
        },
    );
}

/// On-time queries ÷ offered queries across the fleet; drops count as misses.
fn qos_satisfaction(r: &FleetReport, offered: &Offered) -> f64 {
    let on_time: usize = r
        .models
        .iter()
        .filter_map(|m| m.serve.as_ref())
        .flat_map(|s| &s.window_stats)
        .map(|w| w.satisfied)
        .sum();
    on_time as f64 / offered.per_member.iter().sum::<u64>() as f64
}

fn serve(fleet: &Fleet) -> Result<(FleetReport, Duration), String> {
    let t0 = Instant::now();
    let report = serve_fleet(&RibbonFleetPlanner, fleet).map_err(|e| e.to_string())?;
    Ok((report, t0.elapsed()))
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let path = write_spec(args.seed, RunMode::Serve, specs::THREADS)?;
    let mut res = RunResult::new(args.trace);
    if args.trace {
        return traced(args, &path, res);
    }
    let started = Instant::now();
    let mut setups = Setups::new(args.seconds);
    let mut run_s = Vec::new();
    let mut first: Option<FleetReport> = None;
    let mut counted: Option<Offered> = None;
    // Each serve gets a set-up of its own, timed, while another pair fits the budget.
    while run_s.is_empty()
        || started.elapsed().as_secs_f64() + median(&run_s) + setups.median()
            <= args.seconds.as_secs_f64()
    {
        let (fleet, t) = setup(&path)?;
        setups.record(&t);
        let (report, wall) = serve(&fleet)?;
        run_s.push(wall.as_secs_f64());

        let offered = counted.get_or_insert_with(|| offered(&fleet));
        res.attempted += offered.per_member.iter().sum::<u64>();
        let before = res.checks.failures();
        check_report(&mut res.checks, &fleet, offered, &report);
        match &first {
            None => first = Some(report),
            Some(f) => res
                .checks
                .check(*f == report, || "repeated fleet serves differ".to_string()),
        }
        if res.checks.failures() > before {
            res.failed += 1;
        }
    }
    while setups.more() {
        setups.record(&setup(&path)?.1);
    }

    let report = first.expect("at least one serve ran");
    let offered = counted.expect("counted with the first serve");
    let totals = report.serve.as_ref().ok_or("no serve totals")?;
    eprintln!(
        "fleet_shared_tiered seed {}: {} serves of {} queries, {} reconfigurations, run_s {:?}",
        args.seed,
        run_s.len(),
        offered.per_member.iter().sum::<u64>(),
        totals.reconfigurations,
        run_s
    );
    res.set("setup_s", setups.median());
    res.set("run_s", median(&run_s));
    res.set("peak_rss_mb", peak_rss_mb()?);
    res.set("cost_usd_per_hr", totals.mean_hourly_cost);
    res.set("qos_satisfaction", qos_satisfaction(&report, &offered));
    Ok(res)
}

/// The traced run: the joint plan alone on a plan-mode copy, and the serve at one and
/// two shards, which must report identically. The fleet is timed by whole public calls,
/// so an untraced serve first gives the overhead reference.
fn traced(args: &Args, path: &str, mut res: RunResult) -> Result<RunResult, String> {
    let t0 = Instant::now();
    let fleet = Fleet::load(path).map_err(|e| e.to_string())?;
    let load = t0.elapsed();
    let t0 = Instant::now();
    FleetEvaluator::new(&fleet).map_err(|e| e.to_string())?;
    let evaluator = t0.elapsed();
    let (_, plain) = serve(&fleet)?;

    let plan_fleet = Fleet::load(&write_spec(args.seed, RunMode::Plan, specs::THREADS)?)
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let plan = RibbonFleetPlanner
        .plan(&plan_fleet)
        .map_err(|e| e.to_string())?;
    let joint_plan = t0.elapsed();

    let one = Fleet::load(&write_spec(args.seed, RunMode::Serve, 1)?).map_err(|e| e.to_string())?;
    let (r1, wall1) = serve(&one)?;
    let (r2, wall2) = serve(&fleet)?;

    let offered = offered(&fleet);
    res.attempted = offered.per_member.iter().sum();
    check_report(&mut res.checks, &fleet, &offered, &r2);
    res.checks.check(
        r1 == r2 && r1.to_json_string() == r2.to_json_string(),
        || "the fleet report differs between 1 and 2 shards".to_string(),
    );
    if !res.checks.passed() {
        res.failed = 1;
    }
    eprintln!(
        "fleet_shared_tiered seed {}: identical at shards 1 and 2: {}; joint plan ${:.3}/h; \
         served shared slice {:?}",
        args.seed,
        r1 == r2,
        plan.total_hourly_cost,
        r2.shared_config
    );

    let totals = r2.serve.as_ref().ok_or("no serve totals")?;
    let weights: Vec<f64> = fleet.members.iter().map(|m| m.share_weight).collect();
    let has_shared = r2.shared_config.iter().any(|&c| c > 0);
    let mut premium = (0u64, 0u64);
    let mut tier_preemptions = 0u64;
    for (m, report) in r2.models.iter().enumerate() {
        let Some(serve) = &report.serve else { continue };
        for (i, t) in serve.tiers.iter().enumerate() {
            tier_preemptions += t.preemptions;
            if t.class == AdmissionClass::Premium.name() {
                premium.0 += t.satisfied;
                premium.1 += offered.per_tier[m][i];
            }
        }
    }
    let layer = evaluator + joint_plan;
    res.set("scenario.load_ms", ms(load));
    res.set("phased.queries", res.attempted as f64);
    res.set("tier.preemptions", tier_preemptions as f64);
    res.set("tier.admission_drops", totals.admission_drops as f64);
    res.set(
        "tier.premium_satisfaction",
        premium.0 as f64 / premium.1.max(1) as f64,
    );
    res.set("fleet.evaluator_ms", ms(evaluator));
    res.set("fleet.joint_plan_ms", ms(joint_plan));
    res.set("fleet.serve_ms_shards1", ms(wall1));
    res.set("fleet.serve_ms_shards2", ms(wall2));
    res.set("fleet.reconfigurations", totals.reconfigurations as f64);
    res.set(
        "router.shared_queries",
        r2.models
            .iter()
            .filter_map(|m| m.serve.as_ref())
            .map(|s| s.shared_queries)
            .sum::<usize>() as f64,
    );
    res.set("router.preemptions", totals.preemptions as f64);
    res.set("router.admission_drops", totals.admission_drops as f64);
    res.set(
        "sharded.groups",
        partition_groups(&weights, has_shared).len() as f64,
    );
    res.set("trace.wall_ms", ms(wall2));
    res.set("trace.coverage", layer.as_secs_f64() / wall2.as_secs_f64());
    res.set("trace.overhead", wall2.as_secs_f64() / plain.as_secs_f64());
    Ok(res)
}
