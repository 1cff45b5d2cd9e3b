//! `plan_hotpath`: the paper's core loop — RIBBON's ask/evaluate/tell search over the
//! six-type, 1.77M-point MT-WND lattice with a 20k-query evaluation stream.
//!
//! The workload is the bundled scenario exactly, search seed included, so every run does
//! the same planner work and reproduces the repository's golden search trace. The search
//! seed is not taken from `--seed`: the search's work follows its trajectory, and single
//! searches at other seeds took from 8.9 s to 19.3 s on the same machine, a spread no run
//! length available here averages out.

use crate::layers::{TimedEvaluator, TimedOptimizer};
use crate::report::{median, ms, peak_rss_mb, percentile, RunResult, Setups};
use crate::{specs, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ribbon::search::SearchDriver;
use ribbon::{BatchEvaluator, ConfigEvaluator, RibbonSearch, Scenario, SearchTrace};
use ribbon_bo::{BoOptimizer, Optimizer};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const BASE: &str = "mtwnd_hotpath_search.toml";
/// The bundled scenario's seed, whose trace is pinned as the golden search trace.
const GOLDEN_SEED: u64 = 2;
const GOLDEN_PATH: &str = "crates/bench/golden/search_trace.txt";

/// Everything built before the first ask.
struct Setup {
    evaluator: ConfigEvaluator,
    search: RibbonSearch,
    bo: BoOptimizer,
}

/// Builds a fresh set-up (a fresh evaluator cache and a fresh optimizer, so every
/// search does the same work), timing each layer.
fn setup(path: &str) -> Result<(Setup, [Duration; 3]), String> {
    let t0 = Instant::now();
    let scenario = Scenario::load(path).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let evaluator = scenario.build_evaluator();
    let t2 = Instant::now();
    let search = RibbonSearch::new(scenario.search_settings.clone());
    let bo = search.make_optimizer(&evaluator);
    let t3 = Instant::now();
    Ok((
        Setup {
            evaluator,
            search,
            bo,
        },
        [t1 - t0, t2 - t1, t3 - t2],
    ))
}

/// One search through the public ask/tell driver, exactly as `RibbonSearch::run_with`
/// drives it (the hot-path spec sets no start configuration).
fn search(
    s: &RibbonSearch,
    evaluator: &dyn BatchEvaluator,
    opt: &mut dyn Optimizer,
) -> SearchTrace {
    let mut rng = StdRng::seed_from_u64(GOLDEN_SEED);
    let mut trace = SearchTrace::new("RIBBON");
    let outcome_of = s.outcome_rule(evaluator);
    SearchDriver::new(evaluator)
        .with_batch(s.settings().batch)
        .with_fidelity(s.settings().fidelity)
        .run(
            opt,
            &mut rng,
            s.settings().max_evaluations,
            &outcome_of,
            &mut trace,
        );
    trace
}

/// The golden-trace line format: one evaluation per line, objective as exact bits.
fn trace_text(trace: &SearchTrace) -> String {
    trace
        .evaluations()
        .iter()
        .map(|e| {
            let cfg: Vec<String> = e.config.iter().map(|c| c.to_string()).collect();
            format!(
                "cfg {} obj {:#018x} # {:.6}\n",
                cfg.join(","),
                e.objective.to_bits(),
                e.objective
            )
        })
        .collect()
}

/// Output checks of one search; returns `false` when the plan failed (no configuration
/// meets QoS).
fn check_trace(
    res: &mut RunResult,
    path: &str,
    budget: usize,
    trace: &SearchTrace,
) -> Result<bool, String> {
    let golden =
        std::fs::read_to_string(GOLDEN_PATH).map_err(|e| format!("reading {GOLDEN_PATH}: {e}"))?;
    res.checks.check(trace_text(trace) == golden, || {
        format!("the search trace differs from {GOLDEN_PATH}")
    });
    let distinct: BTreeSet<&[u32]> = trace
        .evaluations()
        .iter()
        .map(|e| e.config.as_slice())
        .collect();
    res.checks
        .check(trace.len() == budget && distinct.len() == budget, || {
            format!(
                "trace holds {} evaluations, {} distinct; budget {budget}",
                trace.len(),
                distinct.len()
            )
        });
    let Some(best) = trace.best_satisfying() else {
        return Ok(false);
    };
    // Re-evaluate the chosen plan on a fresh evaluator: same objective bits, meets QoS.
    let fresh = Scenario::load(path)
        .map_err(|e| e.to_string())?
        .build_evaluator();
    let again = fresh.evaluate(&best.config);
    res.checks.check(
        again.objective.to_bits() == best.objective.to_bits() && again.meets_qos,
        || {
            format!(
                "best config {:?} re-evaluates to {} (meets QoS: {}), search saw {}",
                best.config, again.objective, again.meets_qos, best.objective
            )
        },
    );
    Ok(true)
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let path = specs::scenario(BASE, "plan_hotpath.toml", GOLDEN_SEED, |_| {})?;
    let mut res = RunResult::new(args.trace);
    if args.trace {
        return traced(&path, res);
    }
    let started = Instant::now();
    let mut setups = Setups::new(args.seconds);
    let mut plan_s = Vec::new();
    let mut first: Option<SearchTrace> = None;
    // Searches while the budget allows another of median length (at least one), each
    // on a fresh set-up.
    while plan_s.is_empty()
        || started.elapsed().as_secs_f64() + median(&plan_s) <= args.seconds.as_secs_f64()
    {
        while setups.due() {
            setups.record(&setup(&path)?.1);
        }
        let (mut s, t) = setup(&path)?;
        setups.record(&t);
        let t0 = Instant::now();
        let trace = search(&s.search, &s.evaluator, &mut s.bo);
        plan_s.push(t0.elapsed().as_secs_f64());

        res.attempted += 1;
        let before = res.checks.failures();
        let budget = s.search.settings().max_evaluations;
        let planned = check_trace(&mut res, &path, budget, &trace)?;
        match &first {
            None => first = Some(trace),
            Some(f) => res
                .checks
                .check(*f == trace, || "repeated searches differ".to_string()),
        }
        if !planned || res.checks.failures() > before {
            res.failed += 1;
        }
    }
    while setups.more() {
        setups.record(&setup(&path)?.1);
    }

    let trace = first.expect("at least one search ran");
    let best = trace.best_satisfying();
    eprintln!("plan_hotpath: {} searches, plan_s {plan_s:?}", plan_s.len());
    res.set("setup_s", setups.median());
    res.set("run_s", median(&plan_s));
    res.set("peak_rss_mb", peak_rss_mb()?);
    res.set("cost_usd_per_hr", best.map_or(f64::NAN, |b| b.hourly_cost));
    res.set(
        "qos_satisfaction",
        best.map_or(f64::NAN, |b| b.satisfaction_rate),
    );
    Ok(res)
}

/// The traced run: one untraced search (the overhead reference), then one search with
/// every evaluator and optimizer call timed through the wrappers.
fn traced(path: &str, mut res: RunResult) -> Result<RunResult, String> {
    let (mut plain, _) = setup(path)?;
    let t0 = Instant::now();
    let reference = search(&plain.search, &plain.evaluator, &mut plain.bo);
    let untraced = t0.elapsed();
    drop(plain);

    let (mut s, [load, build, bo_build]) = setup(path)?;
    let sims_before = s.evaluator.num_simulations();
    let evaluator = TimedEvaluator::new(&s.evaluator);
    let mut opt = TimedOptimizer::new(&mut s.bo);
    let t0 = Instant::now();
    let trace = search(&s.search, &evaluator, &mut opt);
    let wall = t0.elapsed();
    let (ask_ms, tell_time) = (std::mem::take(&mut opt.ask_ms), opt.tell_time);
    drop(opt);
    let simulations = (s.evaluator.num_simulations() - sims_before) as f64;

    res.attempted = 1;
    let budget = s.search.settings().max_evaluations;
    let planned = check_trace(&mut res, path, budget, &trace)?;
    res.checks.check(trace == reference, || {
        "the traced search differs from the untraced one".to_string()
    });
    if !planned || !res.checks.passed() {
        res.failed = 1;
    }

    let ask_total: f64 = ask_ms.iter().sum();
    let layer_ms = ask_total + ms(tell_time) + ms(evaluator.time());
    let best_cost = trace.best_satisfying().map(|b| b.hourly_cost);
    res.set("scenario.load_ms", ms(load));
    res.set("evaluator.build_ms", ms(build));
    res.set("evaluator.evaluate_ms", ms(evaluator.time()));
    res.set("evaluator.calls", evaluator.calls() as f64);
    res.set("evaluator.configs", evaluator.configs() as f64);
    res.set("evaluator.simulations", simulations);
    res.set(
        "evaluator.hit_ratio",
        1.0 - simulations / (evaluator.configs() as f64).max(1.0),
    );
    res.set("bo.build_ms", ms(bo_build));
    res.set("bo.ask_ms", ask_total);
    res.set("bo.ask_p50_ms", percentile(&ask_ms, 50.0));
    res.set("bo.ask_max_ms", percentile(&ask_ms, 100.0));
    res.set("bo.asks", ask_ms.len() as f64);
    res.set("bo.tell_ms", ms(tell_time));
    res.set("bo.open_candidates", s.bo.open_candidates().len() as f64);
    res.set("bo.pruned_boxes", s.bo.prune_set().num_boxes() as f64);
    res.set(
        "bo.evals_to_best",
        best_cost
            .and_then(|c| trace.samples_until_cost_at_most(c))
            .map_or(0.0, |n| n as f64),
    );
    res.set("trace.wall_ms", ms(wall));
    res.set("trace.coverage", layer_ms / ms(wall));
    res.set(
        "trace.overhead",
        wall.as_secs_f64() / untraced.as_secs_f64(),
    );
    Ok(res)
}
