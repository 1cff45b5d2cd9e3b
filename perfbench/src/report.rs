//! Metric names, the result line, output checks and small statistics helpers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload with `--trace 0` (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cost_usd_per_hr", "USD/h"),
    ("qos_satisfaction", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1` (name, unit). A layer
/// the workload does not exercise from outside reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("scenario.load_ms", "ms"),
    ("evaluator.build_ms", "ms"),
    ("evaluator.evaluate_ms", "ms"),
    ("evaluator.calls", "count"),
    ("evaluator.configs", "count"),
    ("evaluator.simulations", "count"),
    ("evaluator.hit_ratio", "ratio"),
    ("bo.build_ms", "ms"),
    ("bo.ask_ms", "ms"),
    ("bo.ask_p50_ms", "ms"),
    ("bo.ask_max_ms", "ms"),
    ("bo.asks", "count"),
    ("bo.tell_ms", "ms"),
    ("bo.open_candidates", "count"),
    ("bo.pruned_boxes", "count"),
    ("bo.evals_to_best", "count"),
    ("online.bootstrap_ms", "ms"),
    ("online.observe_ms", "ms"),
    ("online.windows", "count"),
    ("online.replans", "count"),
    ("online.replan_p50_ms", "ms"),
    ("online.replan_p95_ms", "ms"),
    ("online.reconfigurations", "count"),
    ("phased.generate_ms", "ms"),
    ("phased.queries", "count"),
    ("streaming.push_ms", "ms"),
    ("streaming.push_ns_per_query", "ns"),
    ("streaming.reconfigure_ms", "ms"),
    ("streaming.recorded_queries", "count"),
    ("streaming.billed_usd", "USD"),
    ("tier.preemptions", "count"),
    ("tier.admission_drops", "count"),
    ("tier.premium_satisfaction", "ratio"),
    ("fleet.evaluator_ms", "ms"),
    ("fleet.joint_plan_ms", "ms"),
    ("fleet.serve_ms_shards1", "ms"),
    ("fleet.serve_ms_shards2", "ms"),
    ("fleet.reconfigurations", "count"),
    ("router.shared_queries", "count"),
    ("router.preemptions", "count"),
    ("router.admission_drops", "count"),
    ("sharded.groups", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Output checks of one run. A failed check makes the run incorrect and counts as one
/// failed operation.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a check; `what` describes the failure and is only built when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failures(&self) -> usize {
        self.failures.len()
    }
}

/// What one run reports.
pub struct RunResult {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    /// With `--trace 0`: the end-to-end values; with `--trace 1`: the per-layer ones.
    pub metrics: BTreeMap<&'static str, f64>,
    pub trace: bool,
}

impl RunResult {
    pub fn new(trace: bool) -> Self {
        RunResult {
            checks: Checks::default(),
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            trace,
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Prints the check verdicts and metrics to stderr, then the JSON result as the last
    /// line of stdout.
    pub fn print(mut self) {
        let table: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        for name in self.metrics.keys() {
            let known = table.iter().any(|(n, _)| n == name);
            self.checks
                .check(known, || format!("metric `{name}` is not declared"));
        }
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                // A layer the workload does not reach did no work.
                None if self.trace => 0.0,
                None => {
                    self.checks
                        .check(false, || format!("end-to-end metric `{name}` missing"));
                    0.0
                }
            };
            if !value.is_finite() {
                self.checks
                    .check(false, || format!("metric `{name}` is not finite"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            eprintln!("  {name:<30} {value:>18} {unit}");
            // Rust prints an f64 in its shortest round-trip form, never in exponent
            // notation: a valid JSON number with all its digits.
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        for f in &self.checks.failures {
            eprintln!("CHECK FAILED: {f}");
        }
        let correct = self.checks.passed();
        // The workloads count the operations their failed checks belong to; a failed
        // check on the result itself still fails at least one.
        let failed = if correct {
            self.failed
        } else {
            self.failed.max(1)
        };
        eprintln!(
            "correct {correct}, {} operations attempted, {failed} failed",
            self.attempted.max(1)
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            fields.join(", ")
        );
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Linear-interpolated percentile of the samples; 0 for none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `setup_s` is the median of at least this many samples per run (a sample is one
/// set-up, or the mean of a batch of them)...
const SETUP_MIN_REPS: usize = 5;
/// ...and of enough samples to spend this long setting up (at most `SETUP_MAX_REPS`).
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 5000;

/// The set-up samples of one run, spread over the run so that `setup_s` sees the same
/// host as `run_s`: the host's speed drifts over tens of seconds, and a burst of
/// set-ups at one moment reads that moment only.
pub struct Setups {
    samples: Vec<f64>,
    spent: f64,
    started: Instant,
    seconds: f64,
}

impl Setups {
    pub fn new(seconds: Duration) -> Self {
        Setups {
            samples: Vec::new(),
            spent: 0.0,
            started: Instant::now(),
            seconds: seconds.as_secs_f64(),
        }
    }

    /// Records one set-up, timed layer by layer.
    pub fn record(&mut self, layers: &[Duration]) {
        self.record_batch(layers.iter().sum(), 1);
    }

    /// Records `count` set-ups made back to back, `total` long together, as one sample:
    /// their mean.
    pub fn record_batch(&mut self, total: Duration, count: usize) {
        self.samples.push(total.as_secs_f64() / count as f64);
        self.spent += total.as_secs_f64();
    }

    /// Whether to set up again before the next timed operation: while the run's set-up
    /// time lags its elapsed share of `--seconds`.
    pub fn due(&self) -> bool {
        let share = (self.started.elapsed().as_secs_f64() / self.seconds).min(1.0);
        self.samples.len() < SETUP_MAX_REPS && self.total() < SETUP_MIN_S * share
    }

    /// Whether to set up again after the timed work, before reporting the median.
    pub fn more(&self) -> bool {
        self.samples.len() < SETUP_MIN_REPS
            || (self.total() < SETUP_MIN_S && self.samples.len() < SETUP_MAX_REPS)
    }

    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    fn total(&self) -> f64 {
        self.spent
    }
}

/// The `k`-th seed derived from a run's `--seed`, for workloads that serve several
/// independent inputs per run.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k as u64)
}
