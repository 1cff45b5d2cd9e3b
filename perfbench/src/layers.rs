//! Layer timing from outside: wrappers around the public [`BatchEvaluator`] and
//! [`Optimizer`] traits that forward every call unchanged and time it.
//!
//! The search driver only sees the traits, so a wrapped search makes exactly the calls
//! an unwrapped one makes and produces the same trace.

use rand::RngCore;
use ribbon::evaluator::PrefixEvaluation;
use ribbon::{BatchEvaluator, Evaluation};
use ribbon_bo::{BoError, BoOptimizer, ConfigLattice, Optimizer, Outcome};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// A [`BatchEvaluator`] that times and counts every evaluation call.
pub struct TimedEvaluator<'a> {
    inner: &'a dyn BatchEvaluator,
    time: Cell<Duration>,
    calls: Cell<u64>,
    configs: Cell<u64>,
}

impl<'a> TimedEvaluator<'a> {
    pub fn new(inner: &'a dyn BatchEvaluator) -> Self {
        TimedEvaluator {
            inner,
            time: Cell::new(Duration::ZERO),
            calls: Cell::new(0),
            configs: Cell::new(0),
        }
    }

    fn timed<T>(&self, configs: usize, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.time.set(self.time.get() + t0.elapsed());
        self.calls.set(self.calls.get() + 1);
        self.configs.set(self.configs.get() + configs as u64);
        out
    }

    /// Wall time spent inside evaluation calls.
    pub fn time(&self) -> Duration {
        self.time.get()
    }

    /// Evaluation calls (single or batch).
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Configurations asked for across all calls.
    pub fn configs(&self) -> u64 {
        self.configs.get()
    }
}

impl BatchEvaluator for TimedEvaluator<'_> {
    fn num_queries(&self) -> usize {
        self.inner.num_queries()
    }
    fn prefix_len(&self, fidelity: f64) -> usize {
        self.inner.prefix_len(fidelity)
    }
    fn lattice(&self) -> ConfigLattice {
        self.inner.lattice()
    }
    fn target_rate(&self) -> f64 {
        self.inner.target_rate()
    }
    fn evaluate(&self, config: &[u32]) -> Evaluation {
        self.timed(1, || self.inner.evaluate(config))
    }
    fn evaluate_many(&self, configs: &[Vec<u32>]) -> Vec<Evaluation> {
        self.timed(configs.len(), || self.inner.evaluate_many(configs))
    }
    fn evaluate_many_prefix(&self, configs: &[Vec<u32>], k: usize) -> Vec<PrefixEvaluation> {
        self.timed(configs.len(), || {
            self.inner.evaluate_many_prefix(configs, k)
        })
    }
}

/// An [`Optimizer`] that times every ask and tell of the BO engine it wraps.
pub struct TimedOptimizer<'a> {
    inner: &'a mut BoOptimizer,
    /// Wall time of each ask, in milliseconds, in call order.
    pub ask_ms: Vec<f64>,
    pub tell_time: Duration,
}

impl<'a> TimedOptimizer<'a> {
    pub fn new(inner: &'a mut BoOptimizer) -> Self {
        TimedOptimizer {
            inner,
            ask_ms: Vec::new(),
            tell_time: Duration::ZERO,
        }
    }
}

impl Optimizer for TimedOptimizer<'_> {
    fn ask(&mut self, rng: &mut dyn RngCore, q: usize) -> Result<Vec<Vec<u32>>, BoError> {
        let t0 = Instant::now();
        let out = Optimizer::ask(self.inner, rng, q);
        self.ask_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out
    }

    fn tell(&mut self, outcome: Outcome) -> Result<bool, BoError> {
        let t0 = Instant::now();
        let out = Optimizer::tell(self.inner, outcome);
        self.tell_time += t0.elapsed();
        out
    }

    fn forget(&mut self, config: &[u32]) {
        Optimizer::forget(self.inner, config)
    }

    fn remaining(&self) -> Option<usize> {
        Optimizer::remaining(self.inner)
    }
}
