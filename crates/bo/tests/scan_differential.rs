//! Differential suite for the blocked acquisition scan: the kernel-table, lane-interleaved,
//! bound-and-skip scan behind `suggest` and `open_scores` must reproduce an exhaustive
//! scan through the from-scratch `fit_gp` + `GaussianProcess::predict` path bit for bit —
//! the same argmax (first maximum in enumeration order), the same score bits, and the same
//! score for every open candidate — for every acquisition function and scan thread count.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ribbon_bo::optimizer::SuggestionSource;
use ribbon_bo::{Acquisition, BoOptimizer, BoSettings, ConfigLattice, Suggestion};
use ribbon_gp::{fit_gp, FitConfig};

const ACQUISITIONS: [Acquisition; 5] = [
    Acquisition::ExpectedImprovement { xi: 0.01 },
    Acquisition::ExpectedImprovement { xi: 0.0 },
    Acquisition::ProbabilityOfImprovement { xi: 0.01 },
    Acquisition::UpperConfidenceBound { kappa: 2.0 },
    Acquisition::UpperConfidenceBound { kappa: 0.0 },
];

const THREADS: [usize; 3] = [1, 2, 7];

/// A smooth objective with a ridge, on the scale of RIBBON's objective values.
fn objective(cfg: &[u32]) -> f64 {
    let total: f64 = cfg
        .iter()
        .enumerate()
        .map(|(i, &c)| c as f64 * (1.0 + 0.25 * i as f64))
        .sum();
    (0.3 * total).sin() * 0.4 + 0.2 - 0.01 * total
}

/// A lattice with `observations` random observations (one in four an injected
/// estimate), optionally with random prune boxes, under `fit`/`acquisition`.
fn optimizer(
    bounds: Vec<u32>,
    seed: u64,
    observations: usize,
    prunes: bool,
    fit: FitConfig,
    acquisition: Acquisition,
    threads: usize,
) -> BoOptimizer {
    let lattice = ConfigLattice::new(bounds.clone());
    let mut bo = BoOptimizer::new(
        lattice,
        BoSettings {
            initial_samples: 1,
            acquisition,
            fit,
            reuse_surrogate: true,
            scan_threads: Some(threads),
        },
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let random_config = |rng: &mut StdRng| -> Vec<u32> {
        let mut c: Vec<u32> = bounds.iter().map(|&b| rng.gen_range(0..=b)).collect();
        if c.iter().all(|&v| v == 0) {
            c[0] = 1;
        }
        c
    };
    let first = random_config(&mut rng);
    bo.observe(first.clone(), objective(&first)).unwrap();
    for k in 1..observations {
        let c = random_config(&mut rng);
        let v = objective(&c) + 0.05 * (rng.gen::<f64>() - 0.5);
        if k % 4 == 3 {
            bo.observe_estimate(c, v).unwrap();
        } else {
            bo.observe(c, v).unwrap();
        }
    }
    if prunes {
        let low: Vec<u32> = bounds.iter().map(|&b| rng.gen_range(0..=b / 3)).collect();
        bo.prune_below(low);
        let high: Vec<u32> = bounds.iter().map(|&b| rng.gen_range(b / 2..=b)).collect();
        bo.prune_above(high);
    }
    bo
}

/// The exhaustive scan: one from-scratch grid fit, every open candidate through
/// `predict`, the first strictly-better score kept. `None` when the grid cannot be fitted.
fn exhaustive_scores(
    bo: &BoOptimizer,
    fit: &FitConfig,
    acquisition: Acquisition,
) -> Option<Vec<f64>> {
    let obs = bo.observations();
    let x: Vec<Vec<f64>> = obs
        .iter()
        .map(|o| ConfigLattice::to_coords(&o.config))
        .collect();
    let y: Vec<f64> = obs.iter().map(|o| o.value).collect();
    let fitted = fit_gp(&x, &y, fit).ok()?;
    let real = obs
        .iter()
        .filter(|o| !o.estimated)
        .map(|o| o.value)
        .fold(f64::NEG_INFINITY, f64::max);
    let incumbent = if real.is_finite() {
        real
    } else {
        bo.best().unwrap().value
    };
    let scores = bo
        .open_candidates()
        .iter()
        .map(|c| {
            let posterior = fitted.gp.predict(&ConfigLattice::to_coords(c)).unwrap();
            acquisition.score(&posterior, incumbent)
        })
        .collect();
    Some(scores)
}

fn first_max(scores: &[f64]) -> (usize, f64) {
    let mut best: Option<(usize, f64)> = None;
    for (i, &s) in scores.iter().enumerate() {
        match best {
            Some((_, b)) if b >= s => {}
            _ => best = Some((i, s)),
        }
    }
    best.expect("open set is non-empty")
}

/// Asserts the blocked scan's suggestion and batched scores match the exhaustive scan.
fn assert_matches_exhaustive(
    mut bo: BoOptimizer,
    fit: &FitConfig,
    acquisition: Acquisition,
    what: &str,
) {
    let Some(oracle) = exhaustive_scores(&bo, fit, acquisition) else {
        return;
    };
    let (idx, score) = first_max(&oracle);
    let expected = Suggestion {
        config: bo.open_candidates()[idx].clone(),
        source: SuggestionSource::Acquisition { score },
    };
    let batched = bo.open_scores().unwrap().expect("surrogate fits");
    let oracle_bits: Vec<u64> = oracle.iter().map(|s| s.to_bits()).collect();
    let batched_bits: Vec<u64> = batched.iter().map(|s| s.to_bits()).collect();
    assert_eq!(batched_bits, oracle_bits, "{what}: batched scores differ");
    let mut rng = StdRng::seed_from_u64(0);
    let got = bo.suggest(&mut rng).unwrap();
    assert_eq!(got, expected, "{what}: argmax differs");
    if let SuggestionSource::Acquisition { score: s } = got.source {
        assert_eq!(s.to_bits(), score.to_bits(), "{what}: score bits differ");
    }
}

proptest! {
    #[test]
    fn blocked_scan_matches_exhaustive_predict_scan(
        seed in 0u64..1_000_000,
        dims in 1usize..5,
        bound in 1u32..7,
        observations in 2usize..10,
        prunes in 0u32..2,
        acq in 0usize..5,
        threads in 0usize..3,
    ) {
        let bounds: Vec<u32> = (0..dims).map(|d| bound + (d as u32 % 2)).collect();
        let fit = FitConfig::coarse();
        let bo = optimizer(
            bounds.clone(),
            seed,
            observations,
            prunes == 1,
            fit.clone(),
            ACQUISITIONS[acq],
            THREADS[threads],
        );
        prop_assume!(!bo.open_candidates().is_empty());
        assert_matches_exhaustive(
            bo,
            &fit,
            ACQUISITIONS[acq],
            &format!("seed {seed} bounds {bounds:?} acq {acq} threads {}", THREADS[threads]),
        );
    }
}

/// Every acquisition at every thread count on a multi-chunk lattice with prunes — and
/// the skip path really skips there.
#[test]
fn every_acquisition_and_thread_count_on_a_multi_chunk_lattice() {
    let fit = FitConfig::coarse();
    for acquisition in ACQUISITIONS {
        for threads in THREADS {
            let bo = optimizer(
                vec![7, 6, 7, 6],
                11,
                9,
                true,
                fit.clone(),
                acquisition,
                threads,
            );
            assert!(
                bo.open_candidates().len() > 1024,
                "spans several scan chunks"
            );
            assert_matches_exhaustive(
                bo,
                &fit,
                acquisition,
                &format!("{acquisition:?} x{threads}"),
            );
        }
    }
    let mut bo = optimizer(
        vec![7, 6, 7, 6],
        11,
        9,
        true,
        fit,
        Acquisition::default(),
        2,
    );
    bo.suggest(&mut StdRng::seed_from_u64(0)).unwrap();
    let work = bo.scan_work();
    assert!(
        work.solved < work.bounded / 2,
        "the bound-and-skip scan should solve few candidates: {work:?}"
    );
}

/// Squared distances past the kernel table's limit switch the scan to direct kernel
/// evaluations; results stay identical.
#[test]
fn direct_kernel_fallback_matches_exhaustive() {
    let fit = FitConfig {
        length_scales: vec![20.0, 60.0],
        ..FitConfig::coarse()
    };
    for (bounds, seed) in [(vec![300], 3u64), (vec![260, 3], 5)] {
        for acquisition in ACQUISITIONS {
            for threads in THREADS {
                let bo = optimizer(
                    bounds.clone(),
                    seed,
                    6,
                    false,
                    fit.clone(),
                    acquisition,
                    threads,
                );
                assert_matches_exhaustive(
                    bo,
                    &fit,
                    acquisition,
                    &format!("fallback {bounds:?} {acquisition:?} x{threads}"),
                );
            }
        }
    }
}

/// Zero observation noise plus duplicate inputs make the kernel matrix singular, so the
/// factor carries jitter — the variance bound must still hold on it.
#[test]
fn jittered_duplicate_input_factor_matches_exhaustive() {
    let fit = FitConfig {
        noise_variances: vec![0.0],
        ..FitConfig::coarse()
    };
    for acquisition in ACQUISITIONS {
        for threads in THREADS {
            let mut bo = optimizer(
                vec![6, 5, 6],
                17,
                5,
                false,
                fit.clone(),
                acquisition,
                threads,
            );
            let dup = bo.observations()[0].config.clone();
            bo.observe(dup.clone(), bo.observations()[0].value).unwrap();
            bo.observe_estimate(dup, 0.1).unwrap();
            assert_matches_exhaustive(
                bo,
                &fit,
                acquisition,
                &format!("jitter {acquisition:?} x{threads}"),
            );
        }
    }
}
