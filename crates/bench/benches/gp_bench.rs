//! Criterion micro-benchmarks for the Gaussian-Process surrogate: fitting the (rounded)
//! Matérn 5/2 GP on BO-sized datasets and querying its posterior.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ribbon_gp::{fit_gp, FitConfig, GaussianProcess, GpConfig, Matern52, Rounded};

/// Deterministic synthetic observations resembling a Ribbon run: integer 3-D configurations
/// with objective values in [0, 1].
fn dataset(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let a = (i % 6) as f64;
        let b = ((i / 6) % 5) as f64;
        let c = ((i / 30) % 4) as f64;
        x.push(vec![a, b, c]);
        y.push(0.5 + 0.1 * (a * 0.7).sin() - 0.03 * b + 0.02 * c);
    }
    (x, y)
}

fn bench_gp_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp_fit");
    for &n in &[10usize, 25, 50] {
        let (x, y) = dataset(n);
        group.bench_with_input(BenchmarkId::new("single_fit", n), &n, |bencher, _| {
            bencher.iter(|| {
                GaussianProcess::fit(
                    Rounded::new(Matern52::new(0.1, 2.0)),
                    black_box(x.clone()),
                    black_box(y.clone()),
                    GpConfig::default(),
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("grid_search_fit", n), &n, |bencher, _| {
            bencher.iter(|| fit_gp(black_box(&x), black_box(&y), &FitConfig::coarse()).unwrap())
        });
    }
    group.finish();
}

fn bench_gp_predict(c: &mut Criterion) {
    let (x, y) = dataset(30);
    let gp = GaussianProcess::fit(
        Rounded::new(Matern52::new(0.1, 2.0)),
        x,
        y,
        GpConfig::default(),
    )
    .unwrap();
    c.bench_function("gp_predict_single_point", |bencher| {
        bencher.iter(|| gp.predict(black_box(&[2.0, 3.0, 1.0])).unwrap())
    });
    let queries: Vec<Vec<f64>> = (0..500)
        .map(|i| vec![(i % 6) as f64, ((i / 6) % 5) as f64, ((i / 30) % 4) as f64])
        .collect();
    c.bench_function("gp_predict_500_lattice_points", |bencher| {
        bencher.iter(|| {
            black_box(&queries)
                .iter()
                .map(|q| gp.predict(q).unwrap())
                .collect::<Vec<_>>()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_gp_fit, bench_gp_predict
}
criterion_main!(benches);
