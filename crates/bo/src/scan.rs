//! The exact blocked acquisition scan over lattice candidates.
//!
//! [`AcquisitionScan`] scores open lattice points under one fitted rounded-Matérn GP and
//! reproduces [`GaussianProcess::predict`] followed by [`Acquisition::score`] bit for bit,
//! while doing far less work per candidate:
//!
//! * **Kernel table.** Rounded training inputs and lattice candidates are integers, so
//!   `sq_dist` between them is an exact integer `r²` (every partial sum is an integer far
//!   below 2⁵³). The kernel value is therefore a function of `r²` alone, and a per-ask
//!   table `k[r²]` built with [`Matern52::eval_sq_dist`] — the expression
//!   [`Matern52`]'s `eval` applies to `sq_dist` — holds exactly the values `predict` would
//!   compute. Per-dimension rows of squared differences turn `r²` into integer adds, and
//!   lexicographic order means consecutive candidates mostly differ in the last dimension
//!   only. When the table would exceed [`TABLE_LIMIT`] entries the scan evaluates the
//!   kernel directly instead.
//! * **Lane-interleaved solve.** The O(n²) forward solve `L v = k*` behind the posterior
//!   variance runs over [`LANES`] candidates at once. Each lane performs the operation
//!   sequence of `Cholesky::solve_lower_into` (no `mul_add`), so every lane's result is
//!   bit-identical to the single-candidate solve.
//! * **Bound-and-skip** (argmax scans with EI or UCB). The O(n) mean comes first. The
//!   variance is bounded above by `k** − maxᵢ k*ᵢ²/(LLᵀ)ᵢᵢ`: for any unit vector `eᵢ`,
//!   `k*ᵀA⁻¹k* ≥ (eᵢᵀk*)²/(eᵢᵀAeᵢ)` (Cauchy–Schwarz), and the forward solve's backward
//!   error only perturbs `L` by `O(n·ε)` relative, which the `1 − 8(n + 8)ε` scale
//!   absorbs. Only candidates whose bounded score
//!   ([`Acquisition::score_upper_bound`]) reaches the skip threshold run the solve. The
//!   threshold is an attained score — the best of a fixed strided probe of the open set,
//!   raised by the chunk's own solved candidates — so a skipped candidate scores strictly
//!   below the maximum and the first-maximum tie rule is untouched. It never depends on
//!   thread scheduling, so the [`ScanWork`] counts are deterministic.
//!
//! Errors match too: the only error `predict` can return on a lattice point is
//! `GpError::NonFinite`, and only for a non-finite mean — the variance
//! `(k** − vᵀv).max(0.0)` is finite for every `vᵀv` — so computing the mean of every
//! candidate keeps the error set of the exhaustive scan.

use crate::acquisition::Acquisition;
use crate::space::Config;
use ribbon_gp::{GaussianProcess, GpError, Kernel, Matern52, Posterior, Rounded};
use ribbon_linalg::Matrix;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Candidates solved together by the lane-interleaved forward solve.
const LANES: usize = 8;

/// Largest `r²` the per-ask kernel table covers (512 KiB of `f64`); lattices whose
/// squared distances can exceed it use direct kernel evaluations.
const TABLE_LIMIT: u64 = 1 << 16;

/// Open-set size per probe candidate when seeding the skip threshold.
const PROBE_STRIDE_TARGET: usize = 256;

/// Work done by the acquisition scan, summed over asks. Deterministic: the same search
/// reports the same counts at every scan thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanWork {
    /// Candidates whose posterior variance was bounded by the O(n) pass (argmax scans
    /// with EI or UCB).
    pub bounded: u64,
    /// Candidates that ran the O(n²) variance solve, threshold probes included.
    pub solved: u64,
}

impl AddAssign for ScanWork {
    fn add_assign(&mut self, rhs: ScanWork) {
        self.bounded += rhs.bounded;
        self.solved += rhs.solved;
    }
}

/// How the cross-covariances `k*` are computed.
enum Cross<'a> {
    /// `k*ᵢ = table[r²ᵢ]`, with `rows[d][v·n + i] = (v − xᵢ_d)²` for every lattice
    /// value `v` of dimension `d`.
    Table {
        table: Vec<f64>,
        rows: Vec<Vec<u32>>,
    },
    /// `k*ᵢ = kernel(xᵢ, q)`, evaluated as `predict` does.
    Direct { inputs: &'a [Vec<f64>] },
}

/// Per-worker buffers of the scan.
pub(crate) struct Scratch {
    /// All but the last coordinate of the previous candidate, whose prefix sums
    /// `partial` still hold.
    prev: Vec<u32>,
    /// `partial[d·n + i] = Σ_{d' ≤ d} (q_d' − xᵢ_d')²` for every dimension but the last.
    partial: Vec<u32>,
    /// Candidate coordinates for the direct path.
    coords: Vec<f64>,
    /// `k*` of the loaded block of candidates, lane-interleaved: one row per training
    /// point.
    block: Vec<[f64; LANES]>,
    /// `k*` (then `v`) of the candidates queued for the solve, lane-interleaved.
    lanes: Vec<[f64; LANES]>,
    lane_pos: [usize; LANES],
    lane_mean: [f64; LANES],
    filled: usize,
}

/// One ask's scan: the fitted GP's factor and weights, the kernel table, and the
/// acquisition to maximize.
pub(crate) struct AcquisitionScan<'a> {
    gp: &'a GaussianProcess<Rounded<Matern52>>,
    n: usize,
    dims: usize,
    cross: Cross<'a>,
    /// `1 / (LLᵀ)ᵢᵢ`.
    inv_diag: Vec<f64>,
    /// Prior variance `k**` (the Matérn signal variance).
    prior_variance: f64,
    /// `1 − 8(n + 8)ε`: covers the rounding between the variance bound and the solve.
    bound_scale: f64,
    acquisition: Acquisition,
    incumbent: f64,
}

impl<'a> AcquisitionScan<'a> {
    /// Prepares the scan of candidates inside `bounds` (inclusive per-dimension maxima).
    pub(crate) fn new(
        gp: &'a GaussianProcess<Rounded<Matern52>>,
        bounds: &[u32],
        acquisition: Acquisition,
        incumbent: f64,
    ) -> Self {
        let n = gp.len();
        let dims = bounds.len();
        let l = gp.factor().l();
        let inv_diag = (0..n)
            .map(|i| 1.0 / l.row(i).iter().map(|v| v * v).sum::<f64>())
            .collect();
        let cross = match lattice_inputs(gp.prepared_inputs(), bounds) {
            Some((train, max_r2)) => {
                let matern = gp.kernel().inner();
                let rows = (0..dims)
                    .map(|d| {
                        (0..=bounds[d])
                            .flat_map(|v| train.iter().map(move |x| v.abs_diff(x[d]).pow(2)))
                            .collect()
                    })
                    .collect();
                Cross::Table {
                    table: (0..=max_r2)
                        .map(|r2| matern.eval_sq_dist(r2 as f64))
                        .collect(),
                    rows,
                }
            }
            None => Cross::Direct {
                inputs: gp.prepared_inputs(),
            },
        };
        AcquisitionScan {
            gp,
            n,
            dims,
            cross,
            inv_diag,
            prior_variance: gp.kernel().inner().variance,
            bound_scale: 1.0 - 8.0 * (n as f64 + 8.0) * f64::EPSILON,
            acquisition,
            incumbent,
        }
    }

    /// Fresh per-worker buffers.
    pub(crate) fn scratch(&self) -> Scratch {
        Scratch {
            prev: Vec::with_capacity(self.dims),
            partial: vec![0; (self.dims - 1) * self.n],
            coords: vec![0.0; self.dims],
            block: vec![[0.0; LANES]; self.n],
            lanes: vec![[0.0; LANES]; self.n],
            lane_pos: [0; LANES],
            lane_mean: [0.0; LANES],
            filled: 0,
        }
    }

    /// Writes candidate `cfg`'s cross-covariances `k*` into column `lane` of `s.block`.
    fn cross_into(&self, cfg: &[u32], lane: usize, s: &mut Scratch) {
        let n = self.n;
        match &self.cross {
            Cross::Table { table, rows } => {
                // Prefix sums over every dimension but the last, redone from the first
                // one that differs from the previous candidate; the last dimension is
                // added on the fly.
                let last = self.dims - 1;
                let from = if s.prev.len() == last {
                    s.prev
                        .iter()
                        .zip(cfg)
                        .position(|(a, b)| a != b)
                        .unwrap_or(last)
                } else {
                    0
                };
                for d in from..last {
                    let row = &rows[d][cfg[d] as usize * n..][..n];
                    let (done, rest) = s.partial.split_at_mut(d * n);
                    let out = &mut rest[..n];
                    if d == 0 {
                        out.copy_from_slice(row);
                    } else {
                        for ((o, &p), &r) in out.iter_mut().zip(&done[(d - 1) * n..]).zip(row) {
                            *o = p + r;
                        }
                    }
                }
                if from < last {
                    s.prev.clear();
                    s.prev.extend_from_slice(&cfg[..last]);
                }
                let row = &rows[last][cfg[last] as usize * n..][..n];
                if last == 0 {
                    for (out, &r) in s.block.iter_mut().zip(row) {
                        out[lane] = table[r as usize];
                    }
                } else {
                    let prefix = &s.partial[(last - 1) * n..][..n];
                    for ((out, &p), &r) in s.block.iter_mut().zip(prefix).zip(row) {
                        out[lane] = table[(p + r) as usize];
                    }
                }
            }
            Cross::Direct { inputs } => {
                for (c, &v) in s.coords.iter_mut().zip(cfg) {
                    *c = v as f64;
                }
                let kernel = self.gp.kernel();
                for (row, x) in s.block.iter_mut().zip(inputs.iter()) {
                    row[lane] = kernel.eval_prepared(x, &s.coords);
                }
            }
        }
    }

    /// Loads the next (up to) [`LANES`] candidates of `cands` into `s.block` and returns
    /// each one's posterior mean — `prior_mean + dot(k*, α)`, summed in `dot`'s order from
    /// `-0.0` — and an upper bound on its posterior variance.
    fn load_block<'c>(
        &self,
        cands: &mut impl Iterator<Item = &'c Config>,
        s: &mut Scratch,
    ) -> Result<Block, GpError> {
        let mut len = 0;
        for cfg in cands.take(LANES) {
            self.cross_into(cfg, len, s);
            len += 1;
        }
        for row in s.block.iter_mut() {
            row[len..].fill(0.0);
        }
        let mut dot = [-0.0; LANES];
        let mut explained = [0.0; LANES];
        for ((row, &a), &inv) in s.block.iter().zip(self.gp.alpha()).zip(&self.inv_diag) {
            for lane in 0..LANES {
                dot[lane] += row[lane] * a;
            }
            for lane in 0..LANES {
                let e = row[lane] * row[lane] * inv;
                explained[lane] = if e > explained[lane] {
                    e
                } else {
                    explained[lane]
                };
            }
        }
        let mut block = Block {
            len,
            mean: [0.0; LANES],
            variance_bound: [0.0; LANES],
        };
        for lane in 0..len {
            let mean = self.gp.prior_mean() + dot[lane];
            if !mean.is_finite() {
                return Err(GpError::NonFinite);
            }
            // Below this the lower bound on vᵀv could be dominated by underflow; zero is
            // always a valid lower bound.
            let explained = if explained[lane] < f64::MIN_POSITIVE * 2f64.powi(54) {
                0.0
            } else {
                explained[lane] * self.bound_scale
            };
            block.mean[lane] = mean;
            block.variance_bound[lane] = (self.prior_variance - explained).max(0.0);
        }
        Ok(block)
    }

    /// Queues column `lane` of `s.block` for the solve; `true` once the queue is full.
    fn queue(&self, s: &mut Scratch, lane: usize, pos: usize, mean: f64) -> bool {
        let slot = s.filled;
        for (queued, row) in s.lanes.iter_mut().zip(&s.block) {
            queued[slot] = row[lane];
        }
        s.lane_pos[slot] = pos;
        s.lane_mean[slot] = mean;
        s.filled += 1;
        s.filled == LANES
    }

    /// Solves the queued lanes and hands each `(position, score)` to `emit` in queue
    /// order.
    fn flush(
        &self,
        s: &mut Scratch,
        work: &mut ScanWork,
        mut emit: impl FnMut(usize, f64),
    ) -> Result<(), GpError> {
        if s.filled == 0 {
            return Ok(());
        }
        for row in s.lanes.iter_mut() {
            row[s.filled..].fill(0.0);
        }
        let reduction = solve_lanes(self.gp.factor().l(), &mut s.lanes);
        let queued = reduction.iter().zip(&s.lane_mean).zip(&s.lane_pos);
        for ((&reduced, &mean), &pos) in queued.take(s.filled) {
            let variance = (self.prior_variance - reduced).max(0.0);
            if !variance.is_finite() {
                return Err(GpError::NonFinite);
            }
            let posterior = Posterior { mean, variance };
            emit(pos, self.acquisition.score(&posterior, self.incumbent));
        }
        work.solved += s.filled as u64;
        s.filled = 0;
        Ok(())
    }

    /// Scores `cands` in order into `out`, solving every candidate.
    pub(crate) fn scores_into<'c>(
        &self,
        cands: impl IntoIterator<Item = &'c Config>,
        s: &mut Scratch,
        work: &mut ScanWork,
        out: &mut Vec<f64>,
    ) -> Result<(), GpError> {
        let mut cands = cands.into_iter();
        loop {
            let block = self.load_block(&mut cands, s)?;
            if block.len == 0 {
                return Ok(());
            }
            // Nothing else is queued here: solve the loaded block in place.
            std::mem::swap(&mut s.block, &mut s.lanes);
            s.lane_mean = block.mean;
            s.filled = block.len;
            self.flush(s, work, |_, score| out.push(score))?;
        }
    }

    /// The skip threshold's seed: the best score over a fixed strided probe of `open`,
    /// or `-∞` when the acquisition cannot be bounded (every candidate is then solved).
    pub(crate) fn probe_floor(&self, open: &[Config], work: &mut ScanWork) -> Result<f64, GpError> {
        if !self.acquisition.bounds_by_variance() {
            return Ok(f64::NEG_INFINITY);
        }
        let stride = (open.len() / PROBE_STRIDE_TARGET).max(1);
        let mut scores = Vec::with_capacity(PROBE_STRIDE_TARGET + 1);
        self.scores_into(
            open.iter().step_by(stride),
            &mut self.scratch(),
            work,
            &mut scores,
        )?;
        Ok(scores.into_iter().fold(f64::NEG_INFINITY, f64::max))
    }

    /// The first candidate of `cands` attaining the maximum score, as `(index, score)` —
    /// or `None` when every candidate scores below `floor` (an attained score) and was
    /// skipped. A block of candidates is skipped whole when its mean range and largest
    /// variance bound cannot reach the threshold, otherwise candidate by candidate.
    pub(crate) fn best_of(
        &self,
        cands: &[Config],
        floor: f64,
        s: &mut Scratch,
        work: &mut ScanWork,
    ) -> Result<Option<(usize, f64)>, GpError> {
        let skip = self.acquisition.bounds_by_variance();
        let mut best: Option<(usize, f64)> = None;
        let keep = |best: &mut Option<(usize, f64)>, pos: usize, score: f64| match *best {
            Some((_, s)) if s >= score => {}
            _ => *best = Some((pos, score)),
        };
        let mut threshold = floor;
        let mut iter = cands.iter();
        let mut start = 0;
        loop {
            let block = self.load_block(&mut iter, s)?;
            if block.len == 0 {
                break;
            }
            let lanes = 0..block.len;
            let reaches = |lo: f64, hi: f64, variance: f64, threshold: f64| {
                self.acquisition
                    .score_upper_bound(lo, hi, variance, self.incumbent)
                    >= threshold
            };
            if skip {
                work.bounded += block.len as u64;
                let means = &block.mean[lanes.clone()];
                let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let variance = block.variance_bound[lanes.clone()]
                    .iter()
                    .copied()
                    .fold(0.0, f64::max);
                if !reaches(lo, hi, variance, threshold) {
                    start += block.len;
                    continue;
                }
            }
            for lane in lanes {
                let (mean, variance) = (block.mean[lane], block.variance_bound[lane]);
                if skip && block.len > 1 && !reaches(mean, mean, variance, threshold) {
                    continue;
                }
                if self.queue(s, lane, start + lane, mean) {
                    self.flush(s, work, |pos, score| keep(&mut best, pos, score))?;
                    if let Some((_, score)) = best {
                        threshold = threshold.max(score);
                    }
                }
            }
            start += block.len;
        }
        self.flush(s, work, |pos, score| keep(&mut best, pos, score))?;
        Ok(best)
    }
}

/// Means and variance bounds of one loaded block; lanes past `len` are unused.
struct Block {
    len: usize,
    mean: [f64; LANES],
    variance_bound: [f64; LANES],
}

/// The training inputs as lattice coordinates together with the largest `r²` between
/// them and a candidate inside `bounds` — when every input is an integer inside `bounds`
/// and that `r²` fits the kernel table.
fn lattice_inputs(inputs: &[Vec<f64>], bounds: &[u32]) -> Option<(Vec<Vec<u32>>, u64)> {
    let train: Vec<Vec<u32>> = inputs
        .iter()
        .map(|x| {
            (x.len() == bounds.len()).then_some(())?;
            x.iter()
                .zip(bounds)
                .map(|(&v, &b)| {
                    (v.fract() == 0.0 && v >= 0.0 && v <= f64::from(b)).then_some(v as u32)
                })
                .collect()
        })
        .collect::<Option<_>>()?;
    let mut max_r2: u64 = 0;
    for (d, &b) in bounds.iter().enumerate() {
        let reach = train
            .iter()
            .map(|x| u64::from(x[d].max(b - x[d])).pow(2))
            .max()
            .unwrap_or(0);
        max_r2 = max_r2.saturating_add(reach);
        if max_r2 > TABLE_LIMIT {
            return None;
        }
    }
    Some((train, max_r2))
}

/// Forward substitution `L v = k*` over all lanes in place, returning each lane's
/// `vᵀv`. Per lane this is `Cholesky::solve_lower_into` followed by `dot(v, v)`, operation
/// for operation.
fn solve_lanes(l: &Matrix, x: &mut [[f64; LANES]]) -> [f64; LANES] {
    for i in 0..x.len() {
        let li = l.row(i);
        let (solved, rest) = x.split_at_mut(i);
        let mut sum = rest[0];
        for (&lik, xk) in li[..i].iter().zip(solved.iter()) {
            for lane in 0..LANES {
                sum[lane] -= lik * xk[lane];
            }
        }
        let d = li[i];
        for lane in 0..LANES {
            rest[0][lane] = sum[lane] / d;
        }
    }
    let mut dot = [-0.0; LANES];
    for xi in x.iter() {
        for lane in 0..LANES {
            dot[lane] += xi[lane] * xi[lane];
        }
    }
    dot
}

/// Maps `work(scratch, offset, chunk)` over the `chunk`-sized pieces of `items` on up to
/// `threads` scoped workers and returns the results in chunk order. Workers pull chunk
/// indices from a shared counter and each owns one `scratch()` value, so a result never
/// depends on which worker produced it.
pub(crate) fn map_chunks<C, S, T>(
    items: &[C],
    chunk: usize,
    threads: usize,
    scratch: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize, &[C]) -> T + Sync,
) -> Vec<T>
where
    C: Sync,
    T: Send,
{
    let num_chunks = items.len().div_ceil(chunk);
    let threads = threads.clamp(1, num_chunks.max(1));
    if threads == 1 {
        let mut s = scratch();
        return items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, c)| work(&mut s, ci * chunk, c))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..num_chunks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut s = scratch();
                loop {
                    let ci = next.fetch_add(1, Ordering::Relaxed);
                    if ci >= num_chunks {
                        break;
                    }
                    let start = ci * chunk;
                    let r = work(
                        &mut s,
                        start,
                        &items[start..(start + chunk).min(items.len())],
                    );
                    *slots[ci].lock().expect("chunk slot poisoned") = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("chunk slot poisoned")
                .expect("every chunk was mapped")
        })
        .collect()
}
