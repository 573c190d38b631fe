//! `cholesky`: the paper's Figure 4 left-looking tiled Cholesky
//! (`smpss_apps::cholesky::cholesky_hyper`) on a seeded SPD matrix with
//! the tuned kernels. Kernels do almost all the work.

use smpss::Runtime;
use smpss_apps::cholesky::cholesky_hyper;
use smpss_apps::{FlatMatrix, HyperMatrix};
use smpss_blas::{flops, Block, Vendor};

use crate::measure::{run_rep, Decls, Rep, Workload};
use crate::trace::{now_ns, object_producers, Probe, Spans};
use crate::SplitMix64;

const VENDOR: Vendor = Vendor::Tuned;

/// Largest accepted `max |L - L_ref|` over the lower triangle, relative
/// to `max |L_ref|`. The runtime applies the same kernels to each tile
/// in the same order as the sequential reference, so the two agree
/// bit for bit today; the tolerance leaves room for a reordering that
/// only changes rounding.
pub const TILE_TOL: f32 = 1e-4;

/// Largest accepted `‖L·Lᵀ·x − A·x‖∞ / ‖A·x‖∞` for a seeded vector `x`:
/// a check that does not use the kernels under test.
pub const RESIDUAL_TOL: f32 = 1e-4;

const KINDS: &[&str] = &["sgemm_t", "ssyrk_t", "spotrf_t", "strsm_t"];

/// One task of Figure 4, on tile coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tile {
    /// `a(i,j) -= a(i,k) · a(j,k)ᵀ`
    Gemm { i: usize, j: usize, k: usize },
    /// `a(j,j) -= a(j,i) · a(j,i)ᵀ`
    Syrk { i: usize, j: usize },
    /// `a(j,j) = chol(a(j,j))`
    Potrf { j: usize },
    /// `a(i,j) = a(i,j) · a(j,j)⁻ᵀ`
    Trsm { i: usize, j: usize },
}

/// Figure 4's task sequence for an `n x n` tile grid.
pub fn sequence(n: usize) -> Vec<Tile> {
    let mut v = Vec::new();
    for j in 0..n {
        for k in 0..j {
            for i in j + 1..n {
                v.push(Tile::Gemm { i, j, k });
            }
        }
        for i in 0..j {
            v.push(Tile::Syrk { i, j });
        }
        v.push(Tile::Potrf { j });
        for i in j + 1..n {
            v.push(Tile::Trsm { i, j });
        }
    }
    v
}

impl Tile {
    /// `(tile, reads, writes)` of each parameter, in declaration order.
    fn accesses(self, n: usize) -> Vec<(usize, bool, bool)> {
        let t = |i: usize, j: usize| i * n + j;
        match self {
            Tile::Gemm { i, j, k } => vec![
                (t(i, k), true, false),
                (t(j, k), true, false),
                (t(i, j), true, true),
            ],
            Tile::Syrk { i, j } => vec![(t(j, i), true, false), (t(j, j), true, true)],
            Tile::Potrf { j } => vec![(t(j, j), true, true)],
            Tile::Trsm { i, j } => vec![(t(j, j), true, false), (t(i, j), true, true)],
        }
    }

    fn kind(self) -> u8 {
        match self {
            Tile::Gemm { .. } => 0,
            Tile::Syrk { .. } => 1,
            Tile::Potrf { .. } => 2,
            Tile::Trsm { .. } => 3,
        }
    }
}

pub struct Cholesky {
    input: FlatMatrix,
    m: usize,
    seq: Vec<Tile>,
    /// The sequential reference factor (lower triangle).
    reference: FlatMatrix,
    /// `max |L_ref|` over the lower triangle.
    scale: f32,
    /// `x` and `A·x` for the residual check.
    x: Vec<f32>,
    ax: Vec<f32>,
    seq_s: f64,
}

impl Cholesky {
    /// A seeded SPD `dim x dim` matrix in `m x m` tiles: symmetric
    /// entries in `[-0.5, 0.5)` plus `dim` on the diagonal (strictly
    /// diagonally dominant, hence positive definite).
    pub fn new(seed: u64, dim: usize, m: usize) -> Self {
        assert!(
            dim.is_multiple_of(m),
            "matrix dimension must be a multiple of the tile size"
        );
        let mut rng = SplitMix64::new(seed);
        let mut input = FlatMatrix::zeros(dim);
        for i in 0..dim {
            for j in 0..=i {
                let v = rng.unit() - 0.5 + if i == j { dim as f32 } else { 0.0 };
                input.set(i, j, v);
                input.set(j, i, v);
            }
        }
        let x: Vec<f32> = (0..dim).map(|_| rng.unit() - 0.5).collect();
        let ax = mat_vec(&input, &x, |_, _| true);
        let n = dim / m;
        let seq = sequence(n);
        let t = now_ns();
        let reference = sequential(&input, m, &seq);
        let seq_s = (now_ns() - t) as f64 * 1e-9;
        let scale = reference.max_abs_diff_lower(&FlatMatrix::zeros(dim));
        Cholesky {
            input,
            m,
            seq,
            reference,
            scale,
            x,
            ax,
            seq_s,
        }
    }

    /// Check a factor: against the sequential tile reference, and by the
    /// residual of `L·Lᵀ·x` against `A·x`.
    pub fn check(&self, l: &FlatMatrix) -> Result<(), String> {
        let diff = l.max_abs_diff_lower(&self.reference);
        if diff.is_nan() || diff > TILE_TOL * self.scale {
            return Err(format!(
                "factor differs from the sequential tiles by {diff}"
            ));
        }
        let lower = |i: usize, j: usize| i >= j;
        let ltx = mat_vec_t(l, &self.x, lower);
        let llx = mat_vec(l, &ltx, lower);
        let (mut err, mut norm) = (0.0f32, 0.0f32);
        for (a, b) in llx.iter().zip(&self.ax) {
            err = err.max((a - b).abs());
            norm = norm.max(b.abs());
        }
        if err.is_nan() || err > RESIDUAL_TOL * norm {
            return Err(format!("residual {} exceeds {RESIDUAL_TOL}", err / norm));
        }
        Ok(())
    }

    /// Figure 4 spawned task by task through the public spawner API,
    /// stamping each boundary through `p`.
    pub fn spawn<P: Probe>(&self, rt: &Runtime, a: &HyperMatrix, p: P) {
        let mut t0 = p.now();
        for (idx, &t) in self.seq.iter().enumerate() {
            let (t1, t2);
            match t {
                Tile::Gemm { i, j, k } => {
                    let mut sp = rt.task("sgemm_t");
                    t1 = p.now();
                    let mut x = sp.read(a.block(i, k));
                    let mut y = sp.read(a.block(j, k));
                    let mut c = sp.inout(a.block(i, j));
                    t2 = p.now();
                    sp.submit(move || {
                        let s = p.now();
                        VENDOR.gemm_nt_sub(x.get(), y.get(), c.get_mut());
                        p.ran(idx, s);
                    });
                }
                Tile::Syrk { i, j } => {
                    let mut sp = rt.task("ssyrk_t");
                    t1 = p.now();
                    let mut x = sp.read(a.block(j, i));
                    let mut c = sp.inout(a.block(j, j));
                    t2 = p.now();
                    sp.submit(move || {
                        let s = p.now();
                        VENDOR.syrk_sub(x.get(), c.get_mut());
                        p.ran(idx, s);
                    });
                }
                Tile::Potrf { j } => {
                    let mut sp = rt.task("spotrf_t");
                    t1 = p.now();
                    let mut c = sp.inout(a.block(j, j));
                    t2 = p.now();
                    sp.submit(move || {
                        let s = p.now();
                        VENDOR
                            .potrf(c.get_mut())
                            .expect("diagonal block is not positive definite");
                        p.ran(idx, s);
                    });
                }
                Tile::Trsm { i, j } => {
                    let mut sp = rt.task("strsm_t");
                    t1 = p.now();
                    let mut l = sp.read(a.block(j, j));
                    let mut c = sp.inout(a.block(i, j));
                    t2 = p.now();
                    sp.submit(move || {
                        let s = p.now();
                        VENDOR.trsm_rlt(l.get(), c.get_mut());
                        p.ran(idx, s);
                    });
                }
            }
            let t3 = p.now();
            p.spawned(idx, [t0, t1, t2, t3]);
            t0 = t3;
        }
    }

    #[cfg(test)]
    pub(crate) fn reference(&self) -> &FlatMatrix {
        &self.reference
    }
}

/// The sequential program: the same kernels on plain tiles, in Figure
/// 4's order, with no runtime.
pub fn sequential(a: &FlatMatrix, m: usize, seq: &[Tile]) -> FlatMatrix {
    let n = a.dim() / m;
    let mut tiles: Vec<Block> = (0..n * n)
        .map(|idx| {
            let mut b = Block::zeros(m);
            a.copy_block_out(m, idx / n, idx % n, &mut b);
            b
        })
        .collect();
    for &t in seq {
        let acc = t.accesses(n);
        let (out, _, _) = *acc.last().expect("every task writes one tile");
        let mut c = std::mem::replace(&mut tiles[out], Block::zeros(1));
        match t {
            Tile::Gemm { .. } => VENDOR.gemm_nt_sub(&tiles[acc[0].0], &tiles[acc[1].0], &mut c),
            Tile::Syrk { .. } => VENDOR.syrk_sub(&tiles[acc[0].0], &mut c),
            Tile::Potrf { .. } => VENDOR.potrf(&mut c).expect("input is positive definite"),
            Tile::Trsm { .. } => VENDOR.trsm_rlt(&tiles[acc[0].0], &mut c),
        }
        tiles[out] = c;
    }
    let mut l = FlatMatrix::zeros(a.dim());
    for (idx, b) in tiles.iter().enumerate() {
        l.copy_block_in(m, idx / n, idx % n, b);
    }
    std::hint::black_box(l)
}

/// `y = M·x` over the entries where `keep(i, j)`.
fn mat_vec(mat: &FlatMatrix, x: &[f32], keep: impl Fn(usize, usize) -> bool) -> Vec<f32> {
    let n = mat.dim();
    (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| keep(i, j))
                .map(|j| mat.at(i, j) * x[j])
                .sum()
        })
        .collect()
}

/// `y = Mᵀ·x` over the entries of `M` where `keep(i, j)`.
fn mat_vec_t(mat: &FlatMatrix, x: &[f32], keep: impl Fn(usize, usize) -> bool) -> Vec<f32> {
    let n = mat.dim();
    let mut y = vec![0.0; n];
    for (i, xi) in x.iter().enumerate() {
        for j in (0..n).filter(|&j| keep(i, j)) {
            y[j] += mat.at(i, j) * xi;
        }
    }
    y
}

impl Workload for Cholesky {
    fn tasks(&self) -> usize {
        self.seq.len()
    }
    fn flops(&self) -> Option<f64> {
        Some(flops::cholesky_total(self.input.dim()))
    }
    fn decls(&self) -> Decls {
        let n = self.input.dim() / self.m;
        let object = self.seq.iter().map(|t| t.accesses(n).len() as u64).sum();
        Decls {
            object,
            region: 0,
            object_writes: self.seq.len() as u64,
        }
    }
    fn kind_names(&self) -> &'static [&'static str] {
        KINDS
    }
    fn kinds(&self) -> Vec<u8> {
        self.seq.iter().map(|t| t.kind()).collect()
    }
    fn gemm_flops(&self) -> f64 {
        flops::gemm_nt(self.m)
    }
    fn producers(&self) -> (Vec<u32>, Vec<u32>) {
        let n = self.input.dim() / self.m;
        object_producers(n * n, self.seq.iter().map(|t| t.accesses(n)))
    }
    fn seq_s(&self) -> f64 {
        self.seq_s
    }
    fn rep(&self, threads: usize, spans: Option<&'static Spans>) -> Rep {
        run_rep(
            self.tasks(),
            |_| (),
            |()| {
                let rt = Runtime::builder().threads(threads).build();
                let a = HyperMatrix::from_flat(&rt, &self.input, self.m);
                (rt, a)
            },
            |rt, a| match spans {
                None => cholesky_hyper(rt, a, VENDOR),
                Some(s) => self.spawn(rt, a, s),
            },
            |rt, a| self.check(&a.to_flat(rt)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NoProbe;

    fn small() -> Cholesky {
        Cholesky::new(11, 96, 16)
    }

    #[test]
    fn check_accepts_the_runtime_result() {
        let w = small();
        for spans in [None, Some(Spans::leak(w.tasks()))] {
            let rep = w.rep(2, spans);
            assert!(rep.correct);
            assert_eq!(rep.stats.tasks_executed as usize, w.tasks());
        }
    }

    #[test]
    fn check_rejects_a_flipped_element() {
        let w = small();
        let mut l = w.reference().clone();
        assert!(w.check(&l).is_ok());
        l.set(40, 7, -l.at(40, 7));
        assert!(w.check(&l).is_err());
    }

    #[test]
    fn check_rejects_a_swapped_pair() {
        let w = small();
        let mut l = w.reference().clone();
        let (a, b) = (l.at(50, 3), l.at(50, 4));
        l.set(50, 3, b);
        l.set(50, 4, a);
        assert!(w.check(&l).is_err());
    }

    #[test]
    fn reference_matches_the_unblocked_factorisation() {
        let w = small();
        let mut full = w.input.clone();
        full.cholesky_ref();
        assert!(full.max_abs_diff_lower(w.reference()) < 1e-3);
    }

    /// The instrumented spawn code issues exactly the graph the
    /// application's `cholesky_hyper` issues.
    #[test]
    fn spawn_matches_the_application() {
        let w = small();
        let graph = |app: bool| {
            let rt = Runtime::builder().threads(1).record_graph(true).build();
            let a = HyperMatrix::from_flat(&rt, &w.input, w.m);
            if app {
                cholesky_hyper(&rt, &a, VENDOR);
            } else {
                w.spawn(&rt, &a, NoProbe);
            }
            rt.barrier();
            rt.graph().expect("graph recording is on").to_text()
        };
        assert_eq!(graph(true), graph(false));
    }
}
