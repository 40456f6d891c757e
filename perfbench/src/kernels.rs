//! The kernel pass: every prediction site's forward, backward-data and
//! backward-weight kernel at that site's shapes, timed and checked
//! against a naive f64 loop written here.
//!
//! Shapes come from the site's weight (`SiteMeta`) and the output
//! activation its last recording forward pass produced. Conv sites run at
//! stride 1 with "same" padding `k / 2`, so the input has the output's
//! spatial size; FLOPs are exact from output shape x weight shape
//! (`2 * N * Ho * Wo * Cout * Cin * kh * kw` per kernel). Linear sites
//! (`y = x W^T` over `rows` activation rows) run `matmul_nt` forward,
//! `matmul` backward-data and `matmul_tn` backward-weight, each
//! `2 * rows * in * out` FLOPs. Inputs are Gaussian from the benchmark
//! seed; they contain no zeros, so no kernel skips work.

use crate::report::{median, Report};
use adagp_nn::{SiteKind, SiteMeta};
use adagp_tensor::conv::{conv2d, conv2d_backward_data, conv2d_backward_weight, Conv2dParams};
use adagp_tensor::{init, Prng, Tensor};
use std::collections::BTreeMap;
use std::time::Instant;

/// Normwise relative tolerance against the f64 reference:
/// `max |kernel - ref| <= REL_TOL * max |ref|`.
const REL_TOL: f64 = 1e-4;

/// Timed repetitions per kernel; the median counts.
const REPS: usize = 3;

/// Kernel names, as printed next to their GFLOP/s.
const CONV_FW: &str = "conv2d_fw";
const CONV_BW_DATA: &str = "conv2d_bw_data";
const CONV_BW_WEIGHT: &str = "conv2d_bw_weight";
const MATMUL: &str = "matmul";
const MATMUL_NT: &str = "matmul_nt";
const MATMUL_TN: &str = "matmul_tn";

/// The role a kernel plays in training a site, as reported in
/// `tensor.<role>.gflops`: a conv site's kernel and a linear site's GEMM
/// variant count under the same role.
fn role(kernel: &str) -> &'static str {
    match kernel {
        CONV_FW | MATMUL_NT => "fw",
        CONV_BW_DATA | MATMUL => "bw_data",
        _ => "bw_weight",
    }
}

/// One kernel pass over every site.
pub struct KernelPass {
    /// `(kernel, GFLOP/s)` over all sites that ran it.
    pub by_kernel: Vec<(&'static str, f64)>,
    /// `(role, GFLOP/s)` over all sites, for every role.
    pub by_role: Vec<(&'static str, f64)>,
    /// Summed median time of every site kernel, ms.
    pub total_ms: f64,
    /// Every kernel output, in run order (for the thread-count check).
    pub outputs: Vec<Tensor>,
}

fn time_kernel(f: &mut dyn FnMut() -> Tensor) -> (f64, Tensor) {
    let mut times = Vec::with_capacity(REPS);
    let mut out = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let y = std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
        out = Some(y);
    }
    (median(&times), out.expect("REPS > 0"))
}

/// Runs the pass. With `check`, compares every output with the f64
/// reference and records the result in `rep`.
pub fn kernel_pass(
    shapes: &[(SiteMeta, Vec<usize>)],
    seed: u64,
    check: bool,
    rep: &mut Report,
) -> KernelPass {
    let mut rng = Prng::seed_from_u64(seed);
    let mut flops: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    let mut total_s = 0.0;
    let mut outputs = Vec::new();
    let mut worst = 0.0f64;
    let mut record =
        |name: &'static str, fl: f64, (s, y): (f64, Tensor), reference: Option<Vec<f64>>| {
            let e = flops.entry(name).or_default();
            e.0 += fl;
            e.1 += s;
            total_s += s;
            if let Some(r) = reference {
                worst = worst.max(rel_err(y.data(), &r));
            }
            outputs.push(y);
        };
    for (meta, act) in shapes {
        match meta.kind {
            SiteKind::Conv2d => {
                let (co, ci, kh, kw) = (
                    meta.weight_shape[0],
                    meta.weight_shape[1],
                    meta.weight_shape[2],
                    meta.weight_shape[3],
                );
                let (n, ho, wo) = (act[0], act[2], act[3]);
                let p = Conv2dParams::new(1, kh / 2);
                let x = init::gaussian(&[n, ci, ho, wo], 0.0, 1.0, &mut rng);
                let w = init::gaussian(&meta.weight_shape, 0.0, 1.0, &mut rng);
                let dy = init::gaussian(&[n, co, ho, wo], 0.0, 1.0, &mut rng);
                let fl = 2.0 * (n * ho * wo * co * ci * kh * kw) as f64;
                let c = Conv {
                    n,
                    ci,
                    co,
                    h: ho,
                    w: wo,
                    k: kh,
                    pad: kh / 2,
                };
                record(
                    CONV_FW,
                    fl,
                    time_kernel(&mut || conv2d(&x, &w, None, &p)),
                    check.then(|| c.forward(x.data(), w.data())),
                );
                record(
                    CONV_BW_DATA,
                    fl,
                    time_kernel(&mut || conv2d_backward_data(&dy, &w, ho, wo, &p)),
                    check.then(|| c.backward_data(dy.data(), w.data())),
                );
                record(
                    CONV_BW_WEIGHT,
                    fl,
                    time_kernel(&mut || conv2d_backward_weight(&x, &dy, kh, kw, &p).0),
                    check.then(|| c.backward_weight(x.data(), dy.data())),
                );
                debug_assert_eq!(kh, kw);
            }
            SiteKind::Linear => {
                let (out, inp) = (meta.weight_shape[0], meta.weight_shape[1]);
                let rows = act[0];
                let x = init::gaussian(&[rows, inp], 0.0, 1.0, &mut rng);
                let w = init::gaussian(&[out, inp], 0.0, 1.0, &mut rng);
                let dy = init::gaussian(&[rows, out], 0.0, 1.0, &mut rng);
                let fl = 2.0 * (rows * inp * out) as f64;
                // y = x W^T; dx = dy W; dW = dy^T x.
                record(
                    MATMUL_NT,
                    fl,
                    time_kernel(&mut || x.matmul_nt(&w)),
                    check.then(|| gemm_ref(x.data(), w.data(), rows, inp, out, false, true)),
                );
                record(
                    MATMUL,
                    fl,
                    time_kernel(&mut || dy.matmul(&w)),
                    check.then(|| gemm_ref(dy.data(), w.data(), rows, out, inp, false, false)),
                );
                record(
                    MATMUL_TN,
                    fl,
                    time_kernel(&mut || dy.matmul_tn(&x)),
                    check.then(|| gemm_ref(dy.data(), x.data(), out, rows, inp, true, false)),
                );
            }
        }
    }
    if check {
        rep.check(
            "kernel outputs match the f64 reference",
            worst <= REL_TOL,
            format!("worst normwise relative error {worst:.3e} (tolerance {REL_TOL:.0e}) over {} kernels", outputs.len()),
        );
    }
    let mut roles: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (&k, &(fl, s)) in &flops {
        let e = roles.entry(role(k)).or_default();
        e.0 += fl;
        e.1 += s;
    }
    let rate = |m: BTreeMap<&'static str, (f64, f64)>| -> Vec<(&'static str, f64)> {
        m.into_iter()
            .map(|(k, (fl, s))| (k, fl / s / 1e9))
            .collect()
    };
    KernelPass {
        by_kernel: rate(flops),
        by_role: rate(roles),
        total_ms: total_s * 1e3,
        outputs,
    }
}

fn rel_err(got: &[f32], reference: &[f64]) -> f64 {
    assert_eq!(got.len(), reference.len(), "kernel output size");
    let scale = reference
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    let mut err = 0.0f64;
    for (&g, &r) in got.iter().zip(reference) {
        let d = (g as f64 - r).abs();
        if d.is_nan() {
            return f64::INFINITY;
        }
        err = err.max(d);
    }
    err / scale
}

/// `C (m, n) = op(A) op(B)` in f64, with `A` stored `(m, k)` or, when
/// `ta`, `(k, m)`; `B` stored `(k, n)` or, when `tb`, `(n, k)`.
fn gemm_ref(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, ta: bool, tb: bool) -> Vec<f64> {
    let mut c = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                let av = if ta { a[p * m + i] } else { a[i * k + p] };
                let bv = if tb { b[j * k + p] } else { b[p * n + j] };
                acc += av as f64 * bv as f64;
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// A stride-1 convolution with square kernel `k` and padding `pad` that
/// keeps the spatial size `h x w`.
struct Conv {
    n: usize,
    ci: usize,
    co: usize,
    h: usize,
    w: usize,
    k: usize,
    pad: usize,
}

impl Conv {
    /// Calls `f(x index, w index, y index)` for every multiply-add.
    fn each(&self, mut f: impl FnMut(usize, usize, usize)) {
        let (h, w, k) = (self.h, self.w, self.k);
        for n in 0..self.n {
            for co in 0..self.co {
                for oy in 0..h {
                    for ox in 0..w {
                        let yi = ((n * self.co + co) * h + oy) * w + ox;
                        for ci in 0..self.ci {
                            for ky in 0..k {
                                let iy = (oy + ky) as isize - self.pad as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = (ox + kx) as isize - self.pad as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let xi =
                                        ((n * self.ci + ci) * h + iy as usize) * w + ix as usize;
                                    let wi = ((co * self.ci + ci) * k + ky) * k + kx;
                                    f(xi, wi, yi);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn forward(&self, x: &[f32], wt: &[f32]) -> Vec<f64> {
        let mut y = vec![0.0f64; self.n * self.co * self.h * self.w];
        self.each(|xi, wi, yi| y[yi] += x[xi] as f64 * wt[wi] as f64);
        y
    }

    fn backward_data(&self, dy: &[f32], wt: &[f32]) -> Vec<f64> {
        let mut dx = vec![0.0f64; self.n * self.ci * self.h * self.w];
        self.each(|xi, wi, yi| dx[xi] += dy[yi] as f64 * wt[wi] as f64);
        dx
    }

    fn backward_weight(&self, x: &[f32], dy: &[f32]) -> Vec<f64> {
        let mut dw = vec![0.0f64; self.co * self.ci * self.k * self.k];
        self.each(|xi, wi, yi| dw[wi] += x[xi] as f64 * dy[yi] as f64);
        dw
    }
}
