//! Values the benchmark computes itself to check the program's outputs,
//! and the kernel probes of the traced run.
//!
//! Nothing here trusts the program: the GEMM reference is a triple loop,
//! the QR check multiplies the factors back with that loop, and the
//! free-fermion (U = 0) references are band sums over
//! ε_k = −2t(cos k_x + cos k_y) written out here.

use crate::report::Checks;
use crate::trace::Tracer;
use linalg::{GemmOperand, Matrix, Op};
use std::f64::consts::PI;

/// A small seeded generator for benchmark inputs (splitmix64).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

pub fn random_matrix(n: usize, rng: &mut SplitMix) -> Matrix {
    Matrix::from_fn(n, n, |_, _| rng.next_f64())
}

/// `A·B` by the textbook triple loop.
pub fn matmul_triple_loop(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
    assert_eq!(b.nrows(), k);
    Matrix::from_fn(m, n, |i, j| (0..k).map(|p| a[(i, p)] * b[(p, j)]).sum())
}

fn fro(m: &Matrix) -> f64 {
    m.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn fro_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Checks `linalg::gemm` against the triple loop and the blocked QR by
/// ‖A − QR‖/‖A‖ and ‖QᵀQ − I‖, at size `n`.
pub fn check_kernels(n: usize, seed: u64, checks: &mut Checks) {
    let mut rng = SplitMix::new(seed ^ 0x6E6D);
    let a = random_matrix(n, &mut rng);
    let b = random_matrix(n, &mut rng);
    let mut c = Matrix::zeros(n, n);
    linalg::gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c);
    let reference = matmul_triple_loop(&a, &b);
    let rel = fro_diff(&c, &reference) / fro(&reference);
    checks.check(
        &format!("gemm n={n} matches triple loop"),
        rel < 1e-13,
        format!("relative difference {rel:.3e}"),
    );

    let qr = linalg::qr::qr_in_place(a.clone());
    let q = qr.form_q();
    let r = qr.r();
    let resid = fro_diff(&matmul_triple_loop(&q, &r), &a) / fro(&a);
    checks.check(
        &format!("qr n={n} reproduces A"),
        resid < 1e-12,
        format!("|A - QR|/|A| = {resid:.3e}"),
    );
    let qtq = matmul_triple_loop(&q.transpose(), &q);
    let orth = fro_diff(&qtq, &Matrix::identity(n)) / (n as f64).sqrt();
    checks.check(
        &format!("qr n={n} Q is orthogonal"),
        orth < 1e-12,
        format!("|QtQ - I|/sqrt(n) = {orth:.3e}"),
    );
}

/// Band energy ε_k = −2t(cos k_x + cos k_y).
pub fn epsilon(kx: f64, ky: f64, t: f64) -> f64 {
    -2.0 * t * (kx.cos() + ky.cos())
}

/// Fermi factor at μ = 0.
pub fn fermi(eps: f64, beta: f64) -> f64 {
    1.0 / ((beta * eps).exp() + 1.0)
}

/// Free-fermion kinetic energy per site on an `l × l` periodic lattice at
/// half filling: (2/N) Σ_k ε_k f(ε_k), both spins.
pub fn band_kinetic(l: usize, t: f64, beta: f64) -> f64 {
    let mut sum = 0.0;
    for nx in 0..l {
        for ny in 0..l {
            let (kx, ky) = (
                2.0 * PI * nx as f64 / l as f64,
                2.0 * PI * ny as f64 / l as f64,
            );
            let e = epsilon(kx, ky, t);
            sum += e * fermi(e, beta);
        }
    }
    2.0 * sum / (l * l) as f64
}

/// Checks a U = 0 point's ⟨n_k⟩ along Γ→M→X→Γ against the Fermi factors.
/// At U = 0 every configuration has the same Green's function, so there is
/// neither statistical nor Trotter error: only rounding remains.
pub fn check_free_nk(sim: &dqmc::Simulation, label: &str, checks: &mut Checks) {
    let model = &sim.params().model;
    let (lat, beta) = (&model.lattice, model.beta());
    let nk = sim.observables().momentum_distribution();
    let mut worst: f64 = 0.0;
    for p in lattice::symmetry_path(lat) {
        let want = fermi(epsilon(p.kx, p.ky, lat.t()), beta);
        worst = worst.max((nk[(p.nx, p.ny)] - want).abs());
    }
    checks.check(
        &format!("{label}: U=0 <n_k> equals Fermi factors"),
        worst < 1e-9,
        format!("max |n_k - f(e_k)| = {worst:.3e}"),
    );
}

/// Checks a U = 0 point's kinetic energy and density in an observables
/// JSON fragment (`{"point":..,"kinetic":{"value":..}}`).
pub fn check_free_point(json: &str, l: usize, t: f64, beta: f64, label: &str, checks: &mut Checks) {
    let kin = json_value(json, "kinetic");
    let want = band_kinetic(l, t, beta);
    let ok = kin.is_some_and(|k| (k - want).abs() < 1e-9 * want.abs().max(1.0));
    checks.check(
        &format!("{label}: U=0 kinetic energy equals band sum"),
        ok,
        format!("got {kin:?}, band sum {want}"),
    );
    let rho = json_value(json, "density");
    checks.check(
        &format!("{label}: U=0 density is 1"),
        rho.is_some_and(|r| (r - 1.0).abs() < 1e-10),
        format!("got {rho:?}"),
    );
}

/// `"key":{"value":X` → X, from the program's observables JSON.
pub fn json_value(json: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":{{\"value\":");
    let rest = &json[json.find(&tag)? + tag.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// The observables fragment of point `index` in a whole-grid document.
pub fn point_fragment(doc: &str, index: usize) -> Option<&str> {
    let tag = format!("{{\"point\":{index},");
    let start = doc.find(&tag)?;
    let rest = &doc[start..];
    // A fragment nests one level of objects per observable.
    let mut depth = 0usize;
    for (i, ch) in rest.char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Times one call per span and returns the median span duration in ms.
/// Repeats until at least `min_reps` calls and 60 ms have been spent, or
/// 500 calls have been made.
pub fn time_spans(
    tracer: &Tracer,
    name: &'static str,
    min_reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    let start = std::time::Instant::now();
    let mut reps = 0;
    while reps < min_reps || (start.elapsed().as_secs_f64() < 0.06 && reps < 500) {
        tracer.span(name, reps as u64, &mut f);
        reps += 1;
    }
    let d = tracer.durations_ms(name);
    crate::stats::median(&d[d.len() - reps..])
}

/// GFLOP/s of GEMM, QR and the width-4 strided-batched GEMM at size `n`,
/// each from the median of its spans.
pub fn kernel_rates(tracer: &Tracer, n: usize, seed: u64) -> (f64, f64, f64) {
    let mut rng = SplitMix::new(seed ^ 0x4B52);
    let a = random_matrix(n, &mut rng);
    let b = random_matrix(n, &mut rng);
    let mut c = Matrix::zeros(n, n);
    let nf = n as f64;
    let gemm_ms = time_spans(tracer, "linalg.gemm", 9, || {
        linalg::gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c);
    });
    let qr_ms = time_spans(tracer, "linalg.qr", 9, || {
        std::hint::black_box(linalg::qr::qr_in_place(a.clone()));
    });
    let bs: Vec<Matrix> = (0..4).map(|_| random_matrix(n, &mut rng)).collect();
    let b_refs: Vec<&Matrix> = bs.iter().collect();
    let mut cs: Vec<Matrix> = (0..4).map(|_| Matrix::zeros(n, n)).collect();
    let batched_ms = time_spans(tracer, "linalg.batched_gemm", 9, || {
        let mut c_refs: Vec<&mut Matrix> = cs.iter_mut().collect();
        linalg::dgemm_strided_batched(
            1.0,
            GemmOperand::Shared(&a),
            Op::NoTrans,
            GemmOperand::Each(&b_refs),
            Op::NoTrans,
            0.0,
            &mut c_refs,
        );
    });
    let gemm_flops = 2.0 * nf * nf * nf;
    (
        gemm_flops / (gemm_ms * 1e6),
        // Householder QR of a square matrix: 4/3 n³ flops.
        4.0 / 3.0 * nf * nf * nf / (qr_ms * 1e6),
        4.0 * gemm_flops / (batched_ms * 1e6),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers() {
        let doc =
            "{\"seed\":1,\"points\":[{\"point\":0,\"u\":0,\"kinetic\":{\"value\":-1.5,\"err\":0},\
                   \"density\":{\"value\":1,\"err\":0}},{\"point\":1,\"u\":4}]}";
        let p0 = point_fragment(doc, 0).expect("point 0");
        assert_eq!(json_value(p0, "kinetic"), Some(-1.5));
        assert_eq!(json_value(p0, "density"), Some(1.0));
        assert_eq!(point_fragment(doc, 1), Some("{\"point\":1,\"u\":4}"));
    }

    #[test]
    fn band_sum_is_negative_and_symmetric() {
        let e = band_kinetic(4, 1.0, 1.0);
        assert!(e < 0.0);
        // Infinite temperature: every level half filled, the band sums to zero.
        assert!(band_kinetic(6, 1.0, 1e-12).abs() < 1e-9);
    }
}
