//! Cross-kernel equivalence: the runtime-dispatched FMA micro-kernel and the
//! portable scalar micro-kernel must agree to rounding error on every GEMM
//! shape the solvers produce.
//!
//! Both paths share packing, blocking, and the small-matrix fallback; only
//! the innermost register tile differs (8×6 AVX2+FMA vs 8×4 scalar). A fused
//! multiply-add rounds once where the scalar path rounds twice, so results
//! are *not* bit-identical — the contract is agreement within an
//! accumulation-length-scaled ulp bound, verified here against shapes that
//! stress every edge: sub-tile sizes, prime dimensions, tile boundaries,
//! cache-block boundaries, all four transpose combinations, and the
//! alpha/beta special cases the dispatcher short-circuits.
//!
//! The whole suite also runs under `LINALG_KERNEL=scalar` in CI, which
//! pins the dispatcher itself; here we bypass the process-wide cache via
//! `gemm_with_kernel` so one process covers both paths.

use linalg::blas3::gemm_naive;
use linalg::{gemm_with_kernel, KernelPath, Matrix, Op};

/// Elementwise tolerance for comparing two summation orders of a length-`k`
/// dot product with |entries| ≤ 1: a couple of ulps per accumulation step.
fn tol(k: usize, alpha: f64, beta: f64) -> f64 {
    let scale = alpha.abs() * (k as f64) + beta.abs() + 1.0;
    2.0 * f64::EPSILON * (k as f64 + 4.0) * scale
}

/// Runs one GEMM on both kernel paths (and the naive reference) and checks
/// pairwise agreement. Returns silently when the FMA path is unavailable on
/// the host — the scalar-vs-naive check still runs.
fn check_case(m: usize, n: usize, k: usize, alpha: f64, beta: f64, opa: Op, opb: Op, seed: u64) {
    let mut rng = util::Rng::new(seed);
    let a = match opa {
        Op::NoTrans => Matrix::random(m, k, &mut rng),
        Op::Trans => Matrix::random(k, m, &mut rng),
    };
    let b = match opb {
        Op::NoTrans => Matrix::random(k, n, &mut rng),
        Op::Trans => Matrix::random(n, k, &mut rng),
    };
    let c0 = Matrix::random(m, n, &mut rng);

    let mut c_ref = c0.clone();
    gemm_naive(alpha, &a, opa, &b, opb, beta, &mut c_ref);
    let mut c_scalar = c0.clone();
    gemm_with_kernel(
        KernelPath::Scalar,
        alpha,
        &a,
        opa,
        &b,
        opb,
        beta,
        &mut c_scalar,
    );

    let t = tol(k, alpha, beta);
    let label = format!("m={m} n={n} k={k} α={alpha} β={beta} {opa:?}/{opb:?}");
    assert!(
        c_scalar.max_abs_diff(&c_ref) <= t,
        "scalar vs naive: {} > {t} ({label})",
        c_scalar.max_abs_diff(&c_ref)
    );

    if KernelPath::Fma.available() {
        let mut c_fma = c0.clone();
        gemm_with_kernel(KernelPath::Fma, alpha, &a, opa, &b, opb, beta, &mut c_fma);
        assert!(
            c_fma.max_abs_diff(&c_scalar) <= t,
            "fma vs scalar: {} > {t} ({label})",
            c_fma.max_abs_diff(&c_scalar)
        );
    }
}

#[test]
fn paths_agree_on_edge_and_prime_sizes() {
    // Sub-tile, exact-tile, tile+1, primes, and a size past the KC=256 and
    // MC/NC cache-block boundaries.
    let sizes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (2, 3, 5),
        (7, 7, 7),
        (8, 6, 8), // exactly one FMA tile
        (8, 4, 8), // exactly one scalar tile
        (9, 7, 9), // one past both tile shapes
        (16, 12, 16),
        (17, 13, 31),
        (61, 53, 67),
        (129, 127, 257), // crosses MC, NR-block, and KC boundaries
    ];
    for (i, &(m, n, k)) in sizes.iter().enumerate() {
        check_case(m, n, k, 1.0, 0.0, Op::NoTrans, Op::NoTrans, 100 + i as u64);
    }
}

#[test]
fn paths_agree_on_all_op_combinations() {
    let ops = [Op::NoTrans, Op::Trans];
    let mut seed = 200;
    for &opa in &ops {
        for &opb in &ops {
            for &(m, n, k) in &[(13, 11, 17), (64, 48, 64), (97, 89, 101)] {
                check_case(m, n, k, 1.0, 1.0, opa, opb, seed);
                seed += 1;
            }
        }
    }
}

#[test]
fn paths_agree_on_alpha_beta_grid() {
    for (i, &alpha) in [0.0, 1.0, -0.5].iter().enumerate() {
        for (j, &beta) in [0.0, 1.0, -0.5].iter().enumerate() {
            check_case(
                33,
                29,
                41,
                alpha,
                beta,
                Op::NoTrans,
                Op::Trans,
                300 + (3 * i + j) as u64,
            );
        }
    }
}

#[test]
fn dispatched_default_matches_pinned_path() {
    // Whatever `kernel_path()` picked for this process must equal one of the
    // two pinned paths bit-for-bit (the dispatcher adds no third behaviour).
    let mut rng = util::Rng::new(400);
    let a = Matrix::random(37, 43, &mut rng);
    let b = Matrix::random(43, 31, &mut rng);
    let c0 = Matrix::random(37, 31, &mut rng);

    let mut c_default = c0.clone();
    linalg::gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 1.0, &mut c_default);
    let mut c_pinned = c0.clone();
    gemm_with_kernel(
        linalg::kernel_path(),
        1.0,
        &a,
        Op::NoTrans,
        &b,
        Op::NoTrans,
        1.0,
        &mut c_pinned,
    );
    assert_eq!(
        c_default.as_slice(),
        c_pinned.as_slice(),
        "dispatched gemm must be the pinned kernel, exactly"
    );
}

#[test]
fn unavailable_fma_request_falls_back_to_scalar_semantics() {
    // `gemm_with_kernel(Fma, …)` on any host must produce a valid product
    // (scalar fallback when the ISA is missing) — never garbage or a panic.
    let mut rng = util::Rng::new(500);
    let a = Matrix::random(19, 23, &mut rng);
    let b = Matrix::random(23, 17, &mut rng);
    let mut c = Matrix::zeros(19, 17);
    gemm_with_kernel(
        KernelPath::Fma,
        1.0,
        &a,
        Op::NoTrans,
        &b,
        Op::NoTrans,
        0.0,
        &mut c,
    );
    let mut c_ref = Matrix::zeros(19, 17);
    gemm_naive(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c_ref);
    assert!(c.max_abs_diff(&c_ref) <= tol(23, 1.0, 0.0));
}

#[test]
fn factorizations_identical_numerics_across_paths() {
    // QR/QRP/LU consume GEMM through `gemm`; pinning the path through the
    // same inputs must keep their *invariants* (reconstruction) intact on
    // both kernels. This is the in-process analogue of the CI job that
    // reruns the whole suite under LINALG_KERNEL=scalar.
    use linalg::blas3::matmul;
    let n = 48;
    let mut rng = util::Rng::new(600);
    let a = Matrix::random(n, n, &mut rng);

    let f = linalg::qr::qr_in_place(a.clone());
    let q = f.form_q();
    let r = Matrix::from_fn(n, n, |i, j| if i <= j { f.a[(i, j)] } else { 0.0 });
    let rec = matmul(&q, Op::NoTrans, &r, Op::NoTrans);
    assert!(rec.max_abs_diff(&a) < 1e-12 * n as f64);

    let fp = linalg::qrp::qrp_in_place(a.clone());
    let d = fp.r_diag();
    for w in d.windows(2) {
        assert!(w[0].abs() >= w[1].abs() * (1.0 - 1e-9), "R diagonal graded");
    }
}

/// Folds a slice of `f64` bit patterns into an FNV-1a digest.
fn digest(xs: &[f64]) -> u64 {
    let mut h = util::Fnv1a::new();
    for &x in xs {
        h.update_f64(x);
    }
    h.finish()
}

/// Seeded runs of the GEMM, strided-batch, pivoted-QR, TSQR, scaling and
/// triangular kernels at N = 300. Each entry is the FNV-1a digest of the
/// kernel's output bytes.
fn kernel_digests() -> Vec<(&'static str, u64)> {
    use linalg::{dgemm_strided_batched, qrp_batched, GemmOperand};
    let n = 300;
    let mut rng = util::Rng::new(900);
    let a = Matrix::random(n, n, &mut rng);
    let b = Matrix::random(n, n, &mut rng);
    let mut out = Vec::new();

    let mut c = Matrix::random(n, n, &mut rng);
    linalg::gemm(0.75, &a, Op::NoTrans, &b, Op::Trans, 0.5, &mut c);
    out.push(("gemm", digest(c.as_slice())));

    let bs: Vec<Matrix> = (0..3).map(|_| Matrix::random(n, n, &mut rng)).collect();
    let brefs: Vec<&Matrix> = bs.iter().collect();
    let mut cs: Vec<Matrix> = (0..3).map(|_| Matrix::zeros(n, n)).collect();
    let mut crefs: Vec<&mut Matrix> = cs.iter_mut().collect();
    dgemm_strided_batched(
        1.0,
        GemmOperand::Shared(&a),
        Op::NoTrans,
        GemmOperand::Each(&brefs),
        Op::Trans,
        0.0,
        &mut crefs,
    );
    let flat: Vec<f64> = cs.iter().flat_map(|c| c.as_slice().to_vec()).collect();
    out.push(("dgemm_strided_batched", digest(&flat)));

    let qrp_digest = |f: &linalg::QrpFactors| {
        let mut h = util::Fnv1a::new();
        h.update_u64(digest(f.a.as_slice()));
        h.update_u64(digest(&f.tau));
        for &p in &f.jpvt {
            h.update_u64(p as u64);
        }
        h.finish()
    };
    out.push((
        "qrp_in_place",
        qrp_digest(&linalg::qrp::qrp_in_place(a.clone())),
    ));
    let mut h = util::Fnv1a::new();
    for f in &qrp_batched(bs.clone()) {
        h.update_u64(qrp_digest(f));
    }
    out.push(("qrp_batched", h.finish()));

    // 8 leaf blocks: three combine levels.
    let tall = Matrix::random(1200, 48, &mut rng);
    let t = linalg::tsqr(&tall, 150);
    let mut h = util::Fnv1a::new();
    h.update_u64(digest(t.q.as_slice()));
    h.update_u64(digest(t.r.as_slice()));
    out.push(("tsqr", h.finish()));

    let d: Vec<f64> = (0..n).map(|i| 0.5 + i as f64 / n as f64).collect();
    let e: Vec<f64> = (0..n).map(|i| 2.0 - i as f64 / n as f64).collect();
    let mut s = a.clone();
    linalg::scale::row_scale(&d, &mut s);
    linalg::scale::col_scale(&e, &mut s);
    linalg::scale::row_scale_inv(&e, &mut s);
    linalg::scale::row_col_scale(&e, &d, &mut s);
    let mut h = util::Fnv1a::new();
    h.update_u64(digest(s.as_slice()));
    h.update_u64(digest(&linalg::scale::col_norms(&s)));
    out.push(("scale", h.finish()));

    // Well-conditioned triangles: a damped unit-lower L and a diagonally
    // dominant upper U.
    let l = Matrix::from_fn(n, n, |i, j| a[(i, j)] / n as f64);
    let u = Matrix::from_fn(n, n, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Less => a[(i, j)] / n as f64,
        std::cmp::Ordering::Equal => 2.0 + a[(i, i)].abs(),
        std::cmp::Ordering::Greater => 0.0,
    });
    let mut x = b.clone();
    linalg::tri::trsm_lower_unit(&l, &mut x);
    linalg::tri::trsm_upper(&u, &mut x);
    linalg::tri::trmm_upper(&u, &mut x);
    linalg::tri::trmm_upper_t(&u, &mut x);
    out.push(("tri", digest(x.as_slice())));
    out
}

/// Output bytes recorded per micro-kernel path. Any change to a kernel's
/// loop schedule must leave these unchanged: the byte-identity tiers only
/// compare two runs of one build, so this is the check that spans builds.
const GOLDEN_SCALAR: &[(&str, u64)] = &[
    ("gemm", 0x24a8d8891053dd50),
    ("dgemm_strided_batched", 0x5432a99ad30d119b),
    ("qrp_in_place", 0xc6194c66d2268599),
    ("qrp_batched", 0xde01ca6fb0b01c8b),
    ("tsqr", 0xaf55ac1260df52b6),
    ("scale", 0xfa715b4263229e96),
    ("tri", 0xc320633bfd3786e6),
];
const GOLDEN_FMA: &[(&str, u64)] = &[
    ("gemm", 0x849c6802d7416ed8),
    ("dgemm_strided_batched", 0x4a5112a3d9962d82),
    ("qrp_in_place", 0xc8ece7f6532f2685),
    ("qrp_batched", 0x750578f7613f7d17),
    ("tsqr", 0x9c22cf251a8dbd1b),
    ("scale", 0xfa715b4263229e96),
    ("tri", 0xc320633bfd3786e6),
];

#[test]
fn kernel_outputs_match_golden_digests() {
    let golden = match linalg::kernel_path() {
        KernelPath::Scalar => GOLDEN_SCALAR,
        KernelPath::Fma => GOLDEN_FMA,
    };
    let got = kernel_digests();
    let shown: Vec<String> = got
        .iter()
        .map(|(k, d)| format!("(\"{k}\", {d:#018x}),"))
        .collect();
    assert_eq!(
        got,
        golden,
        "{:?} kernel digests changed:\n{}",
        linalg::kernel_path(),
        shown.join("\n")
    );
}
