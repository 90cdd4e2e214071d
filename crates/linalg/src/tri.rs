//! Triangular multiply and solve kernels (DTRMM / DTRSM analogues).
//!
//! The stratification T-matrix update `T_i = (D_i⁻¹ R_i)(P_iᵀ T_{i−1})` is an
//! upper-triangular times dense product, and the final Green's-function
//! assembly solves a dense system via LU, whose forward/back substitutions
//! live here. Each right-hand-side column is solved on its own, in turn.
//!
//! This module is tagged `deny_hot_alloc`: `cargo xtask lint` rejects heap
//! allocation in its non-test code unless a pragma justifies it.
#![cfg_attr(any(), deny_hot_alloc)]

use crate::matrix::Matrix;

/// `B := L⁻¹ B` with `L` unit lower triangular (strictly-lower part of `a`
/// is used; the diagonal is taken as 1). Forward substitution.
pub fn trsm_lower_unit(a: &Matrix, b: &mut Matrix) {
    let n = a.nrows();
    assert!(a.is_square(), "trsm: L must be square");
    assert_eq!(b.nrows(), n, "trsm: B row mismatch");
    for j in 0..b.ncols() {
        let col = b.col_mut(j);
        for i in 0..n {
            let xi = col[i];
            if xi != 0.0 {
                let acol = a.col(i);
                for r in (i + 1)..n {
                    col[r] -= acol[r] * xi;
                }
            }
        }
    }
    crate::check_finite!(b.as_slice(), "trsm_lower_unit output ({n}x{})", b.ncols());
}

/// `B := U⁻¹ B` with `U` upper triangular (upper part of `a` including the
/// diagonal). Back substitution. Panics on a zero diagonal.
pub fn trsm_upper(a: &Matrix, b: &mut Matrix) {
    let n = a.nrows();
    assert!(a.is_square(), "trsm: U must be square");
    assert_eq!(b.nrows(), n, "trsm: B row mismatch");
    for j in 0..b.ncols() {
        let col = b.col_mut(j);
        for i in (0..n).rev() {
            let d = a[(i, i)];
            assert!(d != 0.0, "trsm_upper: zero diagonal at {i}");
            let xi = col[i] / d;
            col[i] = xi;
            if xi != 0.0 {
                let acol = a.col(i);
                for r in 0..i {
                    col[r] -= acol[r] * xi;
                }
            }
        }
    }
    crate::check_finite!(b.as_slice(), "trsm_upper output ({n}x{})", b.ncols());
}

/// `B := U B` with `U` upper triangular (upper part of `a` incl. diagonal).
pub fn trmm_upper(a: &Matrix, b: &mut Matrix) {
    let n = a.nrows();
    assert!(a.is_square(), "trmm: U must be square");
    assert_eq!(b.nrows(), n, "trmm: B row mismatch");
    for j in 0..b.ncols() {
        let col = b.col_mut(j);
        // In-place top-down: row i of the result only needs rows ≥ i of B.
        for i in 0..n {
            let mut s = a[(i, i)] * col[i];
            for p in (i + 1)..n {
                s += a[(i, p)] * col[p];
            }
            col[i] = s;
        }
    }
    crate::check_finite!(b.as_slice(), "trmm_upper output ({n}x{})", b.ncols());
}

/// `B := Uᵀ B` with `U` upper triangular (so `Uᵀ` is lower triangular).
pub fn trmm_upper_t(a: &Matrix, b: &mut Matrix) {
    let n = a.nrows();
    assert!(a.is_square(), "trmm: U must be square");
    assert_eq!(b.nrows(), n, "trmm: B row mismatch");
    for j in 0..b.ncols() {
        let col = b.col_mut(j);
        // Row i of Uᵀ has entries U[p, i] for p ≤ i; go bottom-up.
        for i in (0..n).rev() {
            let acol = a.col(i);
            let mut s = 0.0;
            for (p, &apv) in acol.iter().enumerate().take(i + 1) {
                s += apv * col[p];
            }
            col[i] = s;
        }
    }
    crate::check_finite!(b.as_slice(), "trmm_upper_t output ({n}x{})", b.ncols());
}

/// Inverse of an upper-triangular matrix (used by tests and the recycling
/// consistency checks). Panics on zero diagonal.
// dqmc-lint: allow(unchecked_kernel) -- delegates to trsm_upper, which checks.
pub fn upper_inverse(a: &Matrix) -> Matrix {
    let n = a.nrows();
    assert!(a.is_square());
    let mut inv = Matrix::identity(n);
    trsm_upper(a, &mut inv);
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{gemm_naive, matmul, Op};
    use util::Rng;

    fn random_upper(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        Matrix::from_fn(n, n, |i, j| {
            if i < j {
                2.0 * rng.next_f64() - 1.0
            } else if i == j {
                1.0 + rng.next_f64() // well away from zero
            } else {
                0.0
            }
        })
    }

    fn random_unit_lower(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        Matrix::from_fn(n, n, |i, j| {
            if i > j {
                2.0 * rng.next_f64() - 1.0
            } else if i == j {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn lower_unit_solve_round_trip() {
        for &n in &[1usize, 5, 20, 70] {
            let l = random_unit_lower(n, n as u64);
            let mut rng = Rng::new(77);
            let x = Matrix::random(n, 3, &mut rng);
            let b = matmul(&l, Op::NoTrans, &x, Op::NoTrans);
            let mut sol = b.clone();
            trsm_lower_unit(&l, &mut sol);
            assert!(sol.max_abs_diff(&x) < 1e-10 * n as f64, "n={n}");
        }
    }

    #[test]
    fn lower_unit_ignores_diagonal_values() {
        // The stored diagonal should be treated as 1 regardless of content.
        let mut l = random_unit_lower(8, 3);
        let mut rng = Rng::new(5);
        let x = Matrix::random(8, 2, &mut rng);
        let b = matmul(&l, Op::NoTrans, &x, Op::NoTrans);
        for i in 0..8 {
            l[(i, i)] = 99.0; // garbage that must be ignored
        }
        let mut sol = b.clone();
        trsm_lower_unit(&l, &mut sol);
        assert!(sol.max_abs_diff(&x) < 1e-12);
    }

    #[test]
    fn upper_solve_round_trip() {
        for &n in &[1usize, 4, 17, 64, 90] {
            let u = random_upper(n, 10 + n as u64);
            let mut rng = Rng::new(88);
            let x = Matrix::random(n, 5, &mut rng);
            let b = matmul(&u, Op::NoTrans, &x, Op::NoTrans);
            let mut sol = b.clone();
            trsm_upper(&u, &mut sol);
            assert!(sol.max_abs_diff(&x) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn trmm_matches_gemm() {
        let n = 33;
        let u = random_upper(n, 7);
        let mut rng = Rng::new(9);
        let b0 = Matrix::random(n, 6, &mut rng);
        let mut b = b0.clone();
        trmm_upper(&u, &mut b);
        let mut reference = Matrix::zeros(n, 6);
        gemm_naive(1.0, &u, Op::NoTrans, &b0, Op::NoTrans, 0.0, &mut reference);
        assert!(b.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn trmm_t_matches_gemm() {
        let n = 21;
        let u = random_upper(n, 8);
        let mut rng = Rng::new(10);
        let b0 = Matrix::random(n, 4, &mut rng);
        let mut b = b0.clone();
        trmm_upper_t(&u, &mut b);
        let mut reference = Matrix::zeros(n, 4);
        gemm_naive(1.0, &u, Op::Trans, &b0, Op::NoTrans, 0.0, &mut reference);
        assert!(b.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn upper_inverse_is_inverse() {
        let u = random_upper(25, 13);
        let inv = upper_inverse(&u);
        let prod = matmul(&u, Op::NoTrans, &inv, Op::NoTrans);
        assert!(prod.max_abs_diff(&Matrix::identity(25)) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn zero_diagonal_panics() {
        let mut u = random_upper(4, 14);
        u[(2, 2)] = 0.0;
        let mut b = Matrix::identity(4);
        trsm_upper(&u, &mut b);
    }
}
