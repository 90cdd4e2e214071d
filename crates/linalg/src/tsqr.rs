//! Communication-avoiding tall-skinny QR (TSQR).
//!
//! The paper's outlook leans on exactly this family of algorithms: its
//! refs [31]/[32] are the tile-QR multicore papers and [35] is
//! "Communication-Avoiding QR Decomposition for GPUs" (Anderson et al.,
//! IPDPS 2011) — the kernel the authors planned to move the stratification
//! onto. TSQR factors an `m × n` panel (`m ≫ n`) by QR-ing independent row
//! blocks and combining the small R factors up a binary tree; each block
//! factorization is independent, so the tree needs no inter-block
//! communication until the (tiny) combine steps.
//!
//! Here the row-block factorizations run one after another, and the
//! explicit thin Q is reconstructed down the tree. Same `A = Q R`
//! contract as [`crate::qr`] (R's diagonal sign convention may differ;
//! both are valid QRs).

use crate::blas3::{gemm, Op};
use crate::matrix::Matrix;
use crate::qr::qr_in_place;

/// Result of a TSQR factorization: thin, explicit factors.
#[derive(Clone, Debug)]
pub struct Tsqr {
    /// `m × n` with orthonormal columns.
    pub q: Matrix,
    /// `n × n` upper triangular.
    pub r: Matrix,
}

/// Factors `A = Q R` by blocked TSQR with row blocks of at least
/// `block_rows` rows (clamped to `≥ n` so every block is tall).
pub fn tsqr(a: &Matrix, block_rows: usize) -> Tsqr {
    let m = a.nrows();
    let n = a.ncols();
    assert!(m >= n, "tsqr: need m ≥ n");
    let br = block_rows.max(n);
    let nblocks = (m / br).max(1);
    if nblocks == 1 {
        let f = qr_in_place(a.clone());
        let r = thin_r(&f.a, n);
        let q = thin_q(&f, n);
        crate::check_orthogonal!(&q, 1e-11 * m.max(4) as f64, "tsqr single-block Q ({m}x{n})");
        return Tsqr { q, r };
    }

    // Level 0: independent QRs of the row blocks. The last block
    // absorbs the remainder so every block stays tall (≥ br ≥ n rows).
    let blocks: Vec<(usize, usize)> = (0..nblocks)
        .map(|b| {
            let lo = b * br;
            let hi = if b + 1 == nblocks { m } else { (b + 1) * br };
            (lo, hi)
        })
        .collect();
    let leaf_qr = |&(lo, hi): &(usize, usize)| {
        let f = qr_in_place(a.submatrix(lo, 0, hi - lo, n));
        (thin_q(&f, n), thin_r(&f.a, n))
    };
    let level0: Vec<(Matrix, Matrix)> = blocks.iter().map(leaf_qr).collect();

    // Combine up a binary tree; record the combine Qs to rebuild Q later.
    // state: per surviving leaf range, the current R; tree: per level, the
    // (2n × n or n × n carried) combine Q factors.
    let mut rs: Vec<Matrix> = level0.iter().map(|(_, r)| r.clone()).collect();
    let mut tree: Vec<Vec<Option<Matrix>>> = Vec::new();
    while rs.len() > 1 {
        let pairs = rs.len() / 2;
        let carried = rs.len() % 2 == 1;
        let combine_pair = |p: usize| {
            // Stack the two R's and QR the 2n × n stack.
            let mut stack = Matrix::zeros(2 * n, n);
            stack.set_submatrix(0, 0, &rs[2 * p]);
            stack.set_submatrix(n, 0, &rs[2 * p + 1]);
            let f = qr_in_place(stack);
            (thin_q(&f, n), thin_r(&f.a, n))
        };
        let combined: Vec<(Matrix, Matrix)> = (0..pairs).map(combine_pair).collect();
        let mut level: Vec<Option<Matrix>> = Vec::with_capacity(pairs + 1);
        let mut next_rs = Vec::with_capacity(pairs + 1);
        for (q, r) in combined {
            level.push(Some(q));
            next_rs.push(r);
        }
        if carried {
            level.push(None); // odd leftover carries through unchanged
            next_rs.push(rs.last().expect("odd leftover").clone());
        }
        tree.push(level);
        rs = next_rs;
    }
    let r = rs.into_iter().next().expect("root R");

    // Rebuild Q top-down: start from the root's identity coefficient and
    // push the combine Qs back down the tree.
    // coeff[i] is the n × n matrix C_i such that Q = diag(Q0_blocks) · C.
    let mut coeff: Vec<Matrix> = vec![Matrix::identity(n)];
    for level in tree.iter().rev() {
        let mut expanded = Vec::with_capacity(level.len() * 2);
        for (slot, c) in level.iter().zip(coeff.iter()) {
            match slot {
                Some(qc) => {
                    // qc is 2n × n: top half feeds the left child, bottom
                    // half the right child.
                    let top = qc.submatrix(0, 0, n, n);
                    let bot = qc.submatrix(n, 0, n, n);
                    let mut left = Matrix::zeros(n, n);
                    gemm(1.0, &top, Op::NoTrans, c, Op::NoTrans, 0.0, &mut left);
                    let mut right = Matrix::zeros(n, n);
                    gemm(1.0, &bot, Op::NoTrans, c, Op::NoTrans, 0.0, &mut right);
                    expanded.push(left);
                    expanded.push(right);
                }
                None => expanded.push(c.clone()),
            }
        }
        coeff = expanded;
    }
    debug_assert_eq!(coeff.len(), nblocks);

    // Q = block-diagonal(level-0 Qs) · coeff, assembled blockwise.
    let mut q = Matrix::zeros(m, n);
    for (b, &(lo, hi)) in blocks.iter().enumerate() {
        let mut piece = Matrix::zeros(hi - lo, n);
        gemm(
            1.0,
            &level0[b].0,
            Op::NoTrans,
            &coeff[b],
            Op::NoTrans,
            0.0,
            &mut piece,
        );
        q.set_submatrix(lo, 0, &piece);
    }
    crate::check_orthogonal!(&q, 1e-11 * m.max(4) as f64, "tsqr assembled Q ({m}x{n})");
    Tsqr { q, r }
}

/// Upper-triangular top `n × n` of a packed QR result.
fn thin_r(packed: &Matrix, n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| if i <= j { packed[(i, j)] } else { 0.0 })
}

/// Explicit thin Q (`m × n`) from packed factors.
fn thin_q(f: &crate::qr::QrFactors, n: usize) -> Matrix {
    let m = f.a.nrows();
    let mut id = Matrix::zeros(m, n);
    for j in 0..n {
        id[(j, j)] = 1.0;
    }
    f.apply_q(&mut id);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::matmul;
    use util::Rng;

    fn check(a: &Matrix, f: &Tsqr, tol: f64) {
        let n = a.ncols();
        // Orthonormal columns.
        let qtq = matmul(&f.q, Op::Trans, &f.q, Op::NoTrans);
        assert!(
            qtq.max_abs_diff(&Matrix::identity(n)) < tol,
            "orthogonality {}",
            qtq.max_abs_diff(&Matrix::identity(n))
        );
        // R upper triangular.
        for j in 0..n {
            for i in (j + 1)..n {
                assert_eq!(f.r[(i, j)], 0.0);
            }
        }
        // Reconstruction.
        let rec = matmul(&f.q, Op::NoTrans, &f.r, Op::NoTrans);
        assert!(
            rec.max_abs_diff(a) < tol * a.max_abs().max(1.0),
            "reconstruction {}",
            rec.max_abs_diff(a)
        );
    }

    #[test]
    fn single_block_degenerates_to_plain_qr() {
        let mut rng = Rng::new(1);
        let a = Matrix::random(12, 5, &mut rng);
        let f = tsqr(&a, 100);
        check(&a, &f, 1e-12);
    }

    #[test]
    fn multi_block_tall_panel() {
        let mut rng = Rng::new(2);
        for &(m, n, br) in &[(64usize, 6usize, 8usize), (100, 10, 16), (33, 4, 5)] {
            let a = Matrix::random(m, n, &mut rng);
            let f = tsqr(&a, br);
            check(&a, &f, 1e-11);
        }
    }

    #[test]
    fn odd_block_count_carries_leftover() {
        // 5 blocks of 8 rows: tree has odd carries at two levels.
        let mut rng = Rng::new(3);
        let a = Matrix::random(40, 4, &mut rng);
        let f = tsqr(&a, 8);
        check(&a, &f, 1e-11);
    }

    #[test]
    fn square_input_works() {
        let mut rng = Rng::new(4);
        let a = Matrix::random(16, 16, &mut rng);
        let f = tsqr(&a, 4); // blocks clamp to ≥ n = one block
        check(&a, &f, 1e-11);
    }

    #[test]
    fn r_matches_plain_qr_up_to_signs() {
        let mut rng = Rng::new(5);
        let a = Matrix::random(60, 5, &mut rng);
        let f = tsqr(&a, 10);
        let plain = qr_in_place(a.clone());
        for j in 0..5 {
            for i in 0..=j {
                assert!(
                    (f.r[(i, j)].abs() - plain.a[(i, j)].abs()).abs() < 1e-10,
                    "R({i},{j})"
                );
            }
        }
    }

    #[test]
    fn graded_panel_stays_accurate() {
        let mut rng = Rng::new(6);
        let mut a = Matrix::random(48, 6, &mut rng);
        for j in 0..6 {
            crate::blas1::scal(10f64.powi(4 * j as i32 - 12), a.col_mut(j));
        }
        let f = tsqr(&a, 12);
        // Column-relative reconstruction error.
        let rec = matmul(&f.q, Op::NoTrans, &f.r, Op::NoTrans);
        for j in 0..6 {
            let scale = crate::blas1::nrm2(a.col(j));
            let mut diff = 0.0f64;
            for i in 0..48 {
                diff = diff.max((rec[(i, j)] - a[(i, j)]).abs());
            }
            assert!(diff / scale < 1e-11, "col {j}: {}", diff / scale);
        }
    }

    #[test]
    #[should_panic(expected = "m ≥ n")]
    fn wide_input_rejected() {
        let a = Matrix::zeros(3, 5);
        let _ = tsqr(&a, 2);
    }
}
