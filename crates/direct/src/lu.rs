//! The factorize and solve phases: left-looking Gilbert–Peierls sparse LU
//! with threshold partial pivoting, the algorithm family SuperLU builds
//! its supernodal variant on. Produces `P·A·Q = L·U` with unit-diagonal L
//! in CSC form.

use rsparse::{CscMatrix, CsrMatrix};

use crate::symbolic::Symbolic;
use crate::{RsluError, RsluResult};

/// A computed sparse LU factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct LuFactorization {
    /// Unit-lower-triangular factor (diagonal stored explicitly as 1.0),
    /// in *pivot-row* numbering.
    l: CscMatrix,
    /// Upper-triangular factor.
    u: CscMatrix,
    /// Row permutation: `row_perm[pivot_position] = original_row`.
    row_perm: Vec<usize>,
    /// Column permutation used (`col_perm[new] = old`).
    col_perm: Vec<usize>,
    n: usize,
}

/// Sparse column buffers used during factorization.
struct ColumnWork {
    /// Dense accumulator.
    x: Vec<f64>,
    /// DFS stacks.
    stack: Vec<(usize, usize)>,
    /// Topologically ordered pattern of the current column.
    pattern: Vec<usize>,
    /// Visitation marks, keyed by column id.
    mark: Vec<bool>,
}

impl LuFactorization {
    /// Factor `a` using the symbolic context (column ordering) from
    /// `sym`. `pivot_threshold ∈ (0, 1]`: 1.0 = classical partial
    /// pivoting; smaller values prefer the diagonal entry when it is
    /// within the threshold of the column maximum (SuperLU's
    /// `diag_pivot_thresh`).
    pub fn factor(
        a: &CsrMatrix,
        sym: &Symbolic,
        pivot_threshold: f64,
    ) -> RsluResult<LuFactorization> {
        if !(0.0..=1.0).contains(&pivot_threshold) || pivot_threshold == 0.0 {
            return Err(RsluError::BadOption(format!(
                "pivot threshold must be in (0, 1], got {pivot_threshold}"
            )));
        }
        if !sym.compatible_with(a) {
            return Err(RsluError::PatternMismatch { expected: sym.nnz, got: a.nnz() });
        }
        let n = sym.n;
        // Column access to A with the fill-reducing permutation applied.
        let acsc = a.to_csc();

        // Growing factors in CSC; `pinv[orig_row] = pivot position` or MAX.
        let mut l_ptr = vec![0usize];
        let mut l_rows: Vec<usize> = Vec::with_capacity(4 * a.nnz());
        let mut l_vals: Vec<f64> = Vec::with_capacity(4 * a.nnz());
        let mut u_ptr = vec![0usize];
        let mut u_rows: Vec<usize> = Vec::with_capacity(4 * a.nnz());
        let mut u_vals: Vec<f64> = Vec::with_capacity(4 * a.nnz());
        let mut pinv = vec![usize::MAX; n];
        let mut row_perm = vec![usize::MAX; n];

        let mut work = ColumnWork {
            x: vec![0.0; n],
            stack: Vec::with_capacity(n),
            pattern: Vec::with_capacity(n),
            mark: vec![false; n],
        };
        // Per-column U and L entries, reused across columns.
        let mut ucol: Vec<(usize, f64)> = Vec::new();
        let mut lcol: Vec<(usize, f64)> = Vec::new();

        for (j, &old_col) in sym.col_perm.iter().enumerate() {
            let (arows, avals) = acsc.col(old_col);

            // --- Symbolic step: reach of the column pattern through the
            //     already-computed columns of L (DFS in pivot order).
            work.pattern.clear();
            for &r in arows {
                // Each nonzero row r: if pivotal, its pivot column's L
                // column can propagate; run DFS from the column index.
                dfs_reach(
                    r,
                    &pinv,
                    &l_ptr,
                    &l_rows,
                    &mut work.mark,
                    &mut work.stack,
                    &mut work.pattern,
                );
            }
            // Pattern is in reverse-topological order; process in reverse.

            // --- Numeric step: scatter A(:, old_col), then eliminate.
            for (&r, &v) in arows.iter().zip(avals) {
                work.x[r] = v;
            }
            for idx in (0..work.pattern.len()).rev() {
                let node = work.pattern[idx];
                // Only pivotal rows have an L column to apply; non-pivotal
                // rows are leaves that merely carry values for the gather.
                let col = pinv[node];
                if col == usize::MAX {
                    continue;
                }
                let xj = work.x[node];
                if xj != 0.0 {
                    // x ← x − xj · L(:, col) (skipping the unit diagonal,
                    // which is the first stored entry).
                    for k in l_ptr[col]..l_ptr[col + 1] {
                        let lr = l_rows[k];
                        if lr != node {
                            work.x[lr] -= xj * l_vals[k];
                        }
                    }
                }
            }

            // --- Pivot: largest magnitude among non-pivotal rows, with
            //     diagonal preference under the threshold.
            let mut pivot_row = usize::MAX;
            let mut pivot_abs = 0.0f64;
            for &node in &work.pattern {
                if pinv[node] == usize::MAX {
                    let a = work.x[node].abs();
                    if a > pivot_abs {
                        pivot_abs = a;
                        pivot_row = node;
                    }
                }
            }
            // Prefer the natural diagonal (old row == old col) when close
            // enough to the maximum.
            if pinv[old_col] == usize::MAX
                && work.x[old_col].abs() >= pivot_threshold * pivot_abs
                && work.x[old_col] != 0.0
            {
                pivot_row = old_col;
            }
            if pivot_row == usize::MAX || work.x[pivot_row] == 0.0 {
                // Clean up scatter before failing.
                for &node in &work.pattern {
                    work.x[node] = 0.0;
                    work.mark[node] = false;
                }
                return Err(RsluError::Singular { column: j });
            }
            let pivot_val = work.x[pivot_row];
            pinv[pivot_row] = j;
            row_perm[j] = pivot_row;

            // --- Gather into U (pivotal rows) and L (non-pivotal rows).
            // U rows are pivot positions (already final); sort for CSC
            // invariants.
            ucol.clear();
            lcol.clear();
            for &node in &work.pattern {
                let v = work.x[node];
                work.x[node] = 0.0;
                work.mark[node] = false;
                if v == 0.0 {
                    continue;
                }
                let p = pinv[node];
                if node == pivot_row {
                    // Diagonal of U.
                    ucol.push((j, pivot_val));
                } else if p != usize::MAX {
                    ucol.push((p, v));
                } else {
                    lcol.push((node, v / pivot_val));
                }
            }
            ucol.sort_unstable_by_key(|&(r, _)| r);
            // L column: unit diagonal first (stored at the pivot row in
            // original numbering), then the sub-diagonal entries.
            l_rows.push(pivot_row);
            l_vals.push(1.0);
            for &(r, v) in &lcol {
                l_rows.push(r);
                l_vals.push(v);
            }
            l_ptr.push(l_rows.len());
            for &(r, v) in &ucol {
                u_rows.push(r);
                u_vals.push(v);
            }
            u_ptr.push(u_rows.len());
        }

        // Renumber L's rows into pivot order so both factors live in the
        // permuted space, and sort each column.
        let mut l_cols_sorted_rows = Vec::with_capacity(l_rows.len());
        let mut l_cols_sorted_vals = Vec::with_capacity(l_vals.len());
        let mut l_ptr_final = vec![0usize];
        let mut colbuf: Vec<(usize, f64)> = Vec::new();
        for j in 0..n {
            colbuf.clear();
            for k in l_ptr[j]..l_ptr[j + 1] {
                colbuf.push((pinv[l_rows[k]], l_vals[k]));
            }
            colbuf.sort_unstable_by_key(|&(r, _)| r);
            for &(r, v) in &colbuf {
                l_cols_sorted_rows.push(r);
                l_cols_sorted_vals.push(v);
            }
            l_ptr_final.push(l_cols_sorted_rows.len());
        }

        let l = CscMatrix::from_parts(n, n, l_ptr_final, l_cols_sorted_rows, l_cols_sorted_vals)
            .map_err(|e| RsluError::Sparse(e.to_string()))?;
        let u = CscMatrix::from_parts(n, n, u_ptr, u_rows, u_vals)
            .map_err(|e| RsluError::Sparse(e.to_string()))?;
        Ok(LuFactorization { l, u, row_perm, col_perm: sym.col_perm.clone(), n })
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Fill: stored entries in L + U (diagnostic; the quantity orderings
    /// try to minimize).
    pub fn fill(&self) -> usize {
        self.l.nnz() + self.u.nnz()
    }

    /// Borrow the L factor (pivot-order numbering, unit diagonal stored).
    pub fn l(&self) -> &CscMatrix {
        &self.l
    }

    /// Borrow the U factor.
    pub fn u(&self) -> &CscMatrix {
        &self.u
    }

    /// Row permutation (`row_perm[pivot_position] = original_row`).
    pub fn row_perm(&self) -> &[usize] {
        &self.row_perm
    }

    /// Solve A·x = b using the factors (one rhs).
    pub fn solve(&self, b: &[f64]) -> RsluResult<Vec<f64>> {
        if b.len() != self.n {
            return Err(RsluError::Sparse(format!(
                "rhs has length {}, expected {}",
                b.len(),
                self.n
            )));
        }
        // y = P·b.
        let mut y: Vec<f64> = self.row_perm.iter().map(|&orig| b[orig]).collect();
        // L·z = y (unit lower, CSC forward column sweep).
        for j in 0..self.n {
            let (rows, vals) = self.l.col(j);
            let yj = y[j];
            if yj != 0.0 {
                for (&r, &v) in rows.iter().zip(vals) {
                    if r > j {
                        y[r] -= v * yj;
                    }
                }
            }
        }
        // U·w = z (upper, CSC backward column sweep).
        for j in (0..self.n).rev() {
            let (rows, vals) = self.u.col(j);
            // Diagonal is the last entry of the column (rows sorted, all ≤ j).
            let &diag = vals.last().ok_or(RsluError::Singular { column: j })?;
            debug_assert_eq!(*rows.last().expect("nonempty"), j);
            y[j] /= diag;
            let yj = y[j];
            if yj != 0.0 {
                for (&r, &v) in rows.iter().zip(vals).take(rows.len() - 1) {
                    y[r] -= v * yj;
                }
            }
        }
        // x = Q·w: w is in permuted column space, scatter back.
        let mut x = vec![0.0; self.n];
        for (new, &old) in self.col_perm.iter().enumerate() {
            x[old] = y[new];
        }
        Ok(x)
    }

    /// Solve Aᵀ·x = b using the same factors: with P·A·Q = L·U this is
    /// x = Pᵀ·L⁻ᵀ·U⁻ᵀ·Qᵀ·b. The CSC storage of U and L is exactly the
    /// CSR storage of Uᵀ and Lᵀ, so both triangular sweeps are row
    /// sweeps. (SuperLU's `trans` option; also the engine behind the
    /// Hager condition estimator.)
    pub fn solve_transpose(&self, b: &[f64]) -> RsluResult<Vec<f64>> {
        if b.len() != self.n {
            return Err(RsluError::Sparse(format!(
                "rhs has length {}, expected {}",
                b.len(),
                self.n
            )));
        }
        // u = Qᵀ·b.
        let mut y: Vec<f64> = self.col_perm.iter().map(|&old| b[old]).collect();
        // Uᵀ·v = u: forward sweep over rows of Uᵀ = columns of U. The
        // diagonal of U is the last entry of each column.
        for j in 0..self.n {
            let (rows, vals) = self.u.col(j);
            let &diag = vals.last().ok_or(RsluError::Singular { column: j })?;
            let mut acc = y[j];
            for (&r, &v) in rows.iter().zip(vals).take(rows.len() - 1) {
                acc -= v * y[r];
            }
            y[j] = acc / diag;
        }
        // Lᵀ·w = v: backward sweep over rows of Lᵀ = columns of L (unit
        // diagonal stored first).
        for j in (0..self.n).rev() {
            let (rows, vals) = self.l.col(j);
            let mut acc = y[j];
            for (&r, &v) in rows.iter().zip(vals) {
                if r > j {
                    acc -= v * y[r];
                }
            }
            y[j] = acc;
        }
        // x = Pᵀ·w.
        let mut x = vec![0.0; self.n];
        for (pos, &orig) in self.row_perm.iter().enumerate() {
            x[orig] = y[pos];
        }
        Ok(x)
    }

    /// Hager–Higham estimate of ‖A⁻¹‖₁ from the factors (one forward and
    /// a handful of solve/transpose-solve pairs). Multiply by ‖A‖₁ for a
    /// 1-norm condition-number estimate — SuperLU's `*gscon`.
    pub fn inverse_norm1_estimate(&self) -> RsluResult<f64> {
        let n = self.n;
        let mut x = vec![1.0 / n as f64; n];
        let mut best = 0.0f64;
        for _ in 0..5 {
            let y = self.solve(&x)?;
            let est = rsparse::dense::norm1(&y);
            // ξ = sign(y); z = A⁻ᵀ·ξ.
            let xi: Vec<f64> = y.iter().map(|v| if *v >= 0.0 { 1.0 } else { -1.0 }).collect();
            let z = self.solve_transpose(&xi)?;
            // Stop when no coordinate beats the current functional value.
            let (jmax, zmax) = z
                .iter()
                .enumerate()
                .fold((0usize, 0.0f64), |(bj, bv), (j, &v)| {
                    if v.abs() > bv {
                        (j, v.abs())
                    } else {
                        (bj, bv)
                    }
                });
            best = best.max(est);
            let zx = rsparse::dense::dot(&z, &x);
            if zmax <= zx {
                break;
            }
            x.iter_mut().for_each(|v| *v = 0.0);
            x[jmax] = 1.0;
        }
        Ok(best)
    }

    /// Solve for several right-hand sides given as columns of a flat
    /// column-major array (LISI's multi-RHS scenario §5.2c).
    pub fn solve_multi(&self, b: &[f64], nrhs: usize) -> RsluResult<Vec<f64>> {
        if nrhs == 0 || b.len() != self.n * nrhs {
            return Err(RsluError::Sparse(format!(
                "multi-rhs buffer has length {}, expected {}",
                b.len(),
                self.n * nrhs
            )));
        }
        let mut out = Vec::with_capacity(b.len());
        for k in 0..nrhs {
            out.extend(self.solve(&b[k * self.n..(k + 1) * self.n])?);
        }
        Ok(out)
    }
}

/// DFS from original row `start` through pivotal columns, collecting the
/// reach in reverse-topological order (CSparse's `cs_dfs` shape).
fn dfs_reach(
    start: usize,
    pinv: &[usize],
    l_ptr: &[usize],
    l_rows: &[usize],
    mark: &mut [bool],
    stack: &mut Vec<(usize, usize)>,
    pattern: &mut Vec<usize>,
) {
    if mark[start] {
        return;
    }
    stack.push((start, 0));
    mark[start] = true;
    while let Some(top) = stack.len().checked_sub(1) {
        let (node, mut next) = stack[top];
        let col = pinv[node];
        if col == usize::MAX {
            // Non-pivotal row: leaf.
            pattern.push(node);
            stack.pop();
            continue;
        }
        let lo = l_ptr[col];
        let hi = l_ptr[col + 1];
        let mut pushed = false;
        while lo + next < hi {
            let child = l_rows[lo + next];
            next += 1;
            if !mark[child] {
                mark[child] = true;
                stack[top].1 = next;
                stack.push((child, 0));
                pushed = true;
                break;
            }
        }
        if !pushed {
            pattern.push(node);
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::Ordering;
    use rsparse::generate;

    fn factor_and_check(a: &CsrMatrix, ord: Ordering) {
        let sym = Symbolic::analyze(a, ord).unwrap();
        let lu = LuFactorization::factor(a, &sym, 1.0).unwrap();
        let n = a.rows();
        // Check A·x = b for a known solution.
        let x_true = generate::random_vector(n, 42);
        let b = a.matvec(&x_true).unwrap();
        let x = lu.solve(&b).unwrap();
        let scale = rsparse::dense::norm_inf(&x_true).max(1.0);
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-8 * scale, "{ord:?}: {g} vs {e}");
        }
    }

    #[test]
    fn factors_solve_diag_dominant_systems_under_all_orderings() {
        let a = generate::random_diag_dominant(40, 4, 11);
        for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
            factor_and_check(&a, ord);
        }
    }

    #[test]
    fn factors_solve_2d_laplacian() {
        let a = generate::laplacian_2d(9);
        factor_and_check(&a, Ordering::MinDegree);
    }

    #[test]
    fn factors_solve_nonsymmetric_convection_problem() {
        let (a, _) = rmesh::paper_problem(8).assemble_global();
        for ord in [Ordering::Natural, Ordering::MinDegree] {
            factor_and_check(&a, ord);
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] requires a row swap.
        let a = rsparse::CooMatrix::from_triplets(2, 2, &[0, 1], &[1, 0], &[1.0, 2.0])
            .unwrap()
            .to_csr();
        let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        let x = lu.solve(&[3.0, 4.0]).unwrap();
        // x1 = 3 (from row 0: x1*1 = 3), x0 = 2 (row 1: 2x0 = 4).
        assert!((x[0] - 2.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_detected() {
        // Second column identically zero.
        let a = rsparse::CooMatrix::from_triplets(2, 2, &[0, 1], &[0, 0], &[1.0, 2.0])
            .unwrap()
            .to_csr();
        let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
        assert!(matches!(
            LuFactorization::factor(&a, &sym, 1.0),
            Err(RsluError::Singular { .. })
        ));
    }

    #[test]
    fn lu_product_reconstructs_permuted_matrix() {
        let a = generate::random_diag_dominant(15, 3, 7);
        let sym = Symbolic::analyze(&a, Ordering::Rcm).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        // P·A·Q = L·U, checked entrywise via dense products.
        let ld = lu.l().to_csr().to_dense();
        let ud = lu.u().to_csr().to_dense();
        let n = 15;
        // Compute (P·A·Q)[i][j] = A[row_perm[i]][col_perm[j]].
        let ad = a.to_dense();
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += ld[(i, k)] * ud[(k, j)];
                }
                let expect = ad[(lu.row_perm()[i], sym.col_perm[j])];
                assert!(
                    (s - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                    "({i},{j}): {s} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn mindegree_reduces_fill_versus_worst_case() {
        // Arrow matrix pointing the wrong way: natural ordering fills
        // completely, minimum degree keeps it sparse.
        let n = 30;
        let mut coo = rsparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i > 0 {
                coo.push(0, i, 1.0).unwrap();
                coo.push(i, 0, 1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let f_nat = {
            let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
            LuFactorization::factor(&a, &sym, 1.0).unwrap().fill()
        };
        let f_md = {
            let sym = Symbolic::analyze(&a, Ordering::MinDegree).unwrap();
            LuFactorization::factor(&a, &sym, 1.0).unwrap().fill()
        };
        assert!(
            f_md * 3 < f_nat,
            "minimum degree should avoid the arrow fill: {f_md} vs {f_nat}"
        );
    }

    #[test]
    fn multi_rhs_solves_each_column() {
        let a = generate::random_diag_dominant(12, 3, 9);
        let sym = Symbolic::analyze(&a, Ordering::MinDegree).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        let x1 = generate::random_vector(12, 1);
        let x2 = generate::random_vector(12, 2);
        let mut b = a.matvec(&x1).unwrap();
        b.extend(a.matvec(&x2).unwrap());
        let xs = lu.solve_multi(&b, 2).unwrap();
        for (g, e) in xs[..12].iter().zip(&x1) {
            assert!((g - e).abs() < 1e-9);
        }
        for (g, e) in xs[12..].iter().zip(&x2) {
            assert!((g - e).abs() < 1e-9);
        }
        assert!(lu.solve_multi(&b, 3).is_err());
    }

    #[test]
    fn transpose_solve_matches_dense_transpose() {
        let a = generate::random_diag_dominant(18, 3, 31);
        let sym = Symbolic::analyze(&a, Ordering::MinDegree).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        let x_true = generate::random_vector(18, 6);
        let bt = a.transpose().matvec(&x_true).unwrap();
        let x = lu.solve_transpose(&bt).unwrap();
        for (g, e) in x.iter().zip(&x_true) {
            assert!((g - e).abs() < 1e-9, "{g} vs {e}");
        }
        assert!(lu.solve_transpose(&[1.0]).is_err());
    }

    #[test]
    fn condition_estimate_brackets_the_true_condition_number() {
        // For a well-conditioned diagonally dominant matrix, the Hager
        // estimate of ‖A⁻¹‖₁ must be a lower bound on the true value and
        // within a small factor of it.
        let n = 15;
        let a = generate::random_diag_dominant(n, 3, 17);
        let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
        let lu = LuFactorization::factor(&a, &sym, 1.0).unwrap();
        let est = lu.inverse_norm1_estimate().unwrap();
        // True ‖A⁻¹‖₁ from dense columns.
        let dense = a.to_dense();
        let mut true_norm = 0.0f64;
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = dense.solve(&e).unwrap();
            true_norm = true_norm.max(rsparse::dense::norm1(&col));
        }
        assert!(est <= true_norm * (1.0 + 1e-10), "estimate must lower-bound: {est} vs {true_norm}");
        assert!(est >= true_norm / 10.0, "estimate too loose: {est} vs {true_norm}");
    }

    #[test]
    fn condition_estimate_blows_up_for_near_singular_matrices() {
        // tridiag(−1, 2, −1) of order n has condition O(n²); a tiny
        // diagonal perturbation version is much worse than a dominant one.
        let good = generate::random_diag_dominant(20, 3, 9);
        let bad = generate::laplacian_1d(60);
        let est = |a: &CsrMatrix| {
            let sym = Symbolic::analyze(a, Ordering::Natural).unwrap();
            let lu = LuFactorization::factor(a, &sym, 1.0).unwrap();
            lu.inverse_norm1_estimate().unwrap() * a.norm_inf()
        };
        assert!(est(&bad) > 20.0 * est(&good), "{} vs {}", est(&bad), est(&good));
    }

    #[test]
    fn bad_pivot_threshold_rejected() {
        let a = generate::laplacian_1d(4);
        let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
        assert!(LuFactorization::factor(&a, &sym, 0.0).is_err());
        assert!(LuFactorization::factor(&a, &sym, 1.5).is_err());
        assert!(LuFactorization::factor(&a, &sym, 0.5).is_ok());
    }

    #[test]
    fn pattern_mismatch_on_reuse_is_detected() {
        let a = generate::laplacian_1d(6);
        let b = generate::laplacian_1d(7);
        let sym = Symbolic::analyze(&a, Ordering::Natural).unwrap();
        assert!(matches!(
            LuFactorization::factor(&b, &sym, 1.0),
            Err(RsluError::PatternMismatch { .. })
        ));
    }
}
