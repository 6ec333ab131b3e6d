//! Dense Gaussian elimination — the test oracle for the iterative solver.
//!
//! Storage is a row-major contiguous [`DenseMat`] (entry `(i, j)` lives
//! at `data[i * n_cols + j]`), so elimination sweeps are cache-linear
//! and the oracle allocates one buffer instead of `n` row `Vec`s. The
//! original nested-`Vec` free functions ([`solve`], [`matvec`],
//! [`identity`], [`inverse`]) survive as thin wrappers for the older
//! test call sites.

/// A dense row-major matrix with contiguous storage.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMat {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl DenseMat {
    /// An `r×c` matrix of zeros.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        DenseMat {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// The `n×n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Wrap an existing row-major buffer (must have `r·c` entries).
    pub fn from_flat(n_rows: usize, n_cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n_rows * n_cols, "flat buffer has wrong size");
        DenseMat {
            n_rows,
            n_cols,
            data,
        }
    }

    /// Copy a nested-`Vec` matrix into contiguous storage.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            assert_eq!(row.len(), n_cols, "ragged rows");
            data.extend_from_slice(row);
        }
        DenseMat {
            n_rows,
            n_cols,
            data,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n_cols + j]
    }

    /// Set entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n_cols + j] = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Convert back to the nested-`Vec` representation.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.data
            .chunks(self.n_cols.max(1))
            .map(<[f64]>::to_vec)
            .collect()
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let c = self.n_cols;
        let (lo, hi) = (a.min(b), a.max(b));
        let (top, rest) = self.data.split_at_mut(hi * c);
        top[lo * c..(lo + 1) * c].swap_with_slice(&mut rest[..c]);
    }

    /// `M x` for a vector `x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_cols);
        self.data
            .chunks_exact(self.n_cols.max(1))
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Solve `M x = b` by Gaussian elimination with partial pivoting,
    /// consuming the matrix (elimination happens in place on the flat
    /// buffer). Returns `None` if `M` is (numerically) singular.
    pub fn solve(mut self, mut b: Vec<f64>) -> Option<Vec<f64>> {
        let n = b.len();
        assert_eq!(self.n_rows, n);
        assert_eq!(self.n_cols, n);
        for col in 0..n {
            // partial pivot
            let (pivot, pv) = (col..n)
                .map(|r| (r, self.data[r * n + col].abs()))
                .max_by(|a, b| a.1.total_cmp(&b.1))?;
            if pv < 1e-12 {
                return None;
            }
            self.swap_rows(col, pivot);
            b.swap(col, pivot);
            let diag = self.data[col * n + col];
            let (top, rest) = self.data.split_at_mut((col + 1) * n);
            let pivot_row = &top[col * n..];
            for (i, row) in rest.chunks_exact_mut(n).enumerate() {
                let r = col + 1 + i;
                let f = row[col] / diag;
                if f == 0.0 {
                    continue;
                }
                for (rv, &pv) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                    *rv -= f * pv;
                }
                b[r] -= f * b[col];
            }
        }
        // back substitution
        let mut x = vec![0.0; n];
        for row in (0..n).rev() {
            let mut acc = b[row];
            for (mc, &xc) in self.data[row * n..][row + 1..n].iter().zip(&x[row + 1..]) {
                acc -= mc * xc;
            }
            x[row] = acc / self.data[row * n + row];
        }
        Some(x)
    }

    /// Dense inverse via column-by-column solves; `None` if singular.
    pub fn inverse(&self) -> Option<DenseMat> {
        let n = self.n_rows;
        assert_eq!(self.n_cols, n);
        let mut inv = DenseMat::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self
                .clone()
                .solve(std::mem::replace(&mut e, vec![0.0; n]))?;
            for (row, &v) in inv.data.chunks_exact_mut(n).zip(&col) {
                row[j] = v;
            }
        }
        Some(inv)
    }
}

/// Solve `M x = b` for a nested-`Vec` square matrix (wrapper over
/// [`DenseMat::solve`]).
pub fn solve(m: Vec<Vec<f64>>, b: Vec<f64>) -> Option<Vec<f64>> {
    DenseMat::from_rows(&m).solve(b)
}

/// Multiply a nested-`Vec` dense matrix by a vector.
pub fn matvec(m: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
    m.iter()
        .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

/// `n×n` identity in nested-`Vec` form.
pub fn identity(n: usize) -> Vec<Vec<f64>> {
    DenseMat::identity(n).to_rows()
}

/// Dense inverse of a nested-`Vec` matrix; `None` if singular.
pub fn inverse(m: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    Some(DenseMat::from_rows(m).inverse()?.to_rows())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_simple_system() {
        // [2 1; 1 3] x = [5; 10] → x = [1; 3]
        let m = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let x = solve(m, vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let m = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve(m, vec![2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn singular_returns_none() {
        let m = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(m, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn inverse_roundtrips() {
        let m = DenseMat::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 5.0],
        ]);
        let inv = m.inverse().unwrap();
        let prod_col0 = m.matvec(&[inv.get(0, 0), inv.get(1, 0), inv.get(2, 0)]);
        assert!((prod_col0[0] - 1.0).abs() < 1e-9);
        assert!(prod_col0[1].abs() < 1e-9);
        assert!(prod_col0[2].abs() < 1e-9);
    }

    #[test]
    fn nested_wrappers_match_flat_oracle() {
        let rows = vec![
            vec![3.0, 1.0, 0.5],
            vec![1.0, 4.0, 1.0],
            vec![0.5, 1.0, 5.0],
        ];
        let flat = DenseMat::from_rows(&rows);
        assert_eq!(flat.to_rows(), rows);
        let b = vec![1.0, -2.0, 0.5];
        let x_nested = solve(rows.clone(), b.clone()).unwrap();
        let x_flat = flat.clone().solve(b.clone()).unwrap();
        assert_eq!(x_nested, x_flat, "wrapper must be exactly the flat path");
        assert_eq!(matvec(&rows, &b), flat.matvec(&b));
        let inv_nested = inverse(&rows).unwrap();
        let inv_flat = flat.inverse().unwrap();
        assert_eq!(DenseMat::from_rows(&inv_nested), inv_flat);
        assert_eq!(identity(3), DenseMat::identity(3).to_rows());
    }

    #[test]
    fn random_spd_systems_solve_accurately() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..20 {
            let n = rng.gen_range(2..8);
            // B random, M = BᵀB + I is SPD
            let b_mat: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let mut m = DenseMat::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    let mut acc = 0.0;
                    for row in &b_mat {
                        acc += row[i] * row[j];
                    }
                    m.set(i, j, acc);
                }
                m.set(i, i, m.get(i, i) + 1.0);
            }
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let rhs = m.matvec(&xs);
            let got = m.solve(rhs).unwrap();
            for (a, b) in got.iter().zip(&xs) {
                assert!((a - b).abs() < 1e-8);
            }
        }
    }
}
