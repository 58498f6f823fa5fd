//! The Livermore Kernel 23: a 2-D implicit hydrodynamics fragment.
//!
//! The original LINPACK loop is
//!
//! ```text
//! DO 23 j = 2,6
//!   DO 23 k = 2,n
//!     QA = ZA(k,j+1)*ZR(k,j) + ZA(k,j-1)*ZB(k,j)
//!        + ZA(k+1,j)*ZU(k,j) + ZA(k-1,j)*ZV(k,j) + ZZ(k,j)
//! 23  ZA(k,j) = ZA(k,j) + 0.175*(QA - ZA(k,j))
//! ```
//!
//! i.e. a 5-point implicit relaxation of the `ZA` field with per-point
//! coefficients.  Two sweep flavours are provided:
//!
//! * [`sweep_gauss_seidel`] — the faithful in-place update of the original
//!   loop (each point sees already-updated west/north neighbours);
//! * [`sweep_jacobi`] — the double-buffered variant used by the parallel
//!   implementations, whose result is independent of the update order and
//!   therefore lets the block-decomposed ORWL and OpenMP-like versions be
//!   verified bit-for-bit against the sequential reference.
//!
//! The coefficient fields `ZR`, `ZB`, `ZU`, `ZV`, `ZZ` are defined by a
//! deterministic closed form ([`coeff`]) rather than stored, so the
//! 16384×16384 configuration of the paper exists as a *workload
//! description* without 1.6 GB of coefficient arrays per field.
//!
//! The sweeps do not call `coeff` per point.  Every field is a per-row
//! factor combined with a per-column factor, except `ZZ`, a function of
//! the exact integer `r + 2c`.  A [`Coeffs`] table holds those separable
//! factors for one window of the grid: four per-row and four per-column
//! vectors, plus one `ZZ` vector along `r + 2c`.  [`Coeffs::update_row`]
//! rebuilds each field with exactly the operations of `coeff`, so every
//! sweep is bit-identical to the closed form.  The `sin`/`cos` calls drop
//! from eight per point and sweep to `O(rows + cols)` per window, and so
//! does the memory: full 2-D tiles would cost five grids' worth.
//!
//! The simulator ([`crate::sim_model`]) still charges 56 bytes per point
//! and sweep, the paper's five stored coefficient fields plus `ZA` read and
//! written: it models the memory traffic of the paper's kernel on the
//! paper's machine, not this reproduction's cheaper one.

use std::ops::Range;

/// Relaxation factor of the kernel (0.175 in the original loop).
pub const RELAXATION: f64 = 0.175;

/// Deterministic coefficient fields.  `field` selects ZR/ZB/ZU/ZV/ZZ by
/// index 0..=4; the values are smooth, O(1) and distinct per field so the
/// computation does not degenerate.
#[inline]
pub fn coeff(field: usize, row: usize, col: usize) -> f64 {
    let r = row as f64;
    let c = col as f64;
    match field {
        0 => 0.20 + 0.05 * ((r * 0.013).sin() * (c * 0.017).cos()),
        1 => 0.20 + 0.05 * ((r * 0.011).cos() * (c * 0.019).sin()),
        2 => 0.20 + 0.05 * ((r * 0.007).sin() + (c * 0.003).sin()) * 0.5,
        3 => 0.20 + 0.05 * ((r * 0.005).cos() + (c * 0.009).cos()) * 0.5,
        _ => 0.01 * ((r + 2.0 * c) * 0.001).sin(),
    }
}

/// `ZR` and `ZB` from their row and column factors, as [`coeff`] combines them.
#[inline]
fn product_field(row_factor: f64, col_factor: f64) -> f64 {
    0.20 + 0.05 * (row_factor * col_factor)
}

/// `ZU` and `ZV` from their row and column factors, as [`coeff`] combines them.
#[inline]
fn mean_field(row_factor: f64, col_factor: f64) -> f64 {
    0.20 + 0.05 * (row_factor + col_factor) * 0.5
}

/// The coefficient fields of one window (a row range × a column range) of a
/// `grid_rows × grid_cols` grid, stored as separable factors.
///
/// Per row it holds `sin(r·0.013)`, `cos(r·0.011)`, `sin(r·0.007)` and
/// `cos(r·0.005)`; per column `cos(c·0.017)`, `sin(c·0.019)`, `sin(c·0.003)`
/// and `cos(c·0.009)`; and `ZZ = 0.01·sin(k'·0.001)` for every
/// `k' = r + 2c` of the window, at index `k = k' − (row0 + 2·col0)`.  Since
/// `r + 2.0·c` is an exact integer in `f64`, [`Coeffs::get`] equals
/// [`coeff`] bit for bit on every cell of the window.
#[derive(Debug, Clone, PartialEq)]
pub struct Coeffs {
    rows: Range<usize>,
    cols: Range<usize>,
    grid_rows: usize,
    grid_cols: usize,
    zr_row: Vec<f64>,
    zb_row: Vec<f64>,
    zu_row: Vec<f64>,
    zv_row: Vec<f64>,
    zr_col: Vec<f64>,
    zb_col: Vec<f64>,
    zu_col: Vec<f64>,
    zv_col: Vec<f64>,
    zz: Vec<f64>,
}

impl Coeffs {
    /// Builds the table of the window `rows × cols` of a
    /// `grid_rows × grid_cols` grid (the grid size decides which cells lie
    /// on the global boundary).
    pub fn new(rows: Range<usize>, cols: Range<usize>, grid_rows: usize, grid_cols: usize) -> Self {
        let per = |range: &Range<usize>, f: fn(f64) -> f64| range.clone().map(|i| f(i as f64)).collect();
        let base = rows.start + 2 * cols.start;
        let diagonals = (rows.len() + 2 * cols.len()).saturating_sub(2);
        Coeffs {
            zr_row: per(&rows, |r| (r * 0.013).sin()),
            zb_row: per(&rows, |r| (r * 0.011).cos()),
            zu_row: per(&rows, |r| (r * 0.007).sin()),
            zv_row: per(&rows, |r| (r * 0.005).cos()),
            zr_col: per(&cols, |c| (c * 0.017).cos()),
            zb_col: per(&cols, |c| (c * 0.019).sin()),
            zu_col: per(&cols, |c| (c * 0.003).sin()),
            zv_col: per(&cols, |c| (c * 0.009).cos()),
            zz: (base..base + diagonals).map(|k| 0.01 * ((k as f64) * 0.001).sin()).collect(),
            rows,
            cols,
            grid_rows,
            grid_cols,
        }
    }

    /// The table the Jacobi sweeps of a whole grid use: every row and the
    /// interior columns (the two boundary columns are copied, never
    /// updated).
    pub fn for_grid(grid_rows: usize, grid_cols: usize) -> Self {
        Coeffs::new(0..grid_rows, 1..grid_cols.saturating_sub(1).max(1), grid_rows, grid_cols)
    }

    /// The window's global rows.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// The window's global columns.
    pub fn cols(&self) -> Range<usize> {
        self.cols.clone()
    }

    /// Field `field` (as in [`coeff`]) at the global cell `(row, col)` of
    /// the window.
    pub fn get(&self, field: usize, row: usize, col: usize) -> f64 {
        let (i, j) = (row - self.rows.start, col - self.cols.start);
        match field {
            0 => product_field(self.zr_row[i], self.zr_col[j]),
            1 => product_field(self.zb_row[i], self.zb_col[j]),
            2 => mean_field(self.zu_row[i], self.zu_col[j]),
            3 => mean_field(self.zv_row[i], self.zv_col[j]),
            _ => self.zz[i + 2 * j],
        }
    }

    /// One Jacobi LK23 update of the global row `row` over the window's
    /// columns.
    ///
    /// With `n` the window's width, `north`, `here` and `south` hold
    /// `n + 2` cells of the rows `row − 1`, `row` and `row + 1`: element
    /// `j + 1` is column `cols.start + j`, and elements 0 and `n + 1` are
    /// the window's west and east neighbours.  `out` holds `n` cells and
    /// `out[j]` receives the new value of column `cols.start + j`.  The
    /// sum `qa` is formed in the original loop's order.  Cells on the
    /// global grid boundary are copied from `here` unchanged, so their
    /// neighbour slots are never read.
    ///
    /// # Panics
    /// Panics when the slice lengths do not match the window or `row` lies
    /// outside it.
    pub fn update_row(&self, row: usize, north: &[f64], here: &[f64], south: &[f64], out: &mut [f64]) {
        let n = self.cols.len();
        assert!(
            north.len() == n + 2 && here.len() == n + 2 && south.len() == n + 2 && out.len() == n,
            "row slices do not match a {n}-column window"
        );
        let i = row - self.rows.start;
        let (zr, zb, zu, zv) = (self.zr_row[i], self.zb_row[i], self.zu_row[i], self.zv_row[i]);
        if row == 0 || row + 1 == self.grid_rows {
            out.copy_from_slice(&here[1..=n]);
            return;
        }
        // Local columns `lo..hi` are interior; the others are the global
        // grid's first or last column.
        let hi = n.saturating_sub(usize::from(self.cols.end == self.grid_cols));
        let lo = usize::from(self.cols.start == 0).min(hi);
        out[..lo].copy_from_slice(&here[1..=lo]);
        out[hi..].copy_from_slice(&here[hi + 1..=n]);
        let len = hi - lo;
        if len == 0 {
            return;
        }
        // Equal-length views of the interior let the loop run without
        // bounds checks.
        let (west, centre, east) = (&here[lo..hi], &here[lo + 1..hi + 1], &here[lo + 2..hi + 2]);
        let (north, south, out) = (&north[lo + 1..hi + 1], &south[lo + 1..hi + 1], &mut out[lo..hi]);
        let (zr_col, zb_col) = (&self.zr_col[lo..hi], &self.zb_col[lo..hi]);
        let (zu_col, zv_col) = (&self.zu_col[lo..hi], &self.zv_col[lo..hi]);
        let zz = &self.zz[i + 2 * lo..i + 2 * lo + 2 * len - 1];
        for j in 0..len {
            let qa = east[j] * product_field(zr, zr_col[j])
                + west[j] * product_field(zb, zb_col[j])
                + south[j] * mean_field(zu, zu_col[j])
                + north[j] * mean_field(zv, zv_col[j])
                + zz[2 * j];
            let za = centre[j];
            out[j] = za + RELAXATION * (qa - za);
        }
    }
}

/// A dense `rows × cols` grid of doubles (row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Grid {
    /// Creates a grid filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Grid { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the canonical LK23 initial condition: a smooth deterministic
    /// field, identical for every implementation.
    pub fn initial(rows: usize, cols: usize) -> Self {
        let mut g = Grid::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                g.set(r, c, 1.0 + 0.1 * ((r as f64) * 0.02).sin() + 0.1 * ((c as f64) * 0.03).cos());
            }
        }
        g
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.cols + col]
    }

    /// Sets the value at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: f64) {
        self.data[row * self.cols + col] = v;
    }

    /// Row `row` as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Raw row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Maximum absolute difference with another grid of identical shape.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn max_abs_diff(&self, other: &Grid) -> f64 {
        assert_eq!(self.rows, other.rows, "grid row mismatch");
        assert_eq!(self.cols, other.cols, "grid column mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }

    /// Sum of all elements (a cheap checksum used by benchmarks).
    pub fn checksum(&self) -> f64 {
        self.data.iter().sum()
    }
}

/// One in-place Gauss-Seidel sweep over the interior (the original loop's
/// update order: row by row, column by column).
pub fn sweep_gauss_seidel(grid: &mut Grid) {
    for r in 1..grid.rows() - 1 {
        for c in 1..grid.cols() - 1 {
            let qa = grid.get(r, c + 1) * coeff(0, r, c)
                + grid.get(r, c - 1) * coeff(1, r, c)
                + grid.get(r + 1, c) * coeff(2, r, c)
                + grid.get(r - 1, c) * coeff(3, r, c)
                + coeff(4, r, c);
            let za = grid.get(r, c);
            grid.set(r, c, za + RELAXATION * (qa - za));
        }
    }
}

/// One double-buffered (Jacobi-style) sweep: reads `src`, writes the interior
/// of `dst`; boundary values are copied unchanged.
///
/// # Panics
/// Panics when the two grids have different shapes.
pub fn sweep_jacobi(src: &Grid, dst: &mut Grid) {
    assert_eq!(src.rows(), dst.rows(), "grid row mismatch");
    assert_eq!(src.cols(), dst.cols(), "grid column mismatch");
    sweep_rows(src, &Coeffs::for_grid(src.rows(), src.cols()), 0, dst.as_mut_slice());
}

/// The Jacobi update of the whole rows `first_row..` of `src` into `out`
/// (row-major, a whole number of rows), with `coeffs` from
/// [`Coeffs::for_grid`].
pub(crate) fn sweep_rows(src: &Grid, coeffs: &Coeffs, first_row: usize, out: &mut [f64]) {
    let (rows, cols) = (src.rows(), src.cols());
    for (r, out_row) in (first_row..).zip(out.chunks_exact_mut(cols.max(1))) {
        let here = src.row(r);
        if r == 0 || r + 1 == rows || cols < 3 {
            out_row.copy_from_slice(here);
            continue;
        }
        out_row[0] = here[0];
        out_row[cols - 1] = here[cols - 1];
        coeffs.update_row(r, src.row(r - 1), here, src.row(r + 1), &mut out_row[1..cols - 1]);
    }
}

/// Runs `iterations` Jacobi sweeps sequentially and returns the final grid —
/// the reference every parallel implementation is verified against.
pub fn reference_jacobi(initial: &Grid, iterations: usize) -> Grid {
    let coeffs = Coeffs::for_grid(initial.rows(), initial.cols());
    let mut a = initial.clone();
    let mut b = Grid::zeros(initial.rows(), initial.cols());
    for _ in 0..iterations {
        sweep_rows(&a, &coeffs, 0, b.as_mut_slice());
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// Runs `iterations` Gauss-Seidel sweeps sequentially (the original LINPACK
/// update order).
pub fn reference_gauss_seidel(initial: &Grid, iterations: usize) -> Grid {
    let mut a = initial.clone();
    for _ in 0..iterations {
        sweep_gauss_seidel(&mut a);
    }
    a
}

/// The per-point kernel the [`Coeffs`] tables replaced, kept as the naive
/// reference the table-driven sweeps are tested against: every point calls
/// [`coeff`] five times.
#[cfg(test)]
pub(crate) mod naive {
    use super::{coeff, Grid, RELAXATION};

    fn update_point(read: &Grid, row: usize, col: usize) -> f64 {
        let qa = read.get(row, col + 1) * coeff(0, row, col)
            + read.get(row, col - 1) * coeff(1, row, col)
            + read.get(row + 1, col) * coeff(2, row, col)
            + read.get(row - 1, col) * coeff(3, row, col)
            + coeff(4, row, col);
        let za = read.get(row, col);
        za + RELAXATION * (qa - za)
    }

    /// One Jacobi sweep, point by point.
    pub(crate) fn sweep_jacobi(src: &Grid, dst: &mut Grid) {
        for r in 0..src.rows() {
            for c in 0..src.cols() {
                if r == 0 || c == 0 || r == src.rows() - 1 || c == src.cols() - 1 {
                    dst.set(r, c, src.get(r, c));
                } else {
                    dst.set(r, c, update_point(src, r, c));
                }
            }
        }
    }

    /// `iterations` naive Jacobi sweeps.
    pub(crate) fn reference_jacobi(initial: &Grid, iterations: usize) -> Grid {
        let mut a = initial.clone();
        let mut b = Grid::zeros(initial.rows(), initial.cols());
        for _ in 0..iterations {
            sweep_jacobi(&a, &mut b);
            std::mem::swap(&mut a, &mut b);
        }
        a
    }

    /// Asserts that two grids of one shape hold the same bits in every cell.
    pub(crate) fn assert_bit_identical(actual: &Grid, expected: &Grid) {
        assert_eq!((actual.rows(), actual.cols()), (expected.rows(), expected.cols()), "grid shapes differ");
        for r in 0..actual.rows() {
            for c in 0..actual.cols() {
                let (a, e) = (actual.get(r, c), expected.get(r, c));
                assert_eq!(a.to_bits(), e.to_bits(), "cell ({r},{c}): {a} vs naive {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_accessors_roundtrip() {
        let mut g = Grid::zeros(4, 6);
        assert_eq!(g.rows(), 4);
        assert_eq!(g.cols(), 6);
        g.set(2, 5, 3.25);
        assert_eq!(g.get(2, 5), 3.25);
        assert_eq!(g.as_slice().len(), 24);
        g.as_mut_slice()[0] = 1.0;
        assert_eq!(g.get(0, 0), 1.0);
    }

    #[test]
    fn initial_condition_is_deterministic_and_nontrivial() {
        let a = Grid::initial(16, 16);
        let b = Grid::initial(16, 16);
        assert_eq!(a, b);
        // Not constant: at least two different values.
        let first = a.get(0, 0);
        assert!(a.as_slice().iter().any(|&v| (v - first).abs() > 1e-9));
    }

    #[test]
    fn coefficients_are_bounded_and_field_dependent() {
        for field in 0..5 {
            for &(r, c) in &[(0usize, 0usize), (7, 3), (100, 200), (16383, 16383)] {
                let v = coeff(field, r, c);
                assert!(v.abs() < 1.0, "field {field} at ({r},{c}) = {v}");
            }
        }
        assert_ne!(coeff(0, 5, 5), coeff(1, 5, 5));
    }

    #[test]
    fn coeff_tables_equal_the_closed_form_bit_for_bit() {
        let n = 256;
        let table = Coeffs::new(0..n, 0..n, n, n);
        for field in 0..5 {
            for r in 0..n {
                for c in 0..n {
                    let (t, f) = (table.get(field, r, c), coeff(field, r, c));
                    assert_eq!(t.to_bits(), f.to_bits(), "field {field} at ({r},{c}): {t} vs {f}");
                }
            }
        }
        // The far corner of the paper's 16384² grid, in a window of its own.
        let corner = Coeffs::new(16383..16384, 16383..16384, 16384, 16384);
        for field in 0..5 {
            assert_eq!(corner.get(field, 16383, 16383).to_bits(), coeff(field, 16383, 16383).to_bits());
        }
    }

    #[test]
    fn table_driven_sweeps_equal_the_naive_kernel_bit_for_bit() {
        for (rows, cols) in [(37, 29), (3, 3), (5, 2), (2, 6), (1, 4), (4, 1)] {
            let g0 = Grid::initial(rows, cols);
            let expected = naive::reference_jacobi(&g0, 5);
            naive::assert_bit_identical(&reference_jacobi(&g0, 5), &expected);
            let mut a = g0.clone();
            let mut b = Grid::zeros(rows, cols);
            for _ in 0..5 {
                sweep_jacobi(&a, &mut b);
                std::mem::swap(&mut a, &mut b);
            }
            naive::assert_bit_identical(&a, &expected);
        }
    }

    #[test]
    #[should_panic(expected = "do not match")]
    fn update_row_rejects_slices_of_the_wrong_width() {
        let table = Coeffs::new(1..2, 1..4, 8, 8);
        let row = [0.0; 5];
        table.update_row(1, &row, &row, &row, &mut [0.0; 2]);
    }

    #[test]
    fn jacobi_sweep_preserves_boundary() {
        let src = Grid::initial(8, 8);
        let mut dst = Grid::zeros(8, 8);
        sweep_jacobi(&src, &mut dst);
        for i in 0..8 {
            assert_eq!(dst.get(0, i), src.get(0, i));
            assert_eq!(dst.get(7, i), src.get(7, i));
            assert_eq!(dst.get(i, 0), src.get(i, 0));
            assert_eq!(dst.get(i, 7), src.get(i, 7));
        }
        // Interior did change.
        assert!(dst.max_abs_diff(&src) > 0.0);
    }

    #[test]
    fn jacobi_iterations_converge_towards_a_fixed_point() {
        // The relaxation is a contraction for these coefficient magnitudes:
        // successive iterates get closer to each other.
        let g0 = Grid::initial(32, 32);
        let g1 = reference_jacobi(&g0, 1);
        let g5 = reference_jacobi(&g0, 5);
        let g6 = reference_jacobi(&g0, 6);
        let early_delta = g1.max_abs_diff(&g0);
        let late_delta = g6.max_abs_diff(&g5);
        assert!(late_delta < early_delta, "late {late_delta} vs early {early_delta}");
    }

    #[test]
    fn gauss_seidel_differs_from_jacobi_but_stays_close() {
        let g0 = Grid::initial(24, 24);
        let j = reference_jacobi(&g0, 3);
        let gs = reference_gauss_seidel(&g0, 3);
        let diff = j.max_abs_diff(&gs);
        assert!(diff > 0.0, "the two sweeps should not be identical");
        assert!(diff < 0.5, "but they relax the same field: diff {diff}");
    }

    #[test]
    fn zero_iterations_returns_initial() {
        let g0 = Grid::initial(8, 8);
        assert_eq!(reference_jacobi(&g0, 0), g0);
        assert_eq!(reference_gauss_seidel(&g0, 0), g0);
    }

    #[test]
    fn checksum_and_diff_helpers() {
        let a = Grid::initial(8, 8);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(3, 3, b.get(3, 3) + 0.5);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
        assert!((b.checksum() - a.checksum() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn diff_of_mismatched_grids_panics() {
        Grid::zeros(4, 4).max_abs_diff(&Grid::zeros(4, 5));
    }
}
