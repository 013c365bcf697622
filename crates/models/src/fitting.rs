//! Ordinary least squares on small, explicit bases.
//!
//! The Section 5 table reports the measured run-time components *as fitted
//! functional forms* (`8·log₂²N + 0.05·N·log₂N`, `11.5·N`, …). To reproduce
//! the table we fit the same forms to our measurements, so the only linear
//! algebra needed is a normal-equations solve for two or three coefficients
//! — small enough to do exactly with Gaussian elimination, no external
//! dependency.

/// A fit result: coefficients (one per basis function) and goodness of fit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fit {
    /// Coefficients, one per basis column.
    pub(crate) coefficients: Vec<f64>,
    /// Coefficient of determination `R²` (1.0 = perfect).
    pub(crate) r_squared: f64,
}

/// Fits `y ≈ Σ c_k · basis[k]` by ordinary least squares.
///
/// `rows` holds one basis row per observation.
///
/// # Panics
///
/// Panics if shapes disagree, there are fewer observations than
/// coefficients, or the normal equations are singular (e.g. collinear basis
/// functions).
pub(crate) fn least_squares(rows: &[Vec<f64>], y: &[f64]) -> Fit {
    assert_eq!(rows.len(), y.len(), "one observation per basis row");
    assert!(!rows.is_empty(), "no observations");
    let k = rows[0].len();
    assert!(k > 0, "at least one basis function");
    assert!(rows.iter().all(|r| r.len() == k), "ragged basis rows");
    assert!(
        rows.len() >= k,
        "need at least as many observations as coefficients"
    );

    // Normal equations: (XᵀX) c = Xᵀy.
    let mut ata = vec![vec![0.0; k]; k];
    let mut aty = vec![0.0; k];
    for (row, &yi) in rows.iter().zip(y) {
        for i in 0..k {
            aty[i] += row[i] * yi;
            for j in 0..k {
                ata[i][j] += row[i] * row[j];
            }
        }
    }
    let coefficients = solve(ata, aty);

    let mean = y.iter().sum::<f64>() / y.len() as f64;
    let ss_tot: f64 = y.iter().map(|v| (v - mean).powi(2)).sum();
    let ss_res: f64 = rows
        .iter()
        .zip(y)
        .map(|(row, &yi)| {
            let pred: f64 = row.iter().zip(&coefficients).map(|(x, c)| x * c).sum();
            (yi - pred).powi(2)
        })
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Fit {
        coefficients,
        r_squared,
    }
}

/// Gaussian elimination with partial pivoting.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty system");
        assert!(
            a[pivot][col].abs() > 1e-12,
            "singular normal equations (collinear basis?)"
        );
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            let (pivot_rows, rest) = a.split_at_mut(row);
            let pivot_row = &pivot_rows[col];
            for (k, cell) in rest[0].iter_mut().enumerate().skip(col) {
                *cell -= factor * pivot_row[k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in row + 1..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc / a[row][row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line() {
        // y = 3x + 2 with basis [x, 1].
        let rows: Vec<Vec<f64>> = (1..=5).map(|x| vec![x as f64, 1.0]).collect();
        let y: Vec<f64> = (1..=5).map(|x| 3.0 * x as f64 + 2.0).collect();
        let fit = least_squares(&rows, &y);
        assert!((fit.coefficients[0] - 3.0).abs() < 1e-9);
        assert!((fit.coefficients[1] - 2.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_paper_style_form() {
        // y = 8·log²N + 0.05·N·logN over N = 4..1024.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for p in 2..=10u32 {
            let n = (1u64 << p) as f64;
            let log = p as f64;
            rows.push(vec![log * log, n * log]);
            y.push(8.0 * log * log + 0.05 * n * log);
        }
        let fit = least_squares(&rows, &y);
        assert!((fit.coefficients[0] - 8.0).abs() < 1e-6);
        assert!((fit.coefficients[1] - 0.05).abs() < 1e-9);
    }

    #[test]
    fn noisy_fit_still_close() {
        // y = 2x with deterministic "noise".
        let rows: Vec<Vec<f64>> = (1..=20).map(|x| vec![x as f64]).collect();
        let y: Vec<f64> = (1..=20)
            .map(|x| 2.0 * x as f64 + if x % 2 == 0 { 0.3 } else { -0.3 })
            .collect();
        let fit = least_squares(&rows, &y);
        assert!((fit.coefficients[0] - 2.0).abs() < 0.02);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn single_coefficient_mean_ratio() {
        let rows = vec![vec![1.0], vec![2.0], vec![4.0]];
        let y = vec![3.0, 6.0, 12.0];
        let fit = least_squares(&rows, &y);
        assert!((fit.coefficients[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn collinear_basis_panics() {
        let rows = vec![vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]];
        let y = vec![1.0, 2.0, 3.0];
        least_squares(&rows, &y);
    }

    #[test]
    #[should_panic(expected = "at least as many observations")]
    fn underdetermined_panics() {
        least_squares(&[vec![1.0, 2.0]], &[1.0]);
    }
}
