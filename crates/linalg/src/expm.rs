//! Matrix exponential via scaling-and-squaring with Padé approximants.
//!
//! This is the workhorse of the thermal interval propagator: eq. (3) of the
//! paper advances the temperature across a state interval of length `l` with
//! `Φ = e^{A·l}`. The implementation follows Higham, *"The Scaling and
//! Squaring Method for the Matrix Exponential Revisited"* (SIAM J. Matrix
//! Anal. Appl., 2005): pick the smallest Padé order in {3, 5, 7, 9, 13} whose
//! backward-error bound covers `‖A‖₁`, scaling by a power of two only when
//! even order 13 does not suffice.

use crate::{norm_1, LinalgError, Lu, Matrix, Result};

/// Matrix exponentials evaluated: dense ones built here ([`expm`] and
/// [`expm_scaled`] both land here), plus the ones `mosc-thermal` builds
/// (`propagator`) or applies (`advance`) through its eigendecomposition,
/// reported via [`count_expm_call`]. Telemetry attributes the transient
/// solvers' cost by watching this counter.
static EXPM_CALLS: mosc_obs::Counter = mosc_obs::Counter::new("expm.calls");

/// Records a matrix exponential evaluated outside this module into the
/// shared `expm.calls` metric. The thermal model builds or applies
/// `e^{A·dt}` through its eigendecomposition rather than Padé, but it is the
/// same `Φ(dt)` of eq. (3); counting both keeps `expm.calls` meaning "matrix
/// exponentials evaluated" regardless of the algorithm.
pub fn count_expm_call() {
    EXPM_CALLS.incr();
}

/// Backward-error thresholds `θ_m` for Padé orders 3, 5, 7, 9, 13 (Higham 2005,
/// Table 2.3, double precision). Stated at full published precision even
/// where f64 rounds the last digit.
#[allow(clippy::excessive_precision)]
const THETA: [(usize, f64); 5] = [
    (3, 1.495_585_217_958_292e-2),
    (5, 2.539_398_330_063_230e-1),
    (7, 9.504_178_996_162_932e-1),
    (9, 2.097_847_961_257_068e0),
    (13, 5.371_920_351_148_152e0),
];

/// Padé numerator coefficients `b_0..b_m` for order `m` (denominator uses the
/// same coefficients with alternating signs on odd powers).
fn pade_coeffs(m: usize) -> &'static [f64] {
    match m {
        3 => &[120.0, 60.0, 12.0, 1.0],
        5 => &[30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0],
        7 => &[17_297_280.0, 8_648_640.0, 1_995_840.0, 277_200.0, 25_200.0, 1512.0, 56.0, 1.0],
        9 => &[
            17_643_225_600.0,
            8_821_612_800.0,
            2_075_673_600.0,
            302_702_400.0,
            30_270_240.0,
            2_162_160.0,
            110_880.0,
            3960.0,
            90.0,
            1.0,
        ],
        13 => &[
            64_764_752_532_480_000.0,
            32_382_376_266_240_000.0,
            7_771_770_303_897_600.0,
            1_187_353_796_428_800.0,
            129_060_195_264_000.0,
            10_559_470_521_600.0,
            670_442_572_800.0,
            33_522_128_640.0,
            1_323_241_920.0,
            40_840_800.0,
            960_960.0,
            16_380.0,
            182.0,
            1.0,
        ],
        _ => unreachable!("unsupported Padé order {m}"),
    }
}

/// Computes `e^A` for a square matrix.
///
/// ```
/// use mosc_linalg::{expm, Matrix};
/// // The 2x2 rotation generator: e^A is a rotation by θ.
/// let theta = 0.5_f64;
/// let a = Matrix::from_rows(&[&[0.0, -theta], &[theta, 0.0]]);
/// let e = expm(&a).unwrap();
/// assert!((e[(0, 0)] - theta.cos()).abs() < 1e-12);
/// assert!((e[(1, 0)] - theta.sin()).abs() < 1e-12);
/// ```
///
/// # Errors
/// * [`LinalgError::NotSquare`] for rectangular input.
/// * [`LinalgError::NonFinite`] when the input contains NaN/∞.
/// * [`LinalgError::Singular`] if the Padé denominator cannot be inverted
///   (does not happen for matrices within the θ bounds; guards pathology).
pub fn expm(a: &Matrix) -> Result<Matrix> {
    EXPM_CALLS.incr();
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape(), op: "expm" });
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite { op: "expm" });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Matrix::zeros(0, 0));
    }

    let norm = norm_1(a);
    // Small orders without scaling when the norm allows.
    for &(m, theta) in &THETA[..4] {
        if norm <= theta {
            return pade(a, m);
        }
    }

    // Order 13 with scaling: A / 2^s so that the scaled norm is under θ13.
    let theta13 = THETA[4].1;
    let mut s = 0u32;
    let mut scaled_norm = norm;
    while scaled_norm > theta13 {
        scaled_norm /= 2.0;
        s += 1;
    }
    let scaled = a.scaled(0.5_f64.powi(s as i32));
    let mut e = pade(&scaled, 13)?;
    for _ in 0..s {
        e = e.matmul(&e)?;
    }
    Ok(e)
}

/// Computes `e^{A·t}` — convenience wrapper used by the interval propagator.
///
/// # Errors
/// Same as [`expm`].
pub fn expm_scaled(a: &Matrix, t: f64) -> Result<Matrix> {
    if !t.is_finite() {
        return Err(LinalgError::NonFinite { op: "expm_scaled" });
    }
    expm(&a.scaled(t))
}

/// Evaluates the order-`m` diagonal Padé approximant `r_m(A) ≈ e^A`.
fn pade(a: &Matrix, m: usize) -> Result<Matrix> {
    let b = pade_coeffs(m);
    let n = a.rows();
    let ident = Matrix::identity(n);
    let a2 = a.matmul(a)?;

    // Split r_m = p/q with p = U + V, q = -U + V where U collects odd powers
    // (always a multiple of A) and V the even powers.
    let (u, v) = if m <= 9 {
        // Direct evaluation of even powers A^0, A^2, A^4, ...
        let mut even_pows = vec![ident.clone(), a2.clone()];
        while even_pows.len() <= m / 2 {
            let next = even_pows.last().expect("non-empty").matmul(&a2)?;
            even_pows.push(next);
        }
        let mut u_inner = Matrix::zeros(n, n);
        let mut v = Matrix::zeros(n, n);
        for (k, pow) in even_pows.iter().enumerate() {
            // b[2k+1] multiplies A^{2k+1} = A * A^{2k}; b[2k] multiplies A^{2k}.
            if 2 * k < m {
                u_inner += &pow.scaled(b[2 * k + 1]);
            }
            v += &pow.scaled(b[2 * k]);
        }
        (a.matmul(&u_inner)?, v)
    } else {
        // Order 13 uses the economical evaluation of Higham (2005, eq. 2.12).
        let a4 = a2.matmul(&a2)?;
        let a6 = a4.matmul(&a2)?;
        let w1 = &(&a6.scaled(b[13]) + &a4.scaled(b[11])) + &a2.scaled(b[9]);
        let w2 = &(&(&a6.scaled(b[7]) + &a4.scaled(b[5])) + &a2.scaled(b[3])) + &ident.scaled(b[1]);
        let u_inner = &a6.matmul(&w1)? + &w2;
        let u = a.matmul(&u_inner)?;
        let z1 = &(&a6.scaled(b[12]) + &a4.scaled(b[10])) + &a2.scaled(b[8]);
        let z2 = &(&(&a6.scaled(b[6]) + &a4.scaled(b[4])) + &a2.scaled(b[2])) + &ident.scaled(b[0]);
        let v = &a6.matmul(&z1)? + &z2;
        (u, v)
    };

    let p = &v + &u;
    let q = &v - &u;
    Lu::new(&q)?.solve_mat(&p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vector;

    #[test]
    fn exp_of_zero_is_identity() {
        let z = Matrix::zeros(3, 3);
        assert!(expm(&z).unwrap().max_abs_diff(&Matrix::identity(3)) < 1e-14);
    }

    #[test]
    fn exp_of_empty_matrix() {
        let e = expm(&Matrix::zeros(0, 0)).unwrap();
        assert_eq!(e.shape(), (0, 0));
    }

    #[test]
    fn exp_of_diagonal_is_elementwise_exp() {
        let d = Matrix::from_diag(&[-1.0, 0.5, 2.0]);
        let e = expm(&d).unwrap();
        for (i, lam) in [-1.0, 0.5, 2.0].into_iter().enumerate() {
            assert!((e[(i, i)] - f64::exp(lam)).abs() < 1e-12, "entry {i}");
        }
        assert!(e[(0, 1)].abs() < 1e-14);
    }

    #[test]
    fn exp_of_nilpotent_matches_truncated_series() {
        // N = [[0,1],[0,0]] ⇒ e^N = I + N exactly.
        let n = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let e = expm(&n).unwrap();
        let expected = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        assert!(e.max_abs_diff(&expected) < 1e-14);
    }

    #[test]
    fn rotation_generator() {
        // A = [[0,-θ],[θ,0]] ⇒ e^A = rotation by θ.
        let theta = 0.7;
        let a = Matrix::from_rows(&[&[0.0, -theta], &[theta, 0.0]]);
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - theta.cos()).abs() < 1e-13);
        assert!((e[(1, 0)] - theta.sin()).abs() < 1e-13);
    }

    #[test]
    fn large_norm_triggers_scaling_and_squaring() {
        // ‖A‖ far above θ13 exercises the squaring phase. Check the semigroup
        // identity e^A = (e^{A/2})², whose two sides take different code paths
        // (order-13 scaled vs. lower scaling count).
        let a = Matrix::from_rows(&[&[-30.0, 10.0], &[5.0, -40.0]]);
        let whole = expm(&a).unwrap();
        let half = expm(&a.scaled(0.5)).unwrap();
        let squared = half.matmul(&half).unwrap();
        assert!(whole.max_abs_diff(&squared) < 1e-12);
        // A stable matrix's exponential must stay bounded and decay.
        assert!(whole.max_abs() < 1.0);
    }

    #[test]
    fn semigroup_property() {
        // e^{A(s+t)} = e^{As}·e^{At} for commuting scalings of one matrix.
        let a = Matrix::from_rows(&[&[-2.0, 1.0, 0.0], &[1.0, -3.0, 1.0], &[0.0, 1.0, -2.5]]);
        let whole = expm_scaled(&a, 0.9).unwrap();
        let part = expm_scaled(&a, 0.4).unwrap().matmul(&expm_scaled(&a, 0.5).unwrap()).unwrap();
        assert!(whole.max_abs_diff(&part) < 1e-12);
    }

    #[test]
    fn matches_taylor_series_for_moderate_norm() {
        let a = Matrix::from_rows(&[&[0.2, -0.1], &[0.05, 0.3]]);
        let e = expm(&a).unwrap();
        // 20-term Taylor reference.
        let mut term = Matrix::identity(2);
        let mut sum = Matrix::identity(2);
        for k in 1..=20 {
            term = term.matmul(&a).unwrap().scaled(1.0 / k as f64);
            sum += &term;
        }
        assert!(e.max_abs_diff(&sum) < 1e-14);
    }

    #[test]
    fn stable_matrix_decays_to_zero() {
        let a = Matrix::from_rows(&[&[-1.0, 0.3], &[0.3, -2.0]]);
        let e = expm_scaled(&a, 50.0).unwrap();
        assert!(e.max_abs() < 1e-10);
        // Positivity of the propagator for a Metzler matrix (off-diagonals ≥ 0):
        let e1 = expm_scaled(&a, 1.0).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(e1[(i, j)] >= 0.0, "propagator entry ({i},{j}) negative");
            }
        }
    }

    #[test]
    fn input_validation() {
        assert!(matches!(expm(&Matrix::zeros(2, 3)), Err(LinalgError::NotSquare { .. })));
        let mut a = Matrix::identity(2);
        a[(1, 1)] = f64::INFINITY;
        assert!(matches!(expm(&a), Err(LinalgError::NonFinite { .. })));
        assert!(expm_scaled(&Matrix::identity(2), f64::NAN).is_err());
    }

    #[test]
    fn action_on_vector_matches_ode_euler_reference() {
        // Cross-check e^{At}·x0 against a fine forward-Euler integration.
        let a = Matrix::from_rows(&[&[-1.2, 0.4], &[0.4, -0.8]]);
        let x0 = Vector::from_slice(&[1.0, 2.0]);
        let t = 0.5;
        let exact = expm_scaled(&a, t).unwrap().matvec(&x0).unwrap();
        let steps = 200_000;
        let dt = t / steps as f64;
        let mut x = x0;
        for _ in 0..steps {
            let dx = a.matvec(&x).unwrap();
            x = x.axpy(dt, &dx);
        }
        assert!(exact.max_abs_diff(&x) < 1e-4);
    }
}
