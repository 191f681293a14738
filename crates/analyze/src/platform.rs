//! Platform lints: DVFS level sets, thermal-network structure, stability of
//! the state matrix, and power-model monotonicity.
//!
//! The raw-value checks (`check_levels`, `check_tau`, `check_t_max_c`,
//! `check_core_count`) run on numbers exactly as a spec file states them —
//! *before* typed construction, because `ModeTable::from_levels` silently
//! sorts and deduplicates and would mask M001, and because construction
//! itself is O(n³) in the core count (M010). The typed check (`check_platform`)
//! verifies the assembled [`Platform`] against the paper's model
//! assumptions: `G` symmetric and diagonally dominant, `A = C⁻¹(βE − G)`
//! Hurwitz-stable (the spectrum assumption behind Theorems 1–5), and
//! `ψ(v)` strictly increasing over the level set (Theorems 3–4 trade time
//! between levels assuming higher voltage costs more power).

use crate::diag::{Code, Report};
use mosc_sched::Platform;

/// Most cores a platform may have (M010). `Platform::build` runs an O(n³)
/// eigendecomposition on a floorplan it has not seen, so the cap is checked
/// before construction and before the thermal-model table is consulted.
pub const MAX_CORES: usize = 64;

/// Relative tolerance for the `G` symmetry check.
const SYM_TOL: f64 = 1e-9;
/// Slack for the diagonal-dominance row sums (they carry ambient legs and
/// should be strictly positive; tiny negative values are rounding).
const DOM_TOL: f64 = 1e-9;

/// Lints a raw DVFS level list: M003 (fewer than two levels), M002
/// (non-finite / non-positive entries), M001 (not strictly increasing).
#[must_use]
pub fn check_levels(levels: &[f64]) -> Report {
    let mut report = Report::new();
    if levels.len() < 2 {
        report.push(
            Code::TooFewLevels,
            "platform.levels",
            format!("need at least 2 DVFS levels, got {}", levels.len()),
        );
    }
    for (i, &v) in levels.iter().enumerate() {
        if !(v.is_finite() && v > 0.0) {
            report.push(
                Code::LevelInvalid,
                format!("platform.levels[{i}]"),
                format!("level must be a finite positive voltage, got {v}"),
            );
        }
    }
    for (i, pair) in levels.windows(2).enumerate() {
        if pair[1] <= pair[0] {
            report.push(
                Code::LevelsNotSorted,
                format!("platform.levels[{}]", i + 1),
                format!("levels must be strictly increasing, but {} follows {}", pair[1], pair[0]),
            );
        }
    }
    report
}

/// Lints a raw DVFS transition overhead: M009 for negative or non-finite τ.
#[must_use]
pub fn check_tau(tau: f64) -> Report {
    let mut report = Report::new();
    if !(tau.is_finite() && tau >= 0.0) {
        report.push(
            Code::OverheadInvalid,
            "platform.tau",
            format!("transition overhead must be finite and non-negative, got {tau}"),
        );
    }
    report
}

/// Lints a raw platform size: M010 when `rows × cols × layers` exceeds
/// [`MAX_CORES`].
#[must_use]
pub(crate) fn check_core_count(rows: usize, cols: usize, layers: usize) -> Report {
    let mut report = Report::new();
    let cores = rows.saturating_mul(cols).saturating_mul(layers);
    if cores > MAX_CORES {
        report.push(
            Code::TooManyCores,
            "platform",
            format!("{rows}×{cols}×{layers} = {cores} cores exceeds the limit of {MAX_CORES}"),
        );
    }
    report
}

/// Lints a raw temperature threshold against the ambient: M004 when the
/// constraint is vacuous or unsatisfiable (`T_max ≤ T_ambient`).
#[must_use]
pub fn check_t_max_c(t_max_c: f64, t_ambient_c: f64) -> Report {
    let mut report = Report::new();
    if !(t_max_c.is_finite() && t_max_c > t_ambient_c) {
        report.push(
            Code::TmaxNotAboveAmbient,
            "platform.t_max_c",
            format!("T_max = {t_max_c} °C must exceed the ambient {t_ambient_c} °C"),
        );
    }
    report
}

/// Lints an assembled [`Platform`]: level set, `T_max`, τ, conductance
/// symmetry (M005) and diagonal dominance (M006), Hurwitz stability of the
/// state matrix (M007), and power-model monotonicity over the level range
/// (M008).
#[must_use]
pub fn check_platform(platform: &Platform) -> Report {
    let mut report = check_levels(platform.modes().levels());
    report.merge(check_t_max_c(platform.t_max_c(), platform.t_ambient_c()));
    report.merge(check_tau(platform.overhead().tau));

    // Conductance structure. `G` is a graph Laplacian plus ambient legs:
    // symmetric (heat flow is reciprocal) and diagonally dominant (every
    // node leaks at least as much as it exchanges).
    let g = platform.thermal().network().conductance();
    let n = g.rows();
    let mut asym = 0usize;
    let mut first_asym = None;
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (g[(i, j)], g[(j, i)]);
            if (a - b).abs() > SYM_TOL * a.abs().max(b.abs()).max(1.0) {
                asym += 1;
                if first_asym.is_none() {
                    first_asym = Some((i, j, a, b));
                }
            }
        }
    }
    if let Some((i, j, a, b)) = first_asym {
        report.push(
            Code::ConductanceAsymmetric,
            format!("platform.thermal.G[{i}][{j}]"),
            format!("G[{i}][{j}] = {a} but G[{j}][{i}] = {b} ({asym} asymmetric pair(s))"),
        );
    }
    for i in 0..n {
        let row_sum: f64 = (0..n).map(|j| g[(i, j)]).sum();
        let offdiag: f64 = (0..n).filter(|&j| j != i).map(|j| g[(i, j)].abs()).sum();
        if row_sum < -DOM_TOL * offdiag.max(1.0) {
            report.push(
                Code::NotDiagonallyDominant,
                format!("platform.thermal.G[{i}]"),
                format!(
                    "row {i} is not diagonally dominant: diagonal {} vs off-diagonal mass {offdiag}",
                    g[(i, i)]
                ),
            );
        }
    }

    // Hurwitz stability: every eigenvalue of A strictly negative.
    let eigs = platform.thermal().eigenvalues();
    let max_eig = eigs.max();
    if max_eig >= 0.0 || max_eig.is_nan() {
        report.push(
            Code::NotHurwitz,
            "platform.thermal.A",
            format!("state matrix is not Hurwitz-stable: max eigenvalue {max_eig:e} >= 0"),
        );
    }

    // Power monotonicity over the level set.
    let levels = platform.modes().levels();
    for (i, pair) in levels.windows(2).enumerate() {
        let (lo, hi) = (platform.power().psi(pair[0]), platform.power().psi(pair[1]));
        if hi <= lo {
            report.push(
                Code::PowerNotMonotone,
                format!("platform.levels[{}]", i + 1),
                format!(
                    "psi({hi_level}) = {hi} does not exceed psi({lo_level}) = {lo}, so \
                     raising voltage gains speed for free and the level pair is degenerate",
                    lo_level = pair[0],
                    hi_level = pair[1],
                ),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosc_sched::PlatformSpec;

    #[test]
    fn paper_platform_is_clean() {
        let p = Platform::build(&PlatformSpec::paper(2, 3, 5, 55.0)).unwrap();
        let r = check_platform(&p);
        assert!(r.is_clean(), "unexpected findings:\n{r}");
    }

    #[test]
    fn raw_level_lints_fire() {
        assert!(check_levels(&[0.6]).has_code(Code::TooFewLevels));
        assert!(check_levels(&[0.6, 0.6]).has_code(Code::LevelsNotSorted));
        assert!(check_levels(&[1.3, 0.6]).has_code(Code::LevelsNotSorted));
        assert!(check_levels(&[0.6, f64::NAN]).has_code(Code::LevelInvalid));
        assert!(check_levels(&[-0.5, 0.6]).has_code(Code::LevelInvalid));
        assert!(check_levels(&[0.6, 1.3]).is_clean());
    }

    #[test]
    fn raw_tau_and_tmax_lints_fire() {
        assert!(check_tau(-1e-6).has_code(Code::OverheadInvalid));
        assert!(check_tau(f64::INFINITY).has_code(Code::OverheadInvalid));
        assert!(check_tau(0.0).is_clean());
        assert!(check_t_max_c(35.0, 35.0).has_code(Code::TmaxNotAboveAmbient));
        assert!(check_t_max_c(20.0, 35.0).has_code(Code::TmaxNotAboveAmbient));
        assert!(check_t_max_c(55.0, 35.0).is_clean());
        assert!(check_core_count(8, 8, 1).is_clean());
        assert!(check_core_count(5, 5, 3).has_code(Code::TooManyCores));
        assert!(check_core_count(usize::MAX, 2, 1).has_code(Code::TooManyCores));
    }

    #[test]
    fn every_builtin_substrate_passes() {
        use mosc_thermal::RcConfig;
        for rc in [RcConfig::default(), RcConfig::budget_cooler(), RcConfig::responsive_package()] {
            let mut spec = PlatformSpec::paper(1, 3, 2, 65.0);
            spec.rc = rc;
            let p = Platform::build(&spec).unwrap();
            let r = check_platform(&p);
            assert!(r.is_clean(), "findings:\n{r}");
        }
    }
}
