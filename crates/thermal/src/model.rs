//! The LTI thermal model `dT/dt = A·T + B(ψ)` and its solvers.

use crate::{RcNetwork, Result, ThermalError};
use mosc_linalg::{Lu, Matrix, SymmetricEigen, Vector};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Modal steady-state lookups served from the memo
/// ([`ThermalModel::modal_steady_state`]) instead of a fresh LU solve.
static T_INF_CACHE_HITS: mosc_obs::Counter = mosc_obs::Counter::new("steady_state.cache_hits");

/// Modal steady-state memo capacity: profiles are combinations of the
/// discrete voltage levels, so in practice this is never reached.
const T_INF_CACHE_CAP: usize = 4096;

/// The linear time-invariant thermal model of eq. (2), assembled from an
/// [`RcNetwork`] and the leakage sensitivity `β`:
///
/// ```text
/// C·dT/dt = −G·T + β·E·T + ψ_ext   ⇒   A = C⁻¹(βE − G),  B(ψ) = C⁻¹ψ_ext
/// ```
///
/// where `E` selects die nodes (leakage flows in cores, not in the package)
/// and `ψ_ext` scatters the per-core temperature-independent power onto die
/// nodes. `A` is similar to the symmetric negative-definite matrix
/// `−C^{-1/2}(G−βE)C^{-1/2}`, so its eigenvalues are negative reals — exactly
/// the spectrum assumption the paper's Theorems 1–5 need. Construction fails
/// with [`ThermalError::Unstable`] if `β` is large enough to break it
/// (thermal runaway).
///
/// The eigendecomposition is computed once. Every interval step
/// `T ↦ e^{A·l}(T − T∞) + T∞` then runs in its eigenbasis: one basis change
/// in, an elementwise decay `e^{−λ·l}`, one basis change out
/// ([`ThermalModel::advance`]), with `T∞` memoized per power profile. No
/// propagator is cached; the dense [`ThermalModel::propagator`] is kept as
/// the reference the modal step is tested against.
#[derive(Debug)]
pub struct ThermalModel {
    network: RcNetwork,
    /// Per-core leakage sensitivities (W/K), in core order.
    betas: Vec<f64>,
    /// LU of `G_eff = G − βE`, for steady states.
    lu_geff: Lu,
    /// Eigendecomposition of `S = C^{-1/2}·G_eff·C^{-1/2}` (SPD).
    eigen: SymmetricEigen,
    /// `C^{1/2}` and `C^{-1/2}` diagonals.
    c_sqrt: Vec<f64>,
    c_inv_sqrt: Vec<f64>,
    /// Response matrix: `T∞(cores) = R · ψ(cores)`, precomputed lazily.
    response: Mutex<Option<Arc<Matrix>>>,
    /// Modal steady states memoized by the power profile's bit pattern.
    modal_t_inf: Mutex<HashMap<Vec<u64>, Arc<Vector>>>,
}

impl ThermalModel {
    /// Builds the model with one leakage sensitivity shared by all cores;
    /// checks stability.
    ///
    /// # Errors
    /// * [`ThermalError::InvalidParameter`] for negative/non-finite `β`.
    /// * [`ThermalError::Unstable`] when `A` has a non-negative eigenvalue.
    /// * Propagated linear-algebra failures for degenerate networks.
    pub fn new(network: RcNetwork, beta: f64) -> Result<Self> {
        let betas = vec![beta; network.n_cores()];
        Self::with_betas(network, &betas)
    }

    /// Builds the model with per-core leakage sensitivities (process
    /// variation / heterogeneous core types); checks stability.
    ///
    /// # Errors
    /// * [`ThermalError::InvalidParameter`] for negative/non-finite `β` or a
    ///   wrong-length slice.
    /// * [`ThermalError::Unstable`] when `A` has a non-negative eigenvalue.
    /// * Propagated linear-algebra failures for degenerate networks.
    pub fn with_betas(network: RcNetwork, betas: &[f64]) -> Result<Self> {
        if betas.len() != network.n_cores() {
            return Err(ThermalError::DimensionMismatch {
                expected: network.n_cores(),
                actual: betas.len(),
                op: "with_betas",
            });
        }
        if betas.iter().any(|b| !b.is_finite() || *b < 0.0) {
            return Err(ThermalError::InvalidParameter { what: "beta must be finite and >= 0" });
        }
        let n = network.n_nodes();
        let n_cores = network.n_cores();

        // G_eff = G − E·diag(β) (E selects die nodes).
        let mut g_eff = network.conductance().clone();
        for i in 0..n_cores {
            g_eff[(i, i)] -= betas[i];
        }

        let c_sqrt: Vec<f64> = network.capacitance().iter().map(|&c| c.sqrt()).collect();
        let c_inv_sqrt: Vec<f64> = c_sqrt.iter().map(|&s| 1.0 / s).collect();

        // S = C^{-1/2} G_eff C^{-1/2}: symmetric; SPD ⟺ model stable.
        let s = Matrix::from_fn(n, n, |i, j| c_inv_sqrt[i] * g_eff[(i, j)] * c_inv_sqrt[j]);
        let eigen = SymmetricEigen::new(&s)?;
        let min_eig = eigen.values.min();
        if min_eig <= 0.0 {
            // Eigenvalues of A are the negated eigenvalues of S.
            return Err(ThermalError::Unstable { max_eigenvalue: -min_eig });
        }

        let lu_geff = Lu::new(&g_eff)?;
        Ok(Self {
            network,
            betas: betas.to_vec(),
            lu_geff,
            eigen,
            c_sqrt,
            c_inv_sqrt,
            response: Mutex::new(None),
            modal_t_inf: Mutex::new(HashMap::new()),
        })
    }

    /// Number of cores (die nodes, indices `0..n_cores`).
    #[inline]
    #[must_use]
    pub fn n_cores(&self) -> usize {
        self.network.n_cores()
    }

    /// Total thermal node count.
    #[inline]
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.network.n_nodes()
    }

    /// The underlying network.
    #[inline]
    #[must_use]
    pub fn network(&self) -> &RcNetwork {
        &self.network
    }

    /// Nominal leakage sensitivity β (W/K) — the first core's value; use
    /// [`ThermalModel::betas`] for the per-core list.
    #[inline]
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.betas[0]
    }

    /// Per-core leakage sensitivities (W/K).
    #[inline]
    #[must_use]
    pub fn betas(&self) -> &[f64] {
        &self.betas
    }

    /// Eigenvalues of the state matrix `A` (all negative), ascending.
    #[must_use]
    pub fn eigenvalues(&self) -> Vector {
        // A's spectrum is the negation of S's; S ascending ⇒ negate+reverse.
        let n = self.eigen.values.len();
        Vector::from_fn(n, |k| -self.eigen.values[n - 1 - k])
    }

    /// Materializes the state matrix `A = C⁻¹(βE − G)` (mostly for tests and
    /// the RK4 cross-check; the solvers use the factored forms).
    #[must_use]
    pub fn a_matrix(&self) -> Matrix {
        let n = self.n_nodes();
        let g = self.network.conductance();
        let c = self.network.capacitance();
        Matrix::from_fn(n, n, |i, j| {
            let mut v = -g[(i, j)];
            if i == j && i < self.n_cores() {
                v += self.betas[i];
            }
            v / c[i]
        })
    }

    /// Scatters per-core power onto the full node vector (`ψ_ext`).
    ///
    /// # Errors
    /// Returns [`ThermalError::DimensionMismatch`] for a wrong-length profile.
    pub fn scatter_power(&self, psi_cores: &[f64]) -> Result<Vector> {
        if psi_cores.len() != self.n_cores() {
            return Err(ThermalError::DimensionMismatch {
                expected: self.n_cores(),
                actual: psi_cores.len(),
                op: "scatter_power",
            });
        }
        let mut p = Vector::zeros(self.n_nodes());
        for (i, &v) in psi_cores.iter().enumerate() {
            p[i] = v;
        }
        Ok(p)
    }

    /// Steady-state node temperatures under constant per-core power:
    /// `T∞ = G_eff⁻¹·ψ_ext` (eq. `T∞ = −A⁻¹B`).
    ///
    /// # Errors
    /// Dimension mismatch or (never for a constructed model) solver failure.
    pub fn steady_state(&self, psi_cores: &[f64]) -> Result<Vector> {
        let p = self.scatter_power(psi_cores)?;
        Ok(self.lu_geff.solve_vec(&p)?)
    }

    /// Steady-state **core** temperatures only.
    ///
    /// # Errors
    /// Same as [`ThermalModel::steady_state`].
    pub fn steady_state_cores(&self, psi_cores: &[f64]) -> Result<Vector> {
        let full = self.steady_state(psi_cores)?;
        Ok(Vector::from_fn(self.n_cores(), |i| full[i]))
    }

    /// The `n_cores × n_cores` response matrix `R` with
    /// `T∞(cores) = R·ψ(cores)`. Column `j` is the core-temperature response
    /// to 1 W on core `j`; all entries are positive (heating any core warms
    /// every core). Precomputed on first use, then shared.
    ///
    /// # Errors
    /// Solver failure (cannot occur for a constructed model).
    pub fn response_matrix(&self) -> Result<Arc<Matrix>> {
        let mut guard = self.response.lock().expect("response lock poisoned");
        if let Some(r) = guard.as_ref() {
            return Ok(Arc::clone(r));
        }
        let nc = self.n_cores();
        let mut r = Matrix::zeros(nc, nc);
        for j in 0..nc {
            let mut unit = vec![0.0; nc];
            unit[j] = 1.0;
            let t = self.steady_state_cores(&unit)?;
            for i in 0..nc {
                r[(i, j)] = t[i];
            }
        }
        let arc = Arc::new(r);
        *guard = Some(Arc::clone(&arc));
        Ok(arc)
    }

    /// The dense interval propagator `Φ(dt) = e^{A·dt}`, built through the
    /// eigendecomposition (`e^{A·t} = C^{-1/2}·V·e^{−Λt}·Vᵀ·C^{1/2}`) on every
    /// call — an `O(N³)` product. The solvers never need it:
    /// [`ThermalModel::advance`] applies the same map in the eigenbasis. It
    /// is the reference for that step and for `mosc-sched`'s dense oracle.
    ///
    /// # Errors
    /// Returns [`ThermalError::InvalidParameter`] for negative or non-finite
    /// `dt`.
    pub fn propagator(&self, dt: f64) -> Result<Matrix> {
        let decay = self.modal_decay(dt)?;
        let n = self.n_nodes();
        mosc_linalg::count_expm_call();
        let v = &self.eigen.vectors;
        // M = V · diag(e^{-λ·dt}) · Vᵀ, then Φ = C^{-1/2} M C^{1/2}.
        let scaled = Matrix::from_fn(n, n, |i, k| v[(i, k)] * decay[k]);
        let m = scaled.matmul(&v.transpose())?;
        Ok(Matrix::from_fn(n, n, |i, j| self.c_inv_sqrt[i] * m[(i, j)] * self.c_sqrt[j]))
    }

    /// Modal decay factors over an interval of length `dt`: the diagonal of
    /// `e^{−Λ·dt}` in the eigenbasis of `S = C^{-1/2}·G_eff·C^{-1/2}`.
    ///
    /// Because every propagator `Φ(l) = e^{A·l}` shares this eigenbasis, an
    /// interval update that costs a dense `matvec` in node coordinates is
    /// *elementwise* in modal coordinates: with `y = Vᵀ·C^{1/2}·T`,
    ///
    /// ```text
    /// y(t₀+dt) = d(dt) ∘ (y(t₀) − y∞) + y∞,   d(dt) = e^{−λ·dt}
    /// ```
    ///
    /// This is the `O(n)` primitive behind `mosc-sched`'s period-map kernel:
    /// no `expm`, no dense products, no `(I − K)` solve.
    ///
    /// # Errors
    /// Returns [`ThermalError::InvalidParameter`] for negative or non-finite
    /// `dt`.
    pub fn modal_decay(&self, dt: f64) -> Result<Vector> {
        if !dt.is_finite() || dt < 0.0 {
            return Err(ThermalError::InvalidParameter { what: "dt must be finite and >= 0" });
        }
        Ok(Vector::from_fn(self.n_nodes(), |k| (-self.eigen.values[k] * dt).exp()))
    }

    /// Modal decay rates `λ_k > 0` (1/s) in modal-coordinate order, so that
    /// [`ThermalModel::modal_decay`]`(dt)[k] = e^{−λ_k·dt}`. These are the
    /// eigenvalues of `S = C^{-1/2}·G_eff·C^{-1/2}`, ascending.
    #[must_use]
    pub fn modal_rates(&self) -> &Vector {
        &self.eigen.values
    }

    /// Row `node` of the modal-to-node map: `T[node] = Σ_k row[k]·y_k`
    /// (see [`ThermalModel::from_modal`]). Since
    /// `G_eff⁻¹ = C^{-1/2}·V·Λ⁻¹·Vᵀ·C^{-1/2}`, a core's row divided
    /// elementwise by [`ThermalModel::modal_rates`] is also the modal steady
    /// state of one watt on that core — read off the eigenpairs, no solve.
    ///
    /// # Panics
    /// Panics when `node` is out of range.
    #[must_use]
    pub fn modal_node_row(&self, node: usize) -> Vector {
        let s = self.c_inv_sqrt[node];
        Vector::from_fn(self.n_nodes(), |k| s * self.eigen.vectors[(node, k)])
    }

    /// Maps a node-temperature vector into modal coordinates:
    /// `y = Vᵀ·(C^{1/2} ∘ x)`.
    ///
    /// # Errors
    /// Dimension mismatch.
    pub fn to_modal(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.n_nodes() {
            return Err(ThermalError::DimensionMismatch {
                expected: self.n_nodes(),
                actual: x.len(),
                op: "to_modal",
            });
        }
        let scaled = Vector::from_fn(x.len(), |i| self.c_sqrt[i] * x[i]);
        Ok(self.eigen.vectors.tr_matvec(&scaled)?)
    }

    /// Maps a modal vector back to node temperatures:
    /// `x = C^{-1/2} ∘ (V·y)`.
    ///
    /// # Errors
    /// Dimension mismatch.
    pub fn from_modal(&self, y: &Vector) -> Result<Vector> {
        if y.len() != self.n_nodes() {
            return Err(ThermalError::DimensionMismatch {
                expected: self.n_nodes(),
                actual: y.len(),
                op: "from_modal",
            });
        }
        let vy = self.eigen.vectors.matvec(y)?;
        Ok(Vector::from_fn(vy.len(), |i| self.c_inv_sqrt[i] * vy[i]))
    }

    /// One node's temperature of a modal vector: `from_modal(y)[node]`
    /// without the other rows. Row `node` of `V` is summed in
    /// `Matrix::matvec`'s order and then scaled by `C^{-1/2}`, so the result
    /// is bit-identical to the full basis change (unlike a dot product with
    /// the pre-scaled [`ThermalModel::modal_node_row`]).
    ///
    /// # Panics
    /// Panics when `node` is out of range or `y.len() != n_nodes()`.
    #[must_use]
    pub fn node_from_modal(&self, node: usize, y: &[f64]) -> f64 {
        let row = self.eigen.vectors.row(node);
        assert_eq!(row.len(), y.len(), "node_from_modal: modal vector length");
        let mut acc = 0.0;
        for (a, b) in row.iter().zip(y) {
            acc += a * b;
        }
        self.c_inv_sqrt[node] * acc
    }

    /// The modal steady state `y∞ = Vᵀ·C^{1/2}·T∞(ψ)` for a per-core power
    /// profile, memoized by the profile's bit pattern. Schedule evaluations
    /// revisit the same handful of voltage vectors thousands of times per
    /// solver run (the AO m-sweep in particular re-evaluates identical
    /// interval powers at every `m`), so this turns the per-interval LU
    /// solve + basis change into a `HashMap` lookup; hits are counted on the
    /// `steady_state.cache_hits` counter.
    ///
    /// # Errors
    /// Dimension mismatch for a wrong-length profile.
    pub fn modal_steady_state(&self, psi_cores: &[f64]) -> Result<Arc<Vector>> {
        if psi_cores.len() != self.n_cores() {
            return Err(ThermalError::DimensionMismatch {
                expected: self.n_cores(),
                actual: psi_cores.len(),
                op: "modal_steady_state",
            });
        }
        let key: Vec<u64> = psi_cores.iter().map(|p| p.to_bits()).collect();
        {
            let mut cache = self.modal_t_inf.lock().expect("modal T∞ lock poisoned");
            if let Some(y) = cache.get(&key) {
                T_INF_CACHE_HITS.incr();
                return Ok(Arc::clone(y));
            }
            if cache.len() >= T_INF_CACHE_CAP {
                cache.clear();
            }
        }
        let t_inf = self.steady_state(psi_cores)?;
        let arc = Arc::new(self.to_modal(&t_inf)?);
        self.modal_t_inf.lock().expect("modal T∞ lock poisoned").insert(key, Arc::clone(&arc));
        Ok(arc)
    }

    /// Advances the temperature across one state interval (eq. 3):
    /// `T(t₀+dt) = e^{A·dt}·(T(t₀) − T∞) + T∞` with `T∞` the steady state of
    /// this interval's power profile. The step runs in modal coordinates,
    /// `y = d(dt) ∘ (y₀ − y∞) + y∞` with `d(dt) = e^{−λ·dt}` and `y∞` from
    /// [`ThermalModel::modal_steady_state`]: two basis changes and no dense
    /// propagator. Each call counts one `expm.calls`, as it applies one
    /// `e^{A·dt}`.
    ///
    /// # Errors
    /// Dimension mismatches, or [`ThermalError::InvalidParameter`] for
    /// negative or non-finite `dt`.
    pub fn advance(&self, t0: &Vector, psi_cores: &[f64], dt: f64) -> Result<Vector> {
        if t0.len() != self.n_nodes() {
            return Err(ThermalError::DimensionMismatch {
                expected: self.n_nodes(),
                actual: t0.len(),
                op: "advance",
            });
        }
        let decay = self.modal_decay(dt)?;
        let y_inf = self.modal_steady_state(psi_cores)?;
        mosc_linalg::count_expm_call();
        let y0 = self.to_modal(t0)?;
        self.from_modal(&Vector::from_fn(y0.len(), |k| decay[k] * (y0[k] - y_inf[k]) + y_inf[k]))
    }

    /// Largest core temperature in a full node vector.
    ///
    /// # Panics
    /// Panics when `t` is shorter than the core count.
    #[must_use]
    pub fn max_core_temp(&self, t: &Vector) -> f64 {
        (0..self.n_cores()).fold(f64::NEG_INFINITY, |m, i| m.max(t[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Floorplan, RcConfig};
    use mosc_linalg::expm_scaled;

    fn model(rows: usize, cols: usize, beta: f64) -> ThermalModel {
        let f = Floorplan::paper_grid(rows, cols).unwrap();
        let n = RcNetwork::build(&f, &RcConfig::default()).unwrap();
        ThermalModel::new(n, beta).unwrap()
    }

    #[test]
    fn eigenvalues_all_negative() {
        let m = model(2, 3, 0.03);
        let eigs = m.eigenvalues();
        assert!(eigs.max() < 0.0, "max eigenvalue {}", eigs.max());
        // Ascending order.
        for w in eigs.as_slice().windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn huge_beta_is_rejected_as_unstable() {
        let f = Floorplan::paper_grid(1, 2).unwrap();
        let n = RcNetwork::build(&f, &RcConfig::default()).unwrap();
        let err = ThermalModel::new(n, 1e9).unwrap_err();
        assert!(matches!(err, ThermalError::Unstable { .. }));
    }

    #[test]
    fn invalid_beta_rejected() {
        let f = Floorplan::paper_grid(1, 2).unwrap();
        let n = RcNetwork::build(&f, &RcConfig::default()).unwrap();
        assert!(ThermalModel::new(n.clone(), -0.1).is_err());
        assert!(ThermalModel::new(n, f64::NAN).is_err());
    }

    #[test]
    fn steady_state_matches_direct_solve() {
        let m = model(1, 3, 0.03);
        let psi = [5.0, 10.0, 3.0];
        let t = m.steady_state(&psi).unwrap();
        // Residual of G_eff·T = ψ_ext.
        let a = m.a_matrix();
        let p = m.scatter_power(&psi).unwrap();
        let c = m.network().capacitance();
        // A·T + C⁻¹ψ = 0 at steady state.
        let at = a.matvec(&t).unwrap();
        for i in 0..m.n_nodes() {
            assert!((at[i] + p[i] / c[i]).abs() < 1e-9, "node {i}");
        }
    }

    #[test]
    fn response_matrix_is_positive_and_linear() {
        let m = model(1, 3, 0.03);
        let r = m.response_matrix().unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!(r[(i, j)] > 0.0, "response ({i},{j})");
            }
            // Self-heating dominates.
            assert!(r[(i, i)] >= r[(i, (i + 1) % 3)]);
        }
        // Linearity: T∞(ψ) = R·ψ.
        let psi = [4.0, 7.0, 2.0];
        let via_r = r.matvec(&Vector::from_slice(&psi)).unwrap();
        let direct = m.steady_state_cores(&psi).unwrap();
        assert!(via_r.max_abs_diff(&direct) < 1e-9);
    }

    #[test]
    fn propagator_matches_pade_expm() {
        let m = model(1, 2, 0.03);
        for dt in [1e-3, 0.05, 1.0, 20.0] {
            let via_eigen = m.propagator(dt).unwrap();
            let via_pade = expm_scaled(&m.a_matrix(), dt).unwrap();
            let scale = via_pade.max_abs().max(1.0);
            assert!(
                via_eigen.max_abs_diff(&via_pade) / scale < 1e-8,
                "dt={dt}, diff={}",
                via_eigen.max_abs_diff(&via_pade)
            );
        }
    }

    #[test]
    fn modal_roundtrip_and_decay_match_propagator() {
        let m = model(2, 3, 0.03);
        let x = Vector::from_fn(m.n_nodes(), |i| 0.7 * i as f64 - 1.3);
        let y = m.to_modal(&x).unwrap();
        let back = m.from_modal(&y).unwrap();
        assert!(back.max_abs_diff(&x) < 1e-10, "roundtrip diff {}", back.max_abs_diff(&x));

        // Elementwise modal propagation equals the dense propagator.
        for dt in [1e-3, 0.04, 1.7] {
            let phi = m.propagator(dt).unwrap();
            let dense = phi.matvec(&x).unwrap();
            let d = m.modal_decay(dt).unwrap();
            let modal = Vector::from_fn(y.len(), |k| d[k] * y[k]);
            let via_modal = m.from_modal(&modal).unwrap();
            assert!(
                via_modal.max_abs_diff(&dense) < 1e-9,
                "dt={dt} diff {}",
                via_modal.max_abs_diff(&dense)
            );
        }
        assert!(m.modal_decay(-1.0).is_err());
        assert!(m.to_modal(&Vector::zeros(1)).is_err());
        assert!(m.from_modal(&Vector::zeros(1)).is_err());
    }

    #[test]
    fn node_from_modal_is_bit_identical_to_the_full_basis_change() {
        let m = model(2, 3, 0.03);
        for seed in 0..8 {
            let y = Vector::from_fn(m.n_nodes(), |k| ((k * 7 + seed * 3) % 11) as f64 * 0.37 - 1.9);
            let full = m.from_modal(&y).unwrap();
            for node in 0..m.n_nodes() {
                let one = m.node_from_modal(node, y.as_slice());
                assert_eq!(one.to_bits(), full[node].to_bits(), "node {node}, seed {seed}");
            }
        }
    }

    #[test]
    fn modal_steady_state_is_memoized() {
        let m = model(1, 3, 0.03);
        let psi = [5.0, 2.0, 8.0];
        let a = m.modal_steady_state(&psi).unwrap();
        let b = m.modal_steady_state(&psi).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the memo");
        // And it is the modal image of the dense steady state.
        let direct = m.to_modal(&m.steady_state(&psi).unwrap()).unwrap();
        assert!(a.max_abs_diff(&direct) < 1e-12);
        assert!(m.modal_steady_state(&[1.0]).is_err());
    }

    #[test]
    fn advance_converges_to_steady_state() {
        let m = model(1, 3, 0.03);
        let psi = [10.0, 10.0, 10.0];
        let t_inf = m.steady_state(&psi).unwrap();
        let from_zero = m.advance(&Vector::zeros(m.n_nodes()), &psi, 5000.0).unwrap();
        assert!(from_zero.max_abs_diff(&t_inf) < 1e-6);
    }

    #[test]
    fn advance_zero_dt_is_identity() {
        let m = model(1, 2, 0.03);
        let t0 = Vector::from_fn(m.n_nodes(), |i| 0.3 * i as f64 + 0.5);
        let t1 = m.advance(&t0, &[5.0, 5.0], 0.0).unwrap();
        assert!(t1.max_abs_diff(&t0) < 1e-12);
    }

    #[test]
    fn advance_rejects_bad_shapes() {
        let m = model(1, 2, 0.03);
        assert!(m.advance(&Vector::zeros(2), &[1.0, 1.0], 0.1).is_err());
        assert!(m.steady_state(&[1.0]).is_err());
        assert!(m.propagator(-1.0).is_err());
        assert!(m.propagator(f64::NAN).is_err());
    }

    #[test]
    fn monotone_cooldown_property() {
        // Property 1 of the paper: powering everything down from a hot state
        // makes every node decay monotonically (sampled check).
        let m = model(1, 3, 0.03);
        let hot = m.steady_state(&[15.0, 18.0, 12.0]).unwrap();
        let off = [0.0, 0.0, 0.0];
        let mut prev = hot;
        for _ in 0..20 {
            let next = m.advance(&prev, &off, 0.5).unwrap();
            assert!(next.le_elementwise(&prev, 1e-9));
            prev = next;
        }
    }

    #[test]
    fn more_power_means_hotter_everywhere() {
        let m = model(3, 3, 0.03);
        let low = m.steady_state_cores(&[5.0; 9]).unwrap();
        let high = m.steady_state_cores(&[6.0; 9]).unwrap();
        assert!(low.le_elementwise(&high, 0.0));
    }

    #[test]
    fn center_core_is_hottest_on_uniform_grid() {
        let m = model(3, 3, 0.03);
        let t = m.steady_state_cores(&[10.0; 9]).unwrap();
        assert_eq!(t.argmax(), Some(4), "center of the 3x3 grid must be hottest: {t}");
    }
}
