//! Micro-benchmarks of the numerical kernels behind the computation-time
//! claims: the matrix exponential, LU solves, the Jacobi eigensolver, and
//! the modal interval step (`ThermalModel::advance`) that replaces a dense
//! propagator per interval length.

use mosc_bench::micro::Runner;
use mosc_linalg::{expm_scaled, Lu, Matrix, SymmetricEigen, Vector};
use mosc_thermal::{Floorplan, RcConfig, RcNetwork, ThermalModel};
use std::hint::black_box;

fn thermal_model(rows: usize, cols: usize) -> ThermalModel {
    let f = Floorplan::paper_grid(rows, cols).expect("floorplan");
    let n = RcNetwork::build(&f, &RcConfig::default()).expect("network");
    ThermalModel::new(n, 0.03).expect("model")
}

fn bench_expm(r: &mut Runner) {
    let mut group = r.group("expm");
    for (rows, cols) in [(1usize, 2usize), (2, 3), (3, 3)] {
        let model = thermal_model(rows, cols);
        let a = model.a_matrix();
        group.bench(&format!("pade/{}n", a.rows()), || {
            expm_scaled(black_box(&a), 0.01).expect("expm")
        });
    }
}

fn bench_propagator_paths(r: &mut Runner) {
    let mut group = r.group("propagator");
    let model = thermal_model(3, 3);
    let a = model.a_matrix();
    let t0 = Vector::zeros(model.n_nodes());
    let psi: Vec<f64> = (0..model.n_cores()).map(|i| 5.0 + i as f64).collect();
    // A fresh dt each iteration: a dense Padé propagator vs the model's
    // modal interval step, which never forms one.
    let mut dt = 0.001;
    group.bench("pade_per_dt", || {
        dt += 1e-9; // force a fresh value each iteration
        expm_scaled(black_box(&a), dt).expect("expm")
    });
    let mut dt = 0.001;
    group.bench("advance_per_dt", || {
        dt += 1e-9;
        model.advance(black_box(&t0), &psi, dt).expect("advance")
    });
}

fn bench_lu(r: &mut Runner) {
    let mut group = r.group("lu");
    for n in [8usize, 16, 32] {
        let mut a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 10) as f64 * 0.1);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let b_vec = Vector::from_fn(n, |i| (i as f64).sin());
        group.bench(&format!("factor/{n}"), || Lu::new(black_box(&a)).expect("lu"));
        let lu = Lu::new(&a).expect("lu");
        group.bench(&format!("solve/{n}"), || lu.solve_vec(black_box(&b_vec)).expect("solve"));
    }
}

fn bench_jacobi(r: &mut Runner) {
    let mut group = r.group("jacobi");
    for n in [8usize, 16, 32] {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = (((i * 31 + j * 17) % 19) as f64 - 9.0) * 0.05;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
            a[(i, i)] += 2.0;
        }
        group.bench(&n.to_string(), || SymmetricEigen::new(black_box(&a)).expect("eigen"));
    }
}

fn bench_steady_state(r: &mut Runner) {
    let mut group = r.group("steady_state");
    for (rows, cols) in [(1usize, 3usize), (3, 3)] {
        let model = thermal_model(rows, cols);
        let psi: Vec<f64> = (0..model.n_cores()).map(|i| 5.0 + i as f64).collect();
        group.bench(&(rows * cols).to_string(), || {
            model.steady_state_cores(black_box(&psi)).expect("steady")
        });
    }
}

fn main() {
    let mut r = Runner::from_args();
    bench_expm(&mut r);
    bench_propagator_paths(&mut r);
    bench_lu(&mut r);
    bench_jacobi(&mut r);
    bench_steady_state(&mut r);
}
