//! Temperature-trace recording.

use mosc_linalg::Vector;

/// A recorded temperature trace: sample times paired with full node
/// temperature vectors. Used by the figure-reproduction binaries (Fig. 2,
/// Fig. 4) and the stable-energy integral; its [`Trace::peak`] scan order
/// is the one the sampled peak-temperature evaluator reproduces in place.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    times: Vec<f64>,
    temps: Vec<Vector>,
    n_cores: usize,
}

impl Trace {
    /// Creates an empty trace whose samples cover `n_cores` core nodes (the
    /// first `n_cores` entries of every sample).
    #[must_use]
    pub fn new(n_cores: usize) -> Self {
        Self { times: Vec::new(), temps: Vec::new(), n_cores }
    }

    /// Creates an empty trace with pre-allocated capacity.
    #[must_use]
    pub fn with_capacity(n_cores: usize, capacity: usize) -> Self {
        Self { times: Vec::with_capacity(capacity), temps: Vec::with_capacity(capacity), n_cores }
    }

    /// Appends a sample. Times are expected non-decreasing; violations are a
    /// caller bug and are caught by a debug assertion.
    pub fn push(&mut self, time: f64, temps: Vector) {
        debug_assert!(
            self.times.last().is_none_or(|&last| time >= last),
            "trace times must be non-decreasing"
        );
        self.times.push(time);
        self.temps.push(temps);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of core nodes per sample.
    #[must_use]
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Sample times.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample temperature vectors.
    #[must_use]
    pub fn temps(&self) -> &[Vector] {
        &self.temps
    }

    /// Peak core temperature across the whole trace, with the time and core
    /// at which it occurs. `None` for an empty trace.
    #[must_use]
    pub fn peak(&self) -> Option<PeakSample> {
        let mut best: Option<PeakSample> = None;
        for (&time, temps) in self.times.iter().zip(&self.temps) {
            for core in 0..self.n_cores.min(temps.len()) {
                let t = temps[core];
                if best.as_ref().is_none_or(|b| t > b.temp) {
                    best = Some(PeakSample { time, core, temp: t });
                }
            }
        }
        best
    }

    /// Per-core maximum over the trace; empty vector for an empty trace.
    #[must_use]
    pub fn per_core_max(&self) -> Vector {
        if self.temps.is_empty() {
            return Vector::zeros(0);
        }
        Vector::from_fn(self.n_cores, |c| {
            self.temps.iter().map(|t| t[c]).fold(f64::NEG_INFINITY, f64::max)
        })
    }

    /// The time series of one core's temperature.
    #[must_use]
    pub fn core_series(&self, core: usize) -> Vec<(f64, f64)> {
        self.times.iter().zip(&self.temps).map(|(&t, temps)| (t, temps[core])).collect()
    }

    /// Renders the trace as CSV (`time,core0,core1,…`), offset by
    /// `ambient_c` so the output is in °C.
    #[must_use]
    pub fn to_csv(&self, ambient_c: f64) -> String {
        let mut out = String::from("time_s");
        for c in 0..self.n_cores {
            out.push_str(&format!(",core{c}_c"));
        }
        out.push('\n');
        for (t, temps) in self.times.iter().zip(&self.temps) {
            out.push_str(&format!("{t:.6}"));
            for c in 0..self.n_cores {
                out.push_str(&format!(",{:.4}", temps[c] + ambient_c));
            }
            out.push('\n');
        }
        out
    }
}

/// The location of a trace's peak temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakSample {
    /// Sample time (s).
    pub time: f64,
    /// Core index.
    pub core: usize,
    /// Temperature (relative to ambient).
    pub temp: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut tr = Trace::new(2);
        tr.push(0.0, Vector::from_slice(&[1.0, 2.0, 0.5]));
        tr.push(1.0, Vector::from_slice(&[3.0, 1.0, 0.6]));
        tr.push(2.0, Vector::from_slice(&[2.0, 2.5, 0.4]));
        tr
    }

    #[test]
    fn peak_finds_global_max_over_cores_only() {
        let tr = sample_trace();
        let p = tr.peak().unwrap();
        assert_eq!(p.core, 0);
        assert_eq!(p.time, 1.0);
        assert_eq!(p.temp, 3.0);
        assert!(Trace::new(2).peak().is_none());
    }

    #[test]
    fn per_core_max() {
        let tr = sample_trace();
        assert_eq!(tr.per_core_max().as_slice(), &[3.0, 2.5]);
        assert!(Trace::new(1).per_core_max().is_empty());
    }

    #[test]
    fn core_series_extraction() {
        let tr = sample_trace();
        let s = tr.core_series(1);
        assert_eq!(s, vec![(0.0, 2.0), (1.0, 1.0), (2.0, 2.5)]);
    }

    #[test]
    fn csv_rendering() {
        let tr = sample_trace();
        let csv = tr.to_csv(35.0);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "time_s,core0_c,core1_c");
        assert!(lines.next().unwrap().starts_with("0.000000,36.0000,37.0000"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn capacity_and_len() {
        let mut tr = Trace::with_capacity(1, 16);
        assert!(tr.is_empty());
        tr.push(0.0, Vector::zeros(1));
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.n_cores(), 1);
    }
}
