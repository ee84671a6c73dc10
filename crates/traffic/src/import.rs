//! Importing externally profiled workloads.
//!
//! The synthesizer in [`crate::synth`] replaces the paper's gem5-gpu
//! profiling step, but users with access to real traces should be able to
//! feed them in: [`Workload::from_parts`] builds a workload from raw
//! `f_ij`/power data.

use crate::{Benchmark, PeMix, Workload};

/// Errors from workload import.
#[derive(Clone, Debug, PartialEq)]
pub enum ImportError {
    /// The traffic matrix is not `n × n` for the mix's `n` PEs.
    TrafficShape {
        /// Elements provided.
        got: usize,
        /// Elements expected (`n²`).
        expected: usize,
    },
    /// The power vector length differs from the PE count.
    PowerShape {
        /// Elements provided.
        got: usize,
        /// Elements expected.
        expected: usize,
    },
    /// A value is negative, NaN, or infinite; the message locates it.
    InvalidValue(String),
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::TrafficShape { got, expected } => {
                write!(f, "traffic matrix has {got} elements, expected {expected}")
            }
            ImportError::PowerShape { got, expected } => {
                write!(f, "power vector has {got} elements, expected {expected}")
            }
            ImportError::InvalidValue(msg) => write!(f, "invalid value: {msg}"),
        }
    }
}

impl std::error::Error for ImportError {}

impl Workload {
    /// Builds a workload from raw parts: a row-major `n × n` traffic
    /// matrix (`f_ij`, any non-negative unit) and per-PE average powers in
    /// watts. `benchmark` is a label used by reporting and the EDP model's
    /// latency-sensitivity lookup.
    ///
    /// # Errors
    ///
    /// Rejects shape mismatches, negative/non-finite entries, non-zero
    /// diagonal traffic, and non-positive powers.
    pub fn from_parts(
        benchmark: Benchmark,
        mix: PeMix,
        traffic: Vec<f64>,
        power: Vec<f64>,
    ) -> Result<Self, ImportError> {
        let n = mix.total();
        if traffic.len() != n * n {
            return Err(ImportError::TrafficShape { got: traffic.len(), expected: n * n });
        }
        if power.len() != n {
            return Err(ImportError::PowerShape { got: power.len(), expected: n });
        }
        for (idx, &v) in traffic.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                return Err(ImportError::InvalidValue(format!(
                    "traffic[{}, {}] = {v}",
                    idx / n,
                    idx % n
                )));
            }
            if idx / n == idx % n && v != 0.0 {
                return Err(ImportError::InvalidValue(format!(
                    "self-traffic at PE {} must be zero",
                    idx / n
                )));
            }
        }
        for (pe, &p) in power.iter().enumerate() {
            if !p.is_finite() || p <= 0.0 {
                return Err(ImportError::InvalidValue(format!("power[{pe}] = {p}")));
            }
        }
        Ok(Self::assemble(benchmark, mix, traffic, power))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> PeMix {
        PeMix::new(1, 1, 1)
    }

    #[test]
    fn from_parts_round_trips() {
        let traffic = vec![0.0, 5.0, 1.0, 0.0, 0.0, 2.0, 3.0, 0.0, 0.0];
        let power = vec![2.0, 3.0, 0.5];
        let w = Workload::from_parts(Benchmark::Bp, mix(), traffic.clone(), power.clone())
            .expect("valid");
        assert_eq!(w.traffic(0, 1), 5.0);
        assert_eq!(w.traffic(2, 0), 3.0);
        assert_eq!(w.pe_power(1), 3.0);
        assert_eq!(w.traffic_matrix(), traffic.as_slice());
        assert_eq!(w.benchmark(), Benchmark::Bp);
    }

    #[test]
    fn shape_errors_are_specific() {
        let err = Workload::from_parts(Benchmark::Bp, mix(), vec![0.0; 4], vec![1.0; 3])
            .expect_err("bad shape");
        assert_eq!(err, ImportError::TrafficShape { got: 4, expected: 9 });
        let err = Workload::from_parts(Benchmark::Bp, mix(), vec![0.0; 9], vec![1.0; 2])
            .expect_err("bad power");
        assert_eq!(err, ImportError::PowerShape { got: 2, expected: 3 });
    }

    #[test]
    fn invalid_values_are_rejected() {
        let mut traffic = vec![0.0; 9];
        traffic[1] = -1.0;
        let err = Workload::from_parts(Benchmark::Bp, mix(), traffic, vec![1.0; 3])
            .expect_err("negative traffic");
        assert!(matches!(err, ImportError::InvalidValue(_)));

        let mut diag = vec![0.0; 9];
        diag[4] = 2.0; // self-traffic at PE 1
        let err = Workload::from_parts(Benchmark::Bp, mix(), diag, vec![1.0; 3])
            .expect_err("self traffic");
        assert!(err.to_string().contains("self-traffic"));

        let err = Workload::from_parts(Benchmark::Bp, mix(), vec![0.0; 9], vec![1.0, 0.0, 1.0])
            .expect_err("zero power");
        assert!(err.to_string().contains("power[1]"));
    }

    #[test]
    fn imported_workloads_drive_flows() {
        let traffic = vec![0.0, 7.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let w = Workload::from_parts(Benchmark::Gau, mix(), traffic, vec![1.0; 3]).expect("valid");
        assert_eq!(w.flows(), vec![(0, 1, 7.0)]);
        assert_eq!(w.total_traffic(), 7.0);
    }
}
