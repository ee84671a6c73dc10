//! The fast thermal approximation model of eqs. (5)–(7).
//!
//! This is the model the DSE loop evaluates (objective 5 of the paper). It
//! treats every `N × N` tile position as an independent vertical stack:
//!
//! * eq. (5) — vertical conduction: the temperature of the core at layer
//!   `k` (counted from the sink) accumulates the heat of the layers between
//!   it and the sink across the vertical resistances `R_j`, plus the drop
//!   over the base resistance `R_b`;
//! * eq. (6) — horizontal heat flow proxy: the max-min temperature spread
//!   `ΔT(k)` within each layer;
//! * eq. (7) — the scalar thermal objective
//!   `T = max_{n,k} T_{n,k} · max_k ΔT(k)`.
//!
//! Note on eq. (5): the equation as printed in the paper truncates both
//! inner sums at the queried layer `k`, which would make a core blind to
//! heat generated *above* it — heat that physically flows through every
//! resistance between its source and the sink. The original model (Cong et
//! al. \[17\]) charges each vertical resistance with the total power above
//! it; both forms coincide at the topmost layer (where the stack peak
//! occurs). We implement the physical form:
//!
//! `T_{n,k} = Σ_{j=1}^{k} (R_j · Σ_{i=j}^{Y} P_{n,i}) + R_b · Σ_{i=1}^{Y} P_{n,i}`
//!
//! The remaining approximation — no lateral conduction — is quantified by
//! the calibration tests in [`crate::calibrate`], which show the model
//! still finds the hot spots the detailed solver finds; that
//! rank-preservation is what makes it safe to optimize against, exactly the
//! argument of \[17\].

use crate::{PowerGrid, ThermalParams};

/// Evaluator of the fast stack-based thermal model.
///
/// # Example
///
/// ```
/// use moela_thermal::{FastThermalModel, PowerGrid, ThermalParams};
///
/// let model = FastThermalModel::new(ThermalParams::uniform(2, 1.0, 0.5));
/// let mut p = PowerGrid::new(1, 1, 2);
/// p.set(0, 1, 2.0);
/// p.set(0, 2, 1.0);
/// // Layer 1 carries the whole stack's 3 W across R_1 and R_b:
/// //   T_1 = 1.0·3 + 0.5·3 = 4.5
/// let t1 = model.stack_temperature(&p, 0, 1);
/// assert!((t1 - 4.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FastThermalModel {
    params: ThermalParams,
}

impl FastThermalModel {
    /// Creates the model from calibrated parameters.
    pub fn new(params: ThermalParams) -> Self {
        Self { params }
    }

    /// The calibrated parameters.
    pub fn params(&self) -> &ThermalParams {
        &self.params
    }

    /// Eq. (5) in its physical form (see the module docs): temperature
    /// (above ambient) of the core at `layer` in `stack`.
    ///
    /// `T_{n,k} = Σ_{j=1}^{k} (R_j · Σ_{i=j}^{Y} P_{n,i}) + R_b · Σ_{i=1}^{Y} P_{n,i}`
    ///
    /// # Panics
    ///
    /// Panics if `layer` exceeds the parameter layer count or the grid's.
    pub fn stack_temperature(&self, power: &PowerGrid, stack: usize, layer: usize) -> f64 {
        assert!(
            layer <= self.params.layers(),
            "layer {layer} exceeds calibrated layer count {}",
            self.params.layers()
        );
        // power_above[j] = Σ_{i=j}^{Y} P_{n,i}, built by a suffix walk.
        let top = power.layers();
        let mut t = 0.0;
        let mut suffix = 0.0;
        let mut suffix_at = vec![0.0; layer + 1];
        for j in (1..=top).rev() {
            suffix += power.get(stack, j);
            if j <= layer {
                suffix_at[j] = suffix;
            }
        }
        for (r, s) in self.params.r_vertical.iter().zip(&suffix_at[1..]) {
            t += r * s;
        }
        t + self.params.r_base * suffix
    }

    /// All `T_{n,k}` for the grid: `temps[stack][layer-1]`.
    pub fn temperatures(&self, power: &PowerGrid) -> Vec<Vec<f64>> {
        (0..power.stacks())
            .map(|n| (1..=power.layers()).map(|k| self.stack_temperature(power, n, k)).collect())
            .collect()
    }

    /// Eq. (6): the max−min temperature spread within `layer`.
    pub fn layer_delta_t(&self, power: &PowerGrid, layer: usize) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for n in 0..power.stacks() {
            let t = self.stack_temperature(power, n, layer);
            lo = lo.min(t);
            hi = hi.max(t);
        }
        hi - lo
    }

    /// The peak temperature `max_{n,k} T_{n,k}`.
    pub fn peak_temperature(&self, power: &PowerGrid) -> f64 {
        let mut peak = 0.0f64;
        for n in 0..power.stacks() {
            for k in 1..=power.layers() {
                peak = peak.max(self.stack_temperature(power, n, k));
            }
        }
        peak
    }

    /// Eq. (7): the combined thermal objective
    /// `T = max_{n,k} T_{n,k} × max_k ΔT(k)`.
    pub fn thermal_objective(&self, power: &PowerGrid) -> f64 {
        let max_delta =
            (1..=power.layers()).map(|k| self.layer_delta_t(power, k)).fold(0.0f64, f64::max);
        self.peak_temperature(power) * max_delta
    }

    /// The peak temperature `max_{n,k} T_{n,k}` and the largest layer
    /// spread `max_k ΔT(k)` in one sweep over the stacks, so eq. (7) is
    /// their product.
    ///
    /// Bit for bit what [`peak_temperature`](Self::peak_temperature) and
    /// [`thermal_objective`](Self::thermal_objective) compute: each
    /// `T_{n,k}` is built from the same additions,
    /// `0 + R_1·S_1 + … + R_k·S_k` then `+ R_b·S`, and every max and min
    /// takes its operands in the same order.
    ///
    /// # Panics
    ///
    /// Panics if the grid stacks more layers than the parameters cover.
    pub fn peak_and_max_spread(&self, power: &PowerGrid) -> (f64, f64) {
        let top = power.layers();
        assert!(
            top <= self.params.layers(),
            "layer {top} exceeds calibrated layer count {}",
            self.params.layers()
        );
        // suffix[k - 1] = S_k = Σ_{i=k}^{Y} P_{n,i}; lo/hi track ΔT(k).
        let mut suffix = vec![0.0; top];
        let mut lo = vec![f64::INFINITY; top];
        let mut hi = vec![f64::NEG_INFINITY; top];
        let mut peak = 0.0f64;
        for n in 0..power.stacks() {
            let mut s = 0.0;
            for (slot, p) in suffix.iter_mut().zip(power.stack_powers(n)).rev() {
                s += p;
                *slot = s;
            }
            let mut t = 0.0;
            for (k, (r, s_k)) in self.params.r_vertical.iter().zip(&suffix).enumerate() {
                t += r * s_k;
                let t_nk = t + self.params.r_base * s;
                peak = peak.max(t_nk);
                lo[k] = lo[k].min(t_nk);
                hi[k] = hi[k].max(t_nk);
            }
        }
        let max_spread = hi.iter().zip(&lo).map(|(h, l)| h - l).fold(0.0f64, f64::max);
        (peak, max_spread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn two_layer_model() -> FastThermalModel {
        FastThermalModel::new(ThermalParams { r_vertical: vec![1.0, 2.0], r_base: 0.5 })
    }

    #[test]
    fn single_layer_matches_hand_computation() {
        let m = FastThermalModel::new(ThermalParams::uniform(1, 2.0, 0.5));
        let mut p = PowerGrid::new(1, 1, 1);
        p.set(0, 1, 4.0);
        // T = P·R_1 + R_b·P = 4·2 + 0.5·4 = 10
        assert!((m.stack_temperature(&p, 0, 1) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn two_layer_matches_equation_5() {
        let m = two_layer_model();
        let mut p = PowerGrid::new(1, 1, 2);
        p.set(0, 1, 3.0); // near sink
        p.set(0, 2, 1.0); // far from sink
                          // T_{·,2} = R_1·(P_1+P_2) + R_2·P_2 + R_b·(P_1+P_2)
                          //         = 1·4 + 2·1 + 0.5·4 = 8
        assert!((m.stack_temperature(&p, 0, 2) - 8.0).abs() < 1e-12);
        // T_{·,1} carries the whole stack across R_1 and R_b:
        //   1·4 + 0.5·4 = 6
        assert!((m.stack_temperature(&p, 0, 1) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn upper_layers_run_hotter_for_the_same_power() {
        let m = two_layer_model();
        let mut near = PowerGrid::new(1, 1, 2);
        near.set(0, 1, 5.0);
        let mut far = PowerGrid::new(1, 1, 2);
        far.set(0, 2, 5.0);
        assert!(
            m.peak_temperature(&far) > m.peak_temperature(&near),
            "power far from the sink must produce a hotter chip"
        );
    }

    #[test]
    fn temperature_is_monotone_in_power() {
        let m = two_layer_model();
        let mut a = PowerGrid::new(2, 2, 2);
        a.set(0, 2, 1.0);
        let mut b = a.clone();
        b.set(0, 1, 1.0);
        assert!(m.peak_temperature(&b) >= m.peak_temperature(&a));
    }

    #[test]
    fn delta_t_is_zero_for_uniform_power() {
        let m = two_layer_model();
        let mut p = PowerGrid::new(2, 2, 2);
        for n in 0..4 {
            p.set(n, 1, 2.0);
            p.set(n, 2, 2.0);
        }
        assert_eq!(m.layer_delta_t(&p, 1), 0.0);
        assert_eq!(m.layer_delta_t(&p, 2), 0.0);
        assert_eq!(m.thermal_objective(&p), 0.0);
    }

    #[test]
    fn hotspot_raises_both_factors_of_equation_7() {
        let m = two_layer_model();
        let mut uniform = PowerGrid::new(2, 2, 2);
        for n in 0..4 {
            uniform.set(n, 2, 1.0);
        }
        // Same total power, concentrated in one stack.
        let mut spot = PowerGrid::new(2, 2, 2);
        spot.set(0, 2, 4.0);
        assert!(m.thermal_objective(&spot) > m.thermal_objective(&uniform));
        assert!(m.peak_temperature(&spot) > m.peak_temperature(&uniform));
    }

    #[test]
    fn temperatures_matrix_matches_pointwise_queries() {
        let m = two_layer_model();
        let mut p = PowerGrid::new(2, 1, 2);
        p.set(0, 1, 1.0);
        p.set(1, 2, 2.0);
        let t = m.temperatures(&p);
        for (n, stack) in t.iter().enumerate() {
            for k in 1..=2 {
                assert_eq!(stack[k - 1], m.stack_temperature(&p, n, k));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds calibrated layer count")]
    fn querying_beyond_calibration_panics() {
        let m = two_layer_model();
        let p = PowerGrid::new(1, 1, 3);
        m.stack_temperature(&p, 0, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_sweep_matches_the_per_cell_functions_bit_for_bit(
            seed in 0u64..1 << 40,
            nx in 1usize..5,
            ny in 1usize..5,
            layers in 1usize..=6,
            extra_layers in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let params = ThermalParams {
                r_vertical: (0..layers + extra_layers).map(|_| rng.gen_range(0.05..3.0)).collect(),
                r_base: rng.gen_range(0.05..3.0),
            };
            let model = FastThermalModel::new(params);
            let mut power = PowerGrid::new(nx, ny, layers);
            for n in 0..power.stacks() {
                for k in 1..=layers {
                    // Some cells stay idle, as unused tiles do.
                    if rng.gen_range(0..4u32) > 0 {
                        power.set(n, k, rng.gen_range(0.0..20.0));
                    }
                }
            }
            let (peak, spread) = model.peak_and_max_spread(&power);
            let max_delta =
                (1..=layers).map(|k| model.layer_delta_t(&power, k)).fold(0.0f64, f64::max);
            prop_assert_eq!(peak.to_bits(), model.peak_temperature(&power).to_bits());
            prop_assert_eq!(spread.to_bits(), max_delta.to_bits());
            prop_assert_eq!((peak * spread).to_bits(), model.thermal_objective(&power).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "exceeds calibrated layer count")]
    fn one_sweep_beyond_calibration_panics() {
        two_layer_model().peak_and_max_spread(&PowerGrid::new(1, 1, 3));
    }
}
