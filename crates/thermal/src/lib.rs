//! Thermal modeling substrate for 3D-IC manycore platforms.
//!
//! The paper needs two thermal tools:
//!
//! 1. **3D-ICE** (Sridhar et al.) — a detailed compact thermal simulator,
//!    used offline to obtain the vertical thermal resistances `R_j` and the
//!    base (heat-sink interface) resistance `R_b`. We substitute
//!    [`rc_network::RcNetwork`], a steady-state resistive network over the
//!    same discretization (one node per tile per layer, vertical conduction
//!    to the sink, lateral conduction between neighboring tile stacks).
//! 2. **The fast approximation model** of Cong et al. (paper eqs. (5)–(7)),
//!    used *inside* the DSE loop where millions of evaluations occur. This
//!    is [`fast_model`].
//!
//! [`calibrate`] bridges the two: it extracts the `R_j`/`R_b` parameters the
//! fast model needs by probing the detailed network, exactly the role 3D-ICE
//! plays in the paper's tool-chain.
//!
//! # Conventions
//!
//! Layers are indexed `1..=Y` counted **from the heat sink** (layer 1 is
//! closest to the sink), matching the paper's eq. (5). Temperatures are in
//! kelvin *above ambient*; powers in watts; resistances in K/W.
//!
//! # Example
//!
//! ```
//! use moela_thermal::{fast_model::FastThermalModel, PowerGrid, ThermalParams};
//!
//! let params = ThermalParams::uniform(3, 2.0, 0.5);
//! let model = FastThermalModel::new(params);
//! let mut power = PowerGrid::new(2, 2, 3);
//! power.set(0, 1, 5.0); // stack 0, layer 1 (next to the sink): 5 W
//! let t = model.stack_temperature(&power, 0, 1);
//! assert!(t > 0.0);
//! ```

pub mod calibrate;
pub mod fast_model;
pub mod rc_network;

pub use fast_model::FastThermalModel;

/// Parameters of the layered thermal model: the per-layer vertical
/// resistances `R_j` and the base resistance `R_b` of eq. (5).
#[derive(Clone, Debug, PartialEq)]
pub struct ThermalParams {
    /// `r_vertical[j-1]` = `R_j`, the resistance between layer `j` and
    /// layer `j-1` (layer 0 being the base/spreader).
    pub r_vertical: Vec<f64>,
    /// `R_b`: resistance of the base layer to ambient.
    pub r_base: f64,
}

impl ThermalParams {
    /// Uniform resistances: `layers` layers each with vertical resistance
    /// `r_layer`, base resistance `r_base`.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0` or any resistance is non-positive.
    pub fn uniform(layers: usize, r_layer: f64, r_base: f64) -> Self {
        assert!(layers > 0, "need at least one layer");
        assert!(r_layer > 0.0 && r_base > 0.0, "resistances must be positive");
        Self { r_vertical: vec![r_layer; layers], r_base }
    }

    /// Number of layers this parameter set covers.
    pub fn layers(&self) -> usize {
        self.r_vertical.len()
    }
}

/// Per-stack per-layer power map for an `nx × ny` grid of single-tile
/// stacks with `layers` layers.
///
/// Stacks are indexed row-major (`stack = y * nx + x`); layers are `1..=Y`
/// from the sink.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerGrid {
    nx: usize,
    ny: usize,
    layers: usize,
    /// `power[stack * layers + (layer-1)]` in watts.
    power: Vec<f64>,
}

impl PowerGrid {
    /// An all-zero power map.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(nx: usize, ny: usize, layers: usize) -> Self {
        assert!(nx > 0 && ny > 0 && layers > 0, "dimensions must be positive");
        Self { nx, ny, layers, power: vec![0.0; nx * ny * layers] }
    }

    /// Grid width (tiles in x).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid depth (tiles in y).
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of stacked layers.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Number of single-tile stacks (`nx · ny`).
    pub fn stacks(&self) -> usize {
        self.nx * self.ny
    }

    /// Power of `stack` at `layer` (1-based from the sink).
    ///
    /// # Panics
    ///
    /// Panics if `stack` or `layer` is out of range.
    pub fn get(&self, stack: usize, layer: usize) -> f64 {
        self.power[self.index(stack, layer)]
    }

    /// Sets the power of `stack` at `layer` (1-based from the sink).
    ///
    /// # Panics
    ///
    /// Panics if out of range or `watts` is negative/non-finite.
    pub fn set(&mut self, stack: usize, layer: usize, watts: f64) {
        assert!(watts.is_finite() && watts >= 0.0, "power must be non-negative");
        let i = self.index(stack, layer);
        self.power[i] = watts;
    }

    /// Total power of the whole grid.
    pub fn total(&self) -> f64 {
        self.power.iter().sum()
    }

    /// The powers of `stack`, layer 1 first.
    fn stack_powers(&self, stack: usize) -> &[f64] {
        &self.power[stack * self.layers..(stack + 1) * self.layers]
    }

    fn index(&self, stack: usize, layer: usize) -> usize {
        assert!(stack < self.stacks(), "stack {stack} out of range");
        assert!(
            (1..=self.layers).contains(&layer),
            "layer {layer} out of range 1..={}",
            self.layers
        );
        stack * self.layers + (layer - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_grid_round_trips() {
        let mut g = PowerGrid::new(2, 3, 4);
        g.set(5, 4, 2.5);
        assert_eq!(g.get(5, 4), 2.5);
        assert_eq!(g.get(5, 1), 0.0);
        assert_eq!(g.total(), 2.5);
    }

    #[test]
    #[should_panic(expected = "layer 0 out of range")]
    fn layer_zero_is_rejected() {
        let g = PowerGrid::new(2, 2, 2);
        g.get(0, 0);
    }

    #[test]
    #[should_panic(expected = "power must be non-negative")]
    fn negative_power_is_rejected() {
        let mut g = PowerGrid::new(1, 1, 1);
        g.set(0, 1, -1.0);
    }

    #[test]
    fn uniform_params_shape() {
        let p = ThermalParams::uniform(4, 2.0, 0.5);
        assert_eq!(p.layers(), 4);
        assert_eq!(p.r_vertical, vec![2.0; 4]);
        assert_eq!(p.r_base, 0.5);
    }
}
