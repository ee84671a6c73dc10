//! Learning substrate: a from-scratch random-forest regressor.
//!
//! MOELA's `Eval` function (Algorithm 1, line 11) is a regressor trained on
//! local-search trajectories: it maps a design's features (plus its weight
//! vector) to the scalarized value the local search reached from that
//! design. The paper uses a random forest, "however, any sufficiently
//! expressive model would work here" — we implement CART regression trees
//! ([`tree::RegressionTree`]) bagged into a [`forest::RandomForest`], plus
//! the bounded training buffer ([`dataset::Dataset`]) that realizes the
//! paper's `|S_train| ≤ 10 K` cap.
//!
//! # Example
//!
//! ```
//! use moela_ml::{Dataset, RandomForest, ForestConfig};
//! use rand::SeedableRng;
//!
//! // Learn y = x0 + 2·x1 from noisy samples.
//! let mut data = Dataset::with_capacity(1000);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! use rand::Rng;
//! for _ in 0..300 {
//!     let x0: f64 = rng.gen_range(0.0..1.0);
//!     let x1: f64 = rng.gen_range(0.0..1.0);
//!     data.push(vec![x0, x1], x0 + 2.0 * x1);
//! }
//! let forest = RandomForest::fit(&data, &ForestConfig::default(), &mut rng);
//! let pred = forest.predict(&[0.5, 0.5]);
//! assert!((pred - 1.5).abs() < 0.3);
//! ```

pub mod dataset;
pub mod forest;
pub mod surrogate;
pub mod tree;

pub use dataset::Dataset;
pub use forest::{ForestConfig, RandomForest};
pub use surrogate::{Surrogate, MIN_FIT_ROWS, SURROGATE_FOREST};
pub use tree::{RegressionTree, TreeConfig};
