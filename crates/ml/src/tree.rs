//! CART regression trees (variance-reduction splitting).
//!
//! # Split-search contract
//!
//! A fit is pinned to the bit by its RNG draws and the order in which it
//! adds floating-point numbers, so the split search fixes both:
//!
//! * A tree holds its bootstrap as distinct rows, each with the count `w`
//!   of draws that named it, so the order of the draws does not matter.
//!   A node keeps its rows in ascending row id; its children receive
//!   stable partitions of them and so keep that order.
//! * A node's leaf value is Σw·y, summed in row order, divided by Σw.
//!   `min_samples_leaf`, and the `2·min_samples_leaf` below which a node
//!   is not split, count draws (Σw), not rows.
//! * Each node shuffles the feature list once when `max_features` is set,
//!   then examines the candidates in that order. A candidate adds each
//!   row's (w, w·y, w·y²) to the bin of the row's value, in row order,
//!   then takes prefixes over the non-empty bins in ascending value; the
//!   totals are the last prefix. Each pair of adjacent non-empty bins is
//!   a split point, scored as Σw·y² − (Σw·y)²/Σw summed over the two
//!   sides, skipped when its values lie less than 1e-15 apart or a side
//!   holds fewer than `min_samples_leaf` draws, and placed at
//!   `(xa + xb) / 2`. The lowest score wins, ties going to the first
//!   found.
//!
//! This is the estimator of a builder that keeps every draw as a sample
//! (the original one, kept in `tree/reference.rs`); only the rounding of
//! the sums differs. Where every sum is exact, as with small integer
//! targets, both grow the same trees from the same RNG draws.
//!
//! A column table, built once per forest fit and shared by its trees,
//! holds each column's dense ranks under [`f64::total_cmp`] and its
//! distinct values in rank order. A [`Dataset`] holds only finite values,
//! so equal ranks are equal values and a rank indexes its bin. When a
//! node's ranks span more than 4× its row count, as in the small deep
//! nodes of a wide column, the non-empty bins are found by sorting the
//! node's ranks instead of scanning the span; the bins are filled alike,
//! so both walks give the same bits. A candidate whose feature is
//! constant within the node is skipped.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::Dataset;

#[cfg(test)]
mod reference;

/// Hyper-parameters of a single regression tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root at depth 0).
    pub max_depth: usize,
    /// Minimum samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Number of candidate features examined per split; `None` = all
    /// (set by the forest to `√d` for decorrelated trees).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self { max_depth: 12, min_samples_leaf: 2, max_features: None }
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf { value: f64 },
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

/// A fitted CART regression tree.
///
/// # Example
///
/// ```
/// use moela_ml::{Dataset, RegressionTree, TreeConfig};
/// use rand::SeedableRng;
///
/// let mut d = Dataset::new();
/// for i in 0..50 {
///     let x = i as f64 / 50.0;
///     d.push(vec![x], if x < 0.5 { 0.0 } else { 1.0 });
/// }
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let tree = RegressionTree::fit(&d, &TreeConfig::default(), &mut rng);
/// assert!(tree.predict(&[0.1]) < 0.5);
/// assert!(tree.predict(&[0.9]) > 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct RegressionTree {
    root: Node,
    feature_len: usize,
}

impl RegressionTree {
    /// Fits a tree on all samples of `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &Dataset, config: &TreeConfig, rng: &mut impl Rng) -> Self {
        let indices: Vec<usize> = (0..data.len()).collect();
        Self::fit_on(data, &indices, config, rng)
    }

    /// Fits a tree on the samples selected by `indices` (the forest's
    /// bootstrap hook). Indices may repeat, and their order does not
    /// matter: the tree sees each row once, weighted by its count.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or names a sample `data` lacks.
    pub fn fit_on(
        data: &Dataset,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut impl Rng,
    ) -> Self {
        Self::fit_table(&ColumnTable::new(data), indices, config, rng)
    }

    /// [`fit_on`](Self::fit_on) over a prepared column table, which a
    /// forest builds once and shares across its trees.
    pub(crate) fn fit_table(
        table: &ColumnTable,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        assert!(u32::try_from(indices.len()).is_ok(), "too many samples for one tree");
        let mut draws = vec![Moments::default(); table.rows];
        for &i in indices {
            assert!(i < table.rows, "sample index {i} out of range");
            draws[i].w += 1;
        }
        let mut rows = Vec::new();
        for (i, (row, &y)) in draws.iter_mut().zip(&table.targets).enumerate() {
            if row.w > 0 {
                let w = f64::from(row.w);
                (row.sum, row.sq) = (w * y, w * y.powi(2));
                rows.push(i as u32);
            }
        }
        let root = Builder::new(table, config, draws).build(&mut rows, 0, rng);
        Self { root, feature_len: table.features }
    }

    /// Predicts the target for a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong length.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.feature_len, "feature length mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    node = if features[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Depth of the fitted tree (a leaf-only tree has depth 0).
    pub fn depth(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(left).max(walk(right)),
            }
        }
        walk(&self.root)
    }
}

#[cfg(test)]
impl moela_persist::Snapshot for RegressionTree {
    fn snapshot(&self) -> moela_persist::Value {
        use moela_persist::Value;
        fn node_to_value(node: &Node) -> Value {
            match node {
                Node::Leaf { value } => Value::object(vec![("leaf", Value::F64(*value))]),
                Node::Split { feature, threshold, left, right } => Value::object(vec![
                    ("feature", Value::U64(*feature as u64)),
                    ("threshold", Value::F64(*threshold)),
                    ("left", node_to_value(left)),
                    ("right", node_to_value(right)),
                ]),
            }
        }
        Value::object(vec![
            ("feature_len", Value::U64(self.feature_len as u64)),
            ("root", node_to_value(&self.root)),
        ])
    }
}

/// A dataset in the split search's layout: each feature's dense ranks
/// under [`f64::total_cmp`] (equal values share a rank) and its distinct
/// values in rank order, plus the targets.
pub(crate) struct ColumnTable {
    rows: usize,
    features: usize,
    /// `ranks[f * rows + i]` is the dense rank of feature `f` of sample
    /// `i` within its column.
    ranks: Vec<u32>,
    /// `levels[f * rows + r]` is the value of rank `r` in column `f`.
    levels: Vec<f64>,
    targets: Vec<f64>,
}

impl ColumnTable {
    pub(crate) fn new(data: &Dataset) -> Self {
        let rows = data.len();
        assert!(u32::try_from(rows).is_ok(), "too many samples for one fit");
        let features = data.feature_len();
        let mut ranks = vec![0; rows * features];
        let mut levels = vec![0.0; rows * features];
        let mut keyed: Vec<(i64, u32)> = Vec::with_capacity(rows);
        for f in 0..features {
            keyed.clear();
            keyed.extend((0..rows).map(|i| (total_order_key(data.features(i)[f]), i as u32)));
            keyed.sort_unstable();
            let column = f * rows..(f + 1) * rows;
            let (column_ranks, column_levels) = (&mut ranks[column.clone()], &mut levels[column]);
            let mut rank = 0;
            for (k, &(key, i)) in keyed.iter().enumerate() {
                if k > 0 && key != keyed[k - 1].0 {
                    rank += 1;
                }
                column_ranks[i as usize] = rank;
                column_levels[rank as usize] = data.features(i as usize)[f];
            }
        }
        Self { rows, features, ranks, levels, targets: data.targets().to_vec() }
    }

    fn ranks(&self, feature: usize) -> &[u32] {
        &self.ranks[feature * self.rows..(feature + 1) * self.rows]
    }

    fn levels(&self, feature: usize) -> &[f64] {
        &self.levels[feature * self.rows..(feature + 1) * self.rows]
    }
}

/// The integer whose order is [`f64::total_cmp`]'s order (the same bit
/// trick the standard library uses).
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The non-empty bins are found by scanning the node's rank span when it
/// is at most this many times the node's row count, and by sorting the
/// node's ranks otherwise.
const SPAN_FACTOR: usize = 4;

/// Draws and their weighted target sums: one row's share of a tree, one
/// bin of a candidate, or a prefix of bins.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Moments {
    /// Bootstrap draws (Σw).
    w: u32,
    /// Σw·y.
    sum: f64,
    /// Σw·y².
    sq: f64,
}

impl Moments {
    fn add(&mut self, other: &Self) {
        self.w += other.w;
        self.sum += other.sum;
        self.sq += other.sq;
    }
}

/// Grows one tree over a [`ColumnTable`], reusing its scratch buffers
/// from node to node.
struct Builder<'a> {
    table: &'a ColumnTable,
    config: &'a TreeConfig,
    /// Each row's draws in this tree, zero for rows no draw named.
    draws: Vec<Moments>,
    /// A candidate's bins, indexed by rank and all empty between
    /// candidates.
    bins: Vec<Moments>,
    /// A candidate's non-empty bins in ascending rank: each rank with
    /// the prefix through its bin.
    runs: Vec<(u32, Moments)>,
    /// The node's sorted ranks, when its span is too wide to scan.
    sorted: Vec<u32>,
    /// Partition overflow.
    spare: Vec<u32>,
}

impl<'a> Builder<'a> {
    fn new(table: &'a ColumnTable, config: &'a TreeConfig, draws: Vec<Moments>) -> Self {
        Self {
            table,
            config,
            draws,
            bins: vec![Moments::default(); table.rows],
            runs: Vec::new(),
            sorted: Vec::new(),
            spare: Vec::new(),
        }
    }

    fn build(&mut self, rows: &mut [u32], depth: usize, rng: &mut impl Rng) -> Node {
        let table = self.table;
        let draws = &self.draws;
        let weight: u32 = rows.iter().map(|&i| draws[i as usize].w).sum();
        let leaf_value =
            rows.iter().map(|&i| draws[i as usize].sum).sum::<f64>() / f64::from(weight);
        if depth >= self.config.max_depth || (weight as usize) < 2 * self.config.min_samples_leaf {
            return Node::Leaf { value: leaf_value };
        }
        // Homogeneous targets: nothing to gain.
        let targets = &table.targets;
        let first = targets[rows[0] as usize];
        if rows.iter().all(|&i| (targets[i as usize] - first).abs() < 1e-15) {
            return Node::Leaf { value: leaf_value };
        }

        let d = table.features;
        let mut candidates: Vec<usize> = (0..d).collect();
        if let Some(k) = self.config.max_features {
            candidates.shuffle(rng);
            candidates.truncate(k.clamp(1, d));
        }

        let Some((feature, threshold)) = self.best_split(rows, &candidates) else {
            return Node::Leaf { value: leaf_value };
        };
        let (ranks, levels) = (table.ranks(feature), table.levels(feature));
        let split = stable_partition(
            rows,
            |i| levels[ranks[i as usize] as usize] <= threshold,
            &mut self.spare,
        );
        if split == 0 || split == rows.len() {
            return Node::Leaf { value: leaf_value };
        }
        let (left, right) = rows.split_at_mut(split);
        let left = Box::new(self.build(left, depth + 1, rng));
        let right = Box::new(self.build(right, depth + 1, rng));
        Node::Split { feature, threshold, left, right }
    }

    /// The lowest-SSE `(feature, threshold)` over `candidates`, ties going
    /// to the first found.
    fn best_split(&mut self, rows: &[u32], candidates: &[usize]) -> Option<(usize, f64)> {
        let table = self.table;
        let min_leaf = self.config.min_samples_leaf;
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &feat in candidates {
            let ranks = table.ranks(feat);
            let Some((lo, hi)) = self.fill_bins(rows, ranks) else {
                continue; // constant here: no value can be separated
            };
            let scan = ((hi - lo) as usize) < SPAN_FACTOR * rows.len();
            self.drain_bins(rows, ranks, lo, hi, scan);
            // Each side's SSE is Σw·y² − (Σw·y)²/Σw, read off the prefixes
            // in O(1) per split point.
            let levels = table.levels(feat);
            let total = self.runs.last().expect("a non-constant candidate has bins").1;
            for pair in self.runs.windows(2) {
                let ((a, left), (b, _)) = (pair[0], pair[1]);
                let right_w = total.w - left.w;
                if (left.w as usize) < min_leaf || (right_w as usize) < min_leaf {
                    continue;
                }
                let (xa, xb) = (levels[a as usize], levels[b as usize]);
                if xb - xa < 1e-15 {
                    continue; // too close to separate
                }
                let left_sse = left.sq - left.sum * left.sum / f64::from(left.w);
                let right_sum = total.sum - left.sum;
                let right_sse = (total.sq - left.sq) - right_sum * right_sum / f64::from(right_w);
                let sse = left_sse + right_sse;
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((feat, (xa + xb) / 2.0, sse));
                }
            }
        }
        best.map(|(feature, threshold, _)| (feature, threshold))
    }

    /// Adds each of `rows`, in order, to the bin of its rank and returns
    /// the lowest and highest rank, or `None`, with the bins left empty,
    /// when every row has the same rank.
    fn fill_bins(&mut self, rows: &[u32], ranks: &[u32]) -> Option<(u32, u32)> {
        let (mut lo, mut hi) = (u32::MAX, 0);
        for &i in rows {
            let rank = ranks[i as usize];
            self.bins[rank as usize].add(&self.draws[i as usize]);
            lo = lo.min(rank);
            hi = hi.max(rank);
        }
        if lo >= hi {
            self.bins[lo as usize] = Moments::default();
            return None;
        }
        Some((lo, hi))
    }

    /// Empties the bins [`fill_bins`](Self::fill_bins) filled for `rows`
    /// into `runs` in ascending rank, finding them by scanning `lo..=hi`
    /// when `scan` is set and by sorting the rows' ranks otherwise.
    fn drain_bins(&mut self, rows: &[u32], ranks: &[u32], lo: u32, hi: u32, scan: bool) {
        let Self { bins, runs, sorted, .. } = self;
        runs.clear();
        let mut prefix = Moments::default();
        let mut take = |rank: u32| {
            let bin = std::mem::take(&mut bins[rank as usize]);
            if bin.w > 0 {
                prefix.add(&bin);
                runs.push((rank, prefix));
            }
        };
        if scan {
            (lo..=hi).for_each(take);
        } else {
            sorted.clear();
            sorted.extend(rows.iter().map(|&i| ranks[i as usize]));
            sorted.sort_unstable();
            sorted.dedup();
            sorted.iter().for_each(|&rank| take(rank));
        }
    }
}

/// Moves the rows `goes_left` accepts to the front of `rows`, both sides
/// keeping their order, and returns how many went left.
fn stable_partition(
    rows: &mut [u32],
    goes_left: impl Fn(u32) -> bool,
    spare: &mut Vec<u32>,
) -> usize {
    spare.clear();
    let mut left = 0;
    for k in 0..rows.len() {
        let row = rows[k];
        if goes_left(row) {
            rows[left] = row;
            left += 1;
        } else {
            spare.push(row);
        }
    }
    rows[left..].copy_from_slice(spare);
    left
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn constant_targets_yield_a_single_leaf() {
        let mut d = Dataset::new();
        for i in 0..20 {
            d.push(vec![i as f64], 3.5);
        }
        let t = RegressionTree::fit(&d, &TreeConfig::default(), &mut rng());
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict(&[100.0]), 3.5);
    }

    #[test]
    fn step_function_is_learned_exactly() {
        let mut d = Dataset::new();
        for i in 0..100 {
            let x = i as f64 / 100.0;
            d.push(vec![x], if x < 0.37 { -1.0 } else { 1.0 });
        }
        let t = RegressionTree::fit(&d, &TreeConfig::default(), &mut rng());
        assert_eq!(t.predict(&[0.1]), -1.0);
        assert_eq!(t.predict(&[0.99]), 1.0);
    }

    #[test]
    fn splits_pick_the_informative_feature() {
        // Feature 1 is pure noise; feature 0 determines the target.
        let mut d = Dataset::new();
        let mut r = rng();
        for i in 0..200 {
            let x0 = i as f64 / 200.0;
            let noise: f64 = r.gen_range(0.0..1.0);
            d.push(vec![x0, noise], x0 * 10.0);
        }
        let t = RegressionTree::fit(&d, &TreeConfig::default(), &mut r);
        // Prediction must track feature 0 and ignore feature 1.
        let lo = t.predict(&[0.1, 0.9]);
        let hi = t.predict(&[0.9, 0.1]);
        assert!(hi - lo > 5.0, "lo {lo} hi {hi}");
    }

    #[test]
    fn max_depth_limits_the_tree() {
        let mut d = Dataset::new();
        let mut r = rng();
        for _ in 0..500 {
            let x: f64 = r.gen_range(0.0..1.0);
            d.push(vec![x], (x * 20.0).sin());
        }
        let cfg = TreeConfig { max_depth: 3, ..TreeConfig::default() };
        let t = RegressionTree::fit(&d, &cfg, &mut r);
        assert!(t.depth() <= 3);
    }

    #[test]
    fn min_samples_leaf_is_respected_via_smoothing() {
        let mut d = Dataset::new();
        // One outlier among identical points.
        for i in 0..20 {
            d.push(vec![i as f64], 0.0);
        }
        d.push(vec![20.0], 100.0);
        let cfg = TreeConfig { min_samples_leaf: 5, ..TreeConfig::default() };
        let t = RegressionTree::fit(&d, &cfg, &mut rng());
        // The outlier cannot sit in its own leaf, so its prediction is
        // blended with neighbors.
        assert!(t.predict(&[20.0]) < 100.0);
    }

    #[test]
    fn fit_on_bootstrap_indices_works_with_repeats() {
        let mut d = Dataset::new();
        for i in 0..10 {
            d.push(vec![i as f64], i as f64);
        }
        let idx = vec![0, 0, 0, 9, 9, 9];
        let t = RegressionTree::fit_on(&d, &idx, &TreeConfig::default(), &mut rng());
        assert!(t.predict(&[0.0]) < t.predict(&[9.0]));
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_fit_panics() {
        let d = Dataset::new();
        RegressionTree::fit(&d, &TreeConfig::default(), &mut rng());
    }

    #[test]
    #[should_panic(expected = "feature length mismatch")]
    fn wrong_feature_length_panics() {
        let mut d = Dataset::new();
        d.push(vec![1.0, 2.0], 0.0);
        d.push(vec![2.0, 1.0], 1.0);
        let t = RegressionTree::fit(&d, &TreeConfig::default(), &mut rng());
        t.predict(&[1.0]);
    }

    #[test]
    fn ranks_follow_total_cmp_with_dense_ties() {
        let column = [0.5, -0.0, 0.0, f64::MIN, 0.5, -2.0, f64::MAX, 0.0];
        let mut d = Dataset::new();
        for x in column {
            d.push(vec![x], 0.0);
        }
        let table = ColumnTable::new(&d);
        assert_eq!(table.ranks(0), &[4, 2, 3, 0, 4, 1, 5, 3]);
        let levels: Vec<u64> = table.levels(0)[..6].iter().map(|x| x.to_bits()).collect();
        let expected = [f64::MIN, -2.0, -0.0, 0.0, 0.5, f64::MAX].map(f64::to_bits);
        assert_eq!(levels, expected);
        for (a, &xa) in column.iter().enumerate() {
            for (b, &xb) in column.iter().enumerate() {
                assert_eq!(table.ranks(0)[a].cmp(&table.ranks(0)[b]), xa.total_cmp(&xb));
            }
        }
    }

    #[test]
    fn a_permuted_bootstrap_grows_the_same_tree() {
        use moela_persist::{encode, Snapshot};
        let mut r = rng();
        let mut d = Dataset::new();
        for _ in 0..60 {
            let x: Vec<f64> = (0..4).map(|_| f64::from(r.gen_range(0..7)) / 7.0).collect();
            let y = x[0] * 0.3 - x[2] + r.gen_range(-0.1..0.1);
            d.push(x, y);
        }
        let indices: Vec<usize> = (0..90).map(|_| r.gen_range(0..60)).collect();
        let mut permuted = indices.clone();
        permuted.shuffle(&mut r);
        assert_ne!(permuted, indices);
        // Shallow, so each leaf sums many targets: summed in draw order,
        // their rounding would depend on the permutation.
        let config = TreeConfig { max_depth: 3, max_features: Some(2), ..TreeConfig::default() };
        let fit = |indices: &[usize]| {
            let mut r = rng();
            let tree = RegressionTree::fit_on(&d, indices, &config, &mut r);
            (encode::to_string(&tree.snapshot()), r.state())
        };
        assert_eq!(fit(&permuted), fit(&indices));
    }

    #[test]
    fn scanning_and_sorting_find_the_same_bins() {
        // A few repeated rows of a wide column choose the sort; a whole
        // tied column chooses the scan. Each node runs both walks, which
        // must leave the same prefixes to the bit and empty every bin.
        let mut r = rng();
        let mut d = Dataset::new();
        for i in 0..200 {
            let wide = if i % 40 == 0 { 5.0 } else { f64::from(r.gen_range(0..1000)) };
            d.push(vec![wide, f64::from(r.gen_range(0..5))], r.gen_range(-1.0..1.0));
        }
        let table = ColumnTable::new(&d);
        let config = TreeConfig::default();
        let mut draws = vec![Moments::default(); 200];
        for (i, (row, &y)) in draws.iter_mut().zip(&table.targets).enumerate() {
            let w = 1 + i as u32 % 3;
            *row = Moments { w, sum: f64::from(w) * y, sq: f64::from(w) * y.powi(2) };
        }
        let mut builder = Builder::new(&table, &config, draws);
        let few: Vec<u32> = vec![0, 3, 40, 80, 81, 120, 160, 199];
        let all: Vec<u32> = (0..200).collect();
        for (feature, rows, scans) in [(0, few, false), (1, all, true)] {
            let ranks = table.ranks(feature);
            let mut walks = Vec::new();
            for scan in [false, true] {
                let (lo, hi) = builder.fill_bins(&rows, ranks).expect("not constant");
                assert_eq!(((hi - lo) as usize) < SPAN_FACTOR * rows.len(), scans);
                builder.drain_bins(&rows, ranks, lo, hi, scan);
                assert!(builder.bins.iter().all(|b| *b == Moments::default()));
                let bits: Vec<(u32, u32, u64, u64)> = builder
                    .runs
                    .iter()
                    .map(|&(rank, m)| (rank, m.w, m.sum.to_bits(), m.sq.to_bits()))
                    .collect();
                walks.push(bits);
            }
            assert_eq!(walks[0], walks[1], "feature {feature}");
            let weight: u32 = rows.iter().map(|&i| 1 + i % 3).sum();
            assert_eq!(builder.runs.last().unwrap().1.w, weight);
        }
    }

    #[test]
    fn constant_candidates_leave_the_bins_empty() {
        let mut d = Dataset::new();
        for i in 0..30 {
            d.push(vec![1.25, i as f64], 0.0);
        }
        let table = ColumnTable::new(&d);
        let config = TreeConfig::default();
        let draws = vec![Moments { w: 2, sum: 0.0, sq: 0.0 }; 30];
        let mut builder = Builder::new(&table, &config, draws);
        let rows: Vec<u32> = (0..30).collect();
        assert_eq!(builder.fill_bins(&rows, table.ranks(0)), None);
        assert!(builder.bins.iter().all(|b| *b == Moments::default()));
    }

    #[test]
    fn a_fit_with_an_overflowing_leaf_predicts_infinity() {
        // Two huge same-sign targets share a leaf whose mean overflows.
        let mut d = Dataset::new();
        for (x, y) in [(1.0, 0.9 * f64::MAX), (1.0, 0.8 * f64::MAX), (3.0, 0.0), (4.0, 1.0)] {
            d.push(vec![x], y);
        }
        let cfg = TreeConfig { min_samples_leaf: 1, ..TreeConfig::default() };
        let tree = RegressionTree::fit(&d, &cfg, &mut rng());
        assert_eq!(tree.predict(&[1.0]), f64::INFINITY);
    }
}
