//! Hostile optimizer-state restores behind a valid CRC.
//!
//! A checkpoint's CRC proves only that the bytes are the ones written;
//! a damaged writer, a hand edit or a format mix-up can still hand a
//! restore a payload no run produced. The surrogate optimizers refit
//! their forest on restore, so such a payload must come back as a
//! `PersistError` before it reaches `RandomForest::fit`'s asserts. MOELA
//! and MOEA/D rebuild the same decomposition population, whose
//! constructor asserts too. These tests mutate valid state payloads of
//! all six optimizers — dropped fields, swapped types, truncated arrays —
//! wrap each in a checkpoint whose CRC is recomputed, and accept `Ok` or
//! `Err` from the restore, never a panic.

use std::path::Path;
use std::sync::OnceLock;
use std::time::Duration;

use moela::baselines::{
    Moead, MoeadConfig, MooStage, MooStageConfig, Moos, MoosConfig, Nsga2, Nsga2Config,
    RandomSearch, RandomSearchConfig,
};
use moela::core::{Moela, MoelaConfig};
use moela::ml::MIN_FIT_ROWS;
use moela::moo::checkpoint::Resumable;
use moela::moo::problems::Zdt;
use moela::persist::{checkpoint, PersistError, Value, VecF64Codec, FORMAT_VERSION};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

#[derive(Clone, Copy, Debug)]
enum Algo {
    Moela,
    Moos,
    MooStage,
    Moead,
    Nsga2,
    Random,
}

const ALGOS: [Algo; 6] =
    [Algo::Moela, Algo::Moos, Algo::MooStage, Algo::Moead, Algo::Nsga2, Algo::Random];

/// The optimizers that checkpoint a training set.
const SURROGATE_ALGOS: [Algo; 3] = [Algo::Moela, Algo::Moos, Algo::MooStage];

fn problem() -> Zdt {
    Zdt::zdt1(6)
}

fn moela_config() -> MoelaConfig {
    MoelaConfig::builder().population(6).generations(40).iter_early(1).build().expect("valid")
}

fn moos_config() -> MoosConfig {
    MoosConfig { episodes: 40, ..Default::default() }
}

fn stage_config() -> MooStageConfig {
    MooStageConfig { episodes: 40, ..Default::default() }
}

fn moead_config() -> MoeadConfig {
    MoeadConfig { population: 6, neighborhood: 3, generations: 40, ..Default::default() }
}

fn nsga2_config() -> Nsga2Config {
    Nsga2Config { population: 6, generations: 40, ..Default::default() }
}

fn random_config() -> RandomSearchConfig {
    RandomSearchConfig { samples: 500, ..Default::default() }
}

/// Steps `state` `steps` times and returns its snapshot.
fn snapshot_after<S>(mut state: S, rng: &mut StdRng, steps: u64) -> Value
where
    S: Resumable<VecF64Codec, Solution = Vec<f64>>,
{
    while state.completed() < steps && state.step(rng) {}
    state.snapshot_state(&VecF64Codec)
}

/// A valid state payload of `algo`, taken after its surrogate (if any) was
/// fitted.
fn valid_state(algo: Algo) -> Value {
    static STATES: OnceLock<Vec<Value>> = OnceLock::new();
    let states = STATES.get_or_init(|| {
        let p = problem();
        let mut rng = StdRng::seed_from_u64(5);
        vec![
            snapshot_after(Moela::new(moela_config(), &p).start(&mut rng), &mut rng, 3),
            snapshot_after(Moos::new(moos_config(), &p).start(&mut rng), &mut rng, 10),
            snapshot_after(MooStage::new(stage_config(), &p).start(&mut rng), &mut rng, 4),
            snapshot_after(Moead::new(moead_config(), &p).start(&mut rng), &mut rng, 3),
            snapshot_after(Nsga2::new(nsga2_config(), &p).start(&mut rng), &mut rng, 3),
            snapshot_after(RandomSearch::new(random_config(), &p).start(&mut rng), &mut rng, 3),
        ]
    });
    states[algo as usize].clone()
}

/// Restores `state` after a trip through checkpoint bytes with a freshly
/// computed CRC.
fn restore(algo: Algo, state: &Value) -> Result<(), PersistError> {
    let envelope = Value::object(vec![
        ("format", Value::U64(FORMAT_VERSION.into())),
        ("state", state.clone()),
    ]);
    let read = checkpoint::from_bytes(&checkpoint::to_bytes(&envelope), Path::new("hostile"))
        .expect("a recomputed CRC verifies");
    let state = read.field("state").expect("state");
    let p = problem();
    let (codec, zero) = (&VecF64Codec, Duration::ZERO);
    match algo {
        Algo::Moela => Moela::new(moela_config(), &p).restore(codec, state, zero).map(drop),
        Algo::Moos => Moos::new(moos_config(), &p).restore(codec, state, zero).map(drop),
        Algo::MooStage => MooStage::new(stage_config(), &p).restore(codec, state, zero).map(drop),
        Algo::Moead => Moead::new(moead_config(), &p).restore(codec, state, zero).map(drop),
        Algo::Nsga2 => Nsga2::new(nsga2_config(), &p).restore(codec, state, zero).map(drop),
        Algo::Random => {
            RandomSearch::new(random_config(), &p).restore(codec, state, zero).map(drop)
        }
    }
}

/// Every node of `v` as a path of child indices (object fields and array
/// items alike), the root included.
fn paths(v: &Value, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(at.clone());
    let children: Vec<&Value> = match v {
        Value::Array(items) => items.iter().collect(),
        Value::Object(fields) => fields.iter().map(|(_, v)| v).collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        at.push(i);
        paths(child, at, out);
        at.pop();
    }
}

fn node_mut<'v>(v: &'v mut Value, path: &[usize]) -> &'v mut Value {
    match path.split_first() {
        None => v,
        Some((&i, rest)) => match v {
            Value::Array(items) => node_mut(&mut items[i], rest),
            Value::Object(fields) => node_mut(&mut fields[i].1, rest),
            _ => unreachable!("paths only descend into containers"),
        },
    }
}

/// A value of a kind the decoder does not expect, or a near miss of one
/// it does (an RNG state of the wrong length, an empty container).
fn stranger(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..10usize) {
        0 => Value::Null,
        1 => Value::Bool(true),
        2 => Value::U64(rng.next_u64()),
        3 => Value::I64(-3),
        4 => Value::F64(f64::NAN),
        5 => Value::F64(1.5),
        6 => Value::Str("x".into()),
        7 => Value::Array(Vec::new()),
        8 => Value::Object(Vec::new()),
        _ => Value::u64_array(&vec![7; rng.gen_range(0..6usize)]),
    }
}

/// Applies one to three random mutations to `state`.
fn mutate(state: &mut Value, rng: &mut StdRng) {
    for _ in 0..rng.gen_range(1..4usize) {
        let mut all = Vec::new();
        paths(state, &mut Vec::new(), &mut all);
        let path = &all[rng.gen_range(0..all.len())];
        let node = node_mut(state, path);
        match (rng.gen_range(0..3usize), node) {
            (0, Value::Object(fields)) if !fields.is_empty() => {
                fields.remove(rng.gen_range(0..fields.len()));
            }
            (1, Value::Array(items)) if !items.is_empty() => {
                items.truncate(rng.gen_range(0..items.len()));
            }
            (_, node) => *node = stranger(rng),
        }
    }
}

/// Random mutation cases: one algorithm and one RNG seed each.
#[derive(Clone, Debug)]
struct Case;

impl Strategy for Case {
    type Value = (usize, u64);

    fn generate(&self, rng: &mut StdRng) -> (usize, u64) {
        (rng.gen_range(0..ALGOS.len()), rng.next_u64())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn mutated_states_restore_or_fail_but_never_panic(case in Case) {
        let (algo, seed) = case;
        let algo = ALGOS[algo];
        let mut state = valid_state(algo);
        mutate(&mut state, &mut StdRng::seed_from_u64(seed));
        let _ = restore(algo, &state);
    }
}

fn set(state: &mut Value, key: &str, value: Value) {
    let Value::Object(fields) = state else { panic!("object state") };
    let slot = fields.iter_mut().find(|(k, _)| k == key).expect("field present");
    slot.1 = value;
}

fn train_mut(state: &mut Value) -> &mut Vec<(String, Value)> {
    let Value::Object(fields) = state else { panic!("object state") };
    match &mut fields.iter_mut().find(|(k, _)| k == "train").expect("train").1 {
        Value::Object(train) => train,
        other => panic!("train is {other:?}"),
    }
}

fn train_array<'v>(state: &'v mut Value, key: &str) -> &'v mut Vec<Value> {
    match &mut train_mut(state).iter_mut().find(|(k, _)| k == key).expect("train field").1 {
        Value::Array(items) => items,
        other => panic!("{key} is {other:?}"),
    }
}

fn assert_schema_error(algo: Algo, state: &Value, what: &str) {
    match restore(algo, state) {
        Err(PersistError::Schema(message)) => assert!(!message.is_empty()),
        other => panic!("{algo:?} {what}: expected a schema error, got {other:?}"),
    }
}

#[test]
fn valid_states_restore() {
    for algo in ALGOS {
        let state = valid_state(algo);
        restore(algo, &state).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        let fitted = state.field("fit_rng").map(|v| *v != Value::Null);
        match algo {
            Algo::Moela | Algo::Moos => assert!(fitted.unwrap(), "{algo:?} must have fitted"),
            Algo::MooStage | Algo::Moead | Algo::Nsga2 | Algo::Random => {
                assert!(fitted.is_err(), "{algo:?} checkpoints no surrogate")
            }
        }
    }
}

#[test]
fn a_fit_rng_that_is_not_four_words_is_refused() {
    for algo in [Algo::Moela, Algo::Moos] {
        for words in [0, 3, 5] {
            let mut state = valid_state(algo);
            set(&mut state, "fit_rng", Value::u64_array(&vec![1; words]));
            assert_schema_error(algo, &state, &format!("fit_rng of {words} words"));
        }
        let mut state = valid_state(algo);
        set(&mut state, "fit_rng", Value::Str("seed".into()));
        assert_schema_error(algo, &state, "fit_rng string");
    }
}

#[test]
fn a_fit_rng_over_too_few_training_rows_is_refused() {
    for algo in [Algo::Moela, Algo::Moos] {
        for rows in [0, MIN_FIT_ROWS - 1] {
            let mut state = valid_state(algo);
            train_array(&mut state, "features").truncate(rows);
            train_array(&mut state, "targets").truncate(rows);
            set(&mut state, "fit_rng", Value::u64_array(&[1, 2, 3, 4]));
            assert_schema_error(algo, &state, &format!("fit_rng over {rows} rows"));
        }
    }
}

#[test]
fn training_rows_of_unequal_or_wrong_width_are_refused() {
    for algo in SURROGATE_ALGOS {
        let mut state = valid_state(algo);
        let Value::Array(row) = &mut train_array(&mut state, "features")[1] else {
            panic!("feature row")
        };
        row.pop();
        assert_schema_error(algo, &state, "ragged rows");

        let mut state = valid_state(algo);
        for row in train_array(&mut state, "features") {
            let Value::Array(row) = row else { panic!("feature row") };
            row.push(Value::F64(0.5));
        }
        assert_schema_error(algo, &state, "rows one feature too wide");
    }
}

#[test]
fn a_population_of_another_size_is_refused_with_both_counts() {
    for algo in [Algo::Moela, Algo::Moead, Algo::Nsga2] {
        let mut state = valid_state(algo);
        let Value::Object(fields) = &mut state else { panic!("object state") };
        let Value::Array(members) =
            &mut fields.iter_mut().find(|(k, _)| k == "population").expect("population").1
        else {
            panic!("population array")
        };
        members.pop();
        match restore(algo, &state) {
            Err(PersistError::Schema(message)) => assert_eq!(
                message, "checkpointed population has 5 members, the configuration 6",
                "{algo:?}"
            ),
            other => panic!("{algo:?}: expected a schema error, got {other:?}"),
        }
    }
}

#[test]
fn a_state_without_fault_counters_is_refused() {
    for algo in ALGOS {
        let mut state = valid_state(algo);
        let Value::Object(fields) = &mut state else { panic!("object state") };
        let before = fields.len();
        fields.retain(|(k, _)| k != "faults");
        assert_eq!(fields.len(), before - 1, "{algo:?} checkpoints its fault counters");
        assert_schema_error(algo, &state, "no faults key");
    }
}
