//! End-to-end checks of the `dse-bench` binary: a smoke run prints every
//! `BENCHMARK.json` metric with its unit and passes its own gate, and
//! `compare` tells an identical result from a regressed one.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use moela_dse_bench::spec::{Metrics, WORKLOADS};
use moela_persist::Value;

/// Builds `moela-dse` (release) once, in a target directory of its own
/// so the nested build never waits on this test's build lock.
fn moela_dse() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("moela-cli");
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
        let status = Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "--quiet", "-p", "moela-cli"])
            .arg("--manifest-path")
            .arg(&manifest)
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building moela-dse failed");
        target.join("release/moela-dse")
    })
}

fn dse_bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dse-bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("dse-bench runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn smoke_run_prints_every_metric_and_compare_classifies() {
    let dir = scratch("smoke");
    let bin = moela_dse().to_str().expect("utf-8 path").to_owned();
    let out = dse_bench(&dir, &["run", "--smoke", "--out", "base.json", "--moela-dse", &bin]);
    let text = stdout(&out);
    assert!(
        out.status.success(),
        "smoke run failed:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let metrics = Metrics::load();
    for w in WORKLOADS {
        for m in metrics.end_to_end.iter().chain(&metrics.per_layer) {
            let printed = text.lines().any(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                f.len() >= 4 && f[0] == w.name && f[1] == m.name && f[3] == m.unit
            });
            assert!(printed, "{} {} [{}] is not printed:\n{text}", w.name, m.name, m.unit);
        }
    }
    let summary = moela_persist::decode::from_str(text.lines().last().expect("a summary line"))
        .expect("the last line is JSON");
    assert_eq!(summary.field("correct").and_then(Value::as_bool).ok(), Some(true));
    assert_eq!(summary.field("failed").and_then(Value::as_u64).ok(), Some(0));
    assert!(dir.join(format!("{}.trace.chrome.json", WORKLOADS[0].name)).is_file());

    // A result compared with itself: every pair unchanged.
    let same = dse_bench(&dir, &["compare", "base.json", "base.json"]);
    assert_eq!(same.status.code(), Some(0), "{}", stdout(&same));
    let verdicts: Vec<String> = stdout(&same)
        .lines()
        .filter(|l| !l.contains("front_crc32"))
        .map(|l| l.rsplit(' ').next().unwrap_or_default().to_owned())
        .collect();
    assert!(!verdicts.is_empty() && verdicts.iter().all(|v| v == "unchanged"), "{verdicts:?}");

    // wall_s ×1.5 everywhere: regressed, exit 3.
    let base_text = std::fs::read_to_string(dir.join("base.json")).expect("result written");
    let base = moela_persist::decode::from_str(&base_text).expect("result is JSON");
    std::fs::write(
        dir.join("slow.json"),
        moela_persist::encode::to_string(&scale_wall(&base, 1.5)),
    )
    .expect("write doctored copy");
    let slow = dse_bench(&dir, &["compare", "base.json", "slow.json"]);
    assert_eq!(slow.status.code(), Some(3), "{}", stdout(&slow));
    assert!(stdout(&slow).lines().any(|l| l.contains(" wall_s ") && l.ends_with("regressed")));

    // A different protocol is refused, not compared.
    let other_seed = base_text.replacen("\"seed\":11", "\"seed\":12", 1);
    std::fs::write(dir.join("other.json"), other_seed).expect("write other protocol");
    let refused = dse_bench(&dir, &["compare", "base.json", "other.json"]);
    assert_eq!(refused.status.code(), Some(2), "{}", stdout(&refused));
}

/// A copy of `result` with every `wall_s` sample multiplied by `factor`.
fn scale_wall(result: &Value, factor: f64) -> Value {
    match result {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .map(|(k, v)| {
                    let v = match (k.as_str(), v) {
                        ("wall_s", Value::Array(xs)) => Value::f64_array(
                            &xs.iter()
                                .map(|x| x.as_f64().expect("sample") * factor)
                                .collect::<Vec<_>>(),
                        ),
                        _ => scale_wall(v, factor),
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(|v| scale_wall(v, factor)).collect()),
        other => other.clone(),
    }
}
