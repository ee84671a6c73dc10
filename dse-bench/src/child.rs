//! One untraced `moela-dse run` child process: timed from outside, its
//! peak memory sampled from `/proc`, its run directory read back.

use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use moela_persist::Value;

/// How often the child's `VmHWM` is sampled while it runs.
const RSS_POLL: Duration = Duration::from_millis(5);

/// What one child run produced, before any check.
#[derive(Clone, Debug)]
pub struct ChildRun {
    pub status: ExitStatus,
    /// Spawn to exit.
    pub wall_s: f64,
    /// Peak resident set in KiB, when `/proc` showed it.
    pub vm_hwm_kib: Option<u64>,
}

/// Runs `cmd` to completion (stdout discarded, stderr passed through),
/// sampling `/proc/<pid>/status` every `RSS_POLL` until the child exits.
/// A separate thread blocks in `wait` so the exit instant is exact rather
/// than rounded up to the next poll.
pub fn run_measured(mut cmd: Command) -> Result<ChildRun, String> {
    let start = Instant::now();
    let mut child = cmd
        .stdout(Stdio::null())
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
    let status_path = format!("/proc/{}/status", child.id());
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let status = child.wait();
        let end = Instant::now();
        // The receiver outlives this thread; a failed send cannot happen.
        let _ = tx.send(());
        (status, end)
    });
    let mut vm_hwm_kib = None;
    loop {
        if let Some(kib) = std::fs::read_to_string(&status_path).ok().as_deref().and_then(vm_hwm) {
            vm_hwm_kib = vm_hwm_kib.max(Some(kib));
        }
        match rx.recv_timeout(RSS_POLL) {
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let (status, end) = waiter.join().map_err(|_| "the wait thread panicked".to_owned())?;
    let status = status.map_err(|e| format!("cannot wait for the child: {e}"))?;
    Ok(ChildRun { status, wall_s: (end - start).as_secs_f64(), vm_hwm_kib })
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` file,
/// in KiB.
pub fn vm_hwm(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let kib = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kib)
}

/// The artifacts of a finished run directory that the gate and the
/// metrics read.
#[derive(Clone, Debug)]
pub struct RunArtifacts {
    pub metrics: Value,
    pub front_json: String,
    pub trace_json: String,
}

impl RunArtifacts {
    pub fn read(dir: &Path) -> Result<RunArtifacts, String> {
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name))
                .map_err(|e| format!("cannot read {}: {e}", dir.join(name).display()))
        };
        let metrics = moela_persist::decode::from_str(&read("metrics.json")?)
            .map_err(|e| format!("metrics.json: {e}"))?;
        Ok(RunArtifacts {
            metrics,
            front_json: read("front.json")?,
            trace_json: read("trace.json")?,
        })
    }

    /// A number inside `metrics.json`, by field path.
    pub fn number(&self, path: &[&str]) -> Result<f64, String> {
        path.iter()
            .try_fold(&self.metrics, |v, key| v.field(key))
            .and_then(Value::as_f64)
            .map_err(|e| format!("metrics.json {}: {e}", path.join(".")))
    }

    /// The front's objective vectors, in file order.
    pub fn front(&self) -> Result<Vec<Vec<f64>>, String> {
        moela_persist::decode::from_str(&self.front_json)
            .and_then(|doc| {
                doc.field("objectives")?.as_array()?.iter().map(Value::to_f64_vec).collect()
            })
            .map_err(|e| format!("front.json: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_reads_the_peak_resident_line() {
        let status =
            "Name:\tmoela-dse\nVmPeak:\t  100000 kB\nVmHWM:\t   23456 kB\nVmRSS:\t 20000 kB\n";
        assert_eq!(vm_hwm(status), Some(23456));
    }

    #[test]
    fn vm_hwm_is_absent_for_zombies_and_malformed_lines() {
        assert_eq!(vm_hwm("Name:\tmoela-dse\nState:\tZ (zombie)\n"), None);
        assert_eq!(vm_hwm("VmHWM:\tlots kB\n"), None);
        assert_eq!(vm_hwm("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn a_real_child_reports_its_wall_time_and_peak_memory() {
        let mut cmd = Command::new("sleep");
        cmd.arg("0.05");
        let run = run_measured(cmd).expect("sleep runs");
        assert!(run.status.success());
        assert!(run.wall_s >= 0.05, "wall {}", run.wall_s);
        assert!(run.vm_hwm_kib.is_some_and(|kib| kib > 0));
    }
}
