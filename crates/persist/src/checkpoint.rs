//! The on-disk checkpoint format and its rotating store.
//!
//! A checkpoint file is a one-line ASCII header followed by a JSON
//! payload:
//!
//! ```text
//! MOELA-CKPT 1 crc32=ab12cd34 len=4096\n
//! {"format":1,...}
//! ```
//!
//! * `1` is [`FORMAT_VERSION`];
//! * `crc32` is the CRC-32 (IEEE) of the payload bytes, lowercase hex;
//! * `len` is the exact payload byte count, so truncation is detected
//!   even when the truncated payload happens to parse.
//!
//! Files are written atomically: the bytes go to a `.tmp` sibling which is
//! fsynced and then renamed over the final name, so a crash mid-write can
//! never corrupt a previously good checkpoint. The store keeps the last
//! few files ([`CheckpointStore::DEFAULT_KEEP`] unless configured;
//! `ckpt-00000042.json`, numbered by sequence) and
//! [`CheckpointStore::load_latest`] falls back to older rotations when
//! the newest file is damaged.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::crc32::crc32;
use crate::error::PersistError;
use crate::value::Value;
use crate::{decode, encode};

/// Version stamped into every checkpoint header and envelope. Bump when
/// the snapshot schema changes incompatibly.
pub const FORMAT_VERSION: u32 = 1;

/// Magic token opening every checkpoint header line.
const MAGIC: &str = "MOELA-CKPT";

/// Serializes `payload` with the checksummed header.
pub fn to_bytes(payload: &Value) -> Vec<u8> {
    let body = encode::to_string(payload).into_bytes();
    let mut out =
        format!("{MAGIC} {FORMAT_VERSION} crc32={:08x} len={}\n", crc32(&body), body.len())
            .into_bytes();
    out.extend_from_slice(&body);
    out
}

/// Parses and verifies checkpoint `bytes`; `path` is used only for error
/// messages.
pub fn from_bytes(bytes: &[u8], path: &Path) -> Result<Value, PersistError> {
    let bad = |message: &str| PersistError::BadHeader {
        path: path.to_path_buf(),
        message: message.to_string(),
    };
    let newline = bytes.iter().position(|&b| b == b'\n').ok_or_else(|| bad("no header line"))?;
    let header = std::str::from_utf8(&bytes[..newline]).map_err(|_| bad("header is not ASCII"))?;
    let mut parts = header.split(' ');
    if parts.next() != Some(MAGIC) {
        return Err(bad("missing MOELA-CKPT magic"));
    }
    let version: u32 =
        parts.next().and_then(|v| v.parse().ok()).ok_or_else(|| bad("missing format version"))?;
    if version != FORMAT_VERSION {
        return Err(PersistError::FormatVersion { supported: FORMAT_VERSION, found: version });
    }
    let expected_crc = parts
        .next()
        .and_then(|f| f.strip_prefix("crc32="))
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| bad("missing crc32 field"))?;
    let expected_len: usize = parts
        .next()
        .and_then(|f| f.strip_prefix("len="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("missing len field"))?;
    let payload = &bytes[newline + 1..];
    if payload.len() != expected_len {
        return Err(PersistError::Truncated {
            path: path.to_path_buf(),
            expected: expected_len,
            actual: payload.len(),
        });
    }
    let actual_crc = crc32(payload);
    if actual_crc != expected_crc {
        return Err(PersistError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    let text = std::str::from_utf8(payload)
        .map_err(|_| PersistError::schema("checkpoint payload is not UTF-8"))?;
    decode::from_str(text)
}

/// Writes `bytes` to `path` atomically: temp sibling, fsync, rename.
///
/// Each call writes its own temp sibling (`<name>.<pid>-<n>.tmp`), so
/// concurrent writers of one path never rename each other's files; the
/// last rename wins. A failed write removes its temp file; a process
/// killed mid-write leaves it for [`remove_stale_temps`].
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    let n = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
    name.push(format!(".{}-{n}.tmp", std::process::id()));
    let tmp = path.with_file_name(name);
    let written = fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
        .map_err(|e| PersistError::io(&tmp, e))
        .and_then(|()| fs::rename(&tmp, path).map_err(|e| PersistError::io(path, e)));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

/// Deletes the `.tmp` files in `dir` that no [`write_atomic`] call of
/// this process owns: those of killed processes and the fixed-name
/// temp files of older builds. This process's own temp files stay, as
/// another thread may be writing one. Best effort: errors are ignored.
///
/// Only a process that owns the directory should call this; a live
/// writer in another process would lose its temp file.
pub fn remove_stale_temps(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let own = std::process::id().to_string();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(stem) = name.to_str().and_then(|name| name.strip_suffix(".tmp")) else {
            continue;
        };
        let pid = stem.rsplit_once('.').and_then(|(_, tag)| tag.split_once('-')).map(|(p, _)| p);
        if pid != Some(own.as_str()) && entry.file_type().is_ok_and(|t| t.is_file()) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// A rotating set of checkpoint files inside one directory.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// Number of rotations kept by [`CheckpointStore::new`].
    pub const DEFAULT_KEEP: usize = 3;

    /// Opens (creating if needed) the store at `dir`, keeping the last
    /// [`Self::DEFAULT_KEEP`] checkpoints.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, PersistError> {
        Self::with_keep(dir, Self::DEFAULT_KEEP)
    }

    /// Opens a store that keeps the last `keep` checkpoints (`keep >= 1`).
    pub fn with_keep(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, PersistError> {
        assert!(keep >= 1, "must keep at least one checkpoint");
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| PersistError::io(&dir, e))?;
        Ok(Self { dir, keep })
    }

    /// The directory holding the rotation.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_name(seq: u64) -> String {
        format!("ckpt-{seq:08}.json")
    }

    /// The path a given sequence number lives at.
    pub fn path_for(&self, seq: u64) -> PathBuf {
        self.dir.join(Self::file_name(seq))
    }

    /// Saves `payload` as sequence number `seq` (atomically) and prunes
    /// rotations beyond the keep limit.
    pub fn save(&self, seq: u64, payload: &Value) -> Result<PathBuf, PersistError> {
        let path = self.path_for(seq);
        write_atomic(&path, &to_bytes(payload))?;
        self.prune()?;
        Ok(path)
    }

    /// All checkpoint sequence numbers on disk, ascending.
    pub fn sequences(&self) -> Result<Vec<u64>, PersistError> {
        let mut seqs = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| PersistError::io(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| PersistError::io(&self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    fn prune(&self) -> Result<(), PersistError> {
        let seqs = self.sequences()?;
        if seqs.len() > self.keep {
            for &seq in &seqs[..seqs.len() - self.keep] {
                let path = self.path_for(seq);
                fs::remove_file(&path).map_err(|e| PersistError::io(&path, e))?;
            }
        }
        Ok(())
    }

    /// Loads the newest checkpoint that verifies, walking backwards over
    /// damaged rotations.
    ///
    /// Returns `Ok(None)` when the directory holds no checkpoints at all,
    /// and `Ok(Some((seq, value, warnings)))` otherwise; `warnings` has
    /// one line per newer file that was skipped as corrupt. When every
    /// file is damaged the error is
    /// [`PersistError::NoUsableCheckpoint`] listing each attempt.
    #[allow(clippy::type_complexity)]
    pub fn load_latest(&self) -> Result<Option<(u64, Value, Vec<String>)>, PersistError> {
        let seqs = self.sequences()?;
        if seqs.is_empty() {
            return Ok(None);
        }
        let mut attempts = Vec::new();
        for &seq in seqs.iter().rev() {
            let path = self.path_for(seq);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    attempts.push(format!("{}: {e}", path.display()));
                    continue;
                }
            };
            match from_bytes(&bytes, &path) {
                Ok(value) => return Ok(Some((seq, value, attempts))),
                Err(e) => attempts.push(e.to_string()),
            }
        }
        Err(PersistError::NoUsableCheckpoint { attempts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moela-persist-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(n: u64) -> Value {
        Value::object(vec![("gen", Value::U64(n)), ("phv", Value::F64(0.25 * n as f64))])
    }

    #[test]
    fn header_round_trip() {
        let v = sample(7);
        let bytes = to_bytes(&v);
        assert!(bytes.starts_with(b"MOELA-CKPT 1 crc32="));
        assert_eq!(from_bytes(&bytes, Path::new("x")).unwrap(), v);
    }

    #[test]
    fn truncation_is_detected_by_length_not_luck() {
        let bytes = to_bytes(&sample(1));
        let cut = &bytes[..bytes.len() - 2];
        match from_bytes(cut, Path::new("t.json")) {
            Err(PersistError::Truncated { expected, actual, .. }) => {
                assert_eq!(expected, actual + 2);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let mut bytes = to_bytes(&sample(2));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            from_bytes(&bytes, Path::new("t.json")),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn future_format_versions_are_refused() {
        let bytes = to_bytes(&sample(3));
        let text = String::from_utf8(bytes).unwrap();
        let bumped = text.replacen("MOELA-CKPT 1 ", "MOELA-CKPT 2 ", 1);
        assert!(matches!(
            from_bytes(bumped.as_bytes(), Path::new("t.json")),
            Err(PersistError::FormatVersion { supported: 1, found: 2 })
        ));
    }

    #[test]
    fn rotation_keeps_only_the_last_k() {
        let dir = temp_dir("rotate");
        let store = CheckpointStore::with_keep(&dir, 2).unwrap();
        for seq in 1..=5 {
            store.save(seq, &sample(seq)).unwrap();
        }
        assert_eq!(store.sequences().unwrap(), vec![4, 5]);
        let (seq, value, warnings) = store.load_latest().unwrap().unwrap();
        assert_eq!(seq, 5);
        assert_eq!(value, sample(5));
        assert!(warnings.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_loads_none() {
        let dir = temp_dir("empty");
        let store = CheckpointStore::new(&dir).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_good() {
        let dir = temp_dir("fallback");
        let store = CheckpointStore::new(&dir).unwrap();
        store.save(1, &sample(1)).unwrap();
        store.save(2, &sample(2)).unwrap();
        // Truncate the newest file mid-payload (header intact).
        let newest = store.path_for(2);
        let bytes = fs::read(&newest).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        fs::write(&newest, &bytes[..header_end + 3]).unwrap();
        let (seq, value, warnings) = store.load_latest().unwrap().unwrap();
        assert_eq!(seq, 1);
        assert_eq!(value, sample(1));
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("truncated"), "{}", warnings[0]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_corrupt_reports_every_attempt() {
        let dir = temp_dir("allbad");
        let store = CheckpointStore::new(&dir).unwrap();
        store.save(1, &sample(1)).unwrap();
        store.save(2, &sample(2)).unwrap();
        for seq in [1, 2] {
            let path = store.path_for(seq);
            let mut bytes = fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x10;
            fs::write(&path, &bytes).unwrap();
        }
        match store.load_latest() {
            Err(PersistError::NoUsableCheckpoint { attempts }) => {
                assert_eq!(attempts.len(), 2);
            }
            other => panic!("expected NoUsableCheckpoint, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let dir = temp_dir("atomic");
        let path = dir.join("ckpt-00000001.json");
        write_atomic(&path, &to_bytes(&sample(1))).unwrap();
        write_atomic(&path, &to_bytes(&sample(2))).unwrap();
        assert_eq!(file_names(&dir), ["ckpt-00000001.json"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_atomic_write_leaves_no_temp_file() {
        let dir = temp_dir("atomic-fail");
        // Renaming a file over a non-empty directory fails.
        let path = dir.join("occupied");
        fs::create_dir_all(path.join("inner")).unwrap();
        assert!(write_atomic(&path, b"x").is_err());
        assert_eq!(file_names(&dir), ["occupied"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_temp_files_are_removed_and_own_ones_kept() {
        let dir = temp_dir("stale");
        let own = format!("job.json.{}-7.tmp", std::process::id());
        for name in ["ckpt-00000001.json", "job.json.4294967295-0.tmp", "job.tmp", &own, "notes"] {
            fs::write(dir.join(name), b"x").unwrap();
        }
        remove_stale_temps(&dir);
        assert_eq!(file_names(&dir), ["ckpt-00000001.json", own.as_str(), "notes"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_of_one_path_all_succeed() {
        let dir = temp_dir("atomic-race");
        let path = dir.join("job.json");
        std::thread::scope(|scope| {
            for t in 0..4 {
                let path = &path;
                scope.spawn(move || {
                    for i in 0..50 {
                        write_atomic(path, format!("{t}-{i}").as_bytes()).unwrap();
                    }
                });
            }
        });
        assert_eq!(file_names(&dir), ["job.json"]);
        assert!(fs::read_to_string(&path).unwrap().ends_with("-49"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
