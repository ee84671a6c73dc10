//! Checkpoint durability off the caller's thread.
//!
//! A run that checkpoints every step would otherwise wait, every step,
//! for a file create, a write, two fsyncs, a rename and the pruning of
//! old rotations, none of which its next step needs. A [`Persister`]
//! takes a checkpoint the caller has already [`Encoded`] and hands it to
//! its writer thread while the caller goes on. At most one save is in
//! flight: [`Persister::hand_off`] first waits for the previous one. So a
//! checkpoint is durable once the next hand-off or a
//! [`Persister::join`] has returned `Ok`, and a failed write surfaces
//! there as its [`PersistError::Io`].
//!
//! The rotation is tracked in memory, seeded once from the directory,
//! so a save lists no directory. The caller makes everything the writer
//! needs (paths, the files to prune, the bytes), so the writer allocates
//! nothing unless it fails. The writer frees a save as soon as its file
//! is durable, so the caller's next step does not run beside it.

use std::fs;
use std::io;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::checkpoint::{temp_path, write_atomic_parts, CheckpointStore, Encoded};
use crate::error::PersistError;

/// Writes the checkpoints of one [`CheckpointStore`] on a writer thread,
/// one save in flight at a time.
///
/// Dropping a persister waits for its save in flight and stops its
/// writer; only [`join`](Self::join) reports that save's error.
#[derive(Debug)]
pub struct Persister {
    store: CheckpointStore,
    /// The sequence numbers on disk once every handed-off save is done,
    /// ascending.
    on_disk: Vec<u64>,
    /// `None` when no thread could be spawned: saves are then written by
    /// the caller.
    writer: Option<Writer>,
}

/// What a save took and how it ended.
type Written = (Duration, Result<(), PersistError>);

/// One save, made by the caller: where it goes, what it prunes, and its
/// bytes.
#[derive(Debug)]
struct Save {
    tmp: PathBuf,
    path: PathBuf,
    /// The rotations this save pushes beyond the keep limit.
    pruned: Vec<PathBuf>,
    encoded: Encoded,
}

impl Save {
    /// Writes the file durably, then prunes.
    fn write(&self) -> Written {
        let start = Instant::now();
        let written =
            write_atomic_parts(&self.tmp, &self.path, &self.encoded.parts()).and_then(|()| {
                self.pruned.iter().try_for_each(|path| match fs::remove_file(path) {
                    Err(e) if e.kind() != io::ErrorKind::NotFound => Err(PersistError::io(path, e)),
                    _ => Ok(()),
                })
            });
        (start.elapsed(), written)
    }
}

/// The depth-1 handoff between a persister and its writer thread.
#[derive(Debug, Default)]
enum Slot {
    #[default]
    Idle,
    /// Handed off; the writer has not taken it yet.
    Queued(Save),
    /// The writer is writing it.
    Writing,
    /// Written and freed: how it went.
    Done(Written),
    /// The persister is gone; the writer exits.
    Closed,
}

#[derive(Debug, Default)]
struct Handoff {
    slot: Mutex<Slot>,
    changed: Condvar,
}

impl Handoff {
    /// Every update of the slot is one assignment, so a guard recovered
    /// from a poisoned lock still holds a valid slot.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, slot: MutexGuard<'a, Slot>) -> MutexGuard<'a, Slot> {
        self.changed.wait(slot).unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until no save is queued or being written, and takes how the
    /// last one went.
    fn settle(&self) -> Option<Written> {
        let mut slot = self.lock();
        while matches!(*slot, Slot::Queued(_) | Slot::Writing) {
            slot = self.wait(slot);
        }
        match mem::take(&mut *slot) {
            Slot::Done(written) => Some(written),
            _ => None,
        }
    }

    /// Puts `next` in the idle slot and wakes the writer.
    fn put(&self, next: Slot) {
        *self.lock() = next;
        self.changed.notify_all();
    }

    /// The writer thread's loop: write what is queued, report how it
    /// went.
    fn serve(&self) {
        let mut slot = self.lock();
        loop {
            match mem::take(&mut *slot) {
                Slot::Queued(save) => {
                    *slot = Slot::Writing;
                    drop(slot);
                    let written = panic::catch_unwind(AssertUnwindSafe(|| save.write()))
                        .unwrap_or_else(|_| {
                            let panicked = io::Error::other("the checkpoint writer panicked");
                            (Duration::ZERO, Err(PersistError::io(&save.path, panicked)))
                        });
                    // Freed here, as soon as the file is durable.
                    drop(save);
                    slot = self.lock();
                    *slot = Slot::Done(written);
                    self.changed.notify_all();
                }
                Slot::Closed => return,
                idle => {
                    *slot = idle;
                    slot = self.wait(slot);
                }
            }
        }
    }
}

/// A persister's writer thread.
#[derive(Debug)]
struct Writer {
    handoff: Arc<Handoff>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Writer {
    fn drop(&mut self) {
        drop(self.handoff.settle());
        self.handoff.put(Slot::Closed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Persister {
    /// A persister for `store`, its rotation seeded from the files on
    /// disk, with its writer thread started.
    pub fn new(store: &CheckpointStore) -> Result<Self, PersistError> {
        let handoff = Arc::new(Handoff::default());
        let serving = Arc::clone(&handoff);
        let writer = thread::Builder::new()
            .name("checkpoint-writer".into())
            .spawn(move || serving.serve())
            .ok()
            .map(|thread| Writer { handoff, thread: Some(thread) });
        Ok(Self { on_disk: store.sequences()?, store: store.clone(), writer })
    }

    /// Waits for the save in flight, then hands `encoded` to the writer
    /// as sequence number `seq`, or writes it here when the writer thread
    /// could not be spawned.
    ///
    /// Returns the time the saves finished by this call took to write;
    /// an error is the previous save's, or this one's when written here.
    pub fn hand_off(&mut self, seq: u64, encoded: Encoded) -> Result<Duration, PersistError> {
        let waited = self.join()?;
        if let Err(at) = self.on_disk.binary_search(&seq) {
            self.on_disk.insert(at, seq);
        }
        let excess = self.on_disk.len().saturating_sub(self.store.keep());
        let pruned = self.on_disk.drain(..excess).map(|old| self.store.path_for(old)).collect();
        let path = self.store.path_for(seq);
        let save = Save { tmp: temp_path(&path), path, pruned, encoded };
        match &self.writer {
            Some(writer) => {
                writer.handoff.put(Slot::Queued(save));
                Ok(waited)
            }
            None => {
                let (took, written) = save.write();
                written.map(|()| waited + took)
            }
        }
    }

    /// Waits for the save in flight. After `Ok`, every checkpoint handed
    /// off so far is durable; the duration is the time the waited-for
    /// save took to write (zero when none was in flight).
    pub fn join(&mut self) -> Result<Duration, PersistError> {
        match self.writer.as_ref().and_then(|writer| writer.handoff.settle()) {
            Some((took, written)) => written.map(|()| took),
            None => Ok(Duration::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::to_bytes;
    use crate::value::Value;
    use std::path::Path;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moela-persister-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(n: u64) -> Value {
        Value::object(vec![("gen", Value::U64(n)), ("phv", Value::F64(0.25 * n as f64))])
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
    fn joined_saves_are_on_disk_and_rotated_like_synchronous_ones() {
        let dir = temp_dir("rotate");
        let store = CheckpointStore::with_keep(&dir, 2).unwrap();
        let mut persister = Persister::new(&store).unwrap();
        for seq in 1..=5 {
            persister.hand_off(seq, Encoded::new(&sample(seq))).unwrap();
        }
        persister.join().unwrap();
        assert_eq!(file_names(&dir), ["ckpt-00000004.json", "ckpt-00000005.json"]);
        assert_eq!(fs::read(store.path_for(5)).unwrap(), to_bytes(&sample(5)));
        assert_eq!(persister.join().unwrap(), Duration::ZERO, "nothing left in flight");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_rotation_is_seeded_from_the_files_on_disk() {
        let dir = temp_dir("seeded");
        let store = CheckpointStore::with_keep(&dir, 3).unwrap();
        for seq in [2, 3, 4] {
            store.save(seq, &sample(seq)).unwrap();
        }
        // A resumed run rewrites the sequence after the one it resumed
        // from, and the rotation prunes as a directory listing would.
        let mut persister = Persister::new(&store).unwrap();
        persister.hand_off(4, Encoded::new(&sample(40))).unwrap();
        persister.hand_off(5, Encoded::new(&sample(5))).unwrap();
        drop(persister);
        assert_eq!(store.sequences().unwrap(), [3, 4, 5]);
        assert_eq!(fs::read(store.path_for(4)).unwrap(), to_bytes(&sample(40)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_write_surfaces_as_io_at_the_next_hand_off_or_join() {
        let dir = temp_dir("vanished");
        let ckpts = dir.join("checkpoints");
        let store = CheckpointStore::new(&ckpts).unwrap();
        let mut persister = Persister::new(&store).unwrap();
        persister.hand_off(1, Encoded::new(&sample(1))).unwrap();
        persister.join().unwrap();
        // A regular file where the directory was: no write can succeed,
        // whoever runs it (permissions would not stop root).
        fs::remove_dir_all(&ckpts).unwrap();
        fs::write(&ckpts, b"not a directory").unwrap();
        let err = persister
            .hand_off(2, Encoded::new(&sample(2)))
            .and_then(|_| persister.join())
            .expect_err("the save cannot succeed");
        assert!(err.is_transient_io(), "{err:?}");
        let err = persister
            .hand_off(3, Encoded::new(&sample(3)))
            .and_then(|_| persister.hand_off(4, Encoded::new(&sample(4))))
            .expect_err("the next hand-off reports the failed save");
        assert!(err.is_transient_io(), "{err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
