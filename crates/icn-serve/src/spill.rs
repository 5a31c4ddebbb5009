//! Disk spill for the content-addressed result cache.
//!
//! Each cached result body is written to its own file under the spill
//! directory, named by its content key (so the store is content-addressed
//! exactly like the memory cache in front of it). Each file is the
//! `ICNSPILL` magic and one frame of the shared [`crate::frame`] codec,
//! written atomically (temp file + fsync + rename), so a crash mid-write
//! leaves either the old file, a stray temp file, or nothing; never a
//! torn entry. A write that fails removes its temp file, and
//! [`DiskStore::open`] removes the temp files a dead process left. Reads
//! verify the frame and **delete** anything corrupt or truncated rather
//! than serve it: a discarded entry just recomputes. The store never
//! evicts; [`DiskStore::retain`] prunes it.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::frame;

/// File magic: identifies a spill entry and versions its framing.
const MAGIC: &[u8; 8] = b"ICNSPILL";

/// Name prefix of a write's temp file (`.tmp-<pid>-<seq>`).
const TMP_PREFIX: &str = ".tmp-";

/// Counters for the spill store (monotonic over the store's lifetime).
#[derive(Debug, Default)]
pub struct SpillCounters {
    /// Bodies written to disk.
    pub writes: AtomicU64,
    /// Bodies served from disk (memory-cache misses that disk answered).
    pub hits: AtomicU64,
    /// Corrupt or truncated entries detected and deleted.
    pub discarded: AtomicU64,
    /// Writes that failed (an I/O error) or that the frame codec refused
    /// (an empty or oversized body); each left its key without a new
    /// entry.
    pub write_failures: AtomicU64,
}

/// A directory of per-key result files behind the memory LRU.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    /// Monotonic suffix for temp files, so concurrent writers (and a
    /// previous crashed process) never collide on the same temp name.
    tmp_seq: AtomicU64,
    /// Lifetime counters, surfaced through `/v1/stats`.
    pub counters: SpillCounters,
}

/// Map a content key to a filename. Keys are hex from `content_key`, but
/// sanitize defensively so a hostile key can never traverse paths.
fn file_name(key: &str) -> String {
    let safe: String = key
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{safe}.res")
}

impl DiskStore {
    /// Open (creating if needed) the spill directory, deleting every
    /// temp file in it (best effort). A temp file outlives its write only
    /// when the writing process died mid-write, since a failed write
    /// removes its own; a directory belongs to one live server at a time
    /// (DESIGN.md §9), so none of them is still being written.
    ///
    /// # Errors
    /// Propagates directory-creation errors.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        if let Ok(read) = std::fs::read_dir(dir) {
            for entry in read.filter_map(Result::ok) {
                if entry.file_name().to_string_lossy().starts_with(TMP_PREFIX) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            tmp_seq: AtomicU64::new(0),
            counters: SpillCounters::default(),
        })
    }

    /// Write `body` for `key`, atomically. Overwrites any previous entry.
    /// Counts the write in [`SpillCounters::writes`] or, when it fails,
    /// [`SpillCounters::write_failures`].
    ///
    /// # Errors
    /// `InvalidInput` for a body the frame codec refuses (empty, or over
    /// [`frame::MAX_PAYLOAD_BYTES`]); otherwise propagates file I/O
    /// errors. The store is then left without a (new) entry for the key,
    /// never with a torn one, and without the write's temp file.
    pub fn put(&self, key: &str, body: &str) -> std::io::Result<()> {
        let written = self.write(key, body);
        let counter = match written {
            Ok(()) => &self.counters.writes,
            Err(_) => &self.counters.write_failures,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        written
    }

    /// [`DiskStore::put`] without the counting: frame, write and sync a
    /// temp file, rename it over the entry, and remove it if any step
    /// fails.
    fn write(&self, key: &str, body: &str) -> std::io::Result<()> {
        let mut buf = MAGIC.to_vec();
        frame::encode(body.as_bytes(), &mut buf)?;
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{TMP_PREFIX}{}-{seq}", std::process::id()));
        let written = File::create(&tmp)
            .and_then(|mut out| {
                out.write_all(&buf)?;
                out.sync_data()
            })
            .and_then(|()| std::fs::rename(&tmp, self.dir.join(file_name(key))));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }

    /// Fetch the body for `key`, verifying the frame. Returns `None` when
    /// absent — or when present but corrupt/truncated, in which case the
    /// bad file is deleted and counted.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<String> {
        let path = self.dir.join(file_name(key));
        let mut raw = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                if f.read_to_end(&mut raw).is_err() {
                    return None;
                }
            }
            Err(_) => return None,
        }
        match decode(&raw) {
            Some(body) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(body)
            }
            None => {
                let _ = std::fs::remove_file(&path);
                self.counters.discarded.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Delete every entry whose key `keep` does not name (best effort).
    /// A [`DiskStore::put`] racing it may lose its entry.
    pub fn retain<'a>(&self, keep: impl IntoIterator<Item = &'a str>) {
        let keep: BTreeSet<String> = keep.into_iter().map(file_name).collect();
        let Ok(read) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in read.filter_map(Result::ok) {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".res") && !keep.contains(&name) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Number of entries currently on disk (temp files excluded).
    #[must_use]
    pub fn entries(&self) -> u64 {
        let Ok(read) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        read.filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".res"))
            .count() as u64
    }
}

/// Verify and strip the magic and the one frame; `None` means corrupt or
/// truncated.
fn decode(raw: &[u8]) -> Option<String> {
    let (body, rest) = frame::decode(raw.strip_prefix(MAGIC)?)?;
    if !rest.is_empty() {
        return None;
    }
    String::from_utf8(body.to_vec()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(name: &str) -> DiskStore {
        let dir =
            std::env::temp_dir().join(format!("icn-spill-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DiskStore::open(&dir).unwrap()
    }

    #[test]
    fn put_get_round_trips_byte_identical() {
        let s = store("roundtrip");
        let body = "{\"delivered\":42,\"p999\":17}";
        s.put("00ab:12cd", body).unwrap();
        assert_eq!(s.get("00ab:12cd").as_deref(), Some(body));
        assert_eq!(s.counters.hits.load(Ordering::Relaxed), 1);
        assert_eq!(s.entries(), 1);
    }

    #[test]
    fn overwrite_replaces_the_entry() {
        let s = store("overwrite");
        s.put("k", "first").unwrap();
        s.put("k", "second").unwrap();
        assert_eq!(s.get("k").as_deref(), Some("second"));
        assert_eq!(s.entries(), 1);
    }

    #[test]
    fn truncated_entry_is_discarded_and_deleted() {
        let s = store("truncated");
        s.put("k", "a body that will be cut short").unwrap();
        let path = s.dir.join(file_name("k"));
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();
        assert_eq!(s.get("k"), None);
        assert!(!path.exists(), "corrupt file deleted");
        assert_eq!(s.counters.discarded.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn bit_flip_is_detected() {
        let s = store("bitflip");
        s.put("k", "pristine bytes").unwrap();
        let path = s.dir.join(file_name("k"));
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        assert_eq!(s.get("k"), None);
        assert_eq!(s.counters.discarded.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn missing_key_is_a_plain_miss() {
        let s = store("missing");
        assert_eq!(s.get("nothing"), None);
        assert_eq!(s.counters.discarded.load(Ordering::Relaxed), 0);
    }

    /// Temp files in the spill directory, by name.
    fn temp_files(s: &DiskStore) -> Vec<String> {
        std::fs::read_dir(&s.dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with(TMP_PREFIX))
            .collect()
    }

    /// A rename onto a directory fails after the temp file is written
    /// and synced: the write is counted as failed and leaves no temp file.
    #[test]
    fn failed_rename_removes_its_temp_file() {
        let s = store("rename");
        std::fs::create_dir(s.dir.join(file_name("k"))).unwrap();
        assert!(s.put("k", "a body with nowhere to go").is_err());
        assert_eq!(temp_files(&s), Vec::<String>::new());
        assert_eq!(s.counters.write_failures.load(Ordering::Relaxed), 1);
        assert_eq!(s.counters.writes.load(Ordering::Relaxed), 0);
        assert_eq!(s.get("k"), None);
    }

    /// A temp file a dead process left is gone once the store reopens;
    /// entries stay.
    #[test]
    fn open_sweeps_stale_temp_files() {
        let s = store("sweep");
        s.put("k", "kept").unwrap();
        std::fs::write(s.dir.join(".tmp-999999-7"), b"ICNSPILL torn").unwrap();
        assert_eq!(temp_files(&s).len(), 1);
        let reopened = DiskStore::open(&s.dir).unwrap();
        assert_eq!(temp_files(&reopened), Vec::<String>::new());
        assert_eq!(reopened.get("k").as_deref(), Some("kept"));
    }

    #[test]
    fn keys_cannot_traverse_paths() {
        assert_eq!(file_name("../../etc/passwd"), "______etc_passwd.res");
        assert_eq!(file_name("ab:cd"), "ab_cd.res");
    }
}
