//! Disk spill for the content-addressed result cache.
//!
//! Each cached result body is written to its own file under the spill
//! directory, named by its content key (so the store is content-addressed
//! exactly like the memory cache in front of it). Each file is the
//! `ICNSPILL` magic and one frame of the shared [`crate::frame`] codec,
//! written atomically (temp file + fsync + rename), so a crash mid-write
//! leaves either the old file, a stray temp file, or nothing; never a
//! torn entry. Reads verify the frame and **delete** anything corrupt or
//! truncated rather than serve it: a discarded entry just recomputes.
//! The store never evicts; [`DiskStore::retain`] prunes it.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::frame;

/// File magic: identifies a spill entry and versions its framing.
const MAGIC: &[u8; 8] = b"ICNSPILL";

/// Counters for the spill store (monotonic over the store's lifetime).
#[derive(Debug, Default)]
pub struct SpillCounters {
    /// Bodies written to disk.
    pub writes: AtomicU64,
    /// Bodies served from disk (memory-cache misses that disk answered).
    pub hits: AtomicU64,
    /// Corrupt or truncated entries detected and deleted.
    pub discarded: AtomicU64,
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
    /// Open (creating if needed) the spill directory.
    ///
    /// # Errors
    /// Propagates directory-creation errors.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            tmp_seq: AtomicU64::new(0),
            counters: SpillCounters::default(),
        })
    }

    /// Write `body` for `key`, atomically. Overwrites any previous entry.
    ///
    /// # Errors
    /// `InvalidInput` for a body the frame codec refuses (empty, or over
    /// [`frame::MAX_PAYLOAD_BYTES`]); otherwise propagates file I/O
    /// errors. The store is left without a (new) entry for the key but
    /// never with a torn one.
    pub fn put(&self, key: &str, body: &str) -> std::io::Result<()> {
        let mut buf = MAGIC.to_vec();
        frame::encode(body.as_bytes(), &mut buf)?;
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(".tmp-{}-{seq}", std::process::id()));
        {
            let mut out = File::create(&tmp)?;
            out.write_all(&buf)?;
            out.sync_data()?;
        }
        let final_path = self.dir.join(file_name(key));
        std::fs::rename(&tmp, &final_path)?;
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
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

    #[test]
    fn keys_cannot_traverse_paths() {
        assert_eq!(file_name("../../etc/passwd"), "______etc_passwd.res");
        assert_eq!(file_name("ab:cd"), "ab_cd.res");
    }
}
