//! Write-ahead job journal: crash-safe job state on an append-only file.
//!
//! Every job lifecycle transition is appended as one framed record —
//! `[u32 payload length][u32 CRC-32][JSON payload]` after an 8-byte magic
//! header — and fsync'd before the server acts on it, so a `kill -9` at
//! any instant loses at most the record being written. On restart,
//! [`Journal::recover`] replays the file: submitted-but-unfinished jobs
//! are re-enqueued, completed jobs are restored with their result bodies
//! (from the disk cache spill, or inline in the `Complete` record when no
//! spill directory is configured), and failed jobs keep their error. A
//! truncated or corrupt tail — the signature of a crash mid-append — is
//! detected by the length/checksum framing and discarded, never parsed.
//!
//! Replay is **order-insensitive** within the file: records are bucketed
//! by job id first, then reduced to a final state, because the HTTP
//! thread that appends `Submit` and the worker thread that appends
//! `Start`/`Complete` race on the file offset (each append is atomic
//! under the journal lock, but their interleaving is scheduling luck).
//!
//! The journal would grow without bound under sustained load, so it is
//! **compacted**: once a completed job's body lives in the disk spill the
//! journal no longer needs any of its records (the spill is keyed by
//! content, not job id), and a compaction rewrites the file with only the
//! still-live jobs. Compaction runs at recovery and whenever the file
//! passes the larger of [`COMPACT_THRESHOLD_BYTES`] and twice its size
//! after the previous compaction. That hysteresis matters once the live
//! records alone outgrow the fixed threshold: without it, every job
//! would rewrite and fsync the whole file.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::api::Priority;

/// File magic: identifies a journal and versions its framing.
const MAGIC: &[u8; 8] = b"ICNJRNL1";

/// Never compact a file smaller than this many bytes.
pub const COMPACT_THRESHOLD_BYTES: u64 = 256 * 1024;

/// Compact again only once the file has grown to this multiple of its
/// size right after the previous compaction.
const COMPACT_GROWTH_FACTOR: u64 = 2;

/// Largest accepted record payload; anything bigger is corruption (the
/// biggest legitimate payload is a `Complete` with an inline result body,
/// and result bodies are far below this).
const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

/// One journal record. The payload is JSON (externally tagged) so the
/// format is self-describing and future variants can be added without
/// re-framing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Record {
    /// Journal bookkeeping: the id counter floor, written at compaction so
    /// ids are never reused even after completed jobs are pruned.
    Meta {
        /// Next job id to hand out.
        next_id: u64,
    },
    /// A job was accepted (written before the client sees its `202`).
    Submit {
        /// Job id.
        id: u64,
        /// Content key of the resolved configuration.
        key: String,
        /// Admission priority.
        priority: Priority,
        /// Remaining wall-clock budget in milliseconds, if any. Recovery
        /// grants the full budget again — the pre-crash wait is forgiven.
        deadline_ms: Option<u64>,
        /// The canonical resolved `SimConfig` JSON (the cache-key bytes).
        config: String,
    },
    /// A worker claimed the job.
    Start {
        /// Job id.
        id: u64,
    },
    /// The job finished; its result body is durable.
    Complete {
        /// Job id.
        id: u64,
        /// Content key (locates the body in the disk spill).
        key: String,
        /// The serialized result body, inline only when no disk spill is
        /// configured (otherwise the spill holds it and this is `None`).
        body: Option<String>,
    },
    /// The job failed.
    Fail {
        /// Job id.
        id: u64,
        /// The failure message.
        error: String,
    },
}

/// One job in journal form: what replay reconstructs and what compaction
/// rewrites. The job queue converts to and from it
/// ([`crate::jobs::JobQueue::restore`], [`crate::jobs::JobQueue::journal_view`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Original job id (preserved across the restart).
    pub id: u64,
    /// Content key of the resolved configuration.
    pub key: String,
    /// Admission priority.
    pub priority: Priority,
    /// Wall-clock budget to re-grant, if the submit carried one.
    pub deadline_ms: Option<u64>,
    /// Canonical resolved configuration JSON.
    pub config: String,
    /// Terminal outcome, if the job reached one: `Some(Ok(Some(body)))`
    /// completed with its body inline, `Some(Ok(None))` completed with its
    /// body in the disk spill (or lost), `Some(Err(message))` failed, and
    /// `None` still queued or running — re-enqueue it.
    pub outcome: Option<Result<Option<String>, String>>,
}

/// What [`Journal::recover`] found.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Replayed jobs in id order.
    pub jobs: Vec<JobRecord>,
    /// The id counter floor (max of every id seen + 1 and any `Meta`).
    pub next_id: u64,
    /// Bytes of corrupt/truncated tail that were discarded.
    pub discarded_bytes: u64,
    /// `Complete` records whose job id had no `Submit` (the submit append
    /// lost a race with the crash); their `(key, body)` pairs are still
    /// usable as cache entries.
    pub orphan_results: Vec<(String, String)>,
}

/// The append-side handle: owns the file and its write offset.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    bytes: u64,
    /// File size right after the last compaction (0 before the first).
    compacted_bytes: u64,
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — first-party, table-driven.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        let idx = (crc ^ u32::from(b)) & 0xFF;
        crc = (crc >> 8) ^ TABLE[idx as usize];
    }
    !crc
}

/// The standard CRC-32 lookup table, built at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Frame one record into `out`: length, checksum, payload.
fn frame(record: &Record, out: &mut Vec<u8>) -> std::io::Result<()> {
    let payload = serde_json::to_string(record)
        .map_err(std::io::Error::other)?
        .into_bytes();
    let len = u32::try_from(payload.len()).map_err(std::io::Error::other)?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(())
}

impl Journal {
    /// Open (creating if absent) the journal at `path` for appending. A
    /// fresh file gets the magic header; an existing one is positioned at
    /// its end. Use [`Journal::recover`] first when the file may hold
    /// state from a previous run.
    ///
    /// # Errors
    /// Propagates file I/O errors.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        let mut bytes = file.seek(SeekFrom::End(0))?;
        if bytes == 0 {
            file.write_all(MAGIC)?;
            file.sync_data()?;
            bytes = MAGIC.len() as u64;
        }
        Ok(Self {
            file,
            path: path.to_path_buf(),
            bytes,
            compacted_bytes: 0,
        })
    }

    /// Append one record and fsync it — when this returns, the record
    /// survives `kill -9`.
    ///
    /// # Errors
    /// Propagates file I/O errors (a failed append leaves the job
    /// functioning in memory; durability is reported, not assumed).
    pub fn append(&mut self, record: &Record) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(256);
        frame(record, &mut buf)?;
        self.file.write_all(&buf)?;
        self.file.sync_data()?;
        self.bytes += buf.len() as u64;
        Ok(())
    }

    /// Whether the file has grown past both [`COMPACT_THRESHOLD_BYTES`]
    /// and twice its size after the last compaction.
    #[must_use]
    pub fn wants_compaction(&self) -> bool {
        self.bytes > COMPACT_THRESHOLD_BYTES.max(COMPACT_GROWTH_FACTOR * self.compacted_bytes)
    }

    /// Current journal size in bytes (header included).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Rewrite the journal to exactly `records` (plus the header), via a
    /// temp file renamed into place so a crash mid-compaction leaves the
    /// old journal intact.
    ///
    /// # Errors
    /// Propagates file I/O errors; on error the original file still holds
    /// the pre-compaction state.
    pub fn compact(&mut self, records: &[Record]) -> std::io::Result<()> {
        let tmp = self.path.with_extension("journal.tmp");
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(MAGIC);
        for record in records {
            frame(record, &mut buf)?;
        }
        {
            let mut out = File::create(&tmp)?;
            out.write_all(&buf)?;
            out.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Reopen: the old handle still points at the unlinked inode.
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        file.sync_all()?;
        let bytes = file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.bytes = bytes;
        self.compacted_bytes = bytes;
        Ok(())
    }

    /// Replay the journal at `path` (creating it if absent), returning the
    /// append handle and everything the previous run left behind. Corrupt
    /// or truncated trailing bytes are discarded and reported; the file is
    /// truncated back to its last intact record so subsequent appends
    /// never extend a torn tail.
    ///
    /// # Errors
    /// Propagates file I/O errors. Corruption is not an error — it is the
    /// expected signature of a crash and handled by truncation.
    pub fn recover(path: &Path) -> std::io::Result<(Self, Recovery)> {
        let mut recovery = Recovery::default();
        let mut records: Vec<Record> = Vec::new();
        let mut good_end: u64 = 0;
        if path.exists() {
            let mut raw = Vec::new();
            File::open(path)?.read_to_end(&mut raw)?;
            let (parsed, end) = parse_records(&raw);
            records = parsed;
            good_end = end;
            recovery.discarded_bytes = raw.len() as u64 - end;
        }
        if recovery.discarded_bytes > 0 {
            // Truncate the torn tail before reopening for append.
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(good_end)?;
            file.sync_data()?;
        }
        let journal = Self::open(path)?;
        reduce_records(records, &mut recovery);
        Ok((journal, recovery))
    }
}

/// Decode framed records from `raw`; returns the records and the byte
/// offset just past the last intact one (0 when even the magic is wrong).
fn parse_records(raw: &[u8]) -> (Vec<Record>, u64) {
    if raw.len() < MAGIC.len() || &raw[..MAGIC.len()] != MAGIC {
        return (Vec::new(), 0);
    }
    let mut records = Vec::new();
    let mut at = MAGIC.len();
    while let Some(header) = raw.get(at..at + 8) {
        // Indexing a just-fetched 8-byte slice cannot fail; spell it
        // fallibly anyway to keep this module panic-free.
        let (Some(len_bytes), Some(crc_bytes)) = (header.get(..4), header.get(4..8)) else {
            break;
        };
        let len = u32::from_le_bytes(len_bytes.try_into().unwrap_or([0; 4]));
        let want_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap_or([0; 4]));
        if len == 0 || len > MAX_RECORD_BYTES {
            break;
        }
        let Some(payload) = raw.get(at + 8..at + 8 + len as usize) else {
            break; // truncated mid-payload
        };
        if crc32(payload) != want_crc {
            break; // torn or bit-rotted record
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break; // checksum fine but not UTF-8: foreign, stop
        };
        let Ok(record) = serde_json::from_str::<Record>(text) else {
            break; // checksum fine but schema foreign: stop, don't guess
        };
        records.push(record);
        at += 8 + len as usize;
    }
    (records, at as u64)
}

/// Reduce a record stream to final per-job states (order-insensitive).
fn reduce_records(records: Vec<Record>, recovery: &mut Recovery) {
    use std::collections::BTreeMap;

    let mut submits: BTreeMap<u64, JobRecord> = BTreeMap::new();
    let mut outcomes: BTreeMap<u64, Result<Option<String>, String>> = BTreeMap::new();
    let mut orphan_completes: Vec<(u64, String, Option<String>)> = Vec::new();
    let mut max_id = 0u64;
    let mut meta_next = 1u64;
    for record in records {
        match record {
            Record::Meta { next_id } => meta_next = meta_next.max(next_id),
            Record::Submit {
                id,
                key,
                priority,
                deadline_ms,
                config,
            } => {
                max_id = max_id.max(id);
                submits.insert(
                    id,
                    JobRecord {
                        id,
                        key,
                        priority,
                        deadline_ms,
                        config,
                        outcome: None,
                    },
                );
            }
            Record::Start { id } => max_id = max_id.max(id),
            Record::Complete { id, key, body } => {
                max_id = max_id.max(id);
                orphan_completes.push((id, key, body));
                outcomes.insert(id, Ok(None));
            }
            Record::Fail { id, error } => {
                max_id = max_id.max(id);
                outcomes.insert(id, Err(error));
            }
        }
    }
    // Attach complete bodies to their submits; completes without a submit
    // are still useful as (key, body) cache entries.
    for (id, key, body) in orphan_completes {
        if let Some(job) = submits.get_mut(&id) {
            job.outcome = Some(Ok(body));
        } else if let Some(body) = body {
            recovery.orphan_results.push((key, body));
        }
    }
    for (id, outcome) in outcomes {
        if let Some(job) = submits.get_mut(&id) {
            if job.outcome.is_none() {
                job.outcome = Some(outcome);
            }
        }
    }
    recovery.next_id = meta_next.max(max_id + 1);
    recovery.jobs = submits.into_values().collect();
}

/// Build the compacted record set for `jobs`: a `Meta` id floor, then a
/// `Submit` (plus its terminal record) for every job. Jobs left out are
/// dropped from the journal.
#[must_use]
pub fn compaction_records(next_id: u64, jobs: &[JobRecord]) -> Vec<Record> {
    let mut records = Vec::with_capacity(1 + jobs.len() * 2);
    records.push(Record::Meta { next_id });
    for job in jobs {
        records.push(Record::Submit {
            id: job.id,
            key: job.key.clone(),
            priority: job.priority,
            deadline_ms: job.deadline_ms,
            config: job.config.clone(),
        });
        match &job.outcome {
            None => {}
            Some(Ok(body)) => records.push(Record::Complete {
                id: job.id,
                key: job.key.clone(),
                body: body.clone(),
            }),
            Some(Err(error)) => records.push(Record::Fail {
                id: job.id,
                error: error.clone(),
            }),
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("icn-journal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("jobs.journal")
    }

    fn submit(id: u64, key: &str) -> Record {
        Record::Submit {
            id,
            key: key.to_string(),
            priority: Priority::Normal,
            deadline_ms: None,
            config: format!("{{\"seed\":{id}}}"),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_recover_round_trips_every_state() {
        let path = tmp("roundtrip");
        let (mut j, r) = Journal::recover(&path).unwrap();
        assert!(r.jobs.is_empty());
        j.append(&submit(1, "a")).unwrap();
        j.append(&submit(2, "b")).unwrap();
        j.append(&Record::Start { id: 1 }).unwrap();
        j.append(&Record::Complete {
            id: 1,
            key: "a".into(),
            body: Some("{\"x\":1}".into()),
        })
        .unwrap();
        j.append(&submit(3, "c")).unwrap();
        j.append(&Record::Fail {
            id: 3,
            error: "boom".into(),
        })
        .unwrap();
        drop(j);

        let (_, r) = Journal::recover(&path).unwrap();
        assert_eq!(r.discarded_bytes, 0);
        assert_eq!(r.next_id, 4);
        assert_eq!(r.jobs.len(), 3);
        assert_eq!(r.jobs[0].outcome, Some(Ok(Some("{\"x\":1}".into()))));
        assert_eq!(r.jobs[1].outcome, None, "started-not-finished re-enqueues");
        assert_eq!(r.jobs[2].outcome, Some(Err("boom".into())));
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let path = tmp("torn");
        let (mut j, _) = Journal::recover(&path).unwrap();
        j.append(&submit(1, "a")).unwrap();
        let good = j.bytes();
        drop(j);
        // Simulate a crash mid-append: a partial frame at the tail.
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&[42, 0, 0, 0, 7, 7]);
        std::fs::write(&path, &raw).unwrap();

        let (j, r) = Journal::recover(&path).unwrap();
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.discarded_bytes, 6);
        assert_eq!(j.bytes(), good, "file truncated back to the intact end");
    }

    #[test]
    fn corrupt_checksum_stops_replay_at_the_last_good_record() {
        let path = tmp("crc");
        let (mut j, _) = Journal::recover(&path).unwrap();
        j.append(&submit(1, "a")).unwrap();
        let keep = j.bytes();
        j.append(&submit(2, "b")).unwrap();
        drop(j);
        // Flip one payload byte of the second record.
        let mut raw = std::fs::read(&path).unwrap();
        let at = keep as usize + 12;
        raw[at] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();

        let (_, r) = Journal::recover(&path).unwrap();
        assert_eq!(r.jobs.len(), 1, "only the intact record survives");
        assert!(r.discarded_bytes > 0);
    }

    #[test]
    fn replay_is_order_insensitive_and_keeps_orphan_results() {
        let path = tmp("orphan");
        let (mut j, _) = Journal::recover(&path).unwrap();
        // Worker's Complete wins the file-offset race against Submit.
        j.append(&Record::Complete {
            id: 9,
            key: "k9".into(),
            body: Some("{\"y\":2}".into()),
        })
        .unwrap();
        j.append(&Record::Start { id: 9 }).unwrap();
        j.append(&submit(9, "k9")).unwrap();
        // A Complete whose Submit never made it at all.
        j.append(&Record::Complete {
            id: 77,
            key: "k77".into(),
            body: Some("{\"z\":3}".into()),
        })
        .unwrap();
        drop(j);

        let (_, r) = Journal::recover(&path).unwrap();
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.jobs[0].outcome, Some(Ok(Some("{\"y\":2}".into()))));
        assert_eq!(r.orphan_results, vec![("k77".into(), "{\"z\":3}".into())]);
        assert_eq!(r.next_id, 78, "ids never reused, submit or not");
    }

    #[test]
    fn compaction_drops_spilled_jobs_and_preserves_the_id_floor() {
        let path = tmp("compact");
        let (mut j, _) = Journal::recover(&path).unwrap();
        for id in 1..=30 {
            j.append(&submit(id, &format!("k{id}"))).unwrap();
            j.append(&Record::Complete {
                id,
                key: format!("k{id}"),
                body: None, // body lives in the spill
            })
            .unwrap();
        }
        j.append(&submit(31, "pending")).unwrap();
        let before = j.bytes();

        let records = compaction_records(
            32,
            &[JobRecord {
                id: 31,
                key: "pending".into(),
                priority: Priority::High,
                deadline_ms: Some(5000),
                config: "{\"seed\":31}".into(),
                outcome: None,
            }],
        );
        j.compact(&records).unwrap();
        assert!(j.bytes() < before);
        drop(j);

        let (_, r) = Journal::recover(&path).unwrap();
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.jobs[0].id, 31);
        assert_eq!(r.jobs[0].priority, Priority::High);
        assert_eq!(r.jobs[0].deadline_ms, Some(5000));
        assert_eq!(r.next_id, 32, "Meta floor survives the pruned ids");
    }

    #[test]
    fn foreign_file_is_not_parsed() {
        let path = tmp("foreign");
        std::fs::write(&path, b"not a journal at all").unwrap();
        let (_, r) = Journal::recover(&path).unwrap();
        assert!(r.jobs.is_empty());
        assert_eq!(r.discarded_bytes, 20);
    }
}
