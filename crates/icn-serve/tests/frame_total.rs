//! The durable files' one frame codec: its length bound, checked on both
//! sides, and a property test that it is total under adversarial bytes.
//! Record sequences are framed into a journal, then a byte is flipped,
//! the file is cut at any offset, a frame is duplicated, or garbage is
//! appended:
//!
//! * [`Journal::recover`] returns exactly the longest intact prefix of
//!   records, truncates the file to it, and never panics;
//! * [`DiskStore::get`] on a mutated spill entry returns `None` and
//!   deletes the file.
//!
//! Tier-1 runs this in the test profile, which keeps overflow checks on,
//! so an offset computed with wrapping arithmetic panics here.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use icn_serve::frame::{self, MAX_PAYLOAD_BYTES};
use icn_serve::journal::{Journal, Record};
use icn_serve::{DiskStore, Priority};
use proptest::prelude::*;

/// Bytes of the file magic in front of the first frame.
const MAGIC_BYTES: usize = 8;

/// Unique scratch directory per call, so proptest cases never share state.
fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("icn-frame-total-{}-{name}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn crc32_matches_known_vectors() {
    // IEEE CRC-32 of "123456789" is the classic check value.
    assert_eq!(frame::crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(frame::crc32(b""), 0);
}

#[test]
fn encode_refuses_what_decode_would_refuse() {
    let mut buf = b"kept".to_vec();
    for refused in [0, MAX_PAYLOAD_BYTES + 1] {
        let err = frame::encode(&vec![b'x'; refused], &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
    assert_eq!(buf, b"kept", "a refused frame writes nothing");

    // The largest accepted payload round-trips; one byte more, framed by
    // hand with a valid checksum, does not decode.
    let mut largest = Vec::new();
    frame::encode(&vec![b'x'; MAX_PAYLOAD_BYTES], &mut largest).unwrap();
    let (payload, rest) = frame::decode(&largest).unwrap();
    assert_eq!((payload.len(), rest.len()), (MAX_PAYLOAD_BYTES, 0));
    let oversized = vec![b'x'; MAX_PAYLOAD_BYTES + 1];
    let mut forged = u32::try_from(oversized.len())
        .unwrap()
        .to_le_bytes()
        .to_vec();
    forged.extend_from_slice(&frame::crc32(&oversized).to_le_bytes());
    forged.extend_from_slice(&oversized);
    assert_eq!(frame::decode(&forged), None);
}

/// A record the codec would refuse to decode is refused at append, so it
/// never truncates the records written after it.
#[test]
fn oversized_journal_record_is_refused_and_later_records_survive() {
    let dir = scratch("oversized");
    let path = dir.join("jobs.journal");
    let (mut journal, _) = Journal::recover(&path).unwrap();
    let submit = |id: u64, config: String| Record::Submit {
        id,
        key: format!("k{id}"),
        priority: Priority::Normal,
        deadline_ms: None,
        config,
    };
    journal.append(&submit(1, "{}".into())).unwrap();
    let before = journal.bytes();
    let err = journal
        .append(&submit(2, "x".repeat(MAX_PAYLOAD_BYTES)))
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(journal.bytes(), before, "nothing written");
    journal.append(&submit(3, "{}".into())).unwrap();
    drop(journal);

    let (_, recovery) = Journal::recover(&path).unwrap();
    assert_eq!(recovery.discarded_bytes, 0);
    let ids: Vec<u64> = recovery.jobs.iter().map(|job| job.id).collect();
    assert_eq!(ids, [1, 3]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A body the codec refuses is a spill write failure that leaves no entry.
#[test]
fn refused_spill_body_is_a_write_failure() {
    let dir = scratch("refused");
    let store = DiskStore::open(&dir).unwrap();
    let err = store.put("k", "").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(store.get("k"), None);
    assert_eq!(store.entries(), 0);
    assert_eq!(store.counters.writes.load(Ordering::Relaxed), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Strings that stress the JSON payload: escapes, multi-byte UTF-8, and
/// the empty string.
const TEXTS: [&str; 6] = [
    "{}",
    "{\"seed\":1,\"load\":0.02}",
    "quote \" and backslash \\",
    "ünïcödé ✓ — 网络",
    "line\nbreak\ttab",
    "",
];

/// One record, every field derived from one draw. Ids come from a small
/// range so records of the same job meet in the reduce.
fn record_from(raw: u64) -> Record {
    let id = raw % 13;
    let text = TEXTS[(raw >> 8) as usize % TEXTS.len()].to_string();
    let key = format!("k{}", (raw >> 12) % 7);
    match (raw >> 16) % 5 {
        0 => Record::Meta { next_id: raw >> 40 },
        1 => Record::Submit {
            id,
            key,
            priority: [Priority::Low, Priority::Normal, Priority::High][(raw >> 20) as usize % 3],
            deadline_ms: ((raw >> 22) & 1 == 1).then_some(raw >> 32),
            config: text,
        },
        2 => Record::Start { id },
        3 => Record::Complete { id, key },
        _ => Record::Fail { id, error: text },
    }
}

/// What happens to the framed bytes.
#[derive(Debug, Clone)]
enum Mutation {
    /// XOR the byte at `at` (modulo the file length) with a nonzero mask.
    Flip { at: u64, mask: u8 },
    /// Cut the file to `at` (modulo its length + 1) bytes.
    Truncate { at: u64 },
    /// Write frame `frame` (modulo the frame count) a second time, right
    /// after itself.
    Duplicate { frame: u64 },
    /// Append bytes that were never framed.
    Garbage(Vec<u8>),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(|raw| Mutation::Flip {
            at: raw >> 8,
            mask: ((raw & 0xFF) as u8).max(1),
        }),
        (0u64..u64::MAX).prop_map(|at| Mutation::Truncate { at }),
        (0u64..u64::MAX).prop_map(|frame| Mutation::Duplicate { frame }),
        proptest::collection::vec(0u8..=255, 1..48).prop_map(Mutation::Garbage),
    ]
}

/// Write `records` as a fresh journal at `path` and return each frame's
/// end offset: `ends[i]` is where record `i`'s frame ends, `ends[0]` the
/// end of the magic. The frame is `[len][crc]` plus the record's JSON.
fn write_journal(path: &Path, records: &[Record]) -> Vec<usize> {
    let mut journal = Journal::open(path).unwrap();
    journal.compact(records).unwrap();
    let mut ends = vec![MAGIC_BYTES];
    for record in records {
        let json = serde_json::to_string(record).unwrap();
        ends.push(ends[ends.len() - 1] + 8 + json.len());
    }
    assert_eq!(
        journal.bytes(),
        ends[records.len()] as u64,
        "frame = 8-byte header + JSON payload"
    );
    ends
}

/// Apply `mutation` to `raw`. Returns how many leading records stay
/// intact and where the intact prefix ends (0 when the magic is gone),
/// or `None` when every frame stays intact but one is duplicated.
fn mutate(raw: &mut Vec<u8>, ends: &[usize], mutation: &Mutation) -> Option<(usize, usize)> {
    let frames = ends.len() - 1;
    // The intact prefix of a file whose first damaged byte is `at`.
    let prefix_before = |at: usize| {
        if at < MAGIC_BYTES {
            return (0, 0);
        }
        let kept = ends[1..].iter().filter(|&&end| end <= at).count();
        (kept, ends[kept])
    };
    match mutation {
        Mutation::Flip { at, mask } => {
            let at = (*at % raw.len() as u64) as usize;
            raw[at] ^= mask;
            Some(prefix_before(at))
        }
        Mutation::Truncate { at } => {
            let at = (*at % (raw.len() as u64 + 1)) as usize;
            raw.truncate(at);
            Some(prefix_before(at))
        }
        Mutation::Duplicate { frame } => {
            if frames == 0 {
                return Some((0, MAGIC_BYTES));
            }
            let frame = (*frame % frames as u64) as usize;
            let copy = raw[ends[frame]..ends[frame + 1]].to_vec();
            raw.splice(ends[frame + 1]..ends[frame + 1], copy);
            None
        }
        Mutation::Garbage(bytes) => {
            raw.extend_from_slice(bytes);
            Some((frames, ends[frames]))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recovery of a mutated journal equals recovery of a clean journal
    /// holding only the intact prefix, and leaves the file truncated to
    /// that prefix so later appends never extend a torn tail.
    #[test]
    fn journal_recovers_exactly_the_intact_prefix(
        raws in proptest::collection::vec(0u64..u64::MAX, 0..10),
        mutation in mutation(),
    ) {
        let dir = scratch("journal");
        let records: Vec<Record> = raws.into_iter().map(record_from).collect();
        let path = dir.join("jobs.journal");
        let ends = write_journal(&path, &records);
        let mut raw = std::fs::read(&path).unwrap();
        let expected = mutate(&mut raw, &ends, &mutation);
        std::fs::write(&path, &raw).unwrap();

        let (journal, recovery) = Journal::recover(&path).unwrap();
        // A duplicated frame is intact: the whole file replays, and
        // replaying a record twice in a row changes nothing.
        let (kept, good_end) = expected.unwrap_or((records.len(), raw.len()));
        prop_assert_eq!(recovery.discarded_bytes, (raw.len() - good_end) as u64);
        let on_disk = good_end.max(MAGIC_BYTES) as u64;
        prop_assert_eq!(journal.bytes(), on_disk);
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), on_disk);

        let clean_path = dir.join("clean.journal");
        write_journal(&clean_path, &records[..kept]);
        let (_, want) = Journal::recover(&clean_path).unwrap();
        prop_assert_eq!(&recovery.jobs, &want.jobs, "{:?}", mutation);
        prop_assert_eq!(recovery.next_id, want.next_id, "{:?}", mutation);

        // An append after recovery lands on the intact prefix and replays.
        let mut journal = journal;
        journal.append(&Record::Start { id: 99 }).unwrap();
        drop(journal);
        let (_, again) = Journal::recover(&path).unwrap();
        prop_assert_eq!(again.discarded_bytes, 0);
        prop_assert_eq!(again.next_id, want.next_id.max(100));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A spill entry with any mutation is a miss that deletes the file.
    #[test]
    fn mutated_spill_entry_is_a_miss_and_deleted(
        raw in 0u64..u64::MAX,
        repeat in 1usize..64,
        mutation in mutation(),
    ) {
        let dir = scratch("spill");
        let store = DiskStore::open(&dir).unwrap();
        let body = TEXTS[raw as usize % TEXTS.len()].repeat(repeat) + "!";
        store.put("key", &body).unwrap();
        prop_assert_eq!(store.get("key"), Some(body));

        let entries: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect();
        prop_assert_eq!(entries.len(), 1);
        let path = &entries[0];
        let mut bytes = std::fs::read(path).unwrap();
        let frame_end = bytes.len();
        // A spill entry is the magic and exactly one frame; every
        // mutation, a duplicated frame included, makes it invalid.
        if let Mutation::Truncate { at } = mutation {
            bytes.truncate((at % frame_end as u64) as usize);
        } else {
            let _ = mutate(&mut bytes, &[MAGIC_BYTES, frame_end], &mutation);
        }
        std::fs::write(path, &bytes).unwrap();

        prop_assert_eq!(store.get("key"), None, "{:?}", mutation);
        prop_assert!(!path.exists(), "corrupt entry deleted: {:?}", mutation);
        prop_assert_eq!(store.counters.discarded.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
