//! The crash-safe, append-only cache journal behind `--cache-dir`.
//!
//! Every result the service caches is also appended here, so a restart
//! (graceful or `kill -9`) warm-starts the [`ResultCache`] from disk and
//! keeps serving the very same bytes. The format is built for the one
//! failure mode a process cannot defend against — dying mid-write:
//!
//! * **Records are self-verifying.** Each record is
//!   `len ‖ fnv1a(payload) ‖ payload`; replay stops at the first record
//!   whose length or checksum does not hold. A torn tail (power loss,
//!   `kill -9` mid-append, a corrupted byte) costs at most the records
//!   at and after the damage — everything before it is a consistent
//!   prefix, and recovery **never panics**.
//! * **Segments are immutable once sealed.** Appends go to the highest-
//!   numbered `segment-NNNNNNNN.log`; every boot seals the previous
//!   segments by opening a fresh one, so recovery never rewrites bytes
//!   it later depends on.
//! * **Compaction is atomic.** When the journal grows past its
//!   threshold, the live cache snapshot is rewritten into a brand-new
//!   segment via `write → fsync → rename`, and only then are the old
//!   segments unlinked. A crash at any point leaves either the old
//!   segments or the new one — never a half state.
//!
//! Versioning: each segment opens with a magic + schema version header
//! (whole-file skip on mismatch), and every cache key embeds
//! [`MachineConfig::fingerprint`] — entries journaled by a build whose
//! semantics changed simply never match a new request's key, so a stale
//! journal can serve stale bytes only for configs whose meaning is
//! unchanged. That is exactly the in-memory cache's own guarantee.
//!
//! Durability model: appends are a single `write_all` straight to the
//! file (no userspace buffering), so an entry survives process death the
//! moment [`Journal::append`] returns. Only the records since the last
//! OS flush are at risk on *power* loss, and the checksum chain turns
//! that into a clean prefix, not corruption.
//!
//! [`ResultCache`]: crate::cache::ResultCache
//! [`MachineConfig::fingerprint`]: polyflow_sim::MachineConfig::fingerprint

use crate::cache::CacheKey;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Segment header magic (8 bytes, constant across schema versions).
const MAGIC: &[u8; 8] = b"PFJRNL\x00\x01";

/// Record/payload schema version. Bump when the record layout changes;
/// old segments are skipped whole (a cold start, never a misparse).
pub const SCHEMA_VERSION: u32 = 1;

/// Hard upper bound on one record's payload: replay reads anything
/// larger as corruption. A reply grows with its run's task count and an
/// upload's window is unbounded (the bundled roster's largest is about
/// 4 MB), so [`Journal::append`] refuses a record over the bound rather
/// than write one that replay would stop at.
const MAX_PAYLOAD: u32 = 64 << 20;

/// The record checksum: the workspace's one FNV-1a, re-exported here
/// under its historical path.
pub use polyflow_isa::fnv1a;

/// What [`Journal::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Distinct cache entries recovered (later duplicates win).
    pub entries: u64,
    /// Segment files replayed.
    pub segments: u64,
    /// Segments that ended in a torn/corrupt record (recovered to their
    /// consistent prefix).
    pub torn_tails: u64,
    /// Segments skipped whole for a bad magic or schema version.
    pub incompatible: u64,
}

struct State {
    active: File,
    active_index: u64,
    active_bytes: u64,
    sealed_bytes: u64,
    next_compact_at: u64,
}

impl State {
    /// True once the journal has outgrown its compaction threshold.
    fn due(&self) -> bool {
        self.sealed_bytes + self.active_bytes >= self.next_compact_at
    }
}

/// An open cache journal rooted at one directory.
pub struct Journal {
    dir: PathBuf,
    rotate_bytes: u64,
    state: Mutex<State>,
    appended: AtomicU64,
    io_errors: AtomicU64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("rotate_bytes", &self.rotate_bytes)
            .finish_non_exhaustive()
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("segment-{index:08}.log"))
}

fn segment_index(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("segment-")?.strip_suffix(".log")?;
    digits.parse().ok()
}

/// Encodes one record, or `None` if its payload is over [`MAX_PAYLOAD`].
fn encode_record(key: &CacheKey, value: &str) -> Option<Vec<u8>> {
    let parts: [&str; 4] = [&key.workload, &key.policy, &key.config, value];
    let payload_len: usize = parts.iter().map(|p| 4 + p.len()).sum();
    if payload_len > MAX_PAYLOAD as usize {
        return None;
    }
    let mut rec = Vec::with_capacity(12 + payload_len);
    rec.extend_from_slice(&(payload_len as u32).to_le_bytes());
    rec.extend_from_slice(&[0u8; 8]); // checksum patched below
    for p in parts {
        rec.extend_from_slice(&(p.len() as u32).to_le_bytes());
        rec.extend_from_slice(p.as_bytes());
    }
    let sum = fnv1a(&rec[12..]).to_le_bytes();
    rec[4..12].copy_from_slice(&sum);
    Some(rec)
}

/// Decodes one record starting at `bytes[at..]`. `None` means the tail
/// from `at` on is torn/corrupt (or simply absent) — stop replaying.
fn decode_record(bytes: &[u8], at: usize) -> Option<(CacheKey, String, usize)> {
    let header = bytes.get(at..at + 12)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return None;
    }
    let sum = u64::from_le_bytes(header[4..12].try_into().unwrap());
    let payload = bytes.get(at + 12..at + 12 + len as usize)?;
    if fnv1a(payload) != sum {
        return None;
    }
    let mut cursor = 0usize;
    let mut parts: Vec<String> = Vec::with_capacity(4);
    for _ in 0..4 {
        let plen =
            u32::from_le_bytes(payload.get(cursor..cursor + 4)?.try_into().unwrap()) as usize;
        cursor += 4;
        let raw = payload.get(cursor..cursor + plen)?;
        cursor += plen;
        parts.push(String::from_utf8(raw.to_vec()).ok()?);
    }
    if cursor != payload.len() {
        return None;
    }
    let value = parts.pop().expect("four parts");
    let config = parts.pop().expect("three parts");
    let policy = parts.pop().expect("two parts");
    let workload = parts.pop().expect("one part");
    Some((
        CacheKey {
            workload,
            policy,
            config,
        },
        value,
        at + 12 + len as usize,
    ))
}

/// Replays one segment file into `out`. Returns `(compatible, torn)`.
fn replay_segment(path: &Path, out: &mut Vec<(CacheKey, String)>) -> io::Result<(bool, bool)> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 12 || &bytes[..8] != MAGIC {
        return Ok((false, false));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SCHEMA_VERSION {
        return Ok((false, false));
    }
    let mut at = 12usize;
    while at < bytes.len() {
        match decode_record(&bytes, at) {
            Some((key, value, next)) => {
                out.push((key, value));
                at = next;
            }
            None => return Ok((true, true)), // consistent prefix; stop here
        }
    }
    Ok((true, false))
}

fn new_segment(dir: &Path, index: u64) -> io::Result<File> {
    let mut f = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(segment_path(dir, index))?;
    f.write_all(MAGIC)?;
    f.write_all(&SCHEMA_VERSION.to_le_bytes())?;
    Ok(f)
}

/// Flushes directory metadata so a rename/create survives power loss
/// (best-effort; irrelevant for plain process death).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// What [`Journal::open`] recovers: the journal handle, the replayed
/// `(key, response line)` entries oldest-first, and the recovery report.
pub type Recovered = (Journal, Vec<(CacheKey, String)>, RecoveryReport);

impl Journal {
    /// Opens (creating if needed) the journal at `dir`, replays every
    /// segment in order, and seals them by opening a fresh active
    /// segment. Returns the recovered entries oldest-first with later
    /// duplicates collapsed onto the earlier slot (last value wins) —
    /// insert them into the cache in order to warm-start it.
    pub fn open(dir: &Path, rotate_bytes: u64) -> io::Result<Recovered> {
        fs::create_dir_all(dir)?;
        let mut segments: Vec<(u64, PathBuf)> = fs::read_dir(dir)?
            .filter_map(|e| {
                let path = e.ok()?.path();
                segment_index(&path).map(|i| (i, path))
            })
            .collect();
        segments.sort();

        let mut report = RecoveryReport::default();
        let mut raw: Vec<(CacheKey, String)> = Vec::new();
        let mut sealed_bytes = 0u64;
        for (_, path) in &segments {
            let (compatible, torn) = replay_segment(path, &mut raw)?;
            report.segments += 1;
            if !compatible {
                report.incompatible += 1;
            } else {
                sealed_bytes += fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            }
            if torn {
                report.torn_tails += 1;
            }
        }

        // Collapse duplicates: the last append for a key wins, seated at
        // the key's first position so replay order stays stable.
        let mut index: std::collections::HashMap<CacheKey, usize> =
            std::collections::HashMap::new();
        let mut entries: Vec<(CacheKey, String)> = Vec::with_capacity(raw.len());
        for (key, value) in raw {
            match index.get(&key) {
                Some(&i) => entries[i].1 = value,
                None => {
                    index.insert(key.clone(), entries.len());
                    entries.push((key, value));
                }
            }
        }
        report.entries = entries.len() as u64;

        let active_index = segments.last().map(|(i, _)| i + 1).unwrap_or(0);
        let active = new_segment(dir, active_index)?;
        sync_dir(dir);
        let journal = Journal {
            dir: dir.to_path_buf(),
            rotate_bytes,
            state: Mutex::new(State {
                active,
                active_index,
                active_bytes: 12,
                sealed_bytes,
                next_compact_at: rotate_bytes.max(1),
            }),
            appended: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        };
        Ok((journal, entries, report))
    }

    /// Appends one cache entry. One `write_all` straight to the file:
    /// durable against process death the moment this returns.
    ///
    /// # Errors
    ///
    /// A write failure, or an entry whose record would exceed the
    /// 64 MiB payload bound (`InvalidInput`, written nowhere: replay would
    /// read it as corruption and drop every later record of its
    /// segment). Both count in [`Journal::io_errors`]; the caller's cache
    /// still holds the entry.
    pub fn append(&self, key: &CacheKey, value: &str) -> io::Result<()> {
        let Some(rec) = encode_record(key, value) else {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "journal record exceeds the replayable payload bound",
            ));
        };
        let mut st = self.state.lock().unwrap();
        match st.active.write_all(&rec) {
            Ok(()) => {
                st.active_bytes += rec.len() as u64;
                self.appended.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// True once the journal has outgrown its compaction threshold —
    /// call [`Journal::compact`] with the live cache snapshot.
    pub fn wants_compaction(&self) -> bool {
        self.state.lock().unwrap().due()
    }

    /// Atomically rewrites the journal down to `live` (the cache's
    /// current contents): write a new segment to a temp file, fsync,
    /// rename into place, then unlink every older segment. A crash at
    /// any step leaves a journal that replays to either the old state or
    /// the new one.
    pub fn compact(&self, live: &[(CacheKey, Arc<str>)]) -> io::Result<()> {
        self.rewrite(&mut self.state.lock().unwrap(), live)
    }

    /// [`Journal::compact`] down to `live()` if the journal has outgrown
    /// its threshold, with both the check and `live()` run under the
    /// journal lock; returns whether it compacted. This is the call for
    /// concurrent writers that insert into the cache before they
    /// append: an entry another thread appended just before the
    /// compaction is then in `live()`, so the compaction cannot unlink
    /// it, and two threads that both saw the threshold crossed compact
    /// once.
    pub fn compact_if_due<L>(&self, live: impl FnOnce() -> L) -> io::Result<bool>
    where
        L: AsRef<[(CacheKey, Arc<str>)]>,
    {
        let mut st = self.state.lock().unwrap();
        if !st.due() {
            return Ok(false);
        }
        self.rewrite(&mut st, live().as_ref())?;
        Ok(true)
    }

    fn rewrite(&self, st: &mut State, live: &[(CacheKey, Arc<str>)]) -> io::Result<()> {
        let compact_index = st.active_index + 1;
        let tmp_path = self.dir.join("compact.tmp");
        let mut tmp = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(MAGIC)?;
        tmp.write_all(&SCHEMA_VERSION.to_le_bytes())?;
        let mut compact_bytes = 12u64;
        // An entry too large to replay was never appended; it stays out
        // of the compacted segment too.
        for rec in live
            .iter()
            .filter_map(|(key, value)| encode_record(key, value))
        {
            tmp.write_all(&rec)?;
            compact_bytes += rec.len() as u64;
        }
        tmp.sync_all()?;
        drop(tmp);
        fs::rename(&tmp_path, segment_path(&self.dir, compact_index))?;
        sync_dir(&self.dir);

        // The compacted segment is now the durable truth; drop the old
        // segments (including the just-sealed active) and append to a
        // fresh one after it.
        for i in 0..=st.active_index {
            let _ = fs::remove_file(segment_path(&self.dir, i));
        }
        st.active = new_segment(&self.dir, compact_index + 1)?;
        st.active_index = compact_index + 1;
        st.active_bytes = 12;
        st.sealed_bytes = compact_bytes;
        st.next_compact_at = self.rotate_bytes.max(compact_bytes * 2);
        sync_dir(&self.dir);
        Ok(())
    }

    /// Current on-disk size in bytes (all segments).
    pub fn size_bytes(&self) -> u64 {
        let st = self.state.lock().unwrap();
        st.sealed_bytes + st.active_bytes
    }

    /// Entries appended since open.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Append failures since open (the service keeps serving; the
    /// journal just stops growing).
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Flushes the active segment to stable storage (drain path).
    pub fn sync(&self) {
        let st = self.state.lock().unwrap();
        let _ = st.active.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    static NONCE: AtomicU32 = AtomicU32::new(0);

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "polyflow-journal-{tag}-{}-{}",
                std::process::id(),
                NONCE.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn key(n: usize) -> CacheKey {
        CacheKey {
            workload: format!("w{n}"),
            policy: "postdoms".into(),
            config: format!("cfg{n}"),
        }
    }

    fn open(dir: &Path) -> (Journal, Vec<(CacheKey, String)>, RecoveryReport) {
        Journal::open(dir, 1 << 20).expect("journal opens")
    }

    #[test]
    fn round_trips_across_reopen() {
        let t = TempDir::new("roundtrip");
        {
            let (j, entries, _) = open(&t.0);
            assert!(entries.is_empty());
            for n in 0..5 {
                j.append(&key(n), &format!("value-{n}")).unwrap();
            }
        }
        let (_, entries, report) = open(&t.0);
        assert_eq!(entries.len(), 5);
        assert_eq!(report.torn_tails, 0);
        for (n, (k, v)) in entries.iter().enumerate() {
            assert_eq!(k, &key(n));
            assert_eq!(v, &format!("value-{n}"));
        }
    }

    /// A record too large to replay is refused before it reaches the
    /// segment, so the records after it survive a reopen.
    #[test]
    fn oversized_record_is_refused_and_later_records_replay() {
        let t = TempDir::new("oversized");
        let big = "x".repeat(MAX_PAYLOAD as usize);
        {
            let (j, _, _) = open(&t.0);
            j.append(&key(1), "small-before").unwrap();
            let err = j.append(&key(2), &big).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert_eq!(j.io_errors(), 1);
            j.append(&key(3), "small-after").unwrap();
            assert_eq!(j.appended(), 2);
            // Compaction leaves the oversized entry out as well.
            let live: Vec<(CacheKey, Arc<str>)> = vec![
                (key(1), "small-before".into()),
                (key(2), big.as_str().into()),
                (key(3), "small-after".into()),
            ];
            j.compact(&live).unwrap();
            j.append(&key(4), "after-compaction").unwrap();
        }
        let (_, entries, report) = open(&t.0);
        assert_eq!(report.torn_tails, 0);
        let keys: Vec<&CacheKey> = entries.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&key(1), &key(3), &key(4)]);
    }

    #[test]
    fn later_append_wins_for_duplicate_keys() {
        let t = TempDir::new("dup");
        {
            let (j, _, _) = open(&t.0);
            j.append(&key(1), "old").unwrap();
            j.append(&key(2), "other").unwrap();
            j.append(&key(1), "new").unwrap();
        }
        let (_, entries, _) = open(&t.0);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], (key(1), "new".to_string()));
        assert_eq!(entries[1], (key(2), "other".to_string()));
    }

    #[test]
    fn torn_tail_recovers_to_consistent_prefix() {
        let t = TempDir::new("torn");
        let path = {
            let (j, _, _) = open(&t.0);
            for n in 0..3 {
                j.append(&key(n), &format!("v{n}")).unwrap();
            }
            segment_path(&t.0, 0)
        };
        // Truncate mid-record: drop the last 5 bytes.
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (_, entries, report) = open(&t.0);
        assert_eq!(entries.len(), 2, "first two records form the prefix");
        assert_eq!(report.torn_tails, 1);
        assert_eq!(entries[1].1, "v1");
    }

    #[test]
    fn corrupt_byte_stops_at_first_bad_record() {
        let t = TempDir::new("corrupt");
        let path = {
            let (j, _, _) = open(&t.0);
            for n in 0..4 {
                j.append(&key(n), &format!("v{n}")).unwrap();
            }
            segment_path(&t.0, 0)
        };
        // Flip one byte inside the second record's payload: records 0
        // survives, 1 fails its checksum, 2 and 3 are unreachable (no
        // resync — stop at first bad record, by design).
        let mut bytes = fs::read(&path).unwrap();
        let rec0 = encode_record(&key(0), "v0").unwrap().len();
        bytes[12 + rec0 + 20] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (_, entries, report) = open(&t.0);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1, "v0");
        assert_eq!(report.torn_tails, 1);
    }

    #[test]
    fn garbage_appended_after_valid_records_is_ignored() {
        let t = TempDir::new("garbage");
        let path = {
            let (j, _, _) = open(&t.0);
            j.append(&key(7), "keep-me").unwrap();
            segment_path(&t.0, 0)
        };
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"@@@@ not a record @@@@").unwrap();
        drop(f);
        let (_, entries, report) = open(&t.0);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1, "keep-me");
        assert_eq!(report.torn_tails, 1);
    }

    #[test]
    fn incompatible_segment_is_skipped_whole() {
        let t = TempDir::new("schema");
        {
            let (j, _, _) = open(&t.0);
            j.append(&key(0), "good").unwrap();
        }
        // A segment from "the future": right magic, wrong version.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        bytes.extend_from_slice(&encode_record(&key(1), "from-the-future").unwrap());
        fs::write(segment_path(&t.0, 1), &bytes).unwrap();
        let (_, entries, report) = open(&t.0);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1, "good");
        assert_eq!(report.incompatible, 1);
        assert_eq!(report.torn_tails, 0);
    }

    #[test]
    fn compaction_preserves_live_entries_and_shrinks() {
        let t = TempDir::new("compact");
        {
            let (j, _, _) = Journal::open(&t.0, 64).expect("open");
            // Re-append the same two keys many times: the journal grows,
            // the live set stays at 2.
            for round in 0..50 {
                for n in 0..2 {
                    j.append(&key(n), &format!("round-{round}-{n}")).unwrap();
                }
            }
            assert!(j.wants_compaction());
            let before = j.size_bytes();
            let live: Vec<(CacheKey, Arc<str>)> = (0..2)
                .map(|n| (key(n), Arc::from(format!("live-{n}").as_str())))
                .collect();
            j.compact(&live).unwrap();
            assert!(j.size_bytes() < before, "compaction shrank the journal");
            // The journal keeps accepting appends after compaction.
            j.append(&key(9), "post-compact").unwrap();
        }
        let (_, entries, report) = open(&t.0);
        assert_eq!(report.torn_tails, 0);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0], (key(0), "live-0".to_string()));
        assert_eq!(entries[1], (key(1), "live-1".to_string()));
        assert_eq!(entries[2], (key(9), "post-compact".to_string()));
    }

    /// `compact_if_due` compacts only past the threshold, reads the live
    /// set only when it does, and compacts once when two callers saw the
    /// same crossing.
    #[test]
    fn compact_if_due_reads_the_live_set_only_when_due() {
        let t = TempDir::new("due");
        let (j, _, _) = Journal::open(&t.0, 256).expect("open");
        let live = || vec![(key(0), Arc::from("live-0"))];
        j.append(&key(0), "first").unwrap();
        let not_due = j.compact_if_due(|| -> Vec<(CacheKey, Arc<str>)> {
            panic!("the live set is not read below the threshold")
        });
        assert!(!not_due.unwrap());
        for round in 0..20 {
            j.append(&key(0), &format!("round-{round}")).unwrap();
        }
        assert!(j.wants_compaction());
        let before = j.size_bytes();
        assert!(j.compact_if_due(live).unwrap(), "due, so it compacts");
        assert!(j.size_bytes() < before);
        assert!(
            !j.compact_if_due(live).unwrap(),
            "a second caller finds nothing to do"
        );
        drop(j);
        let (_, entries, _) = open(&t.0);
        assert_eq!(entries, vec![(key(0), "live-0".to_string())]);
    }

    #[test]
    fn empty_and_missing_directories_are_cold_starts() {
        let t = TempDir::new("cold");
        let (_, entries, report) = open(&t.0); // dir did not exist
        assert!(entries.is_empty());
        assert_eq!(report.segments, 0);
        let (_, entries, _) = open(&t.0); // now it does, with one sealed empty segment
        assert!(entries.is_empty());
    }
}
