//! The ingress journal: record/replay for the serving daemon.
//!
//! The daemon's entire observable behaviour is a pure function of its
//! **ingress event stream** — the stamped sequence of opens, polls,
//! snapshots and the final seal. Recording that stream (not the responses,
//! not the wall clock) is therefore enough to reproduce a live run bit for
//! bit: replay feeds the journal back through a fresh [`ServeCore`] and
//! the resulting [`ServeReport`] is byte-identical, which
//! `tests/serve_replay.rs` pins with a golden journal + report pair.
//!
//! [`ServeCore`]: crate::daemon::ServeCore
//! [`ServeReport`]: crate::report::ServeReport
//!
//! On-disk layout: an 8-byte magic, then one length-prefixed record per
//! event reusing the wire framing rules ([`MAX_FRAME_BYTES`] bound, LE
//! integers, `u16`-prefixed strings). Events are stored with their final
//! **stamped** timestamps — replay never consults a clock.
//!
//! # Crash recovery
//!
//! A file-backed journal appends records as they are stamped; a daemon
//! killed mid-write leaves a *truncated trailing record* (a partial
//! length prefix or a short payload). [`JournalReader`] stops cleanly at
//! the last complete record and reports the truncation, so the clean
//! prefix replays — the primitive drain/handover restarts build on.
//! Structural corruption (bad magic, an oversized or zero length, an
//! undecodable complete record) is still a hard error: missing tail
//! bytes are survivable, scrambled middles are not.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use crate::protocol::{put_str, put_u32, put_u64, put_u8, Cursor, WireError, MAX_FRAME_BYTES};

/// Journal file magic: "PICTORJ" + format version 1.
pub const JOURNAL_MAGIC: [u8; 8] = *b"PICTORJ\x01";

const EV_OPEN: u8 = 1;
const EV_POLL: u8 = 2;
const EV_SNAPSHOT: u8 = 3;
const EV_SEAL: u8 = 4;

/// One stamped ingress event — everything the deterministic core consumes.
///
/// The connection id rides along so replayed error/decision routing is
/// reconstructible in diagnostics; it does not influence admission.
/// Unknown app codes are journaled verbatim (the *rejection* must replay
/// too, or counters drift).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngressEvent {
    /// A session request.
    Open {
        /// Ingress connection id.
        conn: u32,
        /// Client request id (echoed in the decision).
        req: u64,
        /// Stamped arrival time, nanoseconds.
        at_ns: u64,
        /// Requested service duration, nanoseconds.
        duration_ns: u64,
        /// Application short code, exactly as received.
        app_code: String,
    },
    /// A telemetry poll.
    Poll {
        /// Ingress connection id.
        conn: u32,
        /// Stamped poll time, nanoseconds.
        at_ns: u64,
        /// The polled session.
        session: u64,
    },
    /// A fleet snapshot request.
    Snapshot {
        /// Ingress connection id.
        conn: u32,
        /// Stamped snapshot time, nanoseconds.
        at_ns: u64,
    },
    /// The run seal. Always the journal's final event.
    Seal {
        /// Ingress connection id.
        conn: u32,
        /// Stamped seal time, nanoseconds.
        at_ns: u64,
    },
}

impl IngressEvent {
    /// The event's stamped timestamp.
    pub fn at_ns(&self) -> u64 {
        match self {
            IngressEvent::Open { at_ns, .. }
            | IngressEvent::Poll { at_ns, .. }
            | IngressEvent::Snapshot { at_ns, .. }
            | IngressEvent::Seal { at_ns, .. } => *at_ns,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            IngressEvent::Open {
                conn,
                req,
                at_ns,
                duration_ns,
                app_code,
            } => {
                put_u8(out, EV_OPEN);
                put_u32(out, *conn);
                put_u64(out, *req);
                put_u64(out, *at_ns);
                put_u64(out, *duration_ns);
                put_str(out, app_code);
            }
            IngressEvent::Poll {
                conn,
                at_ns,
                session,
            } => {
                put_u8(out, EV_POLL);
                put_u32(out, *conn);
                put_u64(out, *at_ns);
                put_u64(out, *session);
            }
            IngressEvent::Snapshot { conn, at_ns } => {
                put_u8(out, EV_SNAPSHOT);
                put_u32(out, *conn);
                put_u64(out, *at_ns);
            }
            IngressEvent::Seal { conn, at_ns } => {
                put_u8(out, EV_SEAL);
                put_u32(out, *conn);
                put_u64(out, *at_ns);
            }
        }
    }

    fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut cur = Cursor::new(body);
        let tag = cur.u8()?;
        let ev = match tag {
            EV_OPEN => IngressEvent::Open {
                conn: cur.u32()?,
                req: cur.u64()?,
                at_ns: cur.u64()?,
                duration_ns: cur.u64()?,
                app_code: cur.str()?,
            },
            EV_POLL => IngressEvent::Poll {
                conn: cur.u32()?,
                at_ns: cur.u64()?,
                session: cur.u64()?,
            },
            EV_SNAPSHOT => IngressEvent::Snapshot {
                conn: cur.u32()?,
                at_ns: cur.u64()?,
            },
            EV_SEAL => IngressEvent::Seal {
                conn: cur.u32()?,
                at_ns: cur.u64()?,
            },
            _ => return Err(WireError::UnknownType { tag }),
        };
        cur.finish()?;
        Ok(ev)
    }
}

/// One decoded journal entry: the stamped event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Always 0: the daemon runs one engine. Kept for perfbench, which
    /// reads it.
    pub shard: u16,
    /// The stamped ingress event.
    pub event: IngressEvent,
}

/// An in-memory journal being recorded: magic header plus framed events,
/// optionally written through to a file record-by-record so a crash
/// leaves at most one truncated trailing record behind.
#[derive(Debug)]
pub struct JournalWriter {
    bytes: Vec<u8>,
    events: u64,
    file: Option<File>,
}

impl JournalWriter {
    /// A journal holding only the magic header.
    pub fn new() -> Self {
        JournalWriter {
            bytes: JOURNAL_MAGIC.to_vec(),
            events: 0,
            file: None,
        }
    }

    /// A journal that also appends every record to `path` as it is
    /// written. The magic header is on disk before this returns, so a
    /// daemon killed at any later point leaves a recoverable prefix.
    pub fn with_file(path: &Path) -> std::io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(&JOURNAL_MAGIC)?;
        Ok(JournalWriter {
            bytes: JOURNAL_MAGIC.to_vec(),
            events: 0,
            file: Some(file),
        })
    }

    fn append(&mut self, payload: &[u8]) {
        assert!(payload.len() <= MAX_FRAME_BYTES, "journal record too large");
        let start = self.bytes.len();
        put_u32(&mut self.bytes, payload.len() as u32);
        self.bytes.extend_from_slice(payload);
        if let Some(f) = self.file.as_mut() {
            f.write_all(&self.bytes[start..])
                .expect("journal write-through failed");
        }
    }

    /// Appends one event.
    pub fn record(&mut self, ev: &IngressEvent) {
        let mut payload = Vec::with_capacity(48);
        ev.encode_payload(&mut payload);
        self.append(&payload);
        self.events += 1;
    }

    /// [`JournalWriter::record`] for an entry's `shard`, which must be 0.
    /// Kept for perfbench, which calls it.
    pub fn record_routed(&mut self, shard: u16, ev: &IngressEvent) {
        assert_eq!(shard, 0, "the daemon runs one engine");
        self.record(ev);
    }

    /// Forces journaled records down to stable storage (drain uses this
    /// before acknowledging). No-op for purely in-memory journals.
    pub fn flush(&mut self) -> std::io::Result<()> {
        match self.file.as_mut() {
            Some(f) => f.sync_data(),
            None => Ok(()),
        }
    }

    /// Events recorded so far.
    pub fn len(&self) -> u64 {
        self.events
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// The serialized journal.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

impl Default for JournalWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// The outcome of reading a journal with crash recovery: the decoded
/// clean prefix plus how much trailing garbage (if any) was discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredJournal {
    /// Entries decoded from the clean prefix, in journal order.
    pub entries: Vec<JournalEntry>,
    /// Byte length of the clean prefix (magic included) — the exact
    /// truncation point a handover restart should reuse.
    pub clean_len: usize,
    /// Bytes discarded past the clean prefix; 0 for an intact journal.
    pub truncated_bytes: usize,
}

/// A journal parser that distinguishes *missing tail bytes* (a daemon
/// killed mid-write) from *structural corruption* (scrambled records).
///
/// [`JournalReader::recover`] stops cleanly at the last complete record
/// and reports the truncation; [`decode_journal_entries`] and
/// [`decode_journal`] are the strict views that reject any truncation,
/// which the record/replay goldens and property tests rely on.
#[derive(Debug)]
pub struct JournalReader;

impl JournalReader {
    /// Reads `bytes`, tolerating a truncated trailing record.
    ///
    /// A partial length prefix or a body shorter than its declared
    /// length ends the clean prefix. Bad magic, zero/oversized lengths and
    /// undecodable *complete* records are still hard errors — those are
    /// corruption, not a crash.
    pub fn recover(bytes: &[u8]) -> Result<RecoveredJournal, WireError> {
        Self::parse(bytes, false)
    }

    fn parse(bytes: &[u8], strict: bool) -> Result<RecoveredJournal, WireError> {
        if bytes.len() < JOURNAL_MAGIC.len() || bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(WireError::UnknownVersion {
                version: bytes.first().copied().unwrap_or(0),
            });
        }
        let mut entries = Vec::new();
        let mut pos = JOURNAL_MAGIC.len();
        // Stops at the end, or at a torn tail: a partial length prefix or
        // a body shorter than its declared length.
        while bytes.len() - pos >= 4 {
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
                    as usize;
            if len == 0 {
                return Err(WireError::EmptyFrame);
            }
            if len > MAX_FRAME_BYTES {
                return Err(WireError::Oversized { declared: len });
            }
            if bytes.len() - (pos + 4) < len {
                break;
            }
            entries.push(JournalEntry {
                shard: 0,
                event: IngressEvent::decode(&bytes[pos + 4..pos + 4 + len])?,
            });
            pos += 4 + len;
        }
        if strict && pos < bytes.len() {
            return Err(WireError::Truncated);
        }
        Ok(RecoveredJournal {
            entries,
            clean_len: pos,
            truncated_bytes: bytes.len() - pos,
        })
    }
}

/// Strictly parses a serialized journal into entries.
///
/// Total like the wire codec: corrupt magic, truncated records and
/// oversized prefixes all map to [`WireError`], never a panic. Use
/// [`JournalReader::recover`] to tolerate a torn trailing record.
pub fn decode_journal_entries(bytes: &[u8]) -> Result<Vec<JournalEntry>, WireError> {
    Ok(JournalReader::parse(bytes, true)?.entries)
}

/// Strictly parses a serialized journal back into its event stream.
pub fn decode_journal(bytes: &[u8]) -> Result<Vec<IngressEvent>, WireError> {
    Ok(decode_journal_entries(bytes)?
        .into_iter()
        .map(|e| e.event)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<IngressEvent> {
        vec![
            IngressEvent::Open {
                conn: 1,
                req: 10,
                at_ns: 100,
                duration_ns: 2_000_000_000,
                app_code: "STK".into(),
            },
            IngressEvent::Poll {
                conn: 1,
                at_ns: 250,
                session: 0,
            },
            IngressEvent::Snapshot {
                conn: 2,
                at_ns: 300,
            },
            IngressEvent::Open {
                conn: 2,
                req: 11,
                at_ns: 400,
                duration_ns: 1_000_000_000,
                app_code: "NOPE".into(),
            },
            IngressEvent::Seal {
                conn: 1,
                at_ns: 500,
            },
        ]
    }

    #[test]
    fn journal_roundtrip() {
        let mut w = JournalWriter::new();
        for ev in sample_events() {
            w.record(&ev);
        }
        assert_eq!(w.len(), 5);
        let bytes = w.into_bytes();
        assert_eq!(decode_journal(&bytes).unwrap(), sample_events());
    }

    #[test]
    fn corrupt_journals_error_cleanly() {
        assert!(decode_journal(b"NOTMAGIC").is_err());
        assert!(decode_journal(&JOURNAL_MAGIC[..4]).is_err());
        let mut w = JournalWriter::new();
        w.record(&IngressEvent::Seal { conn: 0, at_ns: 1 });
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 3);
        assert_eq!(decode_journal(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn recovery_stops_at_last_complete_record() {
        let events = sample_events();
        let mut w = JournalWriter::new();
        for ev in &events {
            w.record(ev);
        }
        let bytes = w.into_bytes();
        let intact = JournalReader::recover(&bytes).unwrap();
        assert_eq!(intact.entries.len(), events.len());
        assert_eq!(intact.clean_len, bytes.len());
        assert_eq!(intact.truncated_bytes, 0);

        // Every strict prefix recovers to some clean prefix of the
        // entry stream, and strict decode rejects real truncations.
        for cut in JOURNAL_MAGIC.len()..bytes.len() {
            let rec = JournalReader::recover(&bytes[..cut]).unwrap();
            assert_eq!(rec.entries, intact.entries[..rec.entries.len()]);
            assert_eq!(rec.clean_len + rec.truncated_bytes, cut);
            if rec.truncated_bytes > 0 {
                assert_eq!(
                    decode_journal_entries(&bytes[..cut]),
                    Err(WireError::Truncated)
                );
            }
            // The clean prefix itself is strictly decodable — the
            // handover restart contract.
            let clean = &bytes[..rec.clean_len];
            assert_eq!(decode_journal_entries(clean).unwrap(), rec.entries);
        }
    }

    #[test]
    fn retired_tag_5_records_are_refused() {
        // A journal from a daemon that wrote tag-5 shard-routing markers
        // must be refused, not replayed without them or read as torn.
        let mut w = JournalWriter::new();
        w.record(&IngressEvent::Seal { conn: 0, at_ns: 1 });
        let mut bytes = w.into_bytes();
        let at = JOURNAL_MAGIC.len();
        bytes.splice(at..at, [3, 0, 0, 0, 5, 1, 0]);
        let refused = WireError::UnknownType { tag: 5 };
        assert_eq!(JournalReader::recover(&bytes).unwrap_err(), refused);
        assert_eq!(decode_journal_entries(&bytes).unwrap_err(), refused);
    }

    #[test]
    fn file_write_through_survives_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("pictor-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.journal");
        let mut w = JournalWriter::with_file(&path).unwrap();
        for ev in sample_events() {
            w.record(&ev);
        }
        w.flush().unwrap();
        let mem = w.into_bytes();
        let disk = std::fs::read(&path).unwrap();
        assert_eq!(mem, disk, "write-through mirrors the in-memory bytes");
        // Simulate a crash mid-write: drop trailing bytes on disk.
        std::fs::write(&path, &disk[..disk.len() - 5]).unwrap();
        let rec = JournalReader::recover(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(rec.entries.len(), sample_events().len() - 1);
        assert!(rec.truncated_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
