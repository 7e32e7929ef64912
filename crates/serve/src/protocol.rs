//! The wire protocol between `pictor-load` clients and the `pictor-serve`
//! control-plane daemon.
//!
//! Framing is a length prefix plus a versioned body:
//!
//! ```text
//! [len: u32 LE] [version: u8] [type: u8] [payload: len - 2 bytes]
//! ```
//!
//! `len` counts every byte after the prefix (version and type included),
//! so an empty-payload message frames as `len = 2`. Frames above
//! [`MAX_FRAME_BYTES`] are rejected before buffering — a malicious or
//! corrupt length prefix cannot make the decoder allocate unboundedly.
//! All integers are little-endian; floats travel as IEEE-754 bit
//! patterns; strings as a `u16` length followed by UTF-8 bytes.
//!
//! Decoding is total: every malformed input maps to a [`WireError`], never
//! a panic — the proptest suite (`crates/serve/tests/protocol_roundtrip.rs`)
//! fuzzes round-trips and mutilated frames against this promise.

use std::fmt;

/// Protocol version carried in every frame.
///
/// Version history: v1 had no auth, no drain and answered a poll for an
/// unknown session with zero telemetry. v2 added the `Hello` auth token,
/// the `Drain`/`DrainAck` lifecycle pair, the `UnknownSession` /
/// `Unauthorized` / `Draining` error codes, the shard/slot fields in
/// `HelloAck` and a `tracked` field in `SnapshotRep` and `DrainAck`. v3
/// drops `tracked` from both: in `SnapshotRep` it always repeated
/// `resident`, and in `DrainAck` it was stale, because a drain is not
/// stamped and does not step the engines. v4 drops the shard count from
/// `HelloAck`: the daemon runs one engine. Frames of any other version
/// are rejected with [`WireError::UnknownVersion`] — the payload layouts
/// differ, so silently accepting them would misparse.
pub const PROTOCOL_VERSION: u8 = 4;

/// Hard ceiling on the framed body size (version + type + payload).
/// Generous for every real message (the largest is `Report`, a few KiB of
/// JSON) while keeping a corrupt length prefix harmless.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Bytes in the length prefix.
pub const FRAME_HEADER_BYTES: usize = 4;

// ---------------------------------------------------------------------------
// errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong turning bytes into a [`Msg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before the payload its type implies was complete
    /// (or had trailing garbage after it).
    Truncated,
    /// The length prefix declared a body larger than [`MAX_FRAME_BYTES`].
    Oversized {
        /// The declared body length.
        declared: usize,
    },
    /// A zero-length body (frames carry at least version + type).
    EmptyFrame,
    /// The version byte is not [`PROTOCOL_VERSION`].
    UnknownVersion {
        /// The version byte received.
        version: u8,
    },
    /// The type byte names no known message.
    UnknownType {
        /// The type byte received.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadString,
    /// An enum discriminant field held an unmapped value.
    BadDiscriminant {
        /// The field's received value.
        value: u8,
    },
    /// The daemon refused the connection's credentials (client-side
    /// surfacing of an [`ErrCode::Unauthorized`] reply).
    Unauthorized,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame body truncated or over-long"),
            WireError::Oversized { declared } => {
                write!(
                    f,
                    "declared frame body of {declared} bytes exceeds {MAX_FRAME_BYTES}"
                )
            }
            WireError::EmptyFrame => write!(f, "zero-length frame body"),
            WireError::UnknownVersion { version } => {
                write!(
                    f,
                    "unknown protocol version {version} (expected {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownType { tag } => write!(f, "unknown message type {tag}"),
            WireError::BadString => write!(f, "string field is not valid UTF-8"),
            WireError::BadDiscriminant { value } => {
                write!(f, "enum field holds unmapped discriminant {value}")
            }
            WireError::Unauthorized => write!(f, "daemon refused the auth token"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

// ---------------------------------------------------------------------------
// messages
// ---------------------------------------------------------------------------

/// The admission outcome a [`Msg::Decision`] reports back to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Placed; the decision carries session/server/epoch coordinates.
    Admitted,
    /// No feasible server and no queue slot.
    Rejected,
    /// Parked in the backpressure queue; the daemon retries internally, so
    /// the client must *not* re-offer this request.
    Parked,
    /// The request's start time lies at or past the serving horizon.
    PastHorizon,
    /// The request named an unknown application code.
    UnknownApp,
}

impl Outcome {
    fn to_wire(self) -> u8 {
        match self {
            Outcome::Admitted => 0,
            Outcome::Rejected => 1,
            Outcome::Parked => 2,
            Outcome::PastHorizon => 3,
            Outcome::UnknownApp => 4,
        }
    }

    fn from_wire(value: u8) -> Result<Self, WireError> {
        Ok(match value {
            0 => Outcome::Admitted,
            1 => Outcome::Rejected,
            2 => Outcome::Parked,
            3 => Outcome::PastHorizon,
            4 => Outcome::UnknownApp,
            _ => return Err(WireError::BadDiscriminant { value }),
        })
    }
}

/// Error codes a [`Msg::Error`] carries (protocol-level failures the
/// daemon reports instead of dropping the connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The frame decoded but violated protocol state (e.g. a request
    /// after seal).
    Sealed,
    /// The frame failed to decode.
    Malformed,
    /// A `Poll` named a session no engine segment places at the polled
    /// epoch: never admitted, not started yet, already ended, or between
    /// servers in a migration. Distinguishable from a real idle sample,
    /// which a fabricated zero-telemetry reply was not.
    UnknownSession,
    /// The connection has not presented the daemon's auth token.
    Unauthorized,
    /// The daemon is draining: admissions are sealed, so `Open` requests
    /// are refused (polls, snapshots and the final seal still work).
    Draining,
}

impl ErrCode {
    fn to_wire(self) -> u8 {
        match self {
            ErrCode::Sealed => 0,
            ErrCode::Malformed => 1,
            ErrCode::UnknownSession => 2,
            ErrCode::Unauthorized => 3,
            ErrCode::Draining => 4,
        }
    }

    fn from_wire(value: u8) -> Result<Self, WireError> {
        Ok(match value {
            0 => ErrCode::Sealed,
            1 => ErrCode::Malformed,
            2 => ErrCode::UnknownSession,
            3 => ErrCode::Unauthorized,
            4 => ErrCode::Draining,
            _ => return Err(WireError::BadDiscriminant { value }),
        })
    }
}

/// Every message on the wire, both directions.
///
/// Client → daemon: `Hello`, `Open`, `Poll`, `Snapshot`, `Drain`, `Seal`.
/// Daemon → client: `HelloAck`, `Decision`, `Telemetry`, `SnapshotRep`,
/// `DrainAck`, `Report`, `Error`.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Handshake: announces a client. The daemon answers with `HelloAck`
    /// (or `Error { Unauthorized }` when `token` fails the check).
    Hello {
        /// Client-chosen identifier (diagnostics only).
        client: u64,
        /// Auth token; empty when the daemon runs without auth. Compared
        /// constant-time on the daemon side.
        token: String,
    },
    /// Handshake reply: the serving configuration a client needs to
    /// schedule itself.
    HelloAck {
        /// The daemon's protocol version.
        protocol: u8,
        /// Epoch length, nanoseconds.
        epoch_ns: u64,
        /// Serving horizon, epochs.
        epochs: u64,
        /// Fleet size, servers.
        servers: u64,
        /// Session slots per server.
        slots: u64,
    },
    /// A session request: run `app_code` for `duration_ns`, arriving at
    /// `at_ns` on the serving timeline.
    Open {
        /// Client-chosen request id, echoed in the `Decision`.
        req: u64,
        /// Arrival time, nanoseconds (advisory under a wall clock — the
        /// daemon stamps ingress itself; authoritative under replay).
        at_ns: u64,
        /// Requested service duration, nanoseconds.
        duration_ns: u64,
        /// Application short code (`"STK"`, `"D2"`, …).
        app_code: String,
    },
    /// The daemon's admission decision for one `Open`.
    Decision {
        /// The request id from the `Open`.
        req: u64,
        /// What happened.
        outcome: Outcome,
        /// Session id (meaningful only when admitted).
        session: u64,
        /// Placed server index (admitted only).
        server: u64,
        /// First occupied epoch (admitted only).
        start_epoch: u64,
        /// One past the last occupied epoch (admitted only).
        end_epoch: u64,
    },
    /// Asks for the live telemetry estimate of one session.
    Poll {
        /// Poll time, nanoseconds.
        at_ns: u64,
        /// The session to sample.
        session: u64,
    },
    /// Telemetry reply for one `Poll`.
    Telemetry {
        /// The polled session.
        session: u64,
        /// The epoch the estimate refers to.
        epoch: u64,
        /// Estimated server FPS.
        fps: f64,
        /// Estimated end-to-end RTT, ms.
        rtt_ms: f64,
    },
    /// Asks for a fleet-wide control-plane snapshot.
    Snapshot {
        /// Snapshot time, nanoseconds.
        at_ns: u64,
    },
    /// Snapshot reply.
    SnapshotRep {
        /// Last fully processed epoch boundary.
        epoch: u64,
        /// Placement attempts so far.
        offered: u64,
        /// Sessions admitted so far.
        admitted: u64,
        /// Attempts rejected so far.
        rejected: u64,
        /// Requests parked right now.
        queued_now: u64,
        /// Servers currently serving.
        serving: u64,
        /// Sessions resident in the engine. The soak mode's boundedness
        /// probe.
        resident: u64,
    },
    /// Seals admissions without sealing the run: subsequent `Open`s are
    /// refused with `Error { Draining }` while polls and snapshots keep
    /// working; the journal is flushed to disk so a fresh daemon can
    /// restart from it. Answered with `DrainAck`.
    Drain {
        /// Drain time, nanoseconds.
        at_ns: u64,
    },
    /// Drain reply: proof the journal reached stable storage.
    DrainAck {
        /// Events journaled (and flushed) so far.
        journaled_events: u64,
    },
    /// Seals the run: the daemon drains, runs the data plane, and answers
    /// with `Report`.
    Seal {
        /// Seal time, nanoseconds.
        at_ns: u64,
    },
    /// The deterministic end-of-run serving report (JSON).
    Report {
        /// `pictor-serve/v1` JSON document.
        json: String,
    },
    /// A protocol-level error reply.
    Error {
        /// What class of failure.
        code: ErrCode,
        /// Human-readable detail.
        detail: String,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_OPEN: u8 = 3;
const TAG_DECISION: u8 = 4;
const TAG_POLL: u8 = 5;
const TAG_TELEMETRY: u8 = 6;
const TAG_SNAPSHOT: u8 = 7;
const TAG_SNAPSHOT_REP: u8 = 8;
const TAG_SEAL: u8 = 9;
const TAG_REPORT: u8 = 10;
const TAG_ERROR: u8 = 11;
const TAG_DRAIN: u8 = 12;
const TAG_DRAIN_ACK: u8 = 13;

// ---------------------------------------------------------------------------
// primitive encoders/decoders
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize) as u16;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len as usize]);
}

/// A bounds-checked cursor over a frame body.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn str(&mut self) -> Result<String, WireError> {
        let b = self.take(2)?;
        let len = u16::from_le_bytes([b[0], b[1]]) as usize;
        let s = self.take(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| WireError::BadString)
    }

    /// Rejects trailing bytes: a well-formed body is consumed exactly.
    pub(crate) fn finish(self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Truncated)
        }
    }
}

// ---------------------------------------------------------------------------
// message codec
// ---------------------------------------------------------------------------

impl Msg {
    fn tag(&self) -> u8 {
        match self {
            Msg::Hello { .. } => TAG_HELLO,
            Msg::HelloAck { .. } => TAG_HELLO_ACK,
            Msg::Open { .. } => TAG_OPEN,
            Msg::Decision { .. } => TAG_DECISION,
            Msg::Poll { .. } => TAG_POLL,
            Msg::Telemetry { .. } => TAG_TELEMETRY,
            Msg::Snapshot { .. } => TAG_SNAPSHOT,
            Msg::SnapshotRep { .. } => TAG_SNAPSHOT_REP,
            Msg::Seal { .. } => TAG_SEAL,
            Msg::Report { .. } => TAG_REPORT,
            Msg::Error { .. } => TAG_ERROR,
            Msg::Drain { .. } => TAG_DRAIN,
            Msg::DrainAck { .. } => TAG_DRAIN_ACK,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Hello { client, token } => {
                put_u64(out, *client);
                put_str(out, token);
            }
            Msg::HelloAck {
                protocol,
                epoch_ns,
                epochs,
                servers,
                slots,
            } => {
                put_u8(out, *protocol);
                put_u64(out, *epoch_ns);
                put_u64(out, *epochs);
                put_u64(out, *servers);
                put_u64(out, *slots);
            }
            Msg::Open {
                req,
                at_ns,
                duration_ns,
                app_code,
            } => {
                put_u64(out, *req);
                put_u64(out, *at_ns);
                put_u64(out, *duration_ns);
                put_str(out, app_code);
            }
            Msg::Decision {
                req,
                outcome,
                session,
                server,
                start_epoch,
                end_epoch,
            } => {
                put_u64(out, *req);
                put_u8(out, outcome.to_wire());
                put_u64(out, *session);
                put_u64(out, *server);
                put_u64(out, *start_epoch);
                put_u64(out, *end_epoch);
            }
            Msg::Poll { at_ns, session } => {
                put_u64(out, *at_ns);
                put_u64(out, *session);
            }
            Msg::Telemetry {
                session,
                epoch,
                fps,
                rtt_ms,
            } => {
                put_u64(out, *session);
                put_u64(out, *epoch);
                put_f64(out, *fps);
                put_f64(out, *rtt_ms);
            }
            Msg::Snapshot { at_ns } => put_u64(out, *at_ns),
            Msg::SnapshotRep {
                epoch,
                offered,
                admitted,
                rejected,
                queued_now,
                serving,
                resident,
            } => {
                put_u64(out, *epoch);
                put_u64(out, *offered);
                put_u64(out, *admitted);
                put_u64(out, *rejected);
                put_u64(out, *queued_now);
                put_u64(out, *serving);
                put_u64(out, *resident);
            }
            Msg::Seal { at_ns } => put_u64(out, *at_ns),
            Msg::Drain { at_ns } => put_u64(out, *at_ns),
            Msg::DrainAck { journaled_events } => put_u64(out, *journaled_events),
            Msg::Report { json } => {
                // Reports can exceed a u16 string, so they carry a u32
                // length of their own.
                put_u32(out, json.len().min(u32::MAX as usize) as u32);
                out.extend_from_slice(json.as_bytes());
            }
            Msg::Error { code, detail } => {
                put_u8(out, code.to_wire());
                put_str(out, detail);
            }
        }
    }

    /// Encodes as a complete frame: length prefix, version, type, payload.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64);
        put_u8(&mut body, PROTOCOL_VERSION);
        put_u8(&mut body, self.tag());
        self.encode_payload(&mut body);
        assert!(
            body.len() <= MAX_FRAME_BYTES,
            "outgoing frame of {} bytes exceeds MAX_FRAME_BYTES",
            body.len()
        );
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
        put_u32(&mut frame, body.len() as u32);
        frame.extend_from_slice(&body);
        frame
    }

    /// Decodes one frame *body* (the bytes after the length prefix).
    pub fn decode_body(body: &[u8]) -> Result<Msg, WireError> {
        if body.is_empty() {
            return Err(WireError::EmptyFrame);
        }
        let mut cur = Cursor::new(body);
        let version = cur.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::UnknownVersion { version });
        }
        let tag = cur.u8()?;
        let msg = match tag {
            TAG_HELLO => Msg::Hello {
                client: cur.u64()?,
                token: cur.str()?,
            },
            TAG_HELLO_ACK => Msg::HelloAck {
                protocol: cur.u8()?,
                epoch_ns: cur.u64()?,
                epochs: cur.u64()?,
                servers: cur.u64()?,
                slots: cur.u64()?,
            },
            TAG_OPEN => Msg::Open {
                req: cur.u64()?,
                at_ns: cur.u64()?,
                duration_ns: cur.u64()?,
                app_code: cur.str()?,
            },
            TAG_DECISION => Msg::Decision {
                req: cur.u64()?,
                outcome: Outcome::from_wire(cur.u8()?)?,
                session: cur.u64()?,
                server: cur.u64()?,
                start_epoch: cur.u64()?,
                end_epoch: cur.u64()?,
            },
            TAG_POLL => Msg::Poll {
                at_ns: cur.u64()?,
                session: cur.u64()?,
            },
            TAG_TELEMETRY => Msg::Telemetry {
                session: cur.u64()?,
                epoch: cur.u64()?,
                fps: cur.f64()?,
                rtt_ms: cur.f64()?,
            },
            TAG_SNAPSHOT => Msg::Snapshot { at_ns: cur.u64()? },
            TAG_SNAPSHOT_REP => Msg::SnapshotRep {
                epoch: cur.u64()?,
                offered: cur.u64()?,
                admitted: cur.u64()?,
                rejected: cur.u64()?,
                queued_now: cur.u64()?,
                serving: cur.u64()?,
                resident: cur.u64()?,
            },
            TAG_SEAL => Msg::Seal { at_ns: cur.u64()? },
            TAG_DRAIN => Msg::Drain { at_ns: cur.u64()? },
            TAG_DRAIN_ACK => Msg::DrainAck {
                journaled_events: cur.u64()?,
            },
            TAG_REPORT => {
                let len = cur.u32()? as usize;
                let bytes = cur.take(len)?;
                let json = String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadString)?;
                Msg::Report { json }
            }
            TAG_ERROR => Msg::Error {
                code: ErrCode::from_wire(cur.u8()?)?,
                detail: cur.str()?,
            },
            _ => return Err(WireError::UnknownType { tag }),
        };
        cur.finish()?;
        Ok(msg)
    }
}

// ---------------------------------------------------------------------------
// streaming frame decoder
// ---------------------------------------------------------------------------

/// Incremental frame splitter for a byte stream: push arbitrary chunks in,
/// pull complete frame bodies out. Invalid length prefixes surface as
/// [`WireError`]s; partial frames simply wait for more bytes.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily: once the consumed prefix dominates, shift the
        // live tail down so the buffer stays bounded by frame size.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame body, `Ok(None)` when more bytes are
    /// needed, or an error when the stream is unrecoverably corrupt (the
    /// caller should drop the connection).
    pub fn next_body(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = self.buf.len() - self.pos;
        if avail < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let h = &self.buf[self.pos..self.pos + FRAME_HEADER_BYTES];
        let declared = u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize;
        if declared == 0 {
            return Err(WireError::EmptyFrame);
        }
        if declared > MAX_FRAME_BYTES {
            return Err(WireError::Oversized { declared });
        }
        if avail < FRAME_HEADER_BYTES + declared {
            return Ok(None);
        }
        let start = self.pos + FRAME_HEADER_BYTES;
        let body = self.buf[start..start + declared].to_vec();
        self.pos = start + declared;
        Ok(Some(body))
    }

    /// Bytes buffered but not yet consumed (diagnostics; a cleanly closed
    /// stream should end with zero).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let msg = Msg::Open {
            req: 7,
            at_ns: 1_000_000_007,
            duration_ns: 8_000_000_000,
            app_code: "STK".into(),
        };
        let frame = msg.encode_frame();
        let mut dec = FrameDecoder::new();
        dec.push(&frame[..3]);
        assert_eq!(dec.next_body().unwrap(), None, "header incomplete");
        dec.push(&frame[3..frame.len() - 1]);
        assert_eq!(dec.next_body().unwrap(), None, "body incomplete");
        dec.push(&frame[frame.len() - 1..]);
        let body = dec.next_body().unwrap().expect("complete");
        assert_eq!(Msg::decode_body(&body).unwrap(), msg);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn oversized_prefix_is_rejected_without_buffering() {
        let mut dec = FrameDecoder::new();
        dec.push(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert_eq!(
            dec.next_body(),
            Err(WireError::Oversized {
                declared: MAX_FRAME_BYTES + 1
            })
        );
    }

    #[test]
    fn unknown_version_and_type_are_clean_errors() {
        let mut frame = Msg::Seal { at_ns: 5 }.encode_frame();
        frame[FRAME_HEADER_BYTES] = 99; // version byte
        let body = &frame[FRAME_HEADER_BYTES..];
        assert_eq!(
            Msg::decode_body(body),
            Err(WireError::UnknownVersion { version: 99 })
        );
        let mut frame = Msg::Seal { at_ns: 5 }.encode_frame();
        frame[FRAME_HEADER_BYTES + 1] = 200; // type byte
        let body = &frame[FRAME_HEADER_BYTES..];
        assert_eq!(
            Msg::decode_body(body),
            Err(WireError::UnknownType { tag: 200 })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = Msg::Seal { at_ns: 5 }.encode_frame();
        frame.push(0xAB);
        let fixed = (frame.len() - FRAME_HEADER_BYTES) as u32;
        frame[..4].copy_from_slice(&fixed.to_le_bytes());
        let body = &frame[FRAME_HEADER_BYTES..];
        assert_eq!(Msg::decode_body(body), Err(WireError::Truncated));
    }
}
