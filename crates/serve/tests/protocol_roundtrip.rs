//! Property tests over the serving wire protocol and the ingress
//! journal: every message round-trips bit-exactly through the frame
//! codec under arbitrary stream chunking, and every malformed input —
//! truncated length prefixes, truncated bodies, oversized frames,
//! unknown versions/types, random garbage — maps to a clean
//! [`WireError`], never a panic and never an allocation proportional to
//! a corrupt length field.

use proptest::prelude::*;

use pictor_serve::journal::{decode_journal, IngressEvent, JournalReader, JournalWriter};
use pictor_serve::protocol::{
    ErrCode, FrameDecoder, Msg, Outcome, WireError, FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};

/// Printable-ASCII string from arbitrary bytes (the codec itself is
/// UTF-8-safe; printable keeps failure messages readable).
fn ascii(bytes: &[u8]) -> String {
    bytes.iter().map(|b| ((b % 94) + 32) as char).collect()
}

fn outcome_from(pick: u8) -> Outcome {
    match pick % 5 {
        0 => Outcome::Admitted,
        1 => Outcome::Rejected,
        2 => Outcome::Parked,
        3 => Outcome::PastHorizon,
        _ => Outcome::UnknownApp,
    }
}

/// One message of every wire type, driven by a selector and a handful of
/// field values (floats built finite so `PartialEq` round-trip checks
/// hold).
fn build_msg(pick: u8, a: u64, b: u64, c: u64, d: u64, s: &[u8]) -> Msg {
    let f1 = (a % 100_000) as f64 * 1e-3;
    let f2 = (b % 100_000) as f64 * 1e-3;
    match pick % 13 {
        0 => Msg::Hello {
            client: a,
            token: ascii(s),
        },
        1 => Msg::HelloAck {
            protocol: (a % 256) as u8,
            epoch_ns: b,
            epochs: c,
            servers: d,
            slots: a % 61,
            shards: b % 17,
        },
        2 => Msg::Open {
            req: a,
            at_ns: b,
            duration_ns: c,
            app_code: ascii(s),
        },
        3 => Msg::Decision {
            req: a,
            outcome: outcome_from((b % 5) as u8),
            session: b,
            server: c,
            start_epoch: d,
            end_epoch: d.wrapping_add(c),
        },
        4 => Msg::Poll {
            at_ns: a,
            session: b,
        },
        5 => Msg::Telemetry {
            session: a,
            epoch: b,
            fps: f1,
            rtt_ms: f2,
        },
        6 => Msg::Snapshot { at_ns: a },
        7 => Msg::SnapshotRep {
            epoch: a,
            offered: b,
            admitted: c,
            rejected: d,
            queued_now: a % 97,
            serving: b % 89,
            resident: c % 83,
        },
        8 => Msg::Seal { at_ns: a },
        9 => Msg::Report { json: ascii(s) },
        10 => Msg::Error {
            code: match a % 5 {
                0 => ErrCode::Sealed,
                1 => ErrCode::Malformed,
                2 => ErrCode::UnknownSession,
                3 => ErrCode::Unauthorized,
                _ => ErrCode::Draining,
            },
            detail: ascii(s),
        },
        11 => Msg::Drain { at_ns: a },
        _ => Msg::DrainAck {
            journaled_events: a,
        },
    }
}

proptest! {
    /// Encode → arbitrary stream chunking → decode is the identity for
    /// every message type.
    #[test]
    fn every_message_roundtrips_under_any_chunking(
        pick in 0u8..=255,
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        d in any::<u64>(),
        s in proptest::collection::vec(any::<u8>(), 0..48),
        chunk in 1usize..64,
    ) {
        let msg = build_msg(pick, a, b, c, d, &s);
        let frame = msg.encode_frame();
        // Direct body decode.
        let body = &frame[FRAME_HEADER_BYTES..];
        prop_assert_eq!(&Msg::decode_body(body).expect("valid body"), &msg);
        // Streamed decode under arbitrary chunk sizes.
        let mut dec = FrameDecoder::new();
        for piece in frame.chunks(chunk) {
            dec.push(piece);
        }
        let body = dec.next_body().expect("no wire error").expect("complete frame");
        prop_assert_eq!(&Msg::decode_body(&body).expect("valid body"), &msg);
        prop_assert_eq!(dec.pending_bytes(), 0);
        // Two frames back to back survive chunking too.
        let mut dec = FrameDecoder::new();
        let twice: Vec<u8> = frame.iter().chain(frame.iter()).copied().collect();
        for piece in twice.chunks(chunk) {
            dec.push(piece);
        }
        for _ in 0..2 {
            let body = dec.next_body().expect("no wire error").expect("complete frame");
            prop_assert_eq!(&Msg::decode_body(&body).expect("valid body"), &msg);
        }
    }

    /// Every strict prefix of a valid body fails to decode — cleanly.
    /// (The codec demands exact consumption, so truncation can never
    /// silently produce a different message.)
    #[test]
    fn truncated_bodies_error_cleanly(
        pick in 0u8..=255,
        a in any::<u64>(),
        b in any::<u64>(),
        s in proptest::collection::vec(any::<u8>(), 0..32),
        cut in any::<u64>(),
    ) {
        let msg = build_msg(pick, a, b, a ^ b, a.wrapping_add(b), &s);
        let frame = msg.encode_frame();
        let body = &frame[FRAME_HEADER_BYTES..];
        let cut = (cut % body.len() as u64) as usize; // 0..len-1: strictly shorter
        prop_assert!(Msg::decode_body(&body[..cut]).is_err());
        // Trailing garbage is rejected just as firmly.
        let mut long = body.to_vec();
        long.push(0x5A);
        prop_assert!(Msg::decode_body(&long).is_err());
    }

    /// A truncated length prefix waits for more bytes; an oversized one
    /// errors without buffering the declared amount.
    #[test]
    fn length_prefix_abuse_is_contained(
        declared in any::<u32>(),
        partial in 0usize..4,
    ) {
        let mut dec = FrameDecoder::new();
        dec.push(&declared.to_le_bytes()[..partial]);
        prop_assert_eq!(dec.next_body().expect("incomplete header is not an error"), None);

        let mut dec = FrameDecoder::new();
        dec.push(&declared.to_le_bytes());
        match dec.next_body() {
            Ok(None) => prop_assert!(
                declared as usize <= MAX_FRAME_BYTES && declared > 0,
                "waiting is only legal for plausible sizes, declared {declared}"
            ),
            Ok(Some(_)) => prop_assert!(false, "no body bytes were pushed"),
            Err(WireError::EmptyFrame) => prop_assert_eq!(declared, 0),
            Err(WireError::Oversized { declared: d }) => {
                prop_assert_eq!(d, declared as usize);
                prop_assert!(d > MAX_FRAME_BYTES);
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    /// Every version but the current one (older layouts included) and
    /// unknown message types are rejected by name.
    #[test]
    fn unknown_version_and_type_reject(
        a in any::<u64>(),
        bad_version in any::<u8>(),
        bad_tag in 14u8..=255,
    ) {
        prop_assume!(bad_version != PROTOCOL_VERSION);
        let frame = Msg::Seal { at_ns: a }.encode_frame();
        let mut body = frame[FRAME_HEADER_BYTES..].to_vec();
        body[0] = bad_version;
        prop_assert_eq!(
            Msg::decode_body(&body),
            Err(WireError::UnknownVersion { version: bad_version })
        );
        let mut body = frame[FRAME_HEADER_BYTES..].to_vec();
        body[1] = bad_tag;
        prop_assert_eq!(Msg::decode_body(&body), Err(WireError::UnknownType { tag: bad_tag }));
    }

    /// Arbitrary garbage never panics the codec — body decode or
    /// streaming splitter alike.
    #[test]
    fn random_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = Msg::decode_body(&bytes);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        // Drain until the decoder wants more bytes or declares the
        // stream corrupt; each popped body goes through full decode.
        while let Ok(Some(body)) = dec.next_body() {
            let _ = Msg::decode_body(&body);
        }
    }

    /// The ingress journal round-trips arbitrary event streams and
    /// rejects truncation cleanly.
    #[test]
    fn journal_roundtrips_and_rejects_truncation(
        picks in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u64>(), any::<u64>(),
             proptest::collection::vec(any::<u8>(), 0..8)),
            0..24
        ),
        cut in any::<u64>(),
    ) {
        let events: Vec<IngressEvent> = picks
            .iter()
            .map(|(pick, conn, a, b, s)| match pick % 4 {
                0 => IngressEvent::Open {
                    conn: *conn,
                    req: *a,
                    at_ns: *b,
                    duration_ns: a ^ b,
                    app_code: ascii(s),
                },
                1 => IngressEvent::Poll { conn: *conn, at_ns: *a, session: *b },
                2 => IngressEvent::Snapshot { conn: *conn, at_ns: *a },
                _ => IngressEvent::Seal { conn: *conn, at_ns: *a },
            })
            .collect();
        let mut w = JournalWriter::new();
        for ev in &events {
            w.record(ev);
        }
        let bytes = w.into_bytes();
        prop_assert_eq!(&decode_journal(&bytes).expect("journal decodes"), &events);
        if !events.is_empty() {
            // Tear the tail anywhere past the magic: recovery must hand
            // back a clean prefix of the events, account for every byte,
            // and strict decode must reject exactly the torn cuts.
            let cut = 8 + (cut % (bytes.len() as u64 - 8)) as usize;
            let rec = JournalReader::recover(&bytes[..cut]).expect("torn tails are recoverable");
            let got: Vec<&IngressEvent> = rec.entries.iter().map(|e| &e.event).collect();
            prop_assert!(got.len() <= events.len());
            for (g, w) in got.iter().zip(events.iter()) {
                prop_assert_eq!(*g, w);
            }
            prop_assert_eq!(rec.clean_len + rec.truncated_bytes, cut);
            prop_assert_eq!(decode_journal(&bytes[..cut]).is_err(), rec.truncated_bytes > 0);
        }
        prop_assert!(decode_journal(b"BOGUS123").is_err());
        prop_assert!(JournalReader::recover(b"BOGUS123").is_err());
    }
}
