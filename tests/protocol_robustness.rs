//! Property-based robustness tests for the fleet protocol's decoder: no
//! input — truncated, garbage, deeply nested or oversized — may panic or
//! overflow the stack, and every
//! malformed frame must surface as a *typed* error
//! ([`std::io::ErrorKind::InvalidData`]) the connection-level recovery
//! paths know how to absorb.  Plus deterministic unit coverage for the
//! bounded line reader the server's patient read loop is built on.

use std::collections::VecDeque;
use std::io::{BufReader, Cursor, ErrorKind, Read};

use proptest::prelude::*;

use fabric_power_sweep::protocol::{
    read_line_bounded, read_message, read_message_with_limit, write_message, Request, Response,
    PROTOCOL_VERSION,
};

/// Deterministic pseudo-random bytes — the vendored proptest stub has no
/// `Vec<u8>` strategy, so garbage is derived from a sampled seed instead.
fn bytes_from_seed(mut seed: u64, len: usize) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..len {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        bytes.push((seed >> 33) as u8);
    }
    bytes
}

/// Decodes `bytes` as one `Request` frame and checks the decoder's
/// contract: it returns (never panics), and failure is `InvalidData`.
fn decode_is_total(bytes: &[u8]) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut reader = BufReader::new(Cursor::new(bytes));
    match read_message::<Request>(&mut reader) {
        Ok(_) => Ok(()), // clean close or (astronomically unlikely) a valid frame
        Err(e) => {
            prop_assert_eq!(e.kind(), ErrorKind::InvalidData);
            Ok(())
        }
    }
}

/// A newline-terminated frame of `depth` nested openers, each `[` or
/// `{"k":` as picked by the bits of `seed`, optionally closed again.
fn nested_frame(seed: u64, depth: usize, closed: bool) -> Vec<u8> {
    let mut open = String::new();
    let mut close = String::new();
    for level in 0..depth {
        if (seed >> (level % 64)) & 1 == 0 {
            open.push('[');
            close.insert(0, ']');
        } else {
            open.push_str(r#"{"k":"#);
            close.insert(0, '}');
        }
    }
    let mut frame = open;
    if closed {
        frame.push('0');
        frame.push_str(&close);
    }
    frame.push('\n');
    frame.into_bytes()
}

/// A round-trippable request with sampled payload fields.
fn sample_request(protocol: u32, worker: u64, lease: u64, shard: usize) -> Request {
    Request::Heartbeat {
        worker,
        lease,
        shard,
        cells_done: protocol as u64,
        cells_total: protocol as u64 + 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoder_never_panics_on_garbage(seed in any::<u64>(), len in 0_usize..128) {
        decode_is_total(&bytes_from_seed(seed, len))?;
    }

    #[test]
    fn decoder_never_panics_on_newline_terminated_garbage(
        seed in any::<u64>(),
        len in 1_usize..128,
    ) {
        let mut bytes = bytes_from_seed(seed, len);
        bytes.push(b'\n');
        decode_is_total(&bytes)?;
    }

    #[test]
    fn truncated_frames_are_typed_errors_never_panics(
        worker in any::<u64>(),
        lease in any::<u64>(),
        shard in 0_usize..1024,
        cut_per_mille in 0_u64..1000,
    ) {
        let request = sample_request(PROTOCOL_VERSION, worker, lease, shard);
        let mut frame = Vec::new();
        write_message(&mut frame, &request).expect("serialize");
        // Cut strictly inside the frame (the final byte is the terminator,
        // so every cut point yields an incomplete frame).
        let cut = (frame.len() - 1) * cut_per_mille as usize / 1000;
        let mut reader = BufReader::new(Cursor::new(&frame[..cut]));
        match read_message::<Request>(&mut reader) {
            Ok(None) => prop_assert_eq!(cut, 0),
            Ok(Some(_)) => prop_assert!(false, "a strict prefix must never decode"),
            Err(e) => prop_assert_eq!(e.kind(), ErrorKind::InvalidData),
        }
    }

    #[test]
    fn intact_frames_round_trip(
        worker in any::<u64>(),
        lease in any::<u64>(),
        shard in 0_usize..1024,
    ) {
        let request = sample_request(PROTOCOL_VERSION, worker, lease, shard);
        let mut frame = Vec::new();
        write_message(&mut frame, &request).expect("serialize");
        let mut reader = BufReader::new(Cursor::new(frame));
        let decoded = read_message::<Request>(&mut reader)
            .expect("decode")
            .expect("one frame");
        match (request, decoded) {
            (
                Request::Heartbeat { worker: a, lease: b, shard: c, .. },
                Request::Heartbeat { worker: x, lease: y, shard: z, .. },
            ) => {
                prop_assert_eq!(a, x);
                prop_assert_eq!(b, y);
                prop_assert_eq!(c, z);
            }
            _ => prop_assert!(false, "variant changed in flight"),
        }
    }

    #[test]
    fn deeply_nested_frames_are_typed_errors_never_stack_overflows(
        seed in any::<u64>(),
        depth in 100_usize..20_000,
        closed in any::<bool>(),
    ) {
        decode_is_total(&nested_frame(seed, depth, closed))?;
    }

    #[test]
    fn oversized_frames_are_rejected_not_buffered(
        cap in 8_usize..512,
        extra in 1_usize..512,
    ) {
        // A line `cap + extra` long against a `cap` limit: always refused,
        // whatever the sizes.
        let mut bytes = vec![b'x'; cap + extra];
        bytes.push(b'\n');
        let mut reader = BufReader::new(Cursor::new(bytes));
        let err = read_message_with_limit::<Request>(&mut reader, cap)
            .expect_err("oversized frame must be refused");
        prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
        prop_assert!(err.to_string().contains("exceeds"), "{}", err);
    }
}

#[test]
fn oversized_rejection_stops_reading_an_unbounded_stream() {
    // `io::repeat` never ends: if the cap did not bound buffering this
    // would read (and allocate) forever.  Returning at all is the proof.
    let mut reader = BufReader::new(std::io::repeat(b'{').take(u64::MAX));
    let err = read_message_with_limit::<Response>(&mut reader, 4096)
        .expect_err("an endless unterminated frame must be refused");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}

#[test]
fn twenty_thousand_open_brackets_are_refused_before_the_handshake() {
    // A 20 KB frame of `[`, far inside the frame bound, once overflowed the
    // recursive parser's stack and aborted the process.  Both directions of
    // the protocol must refuse it with the ordinary typed error.
    let mut frame = vec![b'['; 20_000];
    frame.push(b'\n');
    let err = read_message::<Request>(&mut BufReader::new(Cursor::new(&frame)))
        .expect_err("a 20 000-deep request must not decode");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("recursion limit"), "{err}");
    let err = read_message::<Response>(&mut BufReader::new(Cursor::new(&frame)))
        .expect_err("a 20 000-deep response must not decode");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}

#[test]
fn frame_exactly_at_the_cap_is_accepted() {
    // The cap counts content, not the terminator: a Goodbye frame read
    // with a cap of exactly its own length still decodes.
    let mut frame = Vec::new();
    write_message(&mut frame, &Request::Goodbye { worker: 7 }).expect("serialize");
    let content_len = frame.len() - 1;
    let mut reader = BufReader::new(Cursor::new(&frame));
    let decoded = read_message_with_limit::<Request>(&mut reader, content_len)
        .expect("cap == content length decodes")
        .expect("one frame");
    assert!(matches!(decoded, Request::Goodbye { worker: 7 }));
    // One byte less and the same frame is oversized.
    let mut reader = BufReader::new(Cursor::new(&frame));
    let err = read_message_with_limit::<Request>(&mut reader, content_len - 1)
        .expect_err("cap < content length is oversized");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}

/// A reader that yields scripted chunks, including mid-line errors — the
/// shape of a non-blocking socket going quiet partway through a frame.
struct ChunkedReader {
    chunks: VecDeque<Result<Vec<u8>, ErrorKind>>,
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.chunks.pop_front() {
            Some(Ok(bytes)) => {
                assert!(buf.len() >= bytes.len(), "test chunks fit the buffer");
                buf[..bytes.len()].copy_from_slice(&bytes);
                Ok(bytes.len())
            }
            Some(Err(kind)) => Err(std::io::Error::new(kind, "scripted error")),
            None => Ok(0),
        }
    }
}

#[test]
fn partial_line_survives_would_block_for_patient_callers() {
    // The server's poll loop relies on this: a frame split by a read
    // timeout is reassembled across calls, never dropped.
    let mut reader = BufReader::new(ChunkedReader {
        chunks: VecDeque::from([
            Ok(b"par".to_vec()),
            Err(ErrorKind::WouldBlock),
            Ok(b"tial\n".to_vec()),
        ]),
    });
    let mut line = String::new();
    let err = read_line_bounded(&mut reader, &mut line, 4096)
        .expect_err("the scripted WouldBlock surfaces");
    assert_eq!(err.kind(), ErrorKind::WouldBlock);
    assert_eq!(line, "par", "bytes before the error are retained");
    let read = read_line_bounded(&mut reader, &mut line, 4096).expect("retry completes the line");
    assert_eq!(read, "partial\n".len());
    assert_eq!(line, "partial\n");
}

#[test]
fn eof_mid_line_returns_the_partial_line() {
    let mut reader = BufReader::new(Cursor::new(b"no terminator".to_vec()));
    let mut line = String::new();
    let read = read_line_bounded(&mut reader, &mut line, 4096).expect("EOF is not an error");
    assert_eq!(read, line.len());
    assert_eq!(line, "no terminator");
    // The protocol layer treats it as a mid-message close, not a frame:
    // decoding the same bytes is a typed error.
    let mut reader = BufReader::new(Cursor::new(b"no terminator".to_vec()));
    assert!(read_message::<Request>(&mut reader).is_err());
}

#[test]
fn invalid_utf8_is_a_typed_error() {
    let mut reader = BufReader::new(Cursor::new(vec![0xff, 0xfe, 0xfd, b'\n']));
    let err = read_message::<Request>(&mut reader).expect_err("invalid UTF-8 must not decode");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}

#[test]
fn the_injected_garbage_frame_is_undecodable_by_design() {
    // The fault layer's garbage frame must land in the same typed-error
    // recovery path as real corruption on both sides of the protocol.
    let garbage = "\u{fffd}garbage-frame\u{fffd}\n";
    let mut reader = BufReader::new(Cursor::new(garbage.as_bytes().to_vec()));
    let err = read_message::<Response>(&mut reader).expect_err("garbage frame must not decode");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}
