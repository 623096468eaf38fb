//! Wire protocol: length-prefixed JSON frames and the request/response
//! schema.
//!
//! ## Frame format
//!
//! Every message is one frame: a 4-byte **big-endian** `u32` payload
//! length followed by exactly that many bytes of UTF-8 JSON. Frames
//! larger than [`MAX_FRAME_BYTES`] are rejected *before* any allocation
//! (the reader returns [`FrameError::TooLarge`] and the connection is
//! dropped); a stream that ends mid-frame is a [`FrameError::Truncated`]
//! error, never a silent partial message.
//!
//! ## Schema
//!
//! The payload is one [`Request`] or [`Response`] in the vendored
//! serde's external-enum representation (unit variants as `"Name"`,
//! data variants as `{"Name": {..fields..}}`). The mapping payload
//! reuses [`topomap_lb::LbDatabase`] verbatim, so a dumped Charm++-style
//! LB scenario (`topomap-lb::dump`) can be submitted to the server
//! without translation.
//!
//! ## Error taxonomy
//!
//! Failures travel as `Response::Error { kind, .. }` with a closed
//! [`ErrorKind`] enum — clients can branch on the kind without parsing
//! prose. `Busy` is deliberately *not* an error: it is the backpressure
//! signal (the queue bound was hit; retry later), carried as its own
//! variant so load-shedding is distinguishable from failure.

use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use topomap_lb::LbDatabase;

/// Protocol version, echoed in `Pong`. Bump on breaking schema changes.
pub const PROTO_VERSION: u32 = 1;

/// Hard ceiling on one frame's payload (32 MiB). Large enough for a
/// hundreds-of-thousands-record LB database, small enough that a
/// corrupt or hostile length prefix cannot balloon server memory.
pub const MAX_FRAME_BYTES: u32 = 32 * 1024 * 1024;

/// Frame-layer failures.
#[derive(Debug)]
pub enum FrameError {
    Io(std::io::Error),
    /// Declared length exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        declared: u32,
        max: u32,
    },
    /// The stream ended before the declared payload arrived.
    Truncated {
        expected: usize,
        got: usize,
    },
    /// The payload was not valid JSON for the expected type.
    Decode(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte limit")
            }
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            FrameError::Decode(msg) => write!(f, "frame decode error: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame (length prefix + payload) and flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::TooLarge {
        declared: u32::MAX,
        max: MAX_FRAME_BYTES,
    })?;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge {
            declared: len,
            max: MAX_FRAME_BYTES,
        });
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Fill `buf` unless the stream ends first; returns the bytes read.
/// `Interrupted` is retried, as `read_exact` does.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Read one frame's payload. `Ok(None)` is a clean end-of-stream (the
/// peer closed between frames); EOF anywhere else is `Truncated`.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    match read_full(r, &mut len_buf)? {
        0 => return Ok(None),
        4 => {}
        got => return Err(FrameError::Truncated { expected: 4, got }),
    }
    let declared = u32::from_be_bytes(len_buf);
    if declared > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge {
            declared,
            max: MAX_FRAME_BYTES,
        });
    }
    let expected = declared as usize;
    let mut payload = vec![0u8; expected];
    let got = read_full(r, &mut payload)?;
    if got < expected {
        return Err(FrameError::Truncated { expected, got });
    }
    Ok(Some(payload))
}

/// One mapping job: where to map (`topology`, optional hierarchy), how
/// (`mapper`, `seed`), the workload itself (an [`LbDatabase`], the same
/// type `topomap-lb` dumps), and an optional deadline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapRequest {
    /// Client-chosen request id, echoed on every response to this job.
    pub id: u64,
    /// Topology spec, e.g. `torus:8x8` (see `topomap_serve::specs`).
    pub topology: String,
    /// Mapper spec, e.g. `topolb` / `refine` / `hier`.
    pub mapper: String,
    /// Warm-start spec for mapper `refine`: refine this mapper's output
    /// instead of the default cold TopoLB run (e.g. `sfc` / `rcb`).
    /// Absent on the wire = `None` (older clients stay compatible).
    pub init: Option<String>,
    /// Opt into the fast lane: when the estimated cost of the requested
    /// mapper would overrun the remaining deadline budget, the server
    /// swaps in the near-linear Hilbert SFC mapper instead of letting
    /// the job die on the deadline. Absent on the wire = off.
    pub fast_lane: Option<bool>,
    /// Hierarchy arity spec (`4:4:4`) — selects the hierarchical mapper.
    pub hierarchy: Option<String>,
    /// Per-level distance spec for the hierarchy (`1:10:100`).
    pub hier_dist: Option<String>,
    /// Seed for the randomized mappers.
    pub seed: u64,
    /// Milliseconds (from enqueue) after which the server abandons the
    /// job and answers `Error { kind: Deadline }`. `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// The measured workload (loads + communication records).
    pub database: LbDatabase,
}

/// Client → server messages.
///
/// `Map` dwarfs the control variants by design — the request body *is*
/// the workload — and boxing it would push the indirection into every
/// encode/decode site for no wire-level gain.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness + version handshake.
    Ping,
    /// Snapshot of server counters and cache statistics.
    Stats,
    /// Begin a graceful drain: in-flight jobs finish, new ones are
    /// refused, the server exits. Acknowledged with `ShutdownAck`.
    Shutdown,
    /// One mapping job.
    Map { req: MapRequest },
}

/// The structured failure taxonomy carried by `Response::Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The frame decoded but was not a valid `Request`.
    BadRequest,
    /// A topology/hierarchy/mapper spec failed to parse or the specs
    /// are mutually inconsistent.
    BadSpec,
    /// The workload cannot be mapped onto the machine (e.g. more tasks
    /// than processors — pre-partition first).
    BadWorkload,
    /// The job's deadline passed before a worker could finish it.
    Deadline,
    /// The server is draining; no new jobs are accepted.
    ShuttingDown,
    /// A server-side invariant failure (worker panic, poisoned state).
    Internal,
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::BadSpec => "bad-spec",
            ErrorKind::BadWorkload => "bad-workload",
            ErrorKind::Deadline => "deadline",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::Internal => "internal",
        };
        write!(f, "{s}")
    }
}

/// Server counters, returned by `Stats` (cache counters come from the
/// LRU caches; the rest are lifetime totals since the server started).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Map requests received (all outcomes).
    pub requests: u64,
    /// Map requests answered `MapOk`.
    pub ok: u64,
    /// Map requests shed with `Busy`.
    pub busy: u64,
    /// Map requests answered `Error` (any kind).
    pub errors: u64,
    /// Distance-oracle cache hits / misses.
    pub oracle_hits: u64,
    pub oracle_misses: u64,
    /// Hierarchy-factorization cache hits / misses.
    pub hier_hits: u64,
    pub hier_misses: u64,
}

impl ServerStats {
    /// Distance-oracle hit rate in [0, 1]; 0 when no lookups happened.
    pub fn oracle_hit_rate(&self) -> f64 {
        let total = self.oracle_hits + self.oracle_misses;
        if total == 0 {
            0.0
        } else {
            self.oracle_hits as f64 / total as f64
        }
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to `Ping`.
    Pong { version: u32, server: String },
    /// Answer to `Stats`.
    StatsOk { stats: ServerStats },
    /// Answer to `Shutdown` (sent before the drain completes).
    ShutdownAck,
    /// A completed mapping job.
    MapOk {
        id: u64,
        /// Machine size the mapping indexes into.
        num_procs: usize,
        /// Task → processor assignment.
        proc_of_task: Vec<usize>,
        /// Hop-bytes of the returned mapping.
        hop_bytes: f64,
        /// Hop-bytes normalized by total bytes.
        hops_per_byte: f64,
        /// Wall-clock of the mapping computation (not queue wait), µs.
        elapsed_us: u64,
        /// Whether the distance oracle was served from cache.
        oracle_cache_hit: bool,
        /// Whether the hierarchy factorization was served from cache
        /// (`None` for non-hierarchical mappers).
        hier_cache_hit: Option<bool>,
        /// Whether the fast lane replaced the requested mapper with the
        /// near-linear SFC mapper to meet the deadline (`None` when the
        /// job did not opt in via [`MapRequest::fast_lane`]).
        fast_lane_used: Option<bool>,
    },
    /// Backpressure: the request queue is at its bound. The job was NOT
    /// enqueued; retry later.
    Busy { id: u64, queue_cap: usize },
    /// A failed job (see [`ErrorKind`]). `id` is 0 when the failure
    /// happened before a request id could be decoded.
    Error {
        id: u64,
        kind: ErrorKind,
        message: String,
    },
}

/// Encode a request as a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    serde_json::to_string(req)
        .expect("request serializes")
        .into_bytes()
}

/// Encode a response as a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    serde_json::to_string(resp)
        .expect("response serializes")
        .into_bytes()
}

/// Decode a frame payload as a request.
pub fn decode_request(payload: &[u8]) -> Result<Request, FrameError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| FrameError::Decode(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| FrameError::Decode(e.to_string()))
}

/// Decode a frame payload as a response.
pub fn decode_response(payload: &[u8]) -> Result<Response, FrameError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| FrameError::Decode(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| FrameError::Decode(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip_req(req: &Request) -> Request {
        let mut buf = Vec::new();
        write_frame(&mut buf, &encode_request(req)).unwrap();
        let payload = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        decode_request(&payload).unwrap()
    }

    #[test]
    fn ping_roundtrip() {
        assert_eq!(roundtrip_req(&Request::Ping), Request::Ping);
        assert_eq!(roundtrip_req(&Request::Stats), Request::Stats);
        assert_eq!(roundtrip_req(&Request::Shutdown), Request::Shutdown);
    }

    #[test]
    fn map_request_roundtrip() {
        let mut db = LbDatabase::new(3);
        db.record_load(0, 1.25);
        db.record_comm(0, 2, 512.0, 4);
        let req = Request::Map {
            req: MapRequest {
                id: 42,
                topology: "torus:2x2".into(),
                mapper: "topolb".into(),
                init: None,
                fast_lane: Some(true),
                hierarchy: None,
                hier_dist: None,
                seed: 7,
                deadline_ms: Some(250),
                database: db,
            },
        };
        assert_eq!(roundtrip_req(&req), req);
    }

    #[test]
    fn legacy_map_request_without_new_fields_decodes() {
        // A request from a pre-fast-lane client (no init/fast_lane keys)
        // must still decode, with both as None.
        let legacy = r#"{"Map":{"req":{"id":1,"topology":"torus:2x2",
            "mapper":"topolb","hierarchy":null,"hier_dist":null,"seed":0,
            "deadline_ms":null,
            "database":{"loads":[1.0,1.0],"comm":[]}}}}"#;
        match decode_request(legacy.as_bytes()).unwrap() {
            Request::Map { req } => {
                assert_eq!(req.init, None);
                assert_eq!(req.fast_lane, None);
            }
            other => panic!("expected Map, got {other:?}"),
        }
    }

    #[test]
    fn clean_eof_between_frames_is_none() {
        let mut c = Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut c).unwrap().is_none());
    }

    #[test]
    fn truncated_prefix_rejected() {
        let mut c = Cursor::new(vec![0u8, 0]);
        match read_frame(&mut c) {
            Err(FrameError::Truncated {
                expected: 4,
                got: 2,
            }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        match read_frame(&mut Cursor::new(buf)) {
            Err(FrameError::Truncated {
                expected: 100,
                got: 3,
            }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    /// Yields `Interrupted` once, then one byte per call.
    struct Trickle {
        bytes: std::vec::IntoIter<u8>,
        interrupted: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !std::mem::replace(&mut self.interrupted, true) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            Ok(self.bytes.next().map_or(0, |b| {
                buf[0] = b;
                1
            }))
        }
    }

    #[test]
    fn interrupted_and_byte_at_a_time_reads_still_frame() {
        let payload = encode_request(&Request::Ping);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &payload).unwrap();
        let mut r = Trickle {
            bytes: bytes.into_iter(),
            interrupted: false,
        };
        assert_eq!(read_frame(&mut r).unwrap(), Some(payload));
        assert!(read_frame(&mut r).unwrap().is_none(), "then a clean EOF");
    }

    /// Accepts one byte per `write` call, after one `Interrupted`.
    #[derive(Default)]
    struct TrickleWriter {
        bytes: Vec<u8>,
        calls: usize,
        interrupted: bool,
    }

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if !std::mem::replace(&mut self.interrupted, true) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(1);
            self.bytes.extend_from_slice(&buf[..n]);
            self.calls += 1;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_and_interrupted_writes_still_deliver_the_exact_frame() {
        for payload in [&b"x"[..], br#"{"Map":"not really"}"#] {
            let mut w = TrickleWriter::default();
            write_frame(&mut w, payload).unwrap();
            let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
            frame.extend_from_slice(payload);
            assert_eq!(w.bytes, frame);
            assert_eq!(w.calls, frame.len(), "one byte per call");
        }
    }

    #[test]
    fn frames_round_trip_at_the_size_edges() {
        for len in [0, 1, 3, 4, 5, 65_535, 65_536, MAX_FRAME_BYTES as usize] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            assert_eq!(wire.len(), 4 + len);
            let mut r = Cursor::new(wire);
            assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&payload[..]));
            assert!(read_frame(&mut r).unwrap().is_none());
        }
    }

    /// The parser's string scan is linear in the payload. The scan it
    /// replaced re-validated the rest of the payload once per character:
    /// quadratic, about 20 s in release for this request.
    #[test]
    fn two_mebibyte_request_decodes_in_linear_time() {
        let n = 16_384;
        let mut db = LbDatabase::new(n);
        db.loads
            .iter_mut()
            .enumerate()
            .for_each(|(i, l)| *l = 1.0 + i as f64 / 7.0);
        db.comm = (0..2 * n)
            .map(|i| topomap_lb::CommRecord {
                from: i % n,
                to: (i * 31 + 1) % n,
                bytes: 1024.0 + i as f64 / 3.0,
                messages: i as u64,
            })
            .collect();
        db.coords = Some(
            (0..n)
                .map(|i| [i as f64 / 3.0, 0.25, -(i as f64)])
                .collect(),
        );
        let req = Request::Map {
            req: MapRequest {
                id: 1,
                topology: "torus:128x128".into(),
                mapper: "topolb".into(),
                init: None,
                fast_lane: None,
                hierarchy: None,
                hier_dist: None,
                seed: 1,
                deadline_ms: None,
                database: db,
            },
        };
        let payload = encode_request(&req);
        assert!(
            payload.len() >= 2 << 20,
            "payload is {} bytes",
            payload.len()
        );
        let started = std::time::Instant::now();
        let decoded = decode_request(&payload).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(decoded, req);
        assert!(elapsed.as_secs_f64() < 2.0, "decode took {elapsed:?}");
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        match read_frame(&mut Cursor::new(buf)) {
            Err(FrameError::TooLarge { declared, max }) => {
                assert_eq!(declared, MAX_FRAME_BYTES + 1);
                assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let err = write_frame(&mut Vec::new(), &vec![0u8; MAX_FRAME_BYTES as usize + 1]);
        assert!(matches!(err, Err(FrameError::TooLarge { .. })));
    }

    #[test]
    fn garbage_payload_is_decode_error() {
        assert!(matches!(
            decode_request(b"not json"),
            Err(FrameError::Decode(_))
        ));
        assert!(matches!(
            decode_response(&[0xff, 0xfe]),
            Err(FrameError::Decode(_))
        ));
    }
}
