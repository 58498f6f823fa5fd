//! The versioned wire codec of the ORWL lock protocol.
//!
//! Every message travels as one frame:
//!
//! ```text
//! | magic "ORWL" (4) | version u16 LE (2) | kind u8 (1) | len u32 LE (4) | payload (len) |
//! ```
//!
//! The framing is transport-agnostic — the backend speaks it over
//! Unix-domain sockets today, and the same length-prefixed frames work
//! over TCP for inter-host deployment later.  Payload fields are
//! little-endian and fixed-layout per kind; variable-length tails
//! (assignment/metrics JSON, grant data) occupy the remainder of the
//! frame, so no field needs its own length prefix.
//!
//! The lock protocol proper is three kinds: [`Message::LockRequest`]
//! enters the owner's FIFO for a location, [`Message::LockGrant`] answers
//! once the FIFO grants the section *and carries the location buffer as
//! its payload*, and [`Message::Release`] closes the section.  The
//! remaining kinds run the coordinator↔worker lifecycle (hello,
//! assignment, ready/start barrier, metrics/done, shutdown) and error
//! reporting.
//!
//! [`FrameReader`] decodes incrementally: push whatever bytes arrived,
//! take out whole messages — partial headers, split payloads and multiple
//! frames per read all work, which the proptests pin.

use std::fmt;

/// Frame magic: `"ORWL"`.
pub const MAGIC: [u8; 4] = *b"ORWL";

/// Protocol version carried in every frame header.
///
/// v2 added a post-run telemetry upload (kind 11); v3 added the
/// live-streaming kinds [`Message::Heartbeat`] and
/// [`Message::TelemetryDelta`]; v4 added the recovery kinds
/// [`Message::Quiesce`], [`Message::QuiesceAck`],
/// [`Message::ReAssignment`] and [`Message::Resume`].  v5 retires kind
/// 11, `TelemetryUpload`: telemetry travels only as
/// [`Message::TelemetryDelta`] frames, the last one sent after
/// `Shutdown`, and a kind-11 frame is [`WireError::UnknownKind`] under
/// every version.  Every other older frame is still decoded byte-for-byte
/// (released kinds' layouts are frozen), so a v5 peer accepts any version
/// in `MIN_VERSION..=VERSION`.
pub const VERSION: u16 = 5;

/// Oldest protocol version this codec still decodes.
pub const MIN_VERSION: u16 = 1;

/// Frame header length in bytes (magic + version + kind + payload len).
pub const HEADER_LEN: usize = 11;

/// Hard cap on a location buffer carried by a [`Message::LockGrant`].
pub const MAX_DATA: usize = 1 << 20;

/// Hard cap on most frame payloads: the largest grant plus its fixed
/// fields, with headroom for the JSON-bearing kinds.
pub const MAX_PAYLOAD: usize = MAX_DATA + 64;

/// Hard cap on an encoded delta carried by a [`Message::TelemetryDelta`]
/// — event rings are bigger than any single location buffer, so this kind
/// gets its own budget.  Workers cap each delta's events to stay under it.
pub const MAX_DELTA: usize = 8 << 20;

/// Access mode of a remote lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireAccess {
    /// Shared read section.
    Read,
    /// Exclusive write section.
    Write,
}

impl WireAccess {
    fn code(self) -> u8 {
        match self {
            WireAccess::Read => 0,
            WireAccess::Write => 1,
        }
    }

    fn from_code(code: u8) -> Result<Self, WireError> {
        match code {
            0 => Ok(WireAccess::Read),
            1 => Ok(WireAccess::Write),
            other => Err(WireError::BadField { kind: KIND_LOCK_REQUEST, what: "access mode", got: other }),
        }
    }
}

const KIND_HELLO: u8 = 0;
const KIND_ASSIGNMENT: u8 = 1;
const KIND_READY: u8 = 2;
const KIND_START: u8 = 3;
const KIND_LOCK_REQUEST: u8 = 4;
const KIND_LOCK_GRANT: u8 = 5;
const KIND_RELEASE: u8 = 6;
const KIND_DONE: u8 = 7;
const KIND_METRICS: u8 = 8;
const KIND_ERROR: u8 = 9;
const KIND_SHUTDOWN: u8 = 10;
// Kind 11 (v2–v4) is retired in v5.
const KIND_HEARTBEAT: u8 = 12; // v3
const KIND_TELEMETRY_DELTA: u8 = 13; // v3
const KIND_QUIESCE: u8 = 14; // v4
const KIND_QUIESCE_ACK: u8 = 15; // v4
const KIND_REASSIGNMENT: u8 = 16; // v4
const KIND_RESUME: u8 = 17; // v4

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Worker → coordinator: first message on the control connection.
    Hello {
        /// The worker's node index.
        node: u32,
    },
    /// Coordinator → worker: the run assignment (an
    /// `orwl-proc-assign/v1` JSON document, see `assignment`).
    Assignment {
        /// The assignment document text.
        json: String,
    },
    /// Worker → coordinator: the worker's peer listener is bound.
    Ready {
        /// The worker's node index.
        node: u32,
    },
    /// Coordinator → worker: every listener is up; start executing.
    Start,
    /// Peer → owner: enter the FIFO of `location` (the location owned by
    /// the task with that global index).
    LockRequest {
        /// Requester-chosen id echoed by the grant.
        seq: u64,
        /// Global task index owning the location.
        location: u64,
        /// Requested section mode.
        access: WireAccess,
        /// Bytes of the location buffer the requester wants carried back.
        bytes: u64,
    },
    /// Owner → peer: the FIFO granted the section; `data` is the location
    /// buffer (truncated to the requested size, capped at [`MAX_DATA`]).
    LockGrant {
        /// Echo of the request's `seq`.
        seq: u64,
        /// Echo of the request's `location`.
        location: u64,
        /// The location buffer.
        data: Vec<u8>,
    },
    /// Peer → owner: close the granted section.
    Release {
        /// Echo of the grant's `seq`.
        seq: u64,
        /// Echo of the grant's `location`.
        location: u64,
    },
    /// Worker → coordinator: all local tasks finished.
    Done {
        /// The worker's node index.
        node: u32,
    },
    /// Worker → coordinator: transport and lock-wait accounting (an
    /// `orwl-proc-metrics/v1` JSON document), sent just before `Done`.
    Metrics {
        /// The worker's node index.
        node: u32,
        /// The metrics document text.
        json: String,
    },
    /// Either direction: a fatal failure, with a human-readable reason.
    Error {
        /// The failure description.
        message: String,
    },
    /// Coordinator → worker: every worker is done; exit now.
    Shutdown,
    /// Worker → coordinator (v3): a liveness beacon sent once per
    /// streaming interval while the run executes.  The coordinator's
    /// monitor flags a node as a straggler when beats stop arriving.
    Heartbeat {
        /// The worker's node index.
        node: u32,
        /// Monotonic beat counter, starting at 0 on `Start`.
        seq: u64,
    },
    /// Worker → coordinator (v3): one interval's drained telemetry — the
    /// `orwl-obs` binary
    /// [`TelemetryDelta`](orwl_obs::TelemetryDelta) encoding, opaque at
    /// this layer.  Sent alongside heartbeats while a live run executes,
    /// and once more after `Shutdown` (once every node's sections are
    /// served) on every observed run.
    TelemetryDelta {
        /// The worker's node index.
        node: u32,
        /// The encoded interval delta.
        delta: Vec<u8>,
    },
    /// Coordinator → worker (v4): a node died; park at the next
    /// iteration boundary and acknowledge.  `round` numbers the recovery
    /// episode so late acks can never be confused across episodes.
    Quiesce {
        /// Recovery episode counter, starting at 1 on the first loss.
        round: u32,
    },
    /// Worker → coordinator (v4): this worker is parked and will accept
    /// a re-assignment for the echoed `round`.
    QuiesceAck {
        /// The worker's node index.
        node: u32,
        /// Echo of the quiesce's `round`.
        round: u32,
    },
    /// Coordinator → worker (v4): the post-loss work distribution (an
    /// `orwl-proc-reassign/v1` JSON document, see `assignment`).
    ReAssignment {
        /// The re-assignment document text.
        json: String,
    },
    /// Coordinator → worker (v4): every survivor re-acknowledged ready;
    /// resume executing under the new distribution.
    Resume {
        /// Echo of the quiesce's `round`.
        round: u32,
    },
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::Hello { .. } => KIND_HELLO,
            Message::Assignment { .. } => KIND_ASSIGNMENT,
            Message::Ready { .. } => KIND_READY,
            Message::Start => KIND_START,
            Message::LockRequest { .. } => KIND_LOCK_REQUEST,
            Message::LockGrant { .. } => KIND_LOCK_GRANT,
            Message::Release { .. } => KIND_RELEASE,
            Message::Done { .. } => KIND_DONE,
            Message::Metrics { .. } => KIND_METRICS,
            Message::Error { .. } => KIND_ERROR,
            Message::Shutdown => KIND_SHUTDOWN,
            Message::Heartbeat { .. } => KIND_HEARTBEAT,
            Message::TelemetryDelta { .. } => KIND_TELEMETRY_DELTA,
            Message::Quiesce { .. } => KIND_QUIESCE,
            Message::QuiesceAck { .. } => KIND_QUIESCE_ACK,
            Message::ReAssignment { .. } => KIND_REASSIGNMENT,
            Message::Resume { .. } => KIND_RESUME,
        }
    }

    /// Stable name of the message kind (diagnostics).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::Assignment { .. } => "assignment",
            Message::Ready { .. } => "ready",
            Message::Start => "start",
            Message::LockRequest { .. } => "lock_request",
            Message::LockGrant { .. } => "lock_grant",
            Message::Release { .. } => "release",
            Message::Done { .. } => "done",
            Message::Metrics { .. } => "metrics",
            Message::Error { .. } => "error",
            Message::Shutdown => "shutdown",
            Message::Heartbeat { .. } => "heartbeat",
            Message::TelemetryDelta { .. } => "telemetry_delta",
            Message::Quiesce { .. } => "quiesce",
            Message::QuiesceAck { .. } => "quiesce_ack",
            Message::ReAssignment { .. } => "reassignment",
            Message::Resume { .. } => "resume",
        }
    }

    /// Payload budget of one kind; telemetry deltas get their own.
    fn max_payload_of(kind: u8) -> usize {
        match kind {
            KIND_TELEMETRY_DELTA => MAX_DELTA + 16,
            _ => MAX_PAYLOAD,
        }
    }

    /// Encodes the message as one complete frame.
    ///
    /// # Panics
    /// If the payload would exceed its kind's cap ([`MAX_PAYLOAD`], or
    /// [`MAX_DELTA`] + fixed fields for a telemetry delta); callers cap
    /// grant data at [`MAX_DATA`] and deltas at [`MAX_DELTA`].
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        self.encode_into(&mut frame);
        frame
    }

    /// Appends the message's frame to `out`, writing the payload in place
    /// (no intermediate buffer), so a batch of frames builds in one
    /// reused vector.
    ///
    /// # Panics
    /// As [`Message::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = begin_frame(out, self.kind());
        match self {
            Message::Hello { node } | Message::Ready { node } | Message::Done { node } => {
                out.extend_from_slice(&node.to_le_bytes());
            }
            Message::Assignment { json } | Message::Error { message: json } => {
                out.extend_from_slice(json.as_bytes());
            }
            Message::Start | Message::Shutdown => {}
            Message::LockRequest { seq, location, access, bytes } => {
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&location.to_le_bytes());
                out.push(access.code());
                out.extend_from_slice(&bytes.to_le_bytes());
            }
            Message::LockGrant { seq, location, data } => {
                assert!(data.len() <= MAX_DATA, "grant data over MAX_DATA");
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&location.to_le_bytes());
                out.extend_from_slice(data);
            }
            Message::Release { seq, location } => {
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&location.to_le_bytes());
            }
            Message::Metrics { node, json } => {
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(json.as_bytes());
            }
            Message::Heartbeat { node, seq } => {
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
            Message::TelemetryDelta { node, delta } => {
                assert!(delta.len() <= MAX_DELTA, "delta over MAX_DELTA");
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(delta);
            }
            Message::Quiesce { round } | Message::Resume { round } => {
                out.extend_from_slice(&round.to_le_bytes());
            }
            Message::QuiesceAck { node, round } => {
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&round.to_le_bytes());
            }
            Message::ReAssignment { json } => {
                out.extend_from_slice(json.as_bytes());
            }
        }
        end_frame(out, start, self.kind());
    }
}

/// Appends one [`Message::LockGrant`] frame whose `len`-byte location
/// buffer starts zeroed and is filled in place by `fill` — the owner's
/// grant path, byte-identical to encoding the message with the same data
/// but with no per-grant buffer.
///
/// # Panics
/// If `len` exceeds [`MAX_DATA`].
pub fn encode_grant_into(
    out: &mut Vec<u8>,
    seq: u64,
    location: u64,
    len: usize,
    fill: impl FnOnce(&mut [u8]),
) {
    assert!(len <= MAX_DATA, "grant data over MAX_DATA");
    let start = begin_frame(out, KIND_LOCK_GRANT);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&location.to_le_bytes());
    let data = out.len();
    out.resize(data + len, 0);
    fill(&mut out[data..]);
    end_frame(out, start, KIND_LOCK_GRANT);
}

/// Appends a frame header with a placeholder length; returns where the
/// frame starts.
fn begin_frame(out: &mut Vec<u8>, kind: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&[0; 4]);
    start
}

/// Patches the payload length of the frame begun at `start`.
fn end_frame(out: &mut [u8], start: usize, kind: u8) {
    let len = out.len() - start - HEADER_LEN;
    assert!(len <= Message::max_payload_of(kind), "payload over its kind's cap");
    out[start + 7..start + HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
}

/// A malformed frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with `"ORWL"`.
    BadMagic {
        /// The four bytes found instead.
        got: [u8; 4],
    },
    /// The frame carries an unsupported protocol version.
    BadVersion {
        /// The version found.
        got: u16,
    },
    /// The frame's kind byte names no message.
    UnknownKind(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge {
        /// The declared length.
        len: u32,
    },
    /// The payload is shorter than the kind's fixed fields.
    Truncated {
        /// The kind whose payload was short.
        kind: u8,
    },
    /// A JSON-bearing payload is not valid UTF-8.
    BadUtf8 {
        /// The kind whose payload was malformed.
        kind: u8,
    },
    /// A field value outside its domain.
    BadField {
        /// The kind carrying the field.
        kind: u8,
        /// Which field.
        what: &'static str,
        /// The raw value found.
        got: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { got } => write!(f, "bad frame magic {got:?}"),
            WireError::BadVersion { got } => {
                write!(f, "unsupported protocol version {got} (speaking {VERSION})")
            }
            WireError::UnknownKind(kind) => write!(f, "unknown message kind {kind}"),
            WireError::PayloadTooLarge { len } => {
                write!(f, "payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::Truncated { kind } => write!(f, "payload of kind {kind} is truncated"),
            WireError::BadUtf8 { kind } => write!(f, "payload of kind {kind} is not valid UTF-8"),
            WireError::BadField { kind, what, got } => {
                write!(f, "kind {kind}: bad {what} value {got}")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn take_u32(payload: &[u8], at: usize, kind: u8) -> Result<u32, WireError> {
    payload
        .get(at..at + 4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        .ok_or(WireError::Truncated { kind })
}

fn take_u64(payload: &[u8], at: usize, kind: u8) -> Result<u64, WireError> {
    payload
        .get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .ok_or(WireError::Truncated { kind })
}

fn take_string(payload: &[u8], at: usize, kind: u8) -> Result<String, WireError> {
    let tail = payload.get(at..).ok_or(WireError::Truncated { kind })?;
    String::from_utf8(tail.to_vec()).map_err(|_| WireError::BadUtf8 { kind })
}

fn decode_payload(version: u16, kind: u8, payload: &[u8]) -> Result<Message, WireError> {
    // Kinds introduced after v1 are unknown inside an older frame: a peer
    // must not emit them under a version that predates them, and decoding
    // them anyway would mask that bug.  The retired kind 11 falls through
    // to `UnknownKind` under every version.
    if kind >= KIND_HEARTBEAT && version < 3 {
        return Err(WireError::UnknownKind(kind));
    }
    if kind >= KIND_QUIESCE && version < 4 {
        return Err(WireError::UnknownKind(kind));
    }
    Ok(match kind {
        KIND_HELLO => Message::Hello { node: take_u32(payload, 0, kind)? },
        KIND_ASSIGNMENT => Message::Assignment { json: take_string(payload, 0, kind)? },
        KIND_READY => Message::Ready { node: take_u32(payload, 0, kind)? },
        KIND_START => Message::Start,
        KIND_LOCK_REQUEST => {
            let access_code = *payload.get(16).ok_or(WireError::Truncated { kind })?;
            Message::LockRequest {
                seq: take_u64(payload, 0, kind)?,
                location: take_u64(payload, 8, kind)?,
                access: WireAccess::from_code(access_code)?,
                bytes: take_u64(payload, 17, kind)?,
            }
        }
        KIND_LOCK_GRANT => Message::LockGrant {
            seq: take_u64(payload, 0, kind)?,
            location: take_u64(payload, 8, kind)?,
            data: payload.get(16..).ok_or(WireError::Truncated { kind })?.to_vec(),
        },
        KIND_RELEASE => {
            Message::Release { seq: take_u64(payload, 0, kind)?, location: take_u64(payload, 8, kind)? }
        }
        KIND_DONE => Message::Done { node: take_u32(payload, 0, kind)? },
        KIND_METRICS => {
            Message::Metrics { node: take_u32(payload, 0, kind)?, json: take_string(payload, 4, kind)? }
        }
        KIND_ERROR => Message::Error { message: take_string(payload, 0, kind)? },
        KIND_SHUTDOWN => Message::Shutdown,
        KIND_HEARTBEAT => {
            Message::Heartbeat { node: take_u32(payload, 0, kind)?, seq: take_u64(payload, 4, kind)? }
        }
        KIND_TELEMETRY_DELTA => Message::TelemetryDelta {
            node: take_u32(payload, 0, kind)?,
            delta: payload.get(4..).ok_or(WireError::Truncated { kind })?.to_vec(),
        },
        KIND_QUIESCE => Message::Quiesce { round: take_u32(payload, 0, kind)? },
        KIND_QUIESCE_ACK => {
            Message::QuiesceAck { node: take_u32(payload, 0, kind)?, round: take_u32(payload, 4, kind)? }
        }
        KIND_REASSIGNMENT => Message::ReAssignment { json: take_string(payload, 0, kind)? },
        KIND_RESUME => Message::Resume { round: take_u32(payload, 0, kind)? },
        other => return Err(WireError::UnknownKind(other)),
    })
}

/// Incremental frame decoder: push arriving bytes, take whole messages.
///
/// Survives partial headers, split payloads and several frames per push —
/// whatever chunking the socket produces.  Accepts frame versions in
/// `MIN_VERSION..=max_version` (the codec's own [`VERSION`] by default);
/// anything outside that window is a typed [`WireError::BadVersion`], so
/// an old peer fed a newer frame fails fast instead of mis-parsing it.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Start of the undecoded bytes: decoding advances it, and `push`
    /// compacts the consumed prefix away once, so decoding k frames from
    /// one push costs one memmove, not k.
    read: usize,
    max_version: u16,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader { buf: Vec::new(), read: 0, max_version: VERSION }
    }
}

impl FrameReader {
    /// An empty reader speaking the current [`VERSION`].
    #[must_use]
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// An empty reader that tops out at `max_version` — models (and
    /// tests) an older peer receiving newer frames.
    #[must_use]
    pub fn with_max_version(max_version: u16) -> Self {
        FrameReader { max_version, ..FrameReader::default() }
    }

    /// Appends bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.read);
        self.read = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Decodes the next complete message, if one is buffered.  A decode
    /// error is fatal for the stream: the reader makes no attempt to
    /// resynchronise.
    pub fn try_next(&mut self) -> Result<Option<Message>, WireError> {
        let buf = &self.buf[self.read..];
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic: [u8; 4] = buf[0..4].try_into().unwrap();
        if magic != MAGIC {
            return Err(WireError::BadMagic { got: magic });
        }
        let version = u16::from_le_bytes(buf[4..6].try_into().unwrap());
        if !(MIN_VERSION..=self.max_version).contains(&version) {
            return Err(WireError::BadVersion { got: version });
        }
        let kind = buf[6];
        let len = u32::from_le_bytes(buf[7..11].try_into().unwrap());
        if len as usize > Message::max_payload_of(kind) {
            return Err(WireError::PayloadTooLarge { len });
        }
        let total = HEADER_LEN + len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        let message = decode_payload(version, kind, &buf[HEADER_LEN..total])?;
        self.read += total;
        Ok(Some(message))
    }
}

/// Decodes exactly one message from a complete frame.
pub fn decode_frame(frame: &[u8]) -> Result<Message, WireError> {
    let mut reader = FrameReader::new();
    reader.push(frame);
    match reader.try_next()? {
        Some(message) if reader.pending() == 0 => Ok(message),
        Some(_) => Err(WireError::Truncated { kind: frame.get(6).copied().unwrap_or(0) }),
        None => Err(WireError::Truncated { kind: frame.get(6).copied().unwrap_or(0) }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(message: &Message) {
        let frame = message.encode();
        assert_eq!(&decode_frame(&frame).unwrap(), message, "frame {frame:?}");
    }

    #[test]
    fn every_kind_roundtrips() {
        for message in [
            Message::Hello { node: 0 },
            Message::Assignment { json: "{\"schema\":\"orwl-proc-assign/v1\"}".to_string() },
            Message::Ready { node: 7 },
            Message::Start,
            Message::LockRequest { seq: 1, location: 2, access: WireAccess::Read, bytes: 65536 },
            Message::LockRequest { seq: u64::MAX, location: 0, access: WireAccess::Write, bytes: 0 },
            Message::LockGrant { seq: 1, location: 2, data: vec![1, 2, 3] },
            Message::LockGrant { seq: 0, location: 0, data: Vec::new() },
            Message::Release { seq: 9, location: 4 },
            Message::Done { node: 3 },
            Message::Metrics { node: 3, json: "{\"node\":3}".to_string() },
            Message::Error { message: "worker 2 panicked".to_string() },
            Message::Shutdown,
            Message::Heartbeat { node: 2, seq: 0 },
            Message::Heartbeat { node: 0, seq: u64::MAX },
            Message::TelemetryDelta { node: 1, delta: vec![0x4f, 0x44, 0x4c, 0x54] },
            Message::TelemetryDelta { node: 3, delta: Vec::new() },
            Message::Quiesce { round: 1 },
            Message::Quiesce { round: u32::MAX },
            Message::QuiesceAck { node: 2, round: 1 },
            Message::ReAssignment { json: "{\"schema\":\"orwl-proc-reassign/v1\"}".to_string() },
            Message::Resume { round: 1 },
        ] {
            roundtrip(&message);
        }
    }

    /// Kind 11, the post-run upload of v2–v4, is retired: a frame of
    /// that kind is a typed failure under every version, v5 included.
    #[test]
    fn a_retired_upload_frame_is_a_typed_failure_at_every_version() {
        for version in MIN_VERSION..=VERSION {
            let mut frame = Vec::new();
            frame.extend_from_slice(&MAGIC);
            frame.extend_from_slice(&version.to_le_bytes());
            frame.push(11);
            frame.extend_from_slice(&6u32.to_le_bytes());
            frame.extend_from_slice(&[0x03, 0x00, 0x00, 0x00, 0xAA, 0xBB]); // node 3, two payload bytes
            assert_eq!(decode_frame(&frame), Err(WireError::UnknownKind(11)), "v{version}");
        }
    }

    /// The exact bytes of the v3 streaming frames, pinned the same way.
    #[test]
    fn v3_frame_bytes_are_pinned() {
        let beat = Message::Heartbeat { node: 2, seq: 7 }.encode();
        assert_eq!(
            beat,
            vec![
                b'O', b'R', b'W', b'L', // magic
                0x05, 0x00, // version 5
                0x0C, // kind 12
                0x0C, 0x00, 0x00, 0x00, // payload length 12
                0x02, 0x00, 0x00, 0x00, // node 2
                0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seq 7
            ]
        );

        let delta = Message::TelemetryDelta { node: 1, delta: vec![0xCC, 0xDD, 0xEE] }.encode();
        assert_eq!(
            delta,
            vec![
                b'O', b'R', b'W', b'L', // magic
                0x05, 0x00, // version 5
                0x0D, // kind 13
                0x07, 0x00, 0x00, 0x00, // payload length 7
                0x01, 0x00, 0x00, 0x00, // node 1
                0xCC, 0xDD, 0xEE, // delta
            ]
        );
    }

    /// The exact bytes of the v4 recovery frames, pinned the same way.
    #[test]
    fn v4_frame_bytes_are_pinned() {
        let quiesce = Message::Quiesce { round: 1 }.encode();
        assert_eq!(
            quiesce,
            vec![
                b'O', b'R', b'W', b'L', // magic
                0x05, 0x00, // version 5
                0x0E, // kind 14
                0x04, 0x00, 0x00, 0x00, // payload length 4
                0x01, 0x00, 0x00, 0x00, // round 1
            ]
        );

        let ack = Message::QuiesceAck { node: 3, round: 2 }.encode();
        assert_eq!(
            ack,
            vec![
                b'O', b'R', b'W', b'L', // magic
                0x05, 0x00, // version 5
                0x0F, // kind 15
                0x08, 0x00, 0x00, 0x00, // payload length 8
                0x03, 0x00, 0x00, 0x00, // node 3
                0x02, 0x00, 0x00, 0x00, // round 2
            ]
        );

        let resume = Message::Resume { round: 2 }.encode();
        assert_eq!(
            resume,
            vec![
                b'O', b'R', b'W', b'L', // magic
                0x05, 0x00, // version 5
                0x11, // kind 17
                0x04, 0x00, 0x00, 0x00, // payload length 4
                0x02, 0x00, 0x00, 0x00, // round 2
            ]
        );

        let reassign = Message::ReAssignment { json: "{}".to_string() }.encode();
        assert_eq!(
            reassign,
            vec![
                b'O', b'R', b'W', b'L', // magic
                0x05, 0x00, // version 5
                0x10, // kind 16
                0x02, 0x00, 0x00, 0x00, // payload length 2
                b'{', b'}', // document
            ]
        );
    }

    #[test]
    fn v1_frames_still_decode() {
        // A current codec must accept every v1 frame unchanged: patch the
        // version field of a freshly encoded v1-era kind down to 1.
        for message in [
            Message::Hello { node: 4 },
            Message::LockRequest { seq: 8, location: 2, access: WireAccess::Write, bytes: 64 },
            Message::LockGrant { seq: 8, location: 2, data: vec![9, 9] },
            Message::Shutdown,
        ] {
            let mut frame = message.encode();
            frame[4..6].copy_from_slice(&1u16.to_le_bytes());
            assert_eq!(decode_frame(&frame).unwrap(), message, "v1 frame of {}", message.name());
        }
    }

    #[test]
    fn v2_frames_still_decode() {
        // A current reader must accept every v2 frame of a kind it still
        // speaks unchanged.
        for message in [Message::Metrics { node: 1, json: "{}".to_string() }, Message::Done { node: 1 }] {
            let mut frame = message.encode();
            frame[4..6].copy_from_slice(&2u16.to_le_bytes());
            assert_eq!(decode_frame(&frame).unwrap(), message, "v2 frame of {}", message.name());
        }

        // ... but a v3-only kind inside an older frame is a protocol bug,
        // not a message, under both v2 and v1 headers.
        for old_version in [1u16, 2] {
            let mut beat = Message::Heartbeat { node: 0, seq: 1 }.encode();
            beat[4..6].copy_from_slice(&old_version.to_le_bytes());
            assert!(matches!(decode_frame(&beat), Err(WireError::UnknownKind(12))));

            let mut delta = Message::TelemetryDelta { node: 0, delta: vec![1] }.encode();
            delta[4..6].copy_from_slice(&old_version.to_le_bytes());
            assert!(matches!(decode_frame(&delta), Err(WireError::UnknownKind(13))));
        }
    }

    #[test]
    fn v3_frames_still_decode() {
        // A current reader must accept every v3 frame unchanged, including the
        // v3-era streaming kinds.
        for message in [
            Message::Heartbeat { node: 1, seq: 9 },
            Message::TelemetryDelta { node: 1, delta: vec![0xAA] },
            Message::Done { node: 1 },
        ] {
            let mut frame = message.encode();
            frame[4..6].copy_from_slice(&3u16.to_le_bytes());
            assert_eq!(decode_frame(&frame).unwrap(), message, "v3 frame of {}", message.name());
        }

        // ... but a v4-only kind inside an older frame is a protocol bug,
        // not a message, under v3, v2 and v1 headers alike.
        for old_version in [1u16, 2, 3] {
            for (message, kind) in [
                (Message::Quiesce { round: 1 }, 14u8),
                (Message::QuiesceAck { node: 0, round: 1 }, 15),
                (Message::ReAssignment { json: "{}".to_string() }, 16),
                (Message::Resume { round: 1 }, 17),
            ] {
                let mut frame = message.encode();
                frame[4..6].copy_from_slice(&old_version.to_le_bytes());
                match decode_frame(&frame) {
                    Err(WireError::UnknownKind(got)) => assert_eq!(got, kind),
                    other => {
                        panic!("v{old_version} frame of kind {kind}: expected UnknownKind, got {other:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn older_peers_reject_current_frames_with_a_typed_error() {
        // An old binary (max version 1 to 4) fed a current frame must fail
        // fast with BadVersion — never hang waiting for more bytes, never
        // panic, never mis-parse.
        for max_version in [1u16, 2, 3, 4] {
            let mut reader = FrameReader::with_max_version(max_version);
            reader.push(&Message::Heartbeat { node: 2, seq: 5 }.encode());
            assert_eq!(reader.try_next(), Err(WireError::BadVersion { got: 5 }), "max version {max_version}");

            let mut reader = FrameReader::with_max_version(max_version);
            reader.push(&Message::Quiesce { round: 1 }.encode());
            assert_eq!(reader.try_next(), Err(WireError::BadVersion { got: 5 }), "max version {max_version}");
        }

        // A frame at the peer's own version still flows through.
        let mut reader = FrameReader::with_max_version(1);
        let mut frame = Message::Hello { node: 2 }.encode();
        frame[4..6].copy_from_slice(&1u16.to_le_bytes());
        reader.push(&frame);
        assert_eq!(reader.try_next(), Ok(Some(Message::Hello { node: 2 })));

        let mut reader = FrameReader::with_max_version(4);
        let mut frame = Message::TelemetryDelta { node: 2, delta: vec![7; 32] }.encode();
        frame[4..6].copy_from_slice(&4u16.to_le_bytes());
        reader.push(&frame);
        assert!(matches!(reader.try_next(), Ok(Some(Message::TelemetryDelta { .. }))));
    }

    #[test]
    fn delta_budget_is_enforced_both_ways() {
        let caught = std::panic::catch_unwind(|| {
            Message::TelemetryDelta { node: 0, delta: vec![0; MAX_DELTA + 1] }.encode()
        });
        assert!(caught.is_err());
        let mut over = Message::TelemetryDelta { node: 0, delta: Vec::new() }.encode();
        over[7..11].copy_from_slice(&((MAX_DELTA + 17) as u32).to_le_bytes());
        assert!(matches!(decode_frame(&over), Err(WireError::PayloadTooLarge { .. })));
        let big = Message::TelemetryDelta { node: 0, delta: vec![5; MAX_PAYLOAD + 1] }.encode();
        assert!(matches!(decode_frame(&big), Ok(Message::TelemetryDelta { .. })));
    }

    #[test]
    fn max_size_grant_roundtrips() {
        let data: Vec<u8> = (0..MAX_DATA).map(|i| (i % 251) as u8).collect();
        let message = Message::LockGrant { seq: 42, location: 17, data };
        let frame = message.encode();
        assert_eq!(frame.len(), HEADER_LEN + 16 + MAX_DATA);
        assert_eq!(decode_frame(&frame).unwrap(), message);
    }

    #[test]
    #[should_panic(expected = "MAX_DATA")]
    fn oversize_grant_is_refused_at_encode() {
        let _ = Message::LockGrant { seq: 0, location: 0, data: vec![0; MAX_DATA + 1] }.encode();
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        let good = Message::Start.encode();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(decode_frame(&bad_magic), Err(WireError::BadMagic { .. })));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(matches!(decode_frame(&bad_version), Err(WireError::BadVersion { got: 99 })));

        let mut bad_kind = good.clone();
        bad_kind[6] = 200;
        assert!(matches!(decode_frame(&bad_kind), Err(WireError::UnknownKind(200))));

        let mut huge = good.clone();
        huge[7..11].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(decode_frame(&huge), Err(WireError::PayloadTooLarge { .. })));

        // A hello frame with a short payload.
        let mut short = Message::Hello { node: 1 }.encode();
        short.truncate(HEADER_LEN + 2);
        short[7..11].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(decode_frame(&short), Err(WireError::Truncated { .. })));

        // A lock request with an out-of-domain access mode.
        let mut bad_access =
            Message::LockRequest { seq: 1, location: 1, access: WireAccess::Read, bytes: 8 }.encode();
        bad_access[HEADER_LEN + 16] = 9;
        assert!(matches!(decode_frame(&bad_access), Err(WireError::BadField { .. })));

        // Errors render something human-readable.
        for err in [
            WireError::BadMagic { got: *b"XXXX" },
            WireError::BadVersion { got: 9 },
            WireError::UnknownKind(99),
            WireError::PayloadTooLarge { len: u32::MAX },
            WireError::Truncated { kind: 1 },
            WireError::BadUtf8 { kind: 1 },
            WireError::BadField { kind: 4, what: "access mode", got: 9 },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn reader_survives_byte_at_a_time_delivery() {
        let messages = [Message::Hello { node: 5 }, Message::Start, Message::Release { seq: 3, location: 1 }];
        let stream: Vec<u8> = messages.iter().flat_map(Message::encode).collect();
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for byte in stream {
            reader.push(&[byte]);
            while let Some(m) = reader.try_next().unwrap() {
                decoded.push(m);
            }
        }
        assert_eq!(decoded.as_slice(), messages.as_slice());
        assert_eq!(reader.pending(), 0);
    }

    #[test]
    fn one_push_of_many_frames_decodes_in_order() {
        let stream: Vec<u8> = (0..1_000u64)
            .flat_map(|seq| Message::LockGrant { seq, location: seq % 7, data: vec![seq as u8; 16] }.encode())
            .collect();
        let mut reader = FrameReader::new();
        reader.push(&stream);
        for seq in 0..1_000u64 {
            assert_eq!(
                reader.try_next().unwrap(),
                Some(Message::LockGrant { seq, location: seq % 7, data: vec![seq as u8; 16] })
            );
        }
        assert_eq!(reader.try_next().unwrap(), None);
        assert_eq!(reader.pending(), 0);
    }

    #[test]
    fn in_place_grant_encoding_matches_the_message_encoding() {
        for len in [0usize, 3, 8, 2048] {
            let value = 0x0102_0304_0506_0708u64.to_le_bytes();
            let mut data = vec![0u8; len];
            let head = len.min(8);
            data[..head].copy_from_slice(&value[..head]);
            let mut out = vec![0xFF]; // appends after what is already there
            encode_grant_into(&mut out, 11, 5, len, |buf| buf[..head].copy_from_slice(&value[..head]));
            assert_eq!(out[1..], Message::LockGrant { seq: 11, location: 5, data }.encode()[..], "len {len}");
        }
    }

    /// A strategy-driven arbitrary message: kind selector plus generously
    /// sized field material.
    fn build_message(
        selector: usize,
        a: u64,
        b: u64,
        small: u8,
        text_bytes: Vec<u8>,
        data: Vec<u8>,
    ) -> Message {
        let text: String = text_bytes.iter().map(|&b| char::from(b % 94 + 32)).collect();
        match selector % 17 {
            0 => Message::Hello { node: a as u32 },
            1 => Message::Assignment { json: text },
            2 => Message::Ready { node: b as u32 },
            3 => Message::Start,
            4 => Message::LockRequest {
                seq: a,
                location: b,
                access: if small.is_multiple_of(2) { WireAccess::Read } else { WireAccess::Write },
                bytes: a ^ b,
            },
            5 => Message::LockGrant { seq: a, location: b, data },
            6 => Message::Release { seq: a, location: b },
            7 => Message::Done { node: a as u32 },
            8 => Message::Metrics { node: b as u32, json: text },
            9 => Message::Error { message: text },
            10 => Message::Shutdown,
            11 => Message::Heartbeat { node: a as u32, seq: b },
            12 => Message::TelemetryDelta { node: b as u32, delta: data },
            13 => Message::Quiesce { round: a as u32 },
            14 => Message::QuiesceAck { node: a as u32, round: b as u32 },
            15 => Message::ReAssignment { json: text },
            _ => Message::Resume { round: b as u32 },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_message_roundtrips(
            selector in 0usize..17,
            a in 0u64..u64::MAX,
            b in 0u64..u64::MAX,
            small in 0u8..255,
            text in proptest::collection::vec(0u8..255, 0..200),
            data in proptest::collection::vec(0u8..255, 0..2048),
        ) {
            let message = build_message(selector, a, b, small, text, data);
            let frame = message.encode();
            prop_assert_eq!(decode_frame(&frame).unwrap(), message);
        }

        #[test]
        fn split_reads_reassemble_any_stream(
            selectors in proptest::collection::vec(0usize..17, 1..6),
            a in 0u64..u64::MAX,
            b in 0u64..1_000_000,
            small in 0u8..255,
            data in proptest::collection::vec(0u8..255, 0..512),
            chunk_sizes in proptest::collection::vec(1usize..40, 1..64),
        ) {
            let messages: Vec<Message> = selectors
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    build_message(s, a.wrapping_add(i as u64), b + i as u64, small, vec![small; i], data.clone())
                })
                .collect();
            let stream: Vec<u8> = messages.iter().flat_map(Message::encode).collect();

            let mut reader = FrameReader::new();
            let mut decoded = Vec::new();
            let mut at = 0usize;
            let mut chunk = 0usize;
            while at < stream.len() {
                let take = chunk_sizes[chunk % chunk_sizes.len()].min(stream.len() - at);
                chunk += 1;
                reader.push(&stream[at..at + take]);
                at += take;
                while let Some(m) = reader.try_next().map_err(|e| TestCaseError(e.to_string()))? {
                    decoded.push(m);
                }
            }
            prop_assert_eq!(decoded, messages);
            prop_assert_eq!(reader.pending(), 0);
        }
    }
}
