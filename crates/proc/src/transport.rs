//! Framed message transport over a stream socket.
//!
//! [`FramedStream`] wraps a connected [`UnixStream`] with the wire codec
//! from [`crate::wire`]: `send` writes one whole frame, `queue` + `flush`
//! write a batch of frames with one `write`, `recv` blocks (up to a
//! deadline) until one whole message decoded, and `try_buffered` takes a
//! message that already arrived without touching the socket.  The framing is pure
//! length-prefixed bytes, so the same code works over TCP for inter-host
//! deployment — only the connect/accept calls differ.
//!
//! Every stream counts frames and payload bytes in both directions; the
//! worker folds these tallies into its metrics report, which is where the
//! backend's *measured* hop-bytes come from.

use crate::wire::{encode_grant_into, FrameReader, Message, WireError};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Rendezvous connect gave up: the listener never appeared (or never
/// accepted) within the budget.
#[derive(Debug)]
pub struct RendezvousTimeout {
    /// The socket path that was tried.
    pub path: std::path::PathBuf,
    /// How many connect attempts were made.
    pub attempts: u32,
    /// The total budget that elapsed.
    pub budget: Duration,
    /// The last io error seen.
    pub last: std::io::Error,
}

impl std::fmt::Display for RendezvousTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rendezvous with {} timed out after {} attempts over {:?}: {}",
            self.path.display(),
            self.attempts,
            self.budget,
            self.last
        )
    }
}

impl std::error::Error for RendezvousTimeout {}

/// Why a `recv` failed.
#[derive(Debug)]
pub enum RecvError {
    /// The deadline passed with no complete message.
    Timeout,
    /// The peer closed the connection.
    Closed,
    /// The peer sent a malformed frame.
    Wire(WireError),
    /// The socket itself failed.
    Io(std::io::Error),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "timed out waiting for a message"),
            RecvError::Closed => write!(f, "peer closed the connection"),
            RecvError::Wire(e) => write!(f, "protocol error: {e}"),
            RecvError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

/// A connected stream speaking whole [`Message`]s.
pub struct FramedStream {
    stream: UnixStream,
    reader: FrameReader,
    read_buf: [u8; 64 * 1024],
    /// Encoded frames queued for the next `flush`, reused across batches.
    out: Vec<u8>,
    queued: u64,
    frames_sent: u64,
    frames_received: u64,
    bytes_sent: u64,
    bytes_received: u64,
}

impl FramedStream {
    /// Wraps a connected socket.
    #[must_use]
    pub fn new(stream: UnixStream) -> Self {
        FramedStream {
            stream,
            reader: FrameReader::new(),
            read_buf: [0; 64 * 1024],
            out: Vec::new(),
            queued: 0,
            frames_sent: 0,
            frames_received: 0,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    /// Connects to a Unix-domain listener at `path`, retrying with
    /// jittered backoff until `budget` elapses.
    ///
    /// A worker races the peer it reads from: both bind their listeners
    /// after `Ready`, but nothing orders one worker's connect after
    /// another worker's bind, and under recovery a survivor may dial a
    /// peer that is still re-binding.  A single-attempt connect turns
    /// that race into a raw `ECONNREFUSED`/`ENOENT`; this retries at
    /// ~1–20 ms spacing (deterministic per-path jitter, no RNG state)
    /// and gives up with a typed [`RendezvousTimeout`].
    pub fn connect_retry(path: &std::path::Path, budget: Duration) -> Result<Self, RendezvousTimeout> {
        let start = Instant::now();
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            let last = match UnixStream::connect(path) {
                Ok(stream) => return Ok(FramedStream::new(stream)),
                Err(e) => e,
            };
            if start.elapsed() >= budget {
                return Err(RendezvousTimeout { path: path.to_path_buf(), attempts, budget, last });
            }
            // Deterministic jitter off the path bytes and attempt count:
            // spreads simultaneous dialers without pulling in an RNG.
            let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in path.as_os_str().as_encoded_bytes() {
                seed = (seed ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            seed = (seed ^ u64::from(attempts)).wrapping_mul(0x100_0000_01b3);
            let base = 1u64 << attempts.min(4); // 2, 4, 8, 16 ms, then flat
            let pause = Duration::from_millis(base + seed % base);
            let left = budget.saturating_sub(start.elapsed());
            std::thread::sleep(pause.min(left).max(Duration::from_millis(1)));
        }
    }

    /// The underlying socket, for readiness polling, cloning a read half
    /// and shutting one down.
    #[must_use]
    pub fn socket(&self) -> &UnixStream {
        &self.stream
    }

    /// Frames written so far.
    #[must_use]
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Frames decoded so far.
    #[must_use]
    pub fn frames_received(&self) -> u64 {
        self.frames_received
    }

    /// Total bytes written (headers included).
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total bytes read (headers included).
    #[must_use]
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Writes one message as a single frame (after anything queued).
    pub fn send(&mut self, message: &Message) -> std::io::Result<()> {
        self.queue(message);
        self.flush()
    }

    /// Appends one message's frame to the outgoing batch; nothing is
    /// written until [`FramedStream::flush`].
    pub fn queue(&mut self, message: &Message) {
        message.encode_into(&mut self.out);
        self.queued += 1;
    }

    /// Appends one `LockGrant` frame to the outgoing batch, its `len`-byte
    /// location buffer filled in place (see [`encode_grant_into`]).
    pub fn queue_grant(&mut self, seq: u64, location: u64, len: usize, fill: impl FnOnce(&mut [u8])) {
        encode_grant_into(&mut self.out, seq, location, len, fill);
        self.queued += 1;
    }

    /// Writes every queued frame with one `write_all`.  The batch is
    /// dropped either way: after a failed write the framing is broken.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.queued == 0 {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out);
        if written.is_ok() {
            self.frames_sent += self.queued;
            self.bytes_sent += self.out.len() as u64;
        }
        self.out.clear();
        self.queued = 0;
        written
    }

    /// Writes one message as a single frame, bounded by `deadline`.
    ///
    /// A plain `write_all` against a peer that stopped reading blocks
    /// until the kernel buffer drains — potentially forever.  Control
    /// frames (quiesce, re-assignment, shutdown) must instead fail
    /// within the io budget so the coordinator can blame the wedged
    /// node.  Each write waits at most until the deadline; a partial
    /// frame past the deadline is a hard `TimedOut` (the stream is
    /// unusable after that — framing is broken).
    pub fn send_with_deadline(&mut self, message: &Message, deadline: Duration) -> std::io::Result<()> {
        let frame = message.encode();
        let start = Instant::now();
        let mut written = 0usize;
        while written < frame.len() {
            let left = deadline.saturating_sub(start.elapsed());
            if left.is_zero() {
                self.stream.set_write_timeout(None)?;
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!("send of {} stalled at {written}/{} bytes", message.name(), frame.len()),
                ));
            }
            self.stream.set_write_timeout(Some(left))?;
            match self.stream.write(&frame[written..]) {
                Ok(0) => {
                    self.stream.set_write_timeout(None)?;
                    return Err(std::io::Error::new(ErrorKind::WriteZero, "peer closed mid-frame"));
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    self.stream.set_write_timeout(None)?;
                    return Err(e);
                }
            }
        }
        self.stream.set_write_timeout(None)?;
        self.frames_sent += 1;
        self.bytes_sent += frame.len() as u64;
        Ok(())
    }

    /// Blocks until one whole message arrives, up to `deadline` from now.
    pub fn recv(&mut self, deadline: Duration) -> Result<Message, RecvError> {
        let start = Instant::now();
        loop {
            if let Some(message) = self.try_buffered()? {
                return Ok(message);
            }
            let left = deadline.saturating_sub(start.elapsed());
            if left.is_zero() {
                return Err(RecvError::Timeout);
            }
            self.stream.set_read_timeout(Some(left)).map_err(RecvError::Io)?;
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => return Err(RecvError::Closed),
                Ok(n) => self.take_bytes(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(RecvError::Io(e)),
            }
        }
    }

    /// One `read` on a socket that `poll` reported ready, then every whole
    /// message now buffered, in arrival order.  `Closed` once the peer
    /// hung up and everything it sent has been returned.
    pub fn recv_ready(&mut self) -> Result<Vec<Message>, RecvError> {
        let closed = match self.stream.read(&mut self.read_buf) {
            Ok(0) => true,
            Ok(n) => {
                self.take_bytes(n);
                false
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => false,
            Err(e) => return Err(RecvError::Io(e)),
        };
        let mut messages = Vec::new();
        while let Some(message) = self.try_buffered()? {
            messages.push(message);
        }
        if closed && messages.is_empty() {
            return Err(RecvError::Closed);
        }
        Ok(messages)
    }

    fn take_bytes(&mut self, n: usize) {
        self.bytes_received += n as u64;
        self.reader.push(&self.read_buf[..n]);
    }

    /// The next whole message already buffered, if any; never reads the
    /// socket.
    pub fn try_buffered(&mut self) -> Result<Option<Message>, RecvError> {
        let message = self.reader.try_next().map_err(RecvError::Wire)?;
        self.frames_received += u64::from(message.is_some());
        Ok(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAX_DATA;
    use std::time::Duration;

    fn pair() -> (FramedStream, FramedStream) {
        let (a, b) = UnixStream::pair().unwrap();
        (FramedStream::new(a), FramedStream::new(b))
    }

    #[test]
    fn send_recv_roundtrip_with_counters() {
        let (mut a, mut b) = pair();
        let msg =
            Message::LockRequest { seq: 1, location: 9, access: crate::wire::WireAccess::Read, bytes: 4096 };
        a.send(&msg).unwrap();
        let got = b.recv(Duration::from_secs(5)).unwrap();
        assert_eq!(got, msg);
        assert_eq!(a.frames_sent(), 1);
        assert_eq!(b.frames_received(), 1);
        assert_eq!(a.bytes_sent(), b.bytes_received());
        assert!(a.bytes_sent() > 0);
    }

    #[test]
    fn large_grant_crosses_the_socket() {
        let (mut a, mut b) = pair();
        let msg = Message::LockGrant { seq: 7, location: 3, data: vec![0xAB; MAX_DATA] };
        let writer = std::thread::spawn(move || {
            a.send(&msg).unwrap();
            (a, msg)
        });
        let got = b.recv(Duration::from_secs(10)).unwrap();
        let (_a, msg) = writer.join().unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn recv_times_out_instead_of_hanging() {
        let (_a, mut b) = pair();
        let start = std::time::Instant::now();
        match b.recv(Duration::from_millis(150)) {
            Err(RecvError::Timeout) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn closed_peer_is_not_a_timeout() {
        let (a, mut b) = pair();
        drop(a);
        match b.recv(Duration::from_secs(5)) {
            Err(RecvError::Closed) => {}
            other => panic!("expected closed, got {other:?}"),
        }
    }

    #[test]
    fn connect_retry_reaches_a_late_binding_listener() {
        let dir = std::env::temp_dir().join(format!("orwl-rdv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("late.sock");
        let binder = {
            let path = path.clone();
            std::thread::spawn(move || {
                // Bind only after the dialer has already failed a few
                // attempts against the missing socket.
                std::thread::sleep(Duration::from_millis(60));
                let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
                let (_stream, _) = listener.accept().unwrap();
            })
        };
        let connected = FramedStream::connect_retry(&path, Duration::from_secs(10));
        assert!(connected.is_ok(), "late bind must be reached: {:?}", connected.err());
        binder.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connect_retry_times_out_with_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("orwl-rdv-none-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("never.sock");
        let start = std::time::Instant::now();
        let err = match FramedStream::connect_retry(&path, Duration::from_millis(120)) {
            Ok(_) => panic!("connected to a socket that never existed"),
            Err(e) => e,
        };
        assert!(err.attempts >= 2, "retried before giving up (attempts {})", err.attempts);
        assert_eq!(err.budget, Duration::from_millis(120));
        assert!(err.to_string().contains("never.sock"), "{err}");
        assert!(start.elapsed() < Duration::from_secs(5), "the budget bounds the wait");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn send_with_deadline_fails_instead_of_blocking_on_a_full_pipe() {
        let (mut a, b) = pair();
        // Never read from `b`: the kernel buffer fills and a plain
        // write_all would park forever.  Keep `b` alive so the failure
        // is a timeout, not a broken pipe.
        let start = std::time::Instant::now();
        let mut hit_deadline = false;
        for _ in 0..256 {
            let msg = Message::LockGrant { seq: 1, location: 1, data: vec![0xEE; MAX_DATA] };
            match a.send_with_deadline(&msg, Duration::from_millis(200)) {
                Ok(()) => {}
                Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::TimedOut, "unexpected error: {e}");
                    hit_deadline = true;
                    break;
                }
            }
        }
        assert!(hit_deadline, "the socket buffer never filled — test needs a bigger payload");
        assert!(start.elapsed() < Duration::from_secs(60), "every send was deadline-bounded");
        drop(b);
    }

    #[test]
    fn send_with_deadline_delivers_when_the_peer_reads() {
        let (mut a, mut b) = pair();
        let msg = Message::QuiesceAck { node: 3, round: 1 };
        a.send_with_deadline(&msg, Duration::from_secs(5)).unwrap();
        assert_eq!(b.recv(Duration::from_secs(5)).unwrap(), msg);
        assert_eq!(a.frames_sent(), 1);
    }

    #[test]
    fn a_queued_batch_is_one_write_and_counts_every_frame() {
        let (mut a, mut b) = pair();
        a.queue(&Message::Release { seq: 1, location: 2 });
        a.queue_grant(3, 4, 5, |data| data[0] = 9);
        assert_eq!(a.frames_sent(), 0, "nothing leaves before the flush");
        a.flush().unwrap();
        assert_eq!(a.frames_sent(), 2);
        assert_eq!(b.recv(Duration::from_secs(5)).unwrap(), Message::Release { seq: 1, location: 2 });
        // The grant arrived with the same read: it is taken without
        // touching the socket.
        assert_eq!(
            b.try_buffered().unwrap(),
            Some(Message::LockGrant { seq: 3, location: 4, data: vec![9, 0, 0, 0, 0] })
        );
        assert_eq!(b.try_buffered().unwrap(), None);
        assert_eq!(a.bytes_sent(), b.bytes_received());
        a.flush().unwrap(); // an empty flush writes nothing
        assert_eq!(a.frames_sent(), 2);
    }

    #[test]
    fn recv_ready_returns_every_buffered_frame_then_closed() {
        let (mut a, mut b) = pair();
        a.send(&Message::Start).unwrap();
        a.send(&Message::Shutdown).unwrap();
        assert_eq!(b.recv_ready().unwrap(), vec![Message::Start, Message::Shutdown]);
        assert_eq!(b.frames_received(), 2);
        drop(a);
        assert!(matches!(b.recv_ready(), Err(RecvError::Closed)));
    }
}
