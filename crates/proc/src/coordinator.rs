//! Coordinator-side process management: spawn one worker per node, speak
//! the control protocol, and guarantee cleanup.
//!
//! The pool owns the run's rendezvous directory (under the system temp
//! dir), the control listener, one [`Child`] per node with its stderr
//! pipe, and one control connection per node.  All of them feed a single
//! readiness loop (`WorkerPool::next_event`): one `poll(2)` over the
//! listener, every control socket and every stderr pipe, with its timeout
//! set to the caller's nearest deadline.  Each frame passes a per-node
//! state machine (`NodeState`) before the caller sees it, so an
//! out-of-state frame is a typed failure naming the node.  A worker holds
//! its control socket and its stderr pipe for its whole life, so the two
//! closing is its exit signal: the process is reaped right then, and one
//! that never connected is caught by its stderr pipe closing.  A worker that
//! crashes, hangs or exits early therefore surfaces as a typed
//! [`WorkerFailure`] carrying the worker's stderr tail — never as a hung
//! coordinator.  Dropping the pool kills and reaps whatever is still
//! running and removes the rendezvous directory.

use crate::transport::{FramedStream, RecvError};
use crate::wire::Message;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Bytes of each worker's stderr kept for failure reports.
pub const STDERR_TAIL_BYTES: usize = 4096;

/// Environment variable selecting the worker role in a re-exec'd binary.
pub const ENV_ROLE: &str = "ORWL_PROC_ROLE";
/// Environment variable carrying the worker's node index.
pub const ENV_NODE: &str = "ORWL_PROC_NODE";
/// Environment variable carrying the coordinator socket path.
pub const ENV_COORD: &str = "ORWL_PROC_COORD";

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A worker failure attributable to one node.
#[derive(Debug)]
pub struct WorkerFailure {
    /// The failing worker's node index.
    pub node: usize,
    /// What happened, with the worker's stderr tail appended.
    pub detail: String,
}

struct WorkerChild {
    child: Child,
    /// The stderr pipe, until it reaches end of file.
    stderr: Option<ChildStderr>,
    /// The newest [`STDERR_TAIL_BYTES`] the worker wrote to stderr.
    tail: VecDeque<u8>,
    exit: Option<ExitStatus>,
}

impl WorkerChild {
    /// Non-blocking exit check, remembering the status once reaped.
    fn poll_exit(&mut self) -> Option<ExitStatus> {
        if self.exit.is_none() {
            if let Ok(Some(status)) = self.child.try_wait() {
                self.exit = Some(status);
            }
        }
        self.exit
    }

    /// Blocking reap, for a worker known to be exiting: its stderr pipe
    /// closed, and it holds that until it exits.
    fn reap(&mut self) -> Option<ExitStatus> {
        if self.exit.is_none() {
            self.exit = self.child.wait().ok();
        }
        self.exit
    }

    /// Moves what one read of the stderr pipe returns into the tail;
    /// `false` once the pipe is at end of file.
    fn read_stderr(&mut self) -> bool {
        let Some(stderr) = self.stderr.as_mut() else { return false };
        let mut buf = [0u8; 1024];
        let n = match stderr.read(&mut buf) {
            Err(e) if e.kind() == ErrorKind::Interrupted => return true,
            Ok(n) => n,
            Err(_) => 0,
        };
        if n == 0 {
            self.stderr = None;
            return false;
        }
        self.tail.extend(&buf[..n]);
        let excess = self.tail.len().saturating_sub(STDERR_TAIL_BYTES);
        self.tail.drain(..excess);
        true
    }

    /// Kills (if still running), reaps, and returns the stderr tail.
    fn kill_and_tail(&mut self) -> String {
        if self.poll_exit().is_none() {
            let _ = self.child.kill();
            self.reap();
        }
        // The process is gone, so the pipe drains to end of file.
        while self.read_stderr() {}
        String::from_utf8_lossy(self.tail.make_contiguous()).into_owned()
    }
}

/// Where one worker stands in the control protocol, as the coordinator
/// tracks it.  Heartbeats and telemetry deltas are accepted in every
/// state; [`NodeState::step`] lists the other frames each state accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeState {
    /// Spawned; its `Hello` has not arrived.
    Hello,
    /// Sent its assignment or re-assignment; awaiting `Ready`.
    Ready,
    /// Executing; awaiting `Done`.
    Running,
    /// Reported `Done`; awaiting its telemetry upload and `Metrics`.
    Done,
    /// Asked to quiesce for a recovery round; awaiting `QuiesceAck`.
    Quiescing,
    /// Confirmed lost and written off.
    Lost,
    /// Sent `Metrics`, its last frame; only its hang-up and exit remain.
    Drained,
}

/// A frame that the sending node's state does not accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct OutOfState {
    pub node: usize,
    pub state: NodeState,
    pub got: &'static str,
}

impl std::fmt::Display for OutOfState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {} sent {} in state {:?}", self.node, self.got, self.state)
    }
}

impl NodeState {
    /// The state that `message` from `node` moves this one to.
    pub(crate) fn step(self, node: usize, message: &Message) -> Result<NodeState, OutOfState> {
        use NodeState as S;
        match (self, message) {
            (_, Message::Heartbeat { .. } | Message::TelemetryDelta { .. })
            // A quiesce that raced the worker's natural finish: it still acks.
            | (S::Quiescing, Message::Done { .. })
            | (S::Done, Message::TelemetryUpload { .. }) => Ok(self),
            (S::Ready, Message::Ready { .. }) => Ok(S::Running),
            (S::Running, Message::Done { .. }) => Ok(S::Done),
            (S::Quiescing, Message::QuiesceAck { .. }) => Ok(S::Ready),
            (S::Done, Message::Metrics { .. }) => Ok(S::Drained),
            _ => Err(OutOfState { node, state: self, got: message.name() }),
        }
    }
}

/// What [`WorkerPool::next_event`] hands the coordinator.
#[derive(Debug)]
pub(crate) enum Event {
    /// A frame the node's state accepted; the state has already moved.
    Frame(usize, Message),
    /// The node hung up before draining, with the diagnosis.
    Lost(usize, String),
    /// The node hung up after its last frame and exited cleanly.
    Exited(usize),
    /// The deadline passed first.
    Timeout,
}

/// One descriptor of the readiness loop.
#[derive(Debug, Clone, Copy)]
enum Source {
    Listener,
    Control(usize),
    Stderr(usize),
}

/// One run's worth of worker processes plus their control connections.
pub struct WorkerPool {
    dir: PathBuf,
    listener: UnixListener,
    children: Vec<WorkerChild>,
    controls: Vec<Option<FramedStream>>,
    states: Vec<NodeState>,
    hello_recv_us: Vec<u64>,
    io_timeout: Duration,
    pending: VecDeque<Event>,
}

impl WorkerPool {
    /// Creates the rendezvous directory, binds the control listener and
    /// spawns `n_nodes` workers by re-exec'ing the current binary with
    /// `worker_args`, the worker-role environment and `extra_env`.
    pub fn spawn(
        n_nodes: usize,
        worker_args: &[String],
        extra_env: &[(String, String)],
        io_timeout: Duration,
    ) -> std::io::Result<WorkerPool> {
        let dir = std::env::temp_dir().join(format!(
            "orwl-proc-{}-{}",
            std::process::id(),
            RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let coord_sock = dir.join("coord.sock");
        let listener = UnixListener::bind(&coord_sock)?;
        listener.set_nonblocking(true)?;

        let exe = std::env::current_exe()?;
        let mut children = Vec::with_capacity(n_nodes);
        let mut pool_guard = PoolDirGuard { dir: Some(dir.clone()), children: &mut children };
        for node in 0..n_nodes {
            let mut command = Command::new(&exe);
            command
                .args(worker_args)
                .env(ENV_ROLE, "worker")
                .env(ENV_NODE, node.to_string())
                .env(ENV_COORD, &coord_sock)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped());
            for (key, value) in extra_env {
                command.env(key, value);
            }
            let mut child = command.spawn()?;
            let stderr = child.stderr.take();
            pool_guard.children.push(WorkerChild { child, stderr, tail: VecDeque::new(), exit: None });
        }
        pool_guard.dir = None; // spawns succeeded: the pool takes ownership
        drop(pool_guard);
        let controls = (0..n_nodes).map(|_| None).collect();
        Ok(WorkerPool {
            dir,
            listener,
            children,
            controls,
            states: vec![NodeState::Hello; n_nodes],
            hello_recv_us: vec![0; n_nodes],
            io_timeout,
            pending: VecDeque::new(),
        })
    }

    /// True once `node` has been confirmed lost and written off — its
    /// control connection dropped, its process reaped.  Dead nodes are
    /// skipped by broadcasts, waits and auto-blame.
    #[must_use]
    pub fn is_dead(&self, node: usize) -> bool {
        self.states[node] == NodeState::Lost
    }

    /// The OS process id of `node`'s worker (for signal-based tests).
    #[must_use]
    pub fn worker_pid(&self, node: usize) -> u32 {
        self.children[node].child.id()
    }

    /// Writes `node` off as lost: kills and reaps its process, drains its
    /// stderr, drops its control connection and marks it dead.
    pub fn confirm_loss(&mut self, node: usize) {
        self.children[node].kill_and_tail();
        self.controls[node] = None;
        self.states[node] = NodeState::Lost;
    }

    pub(crate) fn n_nodes(&self) -> usize {
        self.children.len()
    }

    pub(crate) fn state(&self, node: usize) -> NodeState {
        self.states[node]
    }

    /// Records a transition the coordinator caused by sending, such as a
    /// quiesce request.
    pub(crate) fn set_state(&mut self, node: usize, state: NodeState) {
        self.states[node] = state;
    }

    /// True while events read off the sockets await [`WorkerPool::next_event`].
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// True when `node` is lost or has reached `target` — for
    /// [`NodeState::Drained`], also hung up and exited cleanly.
    pub(crate) fn settled(&self, node: usize, target: NodeState) -> bool {
        match self.states[node] {
            NodeState::Lost => true,
            NodeState::Drained if target == NodeState::Drained => {
                self.children[node].exit.is_some_and(|s| s.success())
            }
            state => state == target,
        }
    }

    /// The coordinator's process clock (µs) when `node`'s `Hello` arrived
    /// — one side of the clock-offset handshake (see `orwl_obs::merge`);
    /// `0` until [`WorkerPool::accept_controls`] has seen that node.
    #[must_use]
    pub fn hello_recv_us(&self, node: usize) -> u64 {
        self.hello_recv_us[node]
    }

    /// Path of the peer listener socket assigned to `node`.
    #[must_use]
    pub fn peer_socket(&self, node: usize) -> PathBuf {
        self.dir.join(format!("worker{node}.sock"))
    }

    /// The rendezvous directory (owned by the pool until drop).
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Kills every worker, collects the stderr tails and composes the
    /// typed failure for `node` (or the most informative node when
    /// `None`: the first still-credited child that exited with a failure
    /// status, else node 0).  Nodes already written off by a completed
    /// recovery are never auto-blamed — their deaths were already
    /// accounted for.
    pub fn fail(&mut self, node: Option<usize>, reason: impl Into<String>) -> WorkerFailure {
        let statuses: Vec<Option<ExitStatus>> =
            self.children.iter_mut().map(WorkerChild::poll_exit).collect();
        let node = node
            .or_else(|| {
                statuses
                    .iter()
                    .enumerate()
                    .position(|(n, s)| !self.is_dead(n) && s.is_some_and(|s| !s.success()))
            })
            .unwrap_or(0);
        let tails: Vec<String> = self.children.iter_mut().map(WorkerChild::kill_and_tail).collect();
        let mut detail = reason.into();
        if let Some(status) = statuses.get(node).copied().flatten() {
            detail.push_str(&format!(" ({status})"));
        }
        let tail = tails.get(node).map(String::as_str).unwrap_or("").trim();
        if tail.is_empty() {
            detail.push_str("; stderr: <empty>");
        } else {
            detail.push_str(&format!("; stderr tail:\n{tail}"));
        }
        WorkerFailure { node, detail }
    }

    /// Like [`WorkerPool::fail`], but for failures observed on `node`
    /// that may be collateral damage: when some *other* worker already
    /// exited with a failure status without reporting an error, that
    /// death is the root cause (a dying peer tears down every connection
    /// it serves) and its stderr tail carries the original panic — blame
    /// it instead of `node`.
    pub fn fail_cascade(&mut self, node: usize, reason: impl Into<String>) -> WorkerFailure {
        self.settle_blame(node, false, reason.into())
    }

    /// The blame rule behind [`WorkerPool::fail_cascade`], for a failure
    /// first seen on `node`; `reported` when `node` sent it as an `Error`
    /// frame.  A reporter is a victim or the culprit, never a silent
    /// death, so only a failed exit that reported nothing is a root
    /// cause; a reporter's own failed exit settles nothing.
    fn settle_blame(&mut self, node: usize, reported: bool, reason: String) -> WorkerFailure {
        let mut reporters = vec![false; self.children.len()];
        reporters[node] = reported;
        // A peer's cascade error can race the dying worker's reaping by a
        // few milliseconds, so give the root cause a short grace window
        // to show up as an exited child before settling blame — unless
        // `node` itself died unreported, which settles it immediately.
        let mut root = None;
        for _ in 0..5 {
            if !reported && self.failed_exit(node) {
                break;
            }
            root = (0..self.children.len())
                .find(|&n| n != node && !self.is_dead(n) && self.died_unreported(n, &mut reporters));
            if root.is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        match root {
            Some(root) => {
                self.fail(Some(root), format!("worker exited during the run (a peer then saw: {reason})"))
            }
            None => self.fail(Some(node), reason),
        }
    }

    fn failed_exit(&mut self, node: usize) -> bool {
        self.children[node].poll_exit().is_some_and(|s| !s.success())
    }

    /// True when `node` exited with a failure status and sent no `Error`
    /// frame.  An exited worker's frames are all buffered, so this reads
    /// them without blocking; what they say is kept in `reporters`.
    fn died_unreported(&mut self, node: usize, reporters: &mut [bool]) -> bool {
        if reporters[node] || !self.failed_exit(node) {
            return false;
        }
        if let Some(control) = self.controls[node].as_mut() {
            while let Ok(frames) = control.recv_ready() {
                if frames.iter().any(|m| matches!(m, Message::Error { .. })) {
                    reporters[node] = true;
                    return false;
                }
            }
        }
        true
    }

    /// Accepts one control connection per worker; each must open with
    /// [`Message::Hello`].  A worker that dies before connecting fails
    /// the run as soon as its stderr pipe closes.
    pub fn accept_controls(&mut self) -> Result<(), WorkerFailure> {
        let deadline = Instant::now() + self.io_timeout;
        while let Some(node) = self.states.iter().position(|&s| s == NodeState::Hello) {
            match self.next_event(deadline)? {
                Event::Frame(_, Message::Hello { .. }) | Event::Exited(_) => {}
                Event::Frame(from, message) => {
                    return Err(
                        self.fail(Some(from), format!("sent {} before its assignment", message.name()))
                    );
                }
                Event::Lost(lost, detail) => return Err(self.fail_cascade(lost, detail)),
                Event::Timeout => {
                    return Err(self.fail(Some(node), "timed out waiting for workers to connect"))
                }
            }
        }
        Ok(())
    }

    /// Sends one message to `node`'s control connection.  The write is
    /// deadline-bounded by the pool's io timeout, so a worker whose
    /// socket buffer filled up (e.g. one that was SIGSTOPped mid-run)
    /// stalls the coordinator for at most one timeout, never forever.
    pub fn send_to(&mut self, node: usize, message: &Message) -> Result<(), WorkerFailure> {
        let io_timeout = self.io_timeout;
        let Some(control) = self.controls[node].as_mut() else {
            return Err(self.fail(Some(node), "no control connection"));
        };
        if let Err(e) = control.send_with_deadline(message, io_timeout) {
            return Err(self.fail(Some(node), format!("control send failed: {e}")));
        }
        Ok(())
    }

    /// Broadcasts one message to every live (not written-off) worker.
    pub fn broadcast(&mut self, message: &Message) -> Result<(), WorkerFailure> {
        for node in 0..self.children.len() {
            if !self.is_dead(node) {
                self.send_to(node, message)?;
            }
        }
        Ok(())
    }

    /// The readiness loop: the next frame a node's state accepted, the
    /// next loss, or [`Event::Timeout`] once `deadline` passes.  Along
    /// the way it accepts control connections while any node is still
    /// in [`NodeState::Hello`], tails every stderr pipe and reaps every
    /// worker whose control socket and stderr pipe have both closed.  A
    /// worker-reported `Error` (blamed by the rule of
    /// [`WorkerPool::fail_cascade`]), an out-of-state frame, a broken
    /// frame and a worker that exits before connecting are typed
    /// failures.
    pub(crate) fn next_event(&mut self, deadline: Instant) -> Result<Event, WorkerFailure> {
        loop {
            while let Some(event) = self.pending.pop_front() {
                match event {
                    // Written off since it was queued.
                    Event::Frame(node, _) | Event::Lost(node, _) | Event::Exited(node)
                        if self.is_dead(node) => {}
                    event => return Ok(event),
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(Event::Timeout);
            }
            let mut sources: Vec<(Source, RawFd)> = Vec::new();
            if self.states.contains(&NodeState::Hello) {
                sources.push((Source::Listener, self.listener.as_raw_fd()));
            }
            for (node, child) in self.children.iter().enumerate() {
                if let Some(control) = &self.controls[node] {
                    sources.push((Source::Control(node), control.socket().as_raw_fd()));
                }
                if let Some(stderr) = &child.stderr {
                    sources.push((Source::Stderr(node), stderr.as_raw_fd()));
                }
            }
            let mut fds: Vec<libc::pollfd> = sources
                .iter()
                .map(|&(_, fd)| libc::pollfd { fd, events: libc::POLLIN, revents: 0 })
                .collect();
            // Rounded up, so a wait never ends just short of the deadline.
            let timeout_ms = left.as_micros().div_ceil(1000).min(libc::c_int::MAX as u128) as libc::c_int;
            // SAFETY: `fds` is a live array of exactly `fds.len()` entries,
            // exclusively borrowed for the whole call.
            let ready = unsafe { libc::poll(fds.as_mut_ptr(), fds.len() as libc::nfds_t, timeout_ms) };
            if ready < 0 {
                let err = std::io::Error::last_os_error();
                if err.kind() == ErrorKind::Interrupted {
                    continue;
                }
                return Err(self.fail(None, format!("polling the control sockets failed: {err}")));
            }
            for (&(source, _), fd) in sources.iter().zip(&fds) {
                if fd.revents & (libc::POLLIN | libc::POLLHUP | libc::POLLERR) != 0 {
                    self.on_ready(source)?;
                }
            }
        }
    }

    fn on_ready(&mut self, source: Source) -> Result<(), WorkerFailure> {
        match source {
            Source::Listener => self.accept_one(),
            Source::Control(node) => self.read_control(node),
            Source::Stderr(node) => {
                if self.children[node].read_stderr() {
                    return Ok(());
                }
                if self.states[node] == NodeState::Hello {
                    self.children[node].reap();
                    return Err(self.fail(Some(node), "worker exited before connecting to the coordinator"));
                }
                if self.controls[node].is_none() {
                    self.exited(node);
                }
                Ok(())
            }
        }
    }

    fn accept_one(&mut self) -> Result<(), WorkerFailure> {
        let stream = match self.listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) => return Err(self.fail(None, format!("control accept failed: {e}"))),
        };
        let mut control = FramedStream::new(stream);
        let node = match control.recv(self.io_timeout) {
            Ok(Message::Hello { node }) => node as usize,
            Ok(other) => return Err(self.fail(None, format!("expected hello, got {}", other.name()))),
            Err(e) => return Err(self.fail(None, format!("control handshake failed: {e}"))),
        };
        let hello_us = orwl_obs::process_clock_us();
        if node >= self.children.len() {
            return Err(self.fail(None, format!("hello from unknown node {node}")));
        }
        if self.states[node] != NodeState::Hello {
            return Err(self.fail(Some(node), "duplicate hello"));
        }
        self.controls[node] = Some(control);
        self.hello_recv_us[node] = hello_us;
        self.states[node] = NodeState::Ready;
        self.pending.push_back(Event::Frame(node, Message::Hello { node: node as u32 }));
        Ok(())
    }

    fn read_control(&mut self, node: usize) -> Result<(), WorkerFailure> {
        let Some(control) = self.controls[node].as_mut() else { return Ok(()) };
        let messages = match control.recv_ready() {
            Ok(messages) => messages,
            Err(RecvError::Closed | RecvError::Io(_)) => {
                self.controls[node] = None;
                if self.children[node].stderr.is_none() {
                    self.exited(node);
                }
                return Ok(());
            }
            Err(e) => return Err(self.fail(Some(node), format!("control receive failed: {e}"))),
        };
        for message in messages {
            if let Message::Error { message } = message {
                return Err(self.settle_blame(node, true, format!("worker reported: {message}")));
            }
            match self.states[node].step(node, &message) {
                Ok(next) => {
                    self.states[node] = next;
                    self.pending.push_back(Event::Frame(node, message));
                }
                Err(e) => return Err(self.fail(Some(node), e.to_string())),
            }
        }
        Ok(())
    }

    /// `node` closed both its control socket and its stderr pipe, which
    /// it holds until it exits, so reaping it does not block.  Until then
    /// the loop keeps draining its stderr, and the caller's deadline
    /// bounds a worker that hangs up and lingers.  After its last frame
    /// a clean exit ends its life (checked by [`WorkerPool::settled`]);
    /// anything else means the node is lost.
    fn exited(&mut self, node: usize) {
        let status = self.children[node].reap();
        let state = self.states[node];
        if state == NodeState::Drained && status.is_some_and(|s| s.success()) {
            self.pending.push_back(Event::Exited(node));
            return;
        }
        let how = status.map_or("closed its control connection".to_string(), |s| format!("exited ({s})"));
        self.pending.push_back(Event::Lost(node, format!("worker {how} in state {state:?}")));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Graceful first: SIGTERM everything still running, so a healthy
        // worker gets to unwind (flush stderr, drop sockets) instead of
        // dying mid-write.  A worker that ignores the courtesy — or one
        // that is SIGSTOPped and cannot even see it — is SIGKILLed after
        // a bounded grace, so teardown always completes.
        for child in &mut self.children {
            if child.poll_exit().is_none() {
                unsafe {
                    libc::kill(child.child.id() as libc::pid_t, libc::SIGTERM);
                }
            }
        }
        let grace = Instant::now() + Duration::from_millis(500);
        while Instant::now() < grace && self.children.iter_mut().any(|c| c.poll_exit().is_none()) {
            std::thread::sleep(Duration::from_millis(10));
        }
        for child in &mut self.children {
            child.kill_and_tail();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Cleans up the rendezvous directory and any already-spawned children if
/// spawning aborts partway.
struct PoolDirGuard<'a> {
    dir: Option<PathBuf>,
    children: &'a mut Vec<WorkerChild>,
}

impl Drop for PoolDirGuard<'_> {
    fn drop(&mut self) {
        if let Some(dir) = self.dir.take() {
            for child in self.children.iter_mut() {
                child.kill_and_tail();
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireAccess;
    use NodeState as S;

    const STATES: [NodeState; 7] =
        [S::Hello, S::Ready, S::Running, S::Done, S::Quiescing, S::Lost, S::Drained];

    fn every_kind() -> Vec<Message> {
        vec![
            Message::Hello { node: 3 },
            Message::Assignment { json: "{}".to_string() },
            Message::Ready { node: 3 },
            Message::Start,
            Message::LockRequest { seq: 1, location: 2, access: WireAccess::Read, bytes: 8 },
            Message::LockGrant { seq: 1, location: 2, data: vec![0; 8] },
            Message::Release { seq: 1, location: 2 },
            Message::Done { node: 3 },
            Message::Metrics { node: 3, json: "{}".to_string() },
            Message::Error { message: "boom".to_string() },
            Message::Shutdown,
            Message::TelemetryUpload { node: 3, snapshot: Vec::new() },
            Message::Heartbeat { node: 3, seq: 0 },
            Message::TelemetryDelta { node: 3, delta: Vec::new() },
            Message::Quiesce { round: 1 },
            Message::QuiesceAck { node: 3, round: 1 },
            Message::ReAssignment { json: "{}".to_string() },
            Message::Resume { round: 1 },
        ]
    }

    /// The protocol's transitions, written out independently of `step`.
    fn expected(state: NodeState, kind: &str) -> Option<NodeState> {
        match (state, kind) {
            (_, "heartbeat" | "telemetry_delta") => Some(state),
            (S::Ready, "ready") => Some(S::Running),
            (S::Running, "done") => Some(S::Done),
            (S::Quiescing, "done") => Some(S::Quiescing),
            (S::Quiescing, "quiesce_ack") => Some(S::Ready),
            (S::Done, "telemetry_upload") => Some(S::Done),
            (S::Done, "metrics") => Some(S::Drained),
            _ => None,
        }
    }

    #[test]
    fn every_out_of_state_frame_is_a_typed_failure_naming_node_and_state() {
        let mut rejected = 0;
        for state in STATES {
            for message in every_kind() {
                match (state.step(3, &message), expected(state, message.name())) {
                    (Ok(next), Some(want)) => assert_eq!(next, want, "{state:?} + {}", message.name()),
                    (Err(e), None) => {
                        assert_eq!(e, OutOfState { node: 3, state, got: message.name() });
                        let text = e.to_string();
                        assert!(text.contains("node 3"), "{text}");
                        assert!(text.contains(&format!("{state:?}")), "{text}");
                        assert!(text.contains(message.name()), "{text}");
                        rejected += 1;
                    }
                    (got, want) => panic!("{state:?} + {}: got {got:?}, want {want:?}", message.name()),
                }
            }
        }
        assert!(rejected > 100, "most (state, frame) pairs are out of state: {rejected}");
    }

    #[test]
    fn heartbeats_and_deltas_are_accepted_in_every_state() {
        for state in STATES {
            for message in
                [Message::Heartbeat { node: 0, seq: 9 }, Message::TelemetryDelta { node: 0, delta: vec![1] }]
            {
                assert_eq!(state.step(0, &message), Ok(state), "{state:?} + {}", message.name());
            }
        }
    }

    #[test]
    fn a_worker_that_exits_before_connecting_fails_the_rendezvous_promptly() {
        // The test binary re-exec'd with a filter that matches no test
        // exits at once without ever dialling the coordinator.
        let args = ["no_such_test".to_string(), "--exact".to_string()];
        let mut pool = WorkerPool::spawn(1, &args, &[], Duration::from_secs(10)).expect("spawn");
        let started = Instant::now();
        let failure = pool.accept_controls().expect_err("the worker never connects");
        assert_eq!(failure.node, 0, "{}", failure.detail);
        assert!(failure.detail.contains("before connecting"), "{}", failure.detail);
        assert!(started.elapsed() < Duration::from_secs(5), "took {:?}", started.elapsed());
    }
}
