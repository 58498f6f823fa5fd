//! The worker side of the multi-process backend.
//!
//! A worker is the current binary re-exec'd with the worker-role
//! environment set.  Binaries and test harnesses that drive
//! [`ProcBackend`](crate::ProcBackend) call [`maybe_worker`] as their
//! first statement: in the parent it is a no-op, in a spawned worker it
//! runs the whole worker lifecycle and exits the process.
//!
//! Lifecycle: connect to the coordinator → `Hello` → receive the
//! [`Assignment`] → bind the peer listener and start the serving thread →
//! `Ready` → `Start` → run the local tasks through a real
//! `orwl_core` session (one-shot ORWL handles for local sections, the
//! wire protocol for remote ones) → `Done` → keep serving peers until
//! `Shutdown` → drain and upload telemetry (observed runs) → report
//! [`WorkerMetrics`] → exit.
//!
//! The control socket is held for the worker's whole life, and its
//! hang-up is the coordinator's exit signal.  One reader thread owns its
//! read half and forwards every frame to the main thread, which waits on
//! that channel with a deadline; sends (from the main thread and the
//! telemetry streamer) take the write half's mutex for one frame each.
//!
//! On recovery-enabled runs the execution span is a *loop of rounds*: a
//! coordinator `Quiesce` (a peer died), flipped into the interrupt by the
//! control reader as it arrives, stops the running round at the next
//! iteration boundary, the worker acks, adopts whatever orphans
//! the [`ReAssignment`] routes here (fresh locations, zero progress —
//! the dead node's state died with it), and `Resume` starts the next
//! round on the remaining work.  Surviving tasks keep their iteration
//! progress across rounds.
//!
//! Fault injection comes exclusively from the typed plan in
//! [`ENV_FAULTS`](crate::fault::ENV_FAULTS) (see [`crate::fault`]); a
//! malformed plan fails the worker at startup rather than silently
//! running a different experiment.
//!
//! Remote sections run the ORWL FIFO discipline over the wire: the
//! reader's `LockRequest` enters the owner's local FIFO (a one-shot read
//! handle on the owned location), the `LockGrant` carries the location
//! buffer back, and the reader's `Release` closes the section.  Each
//! (reader, owner) pair shares one connection, and a task's remote reads
//! travel as one *exchange* per (task, owner, iteration): all of the
//! batch's requests in one write, the grants read back in request order,
//! then all of its releases in one write.  The reader holds the
//! connection for the whole exchange, so exchanges never interleave and
//! the owner needs no demultiplexer; every section still keeps its own
//! three frames and its own seq.  The owner serves each connection with
//! one loop that never waits for a release: it grants requests in
//! arrival order, flushes the grants it has encoded before it would
//! block on a FIFO, and drops a section when its release arrives.
//!
//! Deadlock freedom: a batch names each location once, in ascending
//! order, and the owner holds the batch's sections until the releases
//! arrive, which the reader sends as soon as it has every grant.  A task
//! body holds at most one lock at a time and holds nothing while it waits
//! on an exchange.  So whatever a serving thread waits on is held either
//! by a task body (which finishes its section without waiting) or by
//! another serving thread that holds only smaller locations and waits
//! only on larger ones — every wait-for chain climbs in location order
//! and ends, and no cycle can form.  Flushing before blocking matters:
//! the reader of a grant that is already decided must not wait on a
//! later section of its own batch.

use crate::assignment::{Assignment, ReAssignment};
use crate::coordinator::{ENV_COORD, ENV_NODE, ENV_ROLE};
use crate::fault::FaultPlan;
use crate::metrics::{WorkerMetrics, MAX_WAIT_SAMPLES};
use crate::transport::FramedStream;
use crate::wire::{Message, WireAccess, MAX_DATA};
use orwl_core::handle::OwnedGuard;
use orwl_core::location::Location;
use orwl_core::request::AccessMode;
use orwl_core::session::{Session, ThreadBackend};
use orwl_core::task::{LocationLink, OrwlProgram, TaskSpec};
use orwl_obs::json::Json;
use orwl_obs::{ClockKind, DeltaSampler, EventKind, ObsEvent, Recorder, RunTelemetry, TelemetrySnapshot};
use orwl_topo::binding::RecordingBinder;
use orwl_topo::object::ObjectType;
use orwl_topo::topology::{LevelSpec, Topology};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Events kept in an uploaded snapshot (newest win; the remainder joins
/// the drop counter).  Keeps the upload well under the wire's
/// `MAX_SNAPSHOT` budget.
const MAX_UPLOAD_EVENTS: usize = 100_000;

/// Events kept in one streamed interval delta (newest win; the remainder
/// joins the delta's drop counter).  Keeps every delta well under the
/// wire's `MAX_DELTA` budget however bursty the interval was.
const MAX_DELTA_EVENTS: usize = 50_000;

/// The owned-locations map, shared by the serving threads, the task
/// bodies and the recovery path (which inserts adopted locations between
/// rounds).  Readers clone the `Arc` out and drop the guard before any
/// blocking FIFO work, so a between-rounds write never deadlocks against
/// a section in flight.
type SharedLocations = Arc<RwLock<HashMap<u64, Arc<Location<u64>>>>>;

/// Process-local `LocationId` → global task index, shared with the
/// telemetry streamer and grown by every adoption.
type SharedGlobals = Arc<RwLock<HashMap<u64, u64>>>;

/// Runs the worker lifecycle and exits iff this process was spawned as an
/// `orwl-proc` worker; returns immediately otherwise.  Call first thing
/// in `main` of any binary that drives `ProcBackend`.
pub fn maybe_worker() {
    if std::env::var(ENV_ROLE).as_deref() != Ok("worker") {
        return;
    }
    match worker_main() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("orwl-proc worker failed: {e}");
            std::process::exit(1);
        }
    }
}

fn env_usize(key: &str) -> Result<usize, String> {
    std::env::var(key)
        .map_err(|_| format!("{key} is not set"))?
        .parse()
        .map_err(|e| format!("{key} is not a number: {e}"))
}

fn worker_main() -> Result<(), String> {
    let node = env_usize(ENV_NODE)?;
    let coord = std::env::var(ENV_COORD).map_err(|_| format!("{ENV_COORD} is not set"))?;
    // The connect retries under a bounded budget: the coordinator binds
    // the rendezvous socket before spawning, but a loaded machine can
    // still delay the listener's backlog.
    let stream = FramedStream::connect_retry(std::path::Path::new(&coord), Duration::from_secs(10))
        .map_err(|e| format!("connecting to coordinator: {e}"))?;
    let interrupt = Arc::new(Interrupt::default());
    let control =
        Control::open(stream, Arc::clone(&interrupt)).map_err(|e| format!("control socket: {e}"))?;
    // The two worker-side timestamps of the clock-offset handshake: the
    // coordinator stamps the matching receive/send instants into the
    // assignment's obs spec, and the midpoint of the two one-way legs
    // estimates this process's clock offset (see `orwl_obs::merge`).
    let hello_send_us = orwl_obs::process_clock_us();
    control.send(&Message::Hello { node: node as u32 }).map_err(|e| format!("sending hello: {e}"))?;
    let Message::Assignment { json } = control.recv(&["assignment"], Duration::from_secs(30))? else {
        unreachable!("Control::recv returns an expected kind");
    };
    let assign_recv_us = orwl_obs::process_clock_us();
    let doc = Json::parse(&json).map_err(|e| format!("assignment is not valid JSON: {e}"))?;
    let assignment = Assignment::from_json(&doc).map_err(|e| format!("bad assignment: {e}"))?;
    if assignment.node != node {
        return Err(format!("assignment for node {} delivered to node {node}", assignment.node));
    }
    let outcome = run_worker(&control, &interrupt, &assignment, hello_send_us, assign_recv_us);
    if let Err(e) = &outcome {
        let _ = control.send(&Message::Error { message: e.clone() });
    }
    control.close();
    outcome
}

/// The worker's end of the control connection, held for the worker's
/// whole life: the coordinator takes its hang-up as the exit signal.  One
/// reader thread owns the read half; it flips the [`Interrupt`] on
/// `Quiesce`, so a round parks even when no task touches the dead peer,
/// and forwards every frame to the main thread's inbox.  Sends hold the
/// write-half mutex for one frame, so the telemetry streamer and the main
/// thread interleave whole frames.
struct Control {
    writer: Arc<Mutex<FramedStream>>,
    inbox: mpsc::Receiver<Result<Message, String>>,
    reader: std::thread::JoinHandle<()>,
}

impl Control {
    fn open(stream: FramedStream, interrupt: Arc<Interrupt>) -> std::io::Result<Control> {
        let mut read_half = FramedStream::new(stream.socket().try_clone()?);
        let (frames, inbox) = mpsc::channel();
        let reader = std::thread::spawn(move || loop {
            // The coordinator is silent for whole rounds: wait as long as
            // the OS allows; `close` ends the wait by shutting the half down.
            let frame = match read_half.recv(Duration::MAX) {
                Ok(message) => {
                    if matches!(message, Message::Quiesce { .. }) {
                        interrupt.interrupt();
                    }
                    Ok(message)
                }
                Err(e) => Err(e.to_string()),
            };
            let last = frame.is_err();
            if frames.send(frame).is_err() || last {
                return;
            }
        });
        Ok(Control { writer: Arc::new(Mutex::new(stream)), inbox, reader })
    }

    fn send(&self, message: &Message) -> Result<(), String> {
        self.writer
            .lock()
            .map_err(|_| "control stream poisoned".to_string())?
            .send(message)
            .map_err(|e| e.to_string())
    }

    /// Waits up to `deadline` for the next control frame, which must be
    /// one of the `expect`ed kinds.
    fn recv(&self, expect: &[&'static str], deadline: Duration) -> Result<Message, String> {
        let wanted = expect.join(" or ");
        match self.inbox.recv_timeout(deadline) {
            Ok(Ok(message)) if expect.contains(&message.name()) => Ok(message),
            Ok(Ok(Message::Error { message })) => Err(format!("peer reported: {message}")),
            Ok(Ok(other)) => Err(format!("expected {wanted}, got {}", other.name())),
            Ok(Err(e)) => Err(format!("while waiting for {wanted}: {e}")),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(format!("while waiting for {wanted}: timed out")),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(format!("while waiting for {wanted}: the control reader stopped"))
            }
        }
    }

    /// Shuts the read half down, which wakes the reader, and joins it.
    /// The write half stays open until the worker exits.
    fn close(self) {
        let shut = self.writer.lock().is_ok_and(|w| w.socket().shutdown(std::net::Shutdown::Read).is_ok());
        if shut {
            let _ = self.reader.join();
        }
    }
}

/// Shared tallies of the reader side (remote sections this worker opened).
#[derive(Default)]
struct ReaderTallies {
    same_rack_payload_bytes: AtomicU64,
    cross_rack_payload_bytes: AtomicU64,
    remote_reads: AtomicU64,
    lock_wait_count: AtomicU64,
    lock_wait_total_ns: AtomicU64,
    lock_wait_samples: Mutex<Vec<(u64, u64)>>,
}

/// The reader-side gateway: one serialized connection per owner peer.
/// Recovery rewrites the routing table and drops the dead peer's
/// connection between rounds; connections to new owners open lazily on
/// first use.
struct PeerGateway {
    conns: RwLock<BTreeMap<usize, Arc<Mutex<FramedStream>>>>,
    routing: RwLock<Vec<usize>>,
    peer_listen: Vec<String>,
    rack_of_node: Vec<usize>,
    my_node: usize,
    my_rack: usize,
    io_timeout: Duration,
    wire_delay: Duration,
    seq: AtomicU64,
    tallies: ReaderTallies,
}

impl PeerGateway {
    fn connect(assignment: &Assignment, faults: &FaultPlan) -> Result<PeerGateway, String> {
        let gateway = PeerGateway {
            conns: RwLock::new(BTreeMap::new()),
            routing: RwLock::new(assignment.node_of_task.clone()),
            peer_listen: assignment.peer_listen.clone(),
            rack_of_node: assignment.rack_of_node.clone(),
            my_node: assignment.node,
            my_rack: assignment.rack_of_node[assignment.node],
            io_timeout: Duration::from_millis(assignment.io_timeout_ms),
            wire_delay: Duration::from_millis(faults.wire_delay_ms(assignment.node).unwrap_or(0)),
            // Seqs are namespaced by node (high 32 bits) so a request id
            // is unique across every reader process of the run — the
            // merged timeline matches requests to grants by this id.
            seq: AtomicU64::new((assignment.node as u64) << 32),
            tallies: ReaderTallies::default(),
        };
        // Eagerly dial every owner the initial schedule names; peers
        // adopted into the routing later connect lazily on first read.
        let mut peers = BTreeSet::new();
        for phase in &assignment.phases {
            for read in &phase.reads {
                let owner = assignment.node_of_task[read.src];
                if owner != assignment.node {
                    peers.insert(owner);
                }
            }
        }
        for peer in peers {
            gateway.conn_for(peer)?;
        }
        Ok(gateway)
    }

    /// The serialized connection to `owner`, dialling it (bounded retry:
    /// peers bind their listeners concurrently) on first use.
    fn conn_for(&self, owner: usize) -> Result<Arc<Mutex<FramedStream>>, String> {
        if let Some(conn) = self.conns.read().ok().and_then(|map| map.get(&owner).cloned()) {
            return Ok(conn);
        }
        let mut map = self.conns.write().map_err(|_| "gateway connection map poisoned".to_string())?;
        if let Some(conn) = map.get(&owner) {
            return Ok(Arc::clone(conn));
        }
        let path = std::path::Path::new(&self.peer_listen[owner]);
        let stream = FramedStream::connect_retry(path, self.io_timeout)
            .map_err(|e| format!("connecting to peer {owner}: {e}"))?;
        let conn = Arc::new(Mutex::new(stream));
        map.insert(owner, Arc::clone(&conn));
        Ok(conn)
    }

    /// Swaps in the post-loss routing table and hangs up on the dead
    /// peer.  Runs between rounds only (the quiesce barrier guarantees no
    /// section is in flight).
    fn apply_reassignment(&self, node_of_task: &[usize], dead: usize) {
        if let Ok(mut routing) = self.routing.write() {
            node_of_task.clone_into(&mut routing);
        }
        if let Ok(mut conns) = self.conns.write() {
            conns.remove(&dead);
        }
    }

    /// The node currently owning `src`'s location (remote sources only).
    fn owner_of(&self, src: usize) -> Result<usize, String> {
        let owner = self
            .routing
            .read()
            .map_err(|_| "gateway routing table poisoned".to_string())?
            .get(src)
            .copied()
            .ok_or_else(|| format!("task {src} is not in the routing table"))?;
        if owner == self.my_node {
            return Err(format!("task {src} is routed here but its location is absent"));
        }
        Ok(owner)
    }

    /// One exchange with the batch's owner: every request in one write,
    /// the grants (with payload) in request order, every release in one
    /// write.  Each section keeps its own seq and its own three frames.
    fn exchange(&self, batch: &RemoteBatch) -> Result<(), String> {
        let owner = batch.owner;
        let conn = self.conn_for(owner)?;
        if !self.wire_delay.is_zero() {
            // Injected link latency (fault plans only; zero in production
            // runs), paid before the exchange opens.
            std::thread::sleep(self.wire_delay);
        }
        let mut stream = conn.lock().map_err(|_| "gateway connection poisoned".to_string())?;
        let first = self.seq.fetch_add(batch.reads.len() as u64, Ordering::Relaxed);
        let sections = || batch.reads.iter().zip(first..);
        for (&(location, bytes), seq) in sections() {
            orwl_obs::emit(EventKind::LockRequest { rseq: seq, location, owner: owner as u32 });
            stream.queue(&Message::LockRequest { seq, location, access: WireAccess::Read, bytes });
        }
        stream.flush().map_err(|e| format!("lock requests to peer {owner}: {e}"))?;
        let requested = Instant::now();
        // Per section: (payload bytes, request→grant ns, grant instant).
        let mut grants = Vec::with_capacity(batch.reads.len());
        for (&(location, _), seq) in sections() {
            let data = match stream.recv(self.io_timeout) {
                Ok(Message::LockGrant { seq: s, location: l, data }) if s == seq && l == location => data,
                Ok(Message::Error { message }) => return Err(format!("peer {owner}: {message}")),
                Ok(other) => {
                    return Err(format!("peer {owner}: expected lock_grant, got {}", other.name()));
                }
                Err(e) => return Err(format!("peer {owner}: waiting for grant: {e}")),
            };
            grants.push((data.len() as u64, requested.elapsed().as_nanos() as u64, Instant::now()));
        }
        for (&(location, _), seq) in sections() {
            stream.queue(&Message::Release { seq, location });
        }
        stream.flush().map_err(|e| format!("releases to peer {owner}: {e}"))?;
        for ((&(location, _), seq), &(_, _, granted_at)) in sections().zip(&grants) {
            orwl_obs::emit(EventKind::LockRelease {
                rseq: seq,
                location,
                held_ns: granted_at.elapsed().as_nanos() as u64,
            });
        }
        drop(stream);

        let lane = if self.rack_of_node[owner] == self.my_rack {
            &self.tallies.same_rack_payload_bytes
        } else {
            &self.tallies.cross_rack_payload_bytes
        };
        lane.fetch_add(grants.iter().map(|g| g.0).sum(), Ordering::Relaxed);
        let n = grants.len() as u64;
        self.tallies.remote_reads.fetch_add(n, Ordering::Relaxed);
        self.tallies.lock_wait_count.fetch_add(n, Ordering::Relaxed);
        self.tallies.lock_wait_total_ns.fetch_add(grants.iter().map(|g| g.1).sum(), Ordering::Relaxed);
        if let Ok(mut samples) = self.tallies.lock_wait_samples.lock() {
            let room = MAX_WAIT_SAMPLES.saturating_sub(samples.len());
            samples.extend(batch.reads.iter().zip(&grants).take(room).map(|(r, g)| (r.0, g.1)));
        }
        Ok(())
    }

    /// Tears the gateway apart for the teardown accounting.
    fn into_parts(self) -> (BTreeMap<usize, Arc<Mutex<FramedStream>>>, ReaderTallies) {
        let conns = self.conns.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
        (conns, self.tallies)
    }
}

/// Serves one inbound peer connection until the peer hangs up: each
/// `LockRequest` enters the owned location's ORWL FIFO through a one-shot
/// handle and, once granted, queues its grant (the buffer encoded in
/// place); each `Release` drops its section.  The loop never waits for a
/// release.  Queued grants go out when no whole frame is left buffered,
/// and before any FIFO wait that would otherwise hold back grants already
/// decided.  Whatever is still held when the loop ends is released.
fn serve_connection(mut stream: FramedStream, locations: SharedLocations) -> (u64, u64, u64, u64) {
    // Granted sections awaiting their release: (seq, location, guard).
    let mut held: Vec<(u64, u64, OwnedGuard<u64>)> = Vec::new();
    loop {
        let message = match stream.try_buffered() {
            Ok(Some(message)) => message,
            Ok(None) => {
                if stream.flush().is_err() {
                    break;
                }
                // Block on the socket: the peer's hang-up, or teardown's
                // `shutdown(Read)` (see `accept_loop`), ends the wait.
                match stream.recv(Duration::MAX) {
                    Ok(message) => message,
                    Err(_) => break,
                }
            }
            Err(_) => break,
        };
        match message {
            Message::LockRequest { seq, location, access, bytes } => {
                match grant(&mut stream, &locations, seq, location, access, bytes) {
                    Ok(guard) => held.push((seq, location, guard)),
                    Err(message) => {
                        let _ = stream.send(&Message::Error { message });
                        break;
                    }
                }
            }
            Message::Release { seq, location } => {
                match held.iter().position(|&(s, l, _)| s == seq && l == location) {
                    Some(at) => drop(held.swap_remove(at)),
                    None => break, // a release for no held section: broken stream
                }
            }
            _ => break,
        }
    }
    drop(held);
    (stream.frames_sent(), stream.frames_received(), stream.bytes_sent(), stream.bytes_received())
}

/// Grants one remote section through the owned location's FIFO — the
/// same `orwl_core` grant path as a local `Handle::acquire` — and queues
/// its `LockGrant`.  A request that cannot be granted at once first
/// flushes the grants already queued, then blocks.
fn grant(
    stream: &mut FramedStream,
    locations: &SharedLocations,
    seq: u64,
    location: u64,
    access: WireAccess,
    bytes: u64,
) -> Result<OwnedGuard<u64>, String> {
    // Clone the Arc out and release the map guard before any FIFO work: a
    // blocked acquire must not hold the map against the recovery path's
    // adoption write.
    let loc = locations
        .read()
        .ok()
        .and_then(|map| map.get(&location).cloned())
        .ok_or_else(|| format!("location {location} is not hosted here"))?;
    let mode = match access {
        WireAccess::Read => AccessMode::Read,
        WireAccess::Write => AccessMode::Write,
    };
    let mut handle = loc.handle(mode);
    let entered_fifo = Instant::now();
    handle.request().map_err(|e| format!("lock request: {e}"))?;
    let guard = match handle.try_acquire_owned() {
        Ok(guard) => guard,
        Err(handle) => {
            stream.flush().map_err(|e| format!("flushing grants: {e}"))?;
            handle.acquire_owned().map_err(|e| format!("lock acquisition: {e}"))?
        }
    };
    orwl_obs::emit(EventKind::LockGrant {
        rseq: seq,
        location,
        wait_ns: entered_fifo.elapsed().as_nanos() as u64,
    });
    let len = (bytes.min(MAX_DATA as u64)) as usize;
    let value = (*guard).to_le_bytes();
    stream.queue_grant(seq, location, len, |data| {
        let head = data.len().min(value.len());
        data[..head].copy_from_slice(&value[..head]);
    });
    Ok(guard)
}

/// The accept loop: hands every inbound connection to its own serving
/// thread and, once shut down (the flag is set, then one connection
/// wakes the blocked `accept`), ends every serving loop with
/// `shutdown(Read)` on its socket, joins them and returns the summed
/// socket counters as `(frames_sent, frames_received, bytes_sent,
/// bytes_received)`.  Shutdown comes after the coordinator's `Shutdown`
/// barrier, so every section anywhere is released by then; frames already
/// buffered are still read before the end-of-stream.
fn accept_loop(
    listener: UnixListener,
    locations: SharedLocations,
    shutdown: Arc<AtomicBool>,
) -> (u64, u64, u64, u64) {
    let mut handlers = Vec::new();
    let mut sockets = Vec::new();
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { break };
        let Ok(socket) = stream.try_clone() else { break };
        sockets.push(socket);
        let locations = Arc::clone(&locations);
        handlers.push(std::thread::spawn(move || serve_connection(FramedStream::new(stream), locations)));
    }
    for socket in &sockets {
        let _ = socket.shutdown(std::net::Shutdown::Read);
    }
    let mut totals = (0, 0, 0, 0);
    for handler in handlers {
        if let Ok((fs, fr, bs, br)) = handler.join() {
            totals = (totals.0 + fs, totals.1 + fr, totals.2 + bs, totals.3 + br);
        }
    }
    totals
}

/// Why one iteration failed: a broken peer exchange (the worker-side
/// symptom of a node loss — recoverable) or anything local (never).
enum IterError {
    Remote(String),
    Local(String),
}

/// The park-on-peer-failure switch shared by every task body of a round.
/// On recovery-enabled runs a remote failure (or a coordinator `Quiesce`
/// seen by the control reader) flips it, and every task breaks out at its
/// next iteration boundary instead of failing the worker.
#[derive(Default)]
struct Interrupt {
    quiesce: AtomicBool,
    reason: Mutex<Option<String>>,
}

impl Interrupt {
    fn parked(&self) -> bool {
        self.quiesce.load(Ordering::Relaxed)
    }

    /// A task hit a broken peer: remember the first cause and park.
    fn park(&self, reason: String) {
        if let Ok(mut slot) = self.reason.lock() {
            slot.get_or_insert(reason);
        }
        self.quiesce.store(true, Ordering::Relaxed);
    }

    /// The coordinator asked for a quiesce (no local symptom needed).
    fn interrupt(&self) {
        self.quiesce.store(true, Ordering::Relaxed);
    }

    fn clear(&self) {
        self.quiesce.store(false, Ordering::Relaxed);
        if let Ok(mut slot) = self.reason.lock() {
            *slot = None;
        }
    }

    fn parked_reason(&self) -> Option<String> {
        self.reason.lock().ok().and_then(|slot| slot.clone())
    }
}

/// One task's plan: per phase, `(iterations, reads as (src, bytes))`.
type PhaseSchedule = Vec<(usize, Vec<(usize, f64)>)>;

/// One exchange's worth of a task's remote reads: the sections it reads
/// from one owner per iteration, as `(location, bytes wanted)`, each
/// location once and in ascending order — the order the owner acquires
/// them in, which its deadlock freedom rests on (see the module doc).
struct RemoteBatch {
    owner: usize,
    reads: Vec<(u64, u64)>,
}

/// One phase of a task's plan with each read's locality resolved for the
/// current round.
struct ResolvedPhase {
    iterations: usize,
    /// Reads of locations hosted here, as `(src, bytes, location)`.
    local: Vec<(usize, f64, Arc<Location<u64>>)>,
    /// Remote reads, one batch per exchange.
    remote: Vec<RemoteBatch>,
}

impl ResolvedPhase {
    /// Splits one phase's reads into local reads and per-owner remote
    /// batches against the current location map and routing table.  The
    /// assignment's validation guarantees each source appears once.
    fn resolve(
        iterations: usize,
        reads: &[(usize, f64)],
        owned: &HashMap<u64, Arc<Location<u64>>>,
        gateway: &PeerGateway,
    ) -> Result<ResolvedPhase, String> {
        let mut local = Vec::new();
        let mut by_owner: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for &(src, bytes) in reads {
            match owned.get(&(src as u64)) {
                Some(loc) => local.push((src, bytes, Arc::clone(loc))),
                None => {
                    let want = (bytes.round().max(0.0) as u64).min(MAX_DATA as u64);
                    by_owner.entry(gateway.owner_of(src)?).or_default().push((src as u64, want));
                }
            }
        }
        let remote = by_owner
            .into_iter()
            .map(|(owner, mut reads)| {
                reads.sort_unstable_by_key(|&(location, _)| location);
                RemoteBatch { owner, reads }
            })
            .collect();
        Ok(ResolvedPhase { iterations, local, remote })
    }
}

/// The worker's mutable work ledger across rounds: per-task phase
/// schedules and completed-iteration progress.  Surviving tasks carry
/// their progress into the next round; adopted tasks enter at zero (the
/// run is checkpoint-free — the dead node's progress died with it).
struct WorkState {
    /// Per task: for each phase, `(iterations, reads as (src, bytes))`.
    schedules: HashMap<usize, PhaseSchedule>,
    /// Per task: completed iterations per phase, shared with the round's
    /// task closure.
    progress: HashMap<usize, Arc<Vec<AtomicUsize>>>,
}

impl WorkState {
    fn new(assignment: &Assignment) -> WorkState {
        let local_tasks = assignment.local_tasks();
        let n_phases = assignment.phases.len();
        let mut schedules: HashMap<usize, PhaseSchedule> = HashMap::new();
        for phase in &assignment.phases {
            let mut per_task: HashMap<usize, Vec<(usize, f64)>> = HashMap::new();
            for read in &phase.reads {
                per_task.entry(read.reader).or_default().push((read.src, read.bytes));
            }
            for &t in &local_tasks {
                schedules
                    .entry(t)
                    .or_default()
                    .push((phase.iterations, per_task.remove(&t).unwrap_or_default()));
            }
        }
        let progress = local_tasks
            .iter()
            .map(|&t| (t, Arc::new((0..n_phases).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>())))
            .collect();
        WorkState { schedules, progress }
    }

    /// Enters the adopted orphans into the ledger at zero progress.
    fn adopt(&mut self, reassign: &ReAssignment) {
        for &t in &reassign.adopted {
            let schedule: PhaseSchedule = reassign
                .phases
                .iter()
                .map(|phase| {
                    let reads = phase
                        .reads
                        .iter()
                        .filter(|read| read.reader == t)
                        .map(|read| (read.src, read.bytes))
                        .collect();
                    (phase.iterations, reads)
                })
                .collect();
            let n_phases = schedule.len();
            self.schedules.insert(t, schedule);
            self.progress.insert(t, Arc::new((0..n_phases).map(|_| AtomicUsize::new(0)).collect()));
        }
    }

    /// The tasks with any iterations left, in deterministic order.
    fn tasks_with_work(&self) -> Vec<usize> {
        let mut tasks: Vec<usize> =
            self.schedules
                .iter()
                .filter(|(t, schedule)| {
                    schedule.iter().enumerate().any(|(k, (iterations, _))| {
                        self.progress[*t][k].load(Ordering::Relaxed) < *iterations
                    })
                })
                .map(|(&t, _)| t)
                .collect();
        tasks.sort_unstable();
        tasks
    }
}

#[allow(clippy::too_many_lines)]
fn run_worker(
    control: &Control,
    interrupt: &Arc<Interrupt>,
    assignment: &Assignment,
    hello_send_us: u64,
    assign_recv_us: u64,
) -> Result<(), String> {
    let io_timeout = Duration::from_millis(assignment.io_timeout_ms);
    let faults = FaultPlan::from_env().map_err(|e| format!("fault plan: {e}"))?;
    let local_tasks = assignment.local_tasks();

    // When the assignment asks for observation, install a wall-clock
    // recorder process-wide: the core session's lock-wait hooks, the
    // gateway's request/release events and the serving threads' grant
    // events all land in it.  The offset estimate is the NTP midpoint of
    // the Hello→Assignment handshake's two one-way legs, in coordinator
    // clock minus worker clock.
    let obs = assignment.obs.as_ref().map(|spec| {
        let offset_us = ((spec.hello_recv_us as f64 - hello_send_us as f64)
            + (spec.assign_send_us as f64 - assign_recv_us as f64))
            / 2.0;
        let recorder = Arc::new(Recorder::new(ClockKind::Wall, spec.config()));
        let registration = orwl_obs::install(&recorder);
        (recorder, registration, offset_us)
    });

    // The locations this worker owns, keyed by global task index.  The
    // serving thread and the local task bodies share the same Arcs, so
    // remote and local sections contend in the same ORWL FIFO.
    let locations: SharedLocations = Arc::new(RwLock::new(HashMap::new()));
    {
        let mut map = locations.write().map_err(|_| "location map poisoned".to_string())?;
        for &t in &local_tasks {
            map.insert(t as u64, Location::new(format!("loc-{t}"), 0u64));
        }
    }

    let listener = UnixListener::bind(&assignment.listen)
        .map_err(|e| format!("binding peer listener at {}: {e}", assignment.listen))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let locations = Arc::clone(&locations);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || accept_loop(listener, locations, shutdown))
    };

    control.send(&Message::Ready { node: assignment.node as u32 })?;
    control.recv(&["start"], io_timeout)?;

    if faults.panics_after_start(assignment.node) {
        panic!("injected failure on node {} (for robustness tests)", assignment.node);
    }
    if faults.errors_after_start(assignment.node) {
        return Err(format!("injected error on node {} (for robustness tests)", assignment.node));
    }
    if let Some(after_ms) = faults.sigkill_after_ms(assignment.node) {
        // The hard-crash fault: this process disappears mid-run with no
        // goodbye of any kind — exactly what a powered-off host looks
        // like to the survivors.
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(after_ms));
            // SAFETY: raising a signal against our own pid.
            unsafe {
                libc::kill(std::process::id() as libc::pid_t, libc::SIGKILL);
            }
        });
    }

    // Maps the process-local `LocationId` of every owned location to its
    // global task index — both the streamed deltas and the final snapshot
    // must speak the global location namespace.
    let global_of: SharedGlobals = Arc::new(RwLock::new(
        locations
            .read()
            .map_err(|_| "location map poisoned".to_string())?
            .iter()
            .map(|(&task, loc)| (loc.id().0, task))
            .collect(),
    ));

    let gateway = Arc::new(PeerGateway::connect(assignment, &faults)?);

    // Live runs stream telemetry from `Start` until `Shutdown`: one
    // heartbeat (and, when anything happened, one interval delta) per
    // configured interval, interleaved on the shared control stream.
    let streamer = obs.as_ref().and_then(|(recorder, _, offset_us)| {
        let interval_ms = assignment.obs.as_ref().map_or(0, |spec| spec.stream_interval_ms);
        let stall = Duration::from_millis(faults.stall_ms(assignment.node).unwrap_or(0));
        let drop_first = faults.drop_heartbeats(assignment.node);
        (interval_ms > 0).then(|| {
            Streamer::spawn(
                Arc::clone(&control.writer),
                Arc::clone(recorder),
                Arc::clone(&global_of),
                assignment.node as u32,
                Duration::from_millis(interval_ms),
                *offset_us,
                stall,
                drop_first,
            )
        })
    });

    let mut work = WorkState::new(assignment);
    let mut wall_seconds = 0.0;

    // The execution span: one round on a fault-free run; on recovery
    // rounds, quiesce → ack → adopt → resume and go again until the
    // coordinator is satisfied and sends Shutdown.
    let run_outcome = (|| -> Result<(), String> {
        loop {
            let started = Instant::now();
            run_round(assignment, &work, &locations, &gateway, interrupt)?;
            wall_seconds += started.elapsed().as_secs_f64();
            let quiesce = if interrupt.parked() {
                // Parked on a peer failure or on the coordinator's
                // quiesce, which is in the inbox or still in flight.
                control.recv(&["quiesce"], io_timeout).map_err(|e| match interrupt.parked_reason() {
                    Some(cause) => {
                        format!("parked on a peer failure ({cause}) but recovery never arrived: {e}")
                    }
                    None => e,
                })?
            } else {
                control.send(&Message::Done { node: assignment.node as u32 })?;
                // A quiesce here raced our natural finish: the coordinator
                // tolerates the Done, and we still join the recovery round
                // (we may adopt orphans).
                match control.recv(&["shutdown", "quiesce"], io_timeout)? {
                    Message::Shutdown => break,
                    message => message,
                }
            };
            let Message::Quiesce { round } = quiesce else {
                unreachable!("Control::recv returns an expected kind");
            };
            apply_recovery(
                control, interrupt, assignment, round, io_timeout, &mut work, &locations, &global_of,
                &gateway,
            )?;
        }
        Ok(())
    })();

    // The streamer owns a recorder Arc and the drain below needs the
    // recorder unique, so the join happens before any telemetry work —
    // and before bailing on a failed run.
    if let Some(streamer) = streamer {
        streamer.stop();
    }
    run_outcome?;

    // Drain and ship the telemetry after the Shutdown barrier: the
    // coordinator only broadcasts it once *every* node has reported Done,
    // at which point every section anywhere has been granted and released
    // — so the serving threads' grant events are all in the rings by now
    // and the drain loses nothing.  (Draining at Done instead would race
    // a slow peer's read storm against our own early finish.)
    if let Some((recorder, registration, offset_us)) = obs {
        drop(registration); // stop the hooks before draining
        let origin_us = recorder.origin_us() as f64;
        let recorder = Arc::try_unwrap(recorder).map_err(|_| "recorder still shared at drain".to_string())?;
        let mut telemetry = recorder.finish("proc");
        {
            let globals = global_of.read().map_err(|_| "location namespace map poisoned".to_string())?;
            remap_lock_wait_locations(&mut telemetry.events, &globals);
        }
        cap_events(&mut telemetry, MAX_UPLOAD_EVENTS);
        let snapshot = TelemetrySnapshot::from_telemetry(telemetry, origin_us, offset_us).encode();
        control
            .send(&Message::TelemetryUpload { node: assignment.node as u32, snapshot })
            .map_err(|e| format!("uploading telemetry: {e}"))?;
    }

    // Order matters: every task body has returned by now (the session run
    // joined them), so the gateway Arc is unique again; closing its
    // connections makes every peer's serving thread observe the hangup,
    // and only then is joining our own server deadlock-free (peers close
    // their gateways at the same protocol step).
    let gateway = Arc::try_unwrap(gateway).map_err(|_| "gateway still shared after the run".to_string())?;
    let (conns, tallies) = gateway.into_parts();
    let mut gateway_counters = (0u64, 0u64, 0u64, 0u64);
    for conn in conns.values() {
        if let Ok(stream) = conn.lock() {
            gateway_counters.0 += stream.frames_sent();
            gateway_counters.1 += stream.frames_received();
            gateway_counters.2 += stream.bytes_sent();
            gateway_counters.3 += stream.bytes_received();
        }
    }
    drop(conns); // hang up on every owner peer
    shutdown.store(true, Ordering::Relaxed);
    // Wake the blocked accept so the loop sees the flag.
    UnixStream::connect(&assignment.listen).map_err(|e| format!("waking the peer listener: {e}"))?;
    let server_counters = server.join().unwrap_or_default();

    let metrics = compose_metrics(assignment, wall_seconds, &tallies, gateway_counters, server_counters);
    control.send(&Message::Metrics { node: assignment.node as u32, json: metrics.to_json().pretty() })?;
    Ok(())
}

/// One recovery exchange, entered after the round stopped (parked or
/// finished): ack the quiesce, receive and validate this node's
/// [`ReAssignment`], adopt the orphans routed here (fresh locations at
/// zero progress), swap the gateway's routing table, re-arm the
/// interrupt, signal `Ready` and wait out the `Resume` barrier.
#[allow(clippy::too_many_arguments)]
fn apply_recovery(
    control: &Control,
    interrupt: &Interrupt,
    assignment: &Assignment,
    round: u32,
    io_timeout: Duration,
    work: &mut WorkState,
    locations: &SharedLocations,
    global_of: &SharedGlobals,
    gateway: &PeerGateway,
) -> Result<(), String> {
    let node = assignment.node as u32;
    control.send(&Message::QuiesceAck { node, round })?;
    let Message::ReAssignment { json } = control.recv(&["reassignment"], io_timeout)? else {
        unreachable!("Control::recv returns an expected kind");
    };
    let doc = Json::parse(&json).map_err(|e| format!("re-assignment is not valid JSON: {e}"))?;
    let reassign = ReAssignment::from_json(&doc).map_err(|e| format!("bad re-assignment: {e}"))?;
    if reassign.node != assignment.node {
        return Err(format!(
            "re-assignment for node {} delivered to node {}",
            reassign.node, assignment.node
        ));
    }
    if reassign.round != round {
        return Err(format!("re-assignment answers round {}, quiesce was round {round}", reassign.round));
    }
    // Adopt the orphans: fresh locations (the dead node's state is gone)
    // entering the same maps the serving threads and the streamer read.
    {
        let mut map = locations.write().map_err(|_| "location map poisoned".to_string())?;
        let mut globals = global_of.write().map_err(|_| "location namespace map poisoned".to_string())?;
        for &t in &reassign.adopted {
            let loc = Location::new(format!("loc-{t}"), 0u64);
            globals.insert(loc.id().0, t as u64);
            map.insert(t as u64, loc);
        }
    }
    work.adopt(&reassign);
    gateway.apply_reassignment(&reassign.node_of_task, reassign.dead);
    // Re-armed before `Ready`: the next round's quiesce cannot be sent
    // until the coordinator has every `Ready`, so none is lost here.
    interrupt.clear();
    control.send(&Message::Ready { node })?;
    let Message::Resume { round: resumed } = control.recv(&["resume"], io_timeout)? else {
        unreachable!("Control::recv returns an expected kind");
    };
    if resumed != round {
        return Err(format!("resume for round {resumed}, expected round {round}"));
    }
    Ok(())
}

/// The worker's live-telemetry streamer: one background thread sampling
/// the recorder into interval deltas and interleaving `Heartbeat` /
/// `TelemetryDelta` frames on the shared control stream, from `Start`
/// until [`Streamer::stop`].  Every wait is on the stop channel, so a
/// stop never waits out an interval or a stall.
struct Streamer {
    stop: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<()>,
}

impl Streamer {
    #[allow(clippy::too_many_arguments)]
    fn spawn(
        control: Arc<Mutex<FramedStream>>,
        recorder: Arc<Recorder>,
        global_of: SharedGlobals,
        node: u32,
        interval: Duration,
        offset_us: f64,
        stall: Duration,
        drop_first: u64,
    ) -> Streamer {
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let mut sampler = DeltaSampler::new(recorder, offset_us);
            let mut seq = 0u64;
            // Injected initial silence (straggler tests only; zero in
            // production runs).
            if !stall.is_zero() && stopped.recv_timeout(stall) != Err(mpsc::RecvTimeoutError::Timeout) {
                return;
            }
            while stopped.recv_timeout(interval) == Err(mpsc::RecvTimeoutError::Timeout) {
                let mut delta = sampler.sample();
                if let Ok(globals) = global_of.read() {
                    remap_lock_wait_locations(&mut delta.events, &globals);
                }
                if delta.events.len() > MAX_DELTA_EVENTS {
                    let excess = delta.events.len() - MAX_DELTA_EVENTS;
                    delta.events.drain(..excess);
                    delta.dropped += excess as u64;
                }
                // The heartbeat-drop fault swallows the first `drop_first`
                // beats (the seq keeps counting, deltas keep flowing) —
                // the minimal signal loss that trips straggler detection.
                let beat = (seq >= drop_first).then_some(Message::Heartbeat { node, seq });
                let delta =
                    (!delta.is_empty()).then(|| Message::TelemetryDelta { node, delta: delta.encode() });
                for frame in beat.iter().chain(&delta) {
                    if !control.lock().is_ok_and(|mut stream| stream.send(frame).is_ok()) {
                        return; // coordinator gone: the main thread will fail too
                    }
                }
                seq += 1;
            }
        });
        Streamer { stop, handle }
    }

    /// Signals the streaming thread and joins it, releasing its recorder
    /// Arc so the caller can drain.
    fn stop(self) {
        drop(self.stop);
        let _ = self.handle.join();
    }
}

/// Rewrites the `location` of core-emitted `LockWait` events from the
/// process-local `LocationId` to the global task index, so merged
/// timelines speak one location namespace.  (The wire-level
/// request/grant/release events already carry global indices.)
fn remap_lock_wait_locations(events: &mut [ObsEvent], global_of: &HashMap<u64, u64>) {
    for ev in events {
        if let EventKind::LockWait { location, .. } = &mut ev.kind {
            if let Some(&task) = global_of.get(location) {
                *location = task;
            }
        }
    }
}

/// Keeps the newest `max` events (by sequence), folding the remainder
/// into the drop counter — bounds the upload independent of ring sizing.
fn cap_events(t: &mut RunTelemetry, max: usize) {
    if t.events.len() > max {
        let excess = t.events.len() - max;
        t.events.drain(..excess);
        t.dropped += excess as u64;
    }
}

fn compose_metrics(
    assignment: &Assignment,
    wall_seconds: f64,
    t: &ReaderTallies,
    gateway_counters: (u64, u64, u64, u64),
    server_counters: (u64, u64, u64, u64),
) -> WorkerMetrics {
    WorkerMetrics {
        node: assignment.node,
        wall_seconds,
        same_rack_payload_bytes: t.same_rack_payload_bytes.load(Ordering::Relaxed),
        cross_rack_payload_bytes: t.cross_rack_payload_bytes.load(Ordering::Relaxed),
        frames_sent: gateway_counters.0 + server_counters.0,
        frames_received: gateway_counters.1 + server_counters.1,
        bytes_sent: gateway_counters.2 + server_counters.2,
        bytes_received: gateway_counters.3 + server_counters.3,
        remote_reads: t.remote_reads.load(Ordering::Relaxed),
        lock_wait_count: t.lock_wait_count.load(Ordering::Relaxed),
        lock_wait_total_ns: t.lock_wait_total_ns.load(Ordering::Relaxed),
        lock_wait_samples: t.lock_wait_samples.lock().map(|samples| samples.clone()).unwrap_or_default(),
    }
}

/// Runs one round of this worker's unfinished tasks through a real
/// `orwl_core` session on the reconstructed node topology.  Each
/// iteration of each task writes its own location under a one-shot write
/// section, reads its local in-edges one section at a time through the
/// shared FIFO, then runs one exchange per remote owner through the
/// gateway.  A task body holds at most one lock at a time and none while
/// an exchange waits, so the schedule cannot deadlock whatever the
/// interleaving across processes (see the module doc).  Locality and
/// owners are resolved at round start: they only change at the quiesce
/// barrier, where a re-shard can adopt a source here and turn its reads
/// local.
#[allow(clippy::too_many_lines)]
fn run_round(
    assignment: &Assignment,
    work: &WorkState,
    locations: &SharedLocations,
    gateway: &Arc<PeerGateway>,
    interrupt: &Arc<Interrupt>,
) -> Result<(), String> {
    let tasks = work.tasks_with_work();
    if tasks.is_empty() {
        return Ok(());
    }
    let levels: Vec<LevelSpec> = assignment
        .levels
        .iter()
        .map(|(name, count)| ObjectType::parse(name).map(|obj_type| LevelSpec::new(obj_type, *count)))
        .collect::<Result<_, String>>()?;
    let topology = Topology::from_levels(&assignment.topo_name, &levels)
        .map_err(|e| format!("reconstructing the node topology: {e}"))?;

    let failure: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let mut program = OrwlProgram::new();
    for &t in &tasks {
        let map = locations.read().map_err(|_| "location map poisoned".to_string())?;
        let own = map
            .get(&(t as u64))
            .cloned()
            .ok_or_else(|| format!("task {t} is scheduled here but owns no location"))?;
        // Resolve each read's locality for this round and build the
        // session's link structure from the local ones.
        let schedule = work.schedules[&t]
            .iter()
            .map(|(iterations, reads)| ResolvedPhase::resolve(*iterations, reads, &map, gateway))
            .collect::<Result<Vec<_>, String>>()?;
        drop(map);
        let mut links = vec![LocationLink::write(own.id(), 8.0)];
        let mut local_read_bytes: BTreeMap<usize, (f64, Arc<Location<u64>>)> = BTreeMap::new();
        for phase in &schedule {
            for (src, bytes, loc) in &phase.local {
                let entry = local_read_bytes.entry(*src).or_insert_with(|| (0.0, Arc::clone(loc)));
                entry.0 += bytes;
            }
        }
        for (_, (bytes, loc)) in local_read_bytes {
            links.push(LocationLink::read(loc.id(), bytes));
        }

        let progress = Arc::clone(&work.progress[&t]);
        let gateway = Arc::clone(gateway);
        let failure = Arc::clone(&failure);
        let interrupt = Arc::clone(interrupt);
        let recovery = assignment.recovery;
        program.add_task(TaskSpec::new(format!("task-{t}"), links), move |ctx| {
            let mut acquisitions = 0u64;
            'phases: for (k, phase) in schedule.iter().enumerate() {
                while progress[k].load(Ordering::Relaxed) < phase.iterations {
                    if interrupt.parked() || failure.lock().map(|f| f.is_some()).unwrap_or(true) {
                        break 'phases;
                    }
                    let outcome = (|| -> Result<(), IterError> {
                        let mut write = own.handle(AccessMode::Write);
                        write.request().map_err(|e| IterError::Local(e.to_string()))?;
                        *write.acquire().map_err(|e| IterError::Local(e.to_string()))? += 1;
                        drop(write);
                        acquisitions += 1;
                        for (_, _, src_loc) in &phase.local {
                            let mut read = src_loc.handle(AccessMode::Read);
                            read.request().map_err(|e| IterError::Local(e.to_string()))?;
                            let guard = read.acquire().map_err(|e| IterError::Local(e.to_string()))?;
                            std::hint::black_box(*guard);
                            drop(guard);
                            acquisitions += 1;
                        }
                        for batch in &phase.remote {
                            gateway.exchange(batch).map_err(IterError::Remote)?;
                            acquisitions += batch.reads.len() as u64;
                        }
                        Ok(())
                    })();
                    match outcome {
                        Ok(()) => {
                            progress[k].fetch_add(1, Ordering::Relaxed);
                        }
                        Err(IterError::Remote(e)) if recovery => {
                            // A broken peer exchange is the worker-side
                            // symptom of a node loss: park and wait for
                            // the coordinator's quiesce instead of
                            // failing the whole worker.
                            interrupt.park(format!("task {t}: {e}"));
                            break 'phases;
                        }
                        Err(IterError::Remote(e) | IterError::Local(e)) => {
                            if let Ok(mut slot) = failure.lock() {
                                slot.get_or_insert(format!("task {t}: {e}"));
                            }
                            break 'phases;
                        }
                    }
                }
            }
            ctx.stats.record_acquisitions(acquisitions);
        });
    }

    let session = Session::builder()
        .topology(topology)
        .control_threads(0)
        .binder(Arc::new(RecordingBinder::new()))
        .backend(ThreadBackend)
        .build()
        .map_err(|e| format!("building the worker session: {e}"))?;
    let _report = session.run(program).map_err(|e| format!("worker session run: {e}"))?;

    let mut slot = failure.lock().map_err(|_| "failure flag poisoned".to_string())?;
    match slot.take() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::RecvError;

    /// Owned locations 1..=n, location k holding the value 100 + k.
    fn owned(n: u64) -> SharedLocations {
        let map = (1..=n).map(|k| (k, Location::new(format!("loc-{k}"), 100 + k))).collect();
        Arc::new(RwLock::new(map))
    }

    fn location(locations: &SharedLocations, k: u64) -> Arc<Location<u64>> {
        Arc::clone(&locations.read().unwrap()[&k])
    }

    /// A client stream and the owner's serving thread on the other end.
    fn serve(locations: &SharedLocations) -> (FramedStream, std::thread::JoinHandle<(u64, u64, u64, u64)>) {
        let (client, server) = UnixStream::pair().unwrap();
        let locations = Arc::clone(locations);
        let owner = std::thread::spawn(move || serve_connection(FramedStream::new(server), locations));
        (FramedStream::new(client), owner)
    }

    /// Sends the whole batch of read requests `(seq, location, bytes)` in
    /// one write.
    fn request(client: &mut FramedStream, batch: &[(u64, u64, u64)]) {
        for &(seq, location, bytes) in batch {
            client.queue(&Message::LockRequest { seq, location, access: WireAccess::Read, bytes });
        }
        client.flush().unwrap();
    }

    fn expect_grant(client: &mut FramedStream, seq: u64, location: u64) -> Vec<u8> {
        match client.recv(Duration::from_secs(5)) {
            Ok(Message::LockGrant { seq: s, location: l, data }) if s == seq && l == location => data,
            other => panic!("expected the grant of seq {seq} on location {location}, got {other:?}"),
        }
    }

    #[test]
    fn a_batch_sent_in_one_write_is_granted_in_request_order_at_the_requested_sizes() {
        let locations = owned(3);
        let (mut client, owner) = serve(&locations);
        let batch = [(10, 1, 4), (11, 2, 16), (12, 3, 0)];
        request(&mut client, &batch);
        for &(seq, location, bytes) in &batch {
            let data = expect_grant(&mut client, seq, location);
            assert_eq!(data.len() as u64, bytes, "seq {seq}");
            let value = (100 + location).to_le_bytes();
            let head = data.len().min(8);
            assert_eq!(data[..head], value[..head], "the buffer head carries the location value");
            assert!(data[head..].iter().all(|&b| b == 0));
        }
        for &(seq, location, _) in &batch {
            client.queue(&Message::Release { seq, location });
        }
        client.flush().unwrap();
        drop(client);
        let (frames_sent, frames_received, _, _) = owner.join().unwrap();
        assert_eq!(
            (frames_sent, frames_received),
            (3, 6),
            "three grants out; three requests and releases in"
        );
        for k in 1..=3 {
            assert!(location(&locations, k).fifo().is_empty(), "location {k} released");
        }
    }

    #[test]
    fn grants_already_decided_are_flushed_before_the_owner_blocks() {
        let locations = owned(2);
        let loc2 = location(&locations, 2);
        let mut writer = loc2.handle(AccessMode::Write);
        writer.request().unwrap();
        let held = writer.acquire().unwrap();

        let (mut client, owner) = serve(&locations);
        request(&mut client, &[(1, 1, 8), (2, 2, 8)]);
        // Location 2 is still write-held here, yet the grant of location 1
        // arrives: the owner flushed it before blocking on location 2.
        expect_grant(&mut client, 1, 1);
        assert!(matches!(client.recv(Duration::from_millis(100)), Err(RecvError::Timeout)));
        drop(held);
        expect_grant(&mut client, 2, 2);
        drop(client);
        owner.join().unwrap();
    }

    #[test]
    fn a_peer_hang_up_mid_batch_releases_every_held_section() {
        let locations = owned(3);
        let loc3 = location(&locations, 3);
        let mut writer = loc3.handle(AccessMode::Write);
        writer.request().unwrap();
        let held = writer.acquire().unwrap();

        let (mut client, owner) = serve(&locations);
        request(&mut client, &[(1, 1, 8), (2, 2, 8), (3, 3, 8)]);
        expect_grant(&mut client, 1, 1);
        expect_grant(&mut client, 2, 2);
        drop(client); // hang up holding sections 1 and 2, with 3 queued
        drop(held);

        let (done, acquired) = mpsc::channel();
        let writers = Arc::clone(&locations);
        std::thread::spawn(move || {
            for k in 1..=3 {
                let mut write = location(&writers, k).handle(AccessMode::Write);
                write.request().unwrap();
                drop(write.acquire().unwrap());
                done.send(k).unwrap();
            }
        });
        for k in 1..=3 {
            assert_eq!(acquired.recv_timeout(Duration::from_secs(1)), Ok(k), "local write on location {k}");
        }
        owner.join().unwrap();
    }
}
