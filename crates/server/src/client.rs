//! `dcs-client`: pooled, pipelined connections to a `dcs-server`.
//!
//! Any number of requests can be in flight per connection, and responses
//! may return out of order: each carries its request id.
//! [`Client::submit`] writes the request under the connection's write
//! mutex (senders interleave whole frames) and returns a [`Ticket`]
//! immediately; [`Ticket::wait`] blocks for that one response.
//!
//! **Thread model.** The client starts no threads: callers read their
//! own replies, leader/follower style. A waiter whose reply has not
//! arrived takes the connection's read half (a mutex over its frame
//! buffer) and decodes replies off the socket, filling the slot of every
//! ticket it meets, until its own reply lands. It then releases the read
//! half and nudges one parked waiter whose reply is still out, which takes
//! the reading over; a waiter that finds the read half taken parks on its
//! own slot. A closed-loop caller thus runs write → server → read on its
//! own thread, with no wake-up in between.
//!
//! Nobody reads while no caller waits, and the server stops reading
//! requests while its write to an unread socket is blocked. So a submit
//! whose write stalls (the socket's send timeout fires) first drains the
//! replies already received into their slots, then resumes: a thread that
//! submits a deep pipeline before waiting on any of it cannot deadlock.
//! A write that does not stall never touches the read half.
//!
//! If a connection dies (EOF, I/O error, undecodable frame), every
//! in-flight ticket on it fails with [`ClientError::ConnectionClosed`]
//! rather than hanging — the kill-mid-pipeline contract.

use crate::protocol::{decode_frame, encode_to_vec, Frame, Request, Response};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Socket-level failure (connect/write).
    Io(String),
    /// The connection closed with this request still unanswered.
    ConnectionClosed,
    /// The server answered, but with a frame that makes no sense for the
    /// request (e.g. a COUNT for a GET).
    UnexpectedResponse,
    /// The server rejected the request with BUSY (shard mailbox full).
    Busy,
    /// The key's range moved (or is moving) to another shard; the request
    /// was not executed. Resubmitting routes it by the server's live map.
    Moved {
        /// Map epoch the redirect is valid for.
        epoch: u64,
        /// Shard owning (or receiving) the key.
        shard: u32,
    },
    /// The server reported an execution error.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "io error: {m}"),
            ClientError::ConnectionClosed => write!(f, "connection closed with request in flight"),
            ClientError::UnexpectedResponse => write!(f, "response kind does not match request"),
            ClientError::Busy => write!(f, "server busy"),
            ClientError::Moved { epoch, shard } => {
                write!(f, "moved to shard {shard} (map epoch {epoch})")
            }
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// How long a request write may block before its sender drains the
/// replies already received: the socket's send timeout. The kernel only
/// applies it once the send buffer is full, so an unstalled write never
/// waits on it.
const SEND_STALL: Duration = Duration::from_millis(1);

/// One-shot response slot a ticket waits on.
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Default)]
struct SlotState {
    result: Option<Result<Response, ClientError>>,
    /// The ticket's waiter sleeps on `ready`: a fill or a hand-off must
    /// wake it.
    parked: bool,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::default()),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, result: Result<Response, ClientError>) {
        let mut state = self.state.lock().unwrap();
        if state.result.is_none() {
            state.result = Some(result);
            if state.parked {
                self.ready.notify_one();
            }
        }
    }

    /// Wake the parked waiter, if there is one, to take the read half
    /// over. Returns whether there was.
    fn nudge(&self) -> bool {
        let state = self.state.lock().unwrap();
        if state.parked {
            self.ready.notify_one();
        }
        state.parked
    }
}

/// A connection's read half: bytes received but not yet decoded. Whoever
/// holds its lock is the connection's one reader.
struct RecvBuf {
    bytes: Vec<u8>,
    /// The undecoded bytes are `bytes[start..end]`.
    start: usize,
    end: usize,
}

impl RecvBuf {
    fn new() -> Self {
        RecvBuf {
            bytes: vec![0; 64 * 1024],
            start: 0,
            end: 0,
        }
    }

    /// One `read` into the free tail, compacting (or, for a frame larger
    /// than the buffer, growing) it first when the tail is full.
    fn read_from(&mut self, mut sock: &TcpStream) -> std::io::Result<usize> {
        if self.end == self.bytes.len() {
            if self.start > 0 {
                self.bytes.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                self.bytes.resize(self.bytes.len() * 2, 0);
            }
        }
        let n = sock.read(&mut self.bytes[self.end..])?;
        self.end += n;
        Ok(n)
    }

    fn consume(&mut self, used: usize) {
        self.start += used;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }
}

struct Conn {
    /// The socket: requests go out under `send`, replies come in under
    /// `recv`, and shutting it down needs neither.
    sock: TcpStream,
    /// Held for a whole request frame, so senders never interleave.
    send: Mutex<()>,
    /// The read half, taken by one waiting caller at a time (module doc).
    recv: Mutex<RecvBuf>,
    pending: Mutex<HashMap<u64, Arc<Slot>>>,
    next_id: AtomicU64,
    dead: AtomicBool,
}

impl Conn {
    /// Shut the socket down (waking a waiter blocked reading it) and fail
    /// every in-flight request.
    fn poison(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.sock.shutdown(Shutdown::Both);
        let drained: Vec<Arc<Slot>> = self
            .pending
            .lock()
            .unwrap()
            .drain()
            .map(|(_, s)| s)
            .collect();
        for slot in drained {
            slot.fill(Err(ClientError::ConnectionClosed));
        }
    }

    /// Write one request frame. A write that stalls past the send timeout
    /// drains the replies already received, then resumes.
    fn send_frame(&self, frame: &[u8]) -> std::io::Result<()> {
        let _send = self.send.lock().unwrap();
        let mut sent = 0;
        while sent < frame.len() {
            match (&self.sock).write(&frame[sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    self.drain();
                    if self.dead.load(Ordering::SeqCst) {
                        return Err(ErrorKind::ConnectionAborted.into());
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Unless a waiter is reading already, take the read half and decode
    /// every reply received so far into its slot, without blocking.
    fn drain(&self) {
        let Ok(mut rb) = self.recv.try_lock() else {
            return;
        };
        if self.sock.set_nonblocking(true).is_ok() {
            loop {
                match rb.read_from(&self.sock) {
                    Ok(0) => self.poison(),
                    Ok(_) => {
                        self.deliver(&mut rb, None);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => self.poison(),
                }
                if self.dead.load(Ordering::SeqCst) {
                    break;
                }
            }
            if self.sock.set_nonblocking(false).is_err() {
                self.poison();
            }
        }
        drop(rb);
        self.hand_off();
    }

    /// As the connection's reader, read until the reply to `id` arrives,
    /// filling every other ticket's slot on the way. `None` once the
    /// connection is dead.
    fn read_until(&self, rb: &mut RecvBuf, id: u64) -> Option<Response> {
        loop {
            if let Some(resp) = self.deliver(rb, Some(id)) {
                return Some(resp);
            }
            if self.dead.load(Ordering::SeqCst) {
                break;
            }
            match rb.read_from(&self.sock) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        self.poison();
        None
    }

    /// Decode every whole reply in `rb` into its ticket's slot; the reply
    /// to `mine` is returned instead. A corrupt stream poisons the
    /// connection.
    fn deliver(&self, rb: &mut RecvBuf, mine: Option<u64>) -> Option<Response> {
        let mut own = None;
        loop {
            match decode_frame(&rb.bytes[rb.start..rb.end]) {
                Ok(Some((Frame::Response { id, resp }, used))) => {
                    rb.consume(used);
                    let slot = self.pending.lock().unwrap().remove(&id);
                    if Some(id) == mine {
                        own = Some(resp);
                    } else if let Some(slot) = slot {
                        slot.fill(Ok(resp));
                    }
                    // id 0 is the server's "framing broken" notice — no
                    // ticket carries it; the connection is about to close.
                }
                Ok(None) => return own,
                Ok(Some((Frame::Request { .. }, _))) | Err(_) => {
                    self.poison();
                    return own;
                }
            }
        }
    }

    /// The read half was just released: wake one parked waiter whose
    /// reply is still out, so it takes the reading over.
    fn hand_off(&self) {
        let pending = self.pending.lock().unwrap();
        for slot in pending.values() {
            if slot.nudge() {
                break;
            }
        }
    }
}

/// A pending response. `wait` consumes the ticket and blocks until the
/// response (or the connection's demise) arrives.
pub struct Ticket {
    slot: Arc<Slot>,
    conn: Arc<Conn>,
    /// The request id carried on the wire.
    pub id: u64,
}

impl Ticket {
    /// Block for the response, reading the connection itself unless
    /// another waiter already is.
    pub fn wait(self) -> Result<Response, ClientError> {
        let conn = &self.conn;
        let mut state = self.slot.state.lock().unwrap();
        loop {
            if let Some(result) = state.result.take() {
                return result;
            }
            // Slot state, then the read half — but only tried, so the
            // reader filling this slot never waits behind us.
            if let Ok(mut rb) = conn.recv.try_lock() {
                drop(state);
                let resp = conn.read_until(&mut rb, self.id);
                drop(rb);
                conn.hand_off();
                return resp.ok_or(ClientError::ConnectionClosed);
            }
            state.parked = true;
            state = self.slot.ready.wait(state).unwrap();
            state.parked = false;
        }
    }
}

/// Client tunables.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Connections in the pool (requests round-robin across them).
    pub connections: usize,
    /// Synchronous convenience ops retry BUSY this many times before
    /// surfacing [`ClientError::Busy`]. Each retry backs off
    /// exponentially with jitter (see [`ClientConfig::backoff_base_micros`]).
    pub busy_retries: usize,
    /// Synchronous convenience ops resubmit after `MOVED` this many
    /// times before surfacing [`ClientError::Moved`]. Redirect chases are
    /// bounded so a flapping map cannot trap a caller forever.
    pub moved_retries: usize,
    /// First backoff delay in microseconds; doubles per consecutive
    /// rejection up to [`ClientConfig::backoff_cap_micros`], with equal
    /// jitter (uniform in `[delay/2, delay]`) so synchronized retriers
    /// don't re-stampede the same shard in lockstep.
    pub backoff_base_micros: u64,
    /// Backoff ceiling in microseconds.
    pub backoff_cap_micros: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connections: 2,
            busy_retries: 1000,
            moved_retries: 64,
            backoff_base_micros: 20,
            backoff_cap_micros: 2_000,
        }
    }
}

/// A pool of pipelined connections to one server.
pub struct Client {
    conns: Vec<Arc<Conn>>,
    rr: AtomicUsize,
    busy_retries: usize,
    moved_retries: usize,
    backoff_base_micros: u64,
    backoff_cap_micros: u64,
    /// Highest map epoch seen in a `MOVED` reply — the client's cached
    /// view of placement progress. Routing itself stays server-side (the
    /// connection reader routes by the live map), so the epoch is what a
    /// remote client can usefully cache: it distinguishes progress
    /// (higher epoch, keep chasing) from churn.
    known_epoch: AtomicU64,
}

impl Client {
    /// Connect `config.connections` sockets to `addr`.
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<Client, ClientError> {
        assert!(config.connections > 0, "need at least one connection");
        let io = |e: std::io::Error| ClientError::Io(e.to_string());
        let mut conns = Vec::with_capacity(config.connections);
        for _ in 0..config.connections {
            let sock = TcpStream::connect(addr).map_err(io)?;
            sock.set_nodelay(true).ok();
            sock.set_write_timeout(Some(SEND_STALL)).map_err(io)?;
            conns.push(Arc::new(Conn {
                sock,
                send: Mutex::new(()),
                recv: Mutex::new(RecvBuf::new()),
                pending: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(1),
                dead: AtomicBool::new(false),
            }));
        }
        Ok(Client {
            conns,
            rr: AtomicUsize::new(0),
            busy_retries: config.busy_retries,
            moved_retries: config.moved_retries,
            backoff_base_micros: config.backoff_base_micros.max(1),
            backoff_cap_micros: config.backoff_cap_micros.max(1),
            known_epoch: AtomicU64::new(0),
        })
    }

    /// Pipeline a request on the next live connection; returns immediately.
    pub fn submit(&self, req: Request) -> Result<Ticket, ClientError> {
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        for i in 0..self.conns.len() {
            let conn = &self.conns[(start + i) % self.conns.len()];
            if conn.dead.load(Ordering::SeqCst) {
                continue;
            }
            return self.submit_on(conn, req);
        }
        Err(ClientError::ConnectionClosed)
    }

    fn submit_on(&self, conn: &Arc<Conn>, req: Request) -> Result<Ticket, ClientError> {
        let id = conn.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot::new());
        // Register before writing: the response can race the write return.
        conn.pending.lock().unwrap().insert(id, slot.clone());
        let bytes = encode_to_vec(&Frame::Request { id, req });
        if let Err(e) = conn.send_frame(&bytes) {
            conn.pending.lock().unwrap().remove(&id);
            conn.poison();
            return Err(ClientError::Io(e.to_string()));
        }
        Ok(Ticket {
            slot,
            conn: conn.clone(),
            id,
        })
    }

    /// Point read.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, ClientError> {
        self.retry_busy(
            || match self.submit(Request::Get { key: key.to_vec() })?.wait()? {
                Response::Value(v) => Ok(v),
                other => Self::unexpected(other),
            },
        )
    }

    /// Durable upsert (acked only after the server's group commit).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        self.retry_busy(|| {
            match self
                .submit(Request::Put {
                    key: key.to_vec(),
                    value: value.to_vec(),
                })?
                .wait()?
            {
                Response::Ok => Ok(()),
                other => Self::unexpected(other),
            }
        })
    }

    /// Durable delete.
    pub fn delete(&self, key: &[u8]) -> Result<(), ClientError> {
        self.retry_busy(
            || match self.submit(Request::Delete { key: key.to_vec() })?.wait()? {
                Response::Ok => Ok(()),
                other => Self::unexpected(other),
            },
        )
    }

    /// Range scan: count of records in `[start, ..)` up to `limit`.
    pub fn scan(&self, start: &[u8], limit: u32) -> Result<u64, ClientError> {
        self.retry_busy(|| {
            match self
                .submit(Request::Scan {
                    start: start.to_vec(),
                    limit,
                })?
                .wait()?
            {
                Response::Count(n) => Ok(n),
                other => Self::unexpected(other),
            }
        })
    }

    /// Scrape the server's telemetry snapshot, merged to one JSON
    /// document (`{"stats_epoch": N, "registry": {...}, "mrc": {...}}`).
    /// Answered on the connection itself, so it works even when every
    /// shard is BUSY. A scrape whose sub-blocks straddle a partition-map
    /// epoch (it raced a rebalance commit) is retried once; a second
    /// skewed capture is returned as-is — the caller sees the freshest
    /// epoch's honest pieces rather than an error during heavy churn.
    pub fn stats(&self) -> Result<String, ClientError> {
        let mut payload = self.stats_payload()?;
        if payload.epoch_skew() {
            payload = self.stats_payload()?;
        }
        Ok(payload.merged_json())
    }

    /// One raw STATS scrape, sub-blocks unmerged.
    pub fn stats_payload(&self) -> Result<crate::statsblock::StatsPayload, ClientError> {
        match self
            .submit(Request::Stats {
                version: crate::protocol::STATS_VERSION,
            })?
            .wait()?
        {
            Response::Stats(payload) => Ok(payload),
            other => Self::unexpected(other),
        }
    }

    /// Read-modify-write: atomically append `value` to the stored value.
    pub fn rmw(&self, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        self.retry_busy(|| {
            match self
                .submit(Request::Rmw {
                    key: key.to_vec(),
                    value: value.to_vec(),
                })?
                .wait()?
            {
                Response::Ok => Ok(()),
                other => Self::unexpected(other),
            }
        })
    }

    fn unexpected<T>(resp: Response) -> Result<T, ClientError> {
        match resp {
            Response::Busy => Err(ClientError::Busy),
            Response::Moved { epoch, shard } => Err(ClientError::Moved { epoch, shard }),
            Response::Err(m) => Err(ClientError::Server(m)),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Highest map epoch this client has seen in a `MOVED` reply (0 if
    /// it has never been redirected).
    pub fn known_map_epoch(&self) -> u64 {
        self.known_epoch.load(Ordering::Relaxed)
    }

    /// Exponential backoff with equal jitter: `base * 2^(attempt-1)`
    /// capped, then uniform in `[delay/2, delay]`. Jitter comes from a
    /// per-call xorshift seeded off the virtual clock, so retriers that
    /// were rejected together spread out instead of re-colliding.
    fn backoff(&self, attempt: usize, rng: &mut u64) -> std::time::Duration {
        let shift = attempt.saturating_sub(1).min(16) as u32;
        let delay = self
            .backoff_base_micros
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_micros)
            .max(1);
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        std::time::Duration::from_micros(delay / 2 + *rng % (delay / 2 + 1))
    }

    fn retry_busy<T>(
        &self,
        mut op: impl FnMut() -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut busy_tries = 0;
        let mut moved_tries = 0;
        let mut rng = dcs_telemetry::now_nanos() | 1;
        loop {
            match op() {
                Err(ClientError::Busy) if busy_tries < self.busy_retries => {
                    busy_tries += 1;
                    // The shard is saturated; back off (exponentially,
                    // jittered) instead of hammering the mailbox.
                    std::thread::sleep(self.backoff(busy_tries, &mut rng));
                }
                Err(ClientError::Moved { epoch, .. }) if moved_tries < self.moved_retries => {
                    moved_tries += 1;
                    self.known_epoch.fetch_max(epoch, Ordering::Relaxed);
                    // Resubmitting routes by the server's live map; a
                    // short jittered pause lets an in-flight epoch
                    // install land instead of bouncing off the freeze
                    // window again.
                    std::thread::sleep(self.backoff(moved_tries, &mut rng));
                }
                other => return other,
            }
        }
    }

    /// Close every connection. In-flight tickets fail with
    /// [`ClientError::ConnectionClosed`]; a waiter blocked reading wakes
    /// to the shutdown.
    pub fn close(&self) {
        for conn in &self.conns {
            conn.poison();
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.close();
    }
}

/// The wire client is itself a [`dcs_workload::KvStore`], so `Runner` and
/// every in-process harness can drive a server over TCP unchanged.
impl dcs_workload::KvStore for Client {
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, dcs_workload::StoreFailure> {
        self.get(key)
            .map_err(|e| dcs_workload::StoreFailure(e.to_string()))
    }
    fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), dcs_workload::StoreFailure> {
        self.put(&key, &value)
            .map_err(|e| dcs_workload::StoreFailure(e.to_string()))
    }
    fn kv_delete(&self, key: Vec<u8>) -> Result<(), dcs_workload::StoreFailure> {
        self.delete(&key)
            .map_err(|e| dcs_workload::StoreFailure(e.to_string()))
    }
    fn kv_scan(&self, start: &[u8], limit: usize) -> Result<usize, dcs_workload::StoreFailure> {
        self.scan(start, limit.min(u32::MAX as usize) as u32)
            .map(|n| n as usize)
            .map_err(|e| dcs_workload::StoreFailure(e.to_string()))
    }
}
