//! The load loops: paced closed loops over the wire, and the in-process
//! loop. Each checks every reply and records, per measured
//! window, every request's latency and outcome, and in traced windows how
//! long its calls into the client took. Each thread also logs the writes
//! the store acknowledged, for the read-back check after shutdown.

use crate::acks::{self, Writes};
use crate::layers::Snap;
use crate::samples::{Kind, Tally};
use crate::setup::{mix_seed, Env, Mode, Workload, LOAD_THREADS, RATE};
use dcs_server::{Client, ClientError, Request, Response};
use dcs_workload::{keys, Arrivals, KvStore, OpKind, Operation};
use std::time::{Duration, Instant};

/// Requests before the first window: the caches settle, connections and
/// threads warm up, and nothing is recorded.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Per thread, at most this many `(request, response)` pairs of a traced
/// window are kept for timing the protocol codec.
const FRAMES_KEPT: usize = 20_000;

/// The windows of one run: window `i` is `[bounds[i], bounds[i + 1])`.
pub struct Timeline {
    pub start: Instant,
    pub bounds: Vec<Instant>,
    pub traced: Vec<bool>,
}

impl Timeline {
    /// Warm-up from now, then one window per `(length, traced)`.
    pub fn new(windows: &[(Duration, bool)]) -> Timeline {
        let start = Instant::now();
        let mut at = start + WARMUP;
        let mut bounds = vec![at];
        for (len, _) in windows {
            at += *len;
            bounds.push(at);
        }
        Timeline {
            start,
            bounds,
            traced: windows.iter().map(|w| w.1).collect(),
        }
    }

    pub fn end(&self) -> Instant {
        *self.bounds.last().expect("timeline has bounds")
    }

    /// The window holding `t`; `None` during the warm-up.
    fn window(&self, t: Instant) -> Option<usize> {
        let i = self.bounds.partition_point(|&b| b <= t);
        (i > 0 && i < self.bounds.len()).then(|| i - 1)
    }

    fn traced(&self, window: Option<usize>) -> bool {
        window.is_some_and(|w| self.traced[w])
    }
}

/// Everything the load threads saw, merged across threads.
#[derive(Default)]
pub struct Record {
    pub tallies: Vec<Tally>,
    /// Wire loops only, traced windows only: nanoseconds in
    /// `Client::submit` and in `Ticket::wait`, and how late each request
    /// was sent.
    pub submit: Vec<u32>,
    pub wait: Vec<u32>,
    pub send_lag: Vec<u32>,
    pub frames: Vec<(Request, Response)>,
    /// One log per load thread, over the whole run, warm-up included.
    pub writes: Vec<Writes>,
}

/// Latency buffers are reserved for this many requests per second of
/// window per load thread, several times the fastest workload's rate.
const RESERVED_PER_SEC: f64 = 250_000.0;

impl Record {
    fn new(tl: &Timeline, records: u64) -> Record {
        Record {
            tallies: tl
                .bounds
                .windows(2)
                .map(|b| {
                    Tally::with_capacity(((b[1] - b[0]).as_secs_f64() * RESERVED_PER_SEC) as usize)
                })
                .collect(),
            writes: vec![Writes::new(records)],
            ..Record::default()
        }
    }

    fn merge(&mut self, other: Record) {
        for (mine, theirs) in self.tallies.iter_mut().zip(other.tallies) {
            mine.merge(theirs);
        }
        self.submit.extend(other.submit);
        self.wait.extend(other.wait);
        self.send_lag.extend(other.send_lag);
        self.frames.extend(other.frames);
        self.writes.extend(other.writes);
    }

    /// Account one finished request in window `w`, and log it if it
    /// wrote. A thread's own record holds only its own write log.
    fn settle(&mut self, w: Option<usize>, op: &Operation, outcome: Outcome, nanos: u64) {
        let put = match op.kind {
            OpKind::Update | OpKind::Insert | OpKind::BlindUpdate => Some(true),
            OpKind::ReadModifyWrite => Some(false),
            OpKind::Read | OpKind::Scan { .. } => None,
        };
        if let Some(put) = put {
            self.writes[0].record(op, put, outcome == Outcome::Ok(true));
        }
        let Some(w) = w else { return };
        let tally = &mut self.tallies[w];
        match outcome {
            Outcome::Ok(acked) => {
                if acked {
                    tally.written_bytes += (keys::KEY_LEN + op.value.len()) as u64;
                }
                tally.ok(kind_of(op.kind), nanos);
            }
            Outcome::Refused => tally.fail(false),
            Outcome::Wrong => tally.fail(true),
        }
    }

    fn keep_frame(&mut self, req: Option<Request>, resp: &Result<Response, ClientError>) {
        if let (Some(req), Ok(resp)) = (req, resp) {
            self.frames.push((req, resp.clone()));
        }
    }
}

/// A request's result after the output check.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    /// Correct reply; `true` when it acknowledged a write.
    Ok(bool),
    /// BUSY, an error, or a lost connection: nothing executed or known.
    Refused,
    /// A reply that fails the output check.
    Wrong,
}

fn kind_of(k: OpKind) -> Kind {
    match k {
        OpKind::Read => Kind::Get,
        OpKind::Update | OpKind::Insert | OpKind::BlindUpdate => Kind::Put,
        OpKind::ReadModifyWrite => Kind::Rmw,
        OpKind::Scan { .. } => Kind::Scan,
    }
}

fn request_for(op: &Operation) -> Request {
    let key = keys::encode(op.key_id).to_vec();
    match op.kind {
        OpKind::Read => Request::Get { key },
        OpKind::Update | OpKind::Insert | OpKind::BlindUpdate => Request::Put {
            key,
            value: op.value.clone(),
        },
        OpKind::ReadModifyWrite => Request::Rmw {
            key,
            value: op.value.clone(),
        },
        OpKind::Scan { limit } => Request::Scan {
            start: key,
            limit: u32::from(limit),
        },
    }
}

/// A get must return the value written for the requested key.
fn value_ok(key_id: u64, value: Option<&[u8]>) -> bool {
    value.and_then(keys::parse_value).map(|(id, _)| id) == Some(key_id)
}

/// Check a reply against what the operation must produce. Every record
/// `0..records` exists and none is ever deleted, so a get must find its
/// key and a scan must count every record up to its limit.
fn check(op: &Operation, records: u64, resp: &Result<Response, ClientError>) -> Outcome {
    match (op.kind, resp) {
        (OpKind::Read, Ok(Response::Value(v))) => {
            if value_ok(op.key_id, v.as_deref()) {
                Outcome::Ok(false)
            } else {
                Outcome::Wrong
            }
        }
        (OpKind::Scan { limit }, Ok(Response::Count(n))) => {
            if *n == u64::from(limit).min(records - op.key_id) {
                Outcome::Ok(false)
            } else {
                Outcome::Wrong
            }
        }
        (OpKind::Read | OpKind::Scan { .. }, Ok(Response::Ok)) => Outcome::Wrong,
        (_, Ok(Response::Ok)) => Outcome::Ok(true),
        (_, Ok(Response::Busy | Response::Err(_) | Response::Moved { .. }) | Err(_)) => {
            Outcome::Refused
        }
        (_, Ok(_)) => Outcome::Wrong,
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// [`nanos`], saturating at about 4.3 s.
fn nanos32(from: Instant, to: Instant) -> u32 {
    u32::try_from(nanos(from, to)).unwrap_or(u32::MAX)
}

/// Run the workload's load threads over `tl`, snapshotting every
/// layer's counters at each window boundary from the calling thread.
pub fn run(w: &Workload, env: &Env, seed: u64, tl: &Timeline) -> (Record, Vec<Snap>) {
    let shards = env.wire.as_ref().map_or(&[][..], |(s, _)| s.shards());
    let mut snaps = Vec::new();
    let mut record = Record {
        tallies: vec![Tally::default(); tl.traced.len()],
        ..Record::default()
    };
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        match (w.mode, &env.wire) {
            (Mode::Paced, Some((_, client))) => {
                for t in 0..LOAD_THREADS {
                    let spec = w.spec(seed, 1 + t as u64);
                    let pace = Arrivals::poisson(
                        RATE / LOAD_THREADS as f64,
                        mix_seed(seed, 0xA221 + t as u64),
                    );
                    handles.push(scope.spawn(move || {
                        paced_loop(t, client, spec.generator(), pace, w.records, tl)
                    }));
                }
            }
            (Mode::InProcess, None) => {
                for t in 0..LOAD_THREADS {
                    let spec = w.spec(seed, 1 + t as u64);
                    handles.push(
                        scope.spawn(move || in_process(t, env, spec.generator(), w.records, tl)),
                    );
                }
            }
            _ => unreachable!("wire modes have a server, in-process has none"),
        }
        for &b in &tl.bounds {
            wait_until(b);
            snaps.push(Snap::take(&env.stores, shards));
        }
        for h in handles {
            record.merge(h.join().expect("load thread panicked"));
        }
    });
    (record, snaps)
}

/// Each thread keeps one request in flight: wait for the request's
/// scheduled time, submit, wait for the reply. A thread that falls behind
/// sends at once, and how late it ran is recorded as send lag. Latency
/// runs from the actual send.
fn paced_loop(
    thread: usize,
    client: &Client,
    mut gen: dcs_workload::OpGenerator,
    mut pace: Arrivals,
    records: u64,
    tl: &Timeline,
) -> Record {
    let mut rec = Record::new(tl, records);
    let mut due = tl.start;
    loop {
        let mut op = gen.next_op();
        acks::stamp(&mut op, thread);
        let req = request_for(&op);
        due += Duration::from_nanos(pace.next_gap());
        wait_until(due.min(tl.end()));
        let t0 = Instant::now();
        if t0 >= tl.end() {
            break;
        }
        let w = tl.window(t0);
        let traced = tl.traced(w);
        let frame = (traced && rec.frames.len() < FRAMES_KEPT).then(|| req.clone());
        let submitted = client.submit(req);
        let t1 = Instant::now();
        let resp = submitted.and_then(|ticket| ticket.wait());
        let t2 = Instant::now();
        rec.settle(w, &op, check(&op, records, &resp), nanos(t0, t2));
        if traced {
            rec.submit.push(nanos32(t0, t1));
            rec.wait.push(nanos32(t1, t2));
            rec.send_lag.push(nanos32(due, t0));
            rec.keep_frame(frame, &resp);
        }
    }
    rec
}

/// Waiting threads sleep through each gap but the last stretch, which
/// they spin. A sleep wakes about the kernel's default 50 µs timer slack
/// late, so stopping it this early wakes the thread near the due time.
/// Spinning longer (loadgen spins through any gap under 2 ms) takes most
/// of a core from the server on a two-core machine.
const SPIN: Duration = Duration::from_micros(50);

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let remain = due - now;
        if remain > SPIN {
            std::thread::sleep(remain - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// In process: each thread routes its operations to the owning shard's
/// store and calls it directly — no protocol, socket, mailbox or WAL.
fn in_process(
    thread: usize,
    env: &Env,
    mut gen: dcs_workload::OpGenerator,
    records: u64,
    tl: &Timeline,
) -> Record {
    let mut rec = Record::new(tl, records);
    loop {
        let mut op = gen.next_op();
        acks::stamp(&mut op, thread);
        let key = keys::encode(op.key_id).to_vec();
        let store = &env.stores[env.partitioner.shard_of(&key)];
        let t0 = Instant::now();
        if t0 >= tl.end() {
            break;
        }
        let w = tl.window(t0);
        let traced = tl.traced(w);
        let frame = (traced && rec.frames.len() < FRAMES_KEPT).then(|| request_for(&op));
        let resp = match op.kind {
            OpKind::Read => store.kv_get(&key).map(Response::Value),
            OpKind::Update => store.kv_put(key, op.value.clone()).map(|()| Response::Ok),
            other => unreachable!("the in-process workload issues no {other:?}"),
        };
        let t1 = Instant::now();
        let resp = resp.map_err(|e| ClientError::Server(e.0));
        rec.settle(w, &op, check(&op, records, &resp), nanos(t0, t1));
        if traced {
            rec.keep_frame(frame, &resp);
        }
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind, key_id: u64) -> Operation {
        Operation {
            kind,
            key_id,
            value: keys::value_for(key_id, 3, 100),
        }
    }

    #[test]
    fn checks_values_scans_and_acks() {
        let get = op(OpKind::Read, 5);
        let good = Ok(Response::Value(Some(keys::value_for(5, 1, 100))));
        let other_key = Ok(Response::Value(Some(keys::value_for(6, 1, 100))));
        assert_eq!(check(&get, 100, &good), Outcome::Ok(false));
        assert_eq!(check(&get, 100, &other_key), Outcome::Wrong);
        assert_eq!(check(&get, 100, &Ok(Response::Value(None))), Outcome::Wrong);
        assert_eq!(check(&get, 100, &Ok(Response::Busy)), Outcome::Refused);

        let scan = op(OpKind::Scan { limit: 10 }, 95);
        assert_eq!(
            check(&scan, 100, &Ok(Response::Count(5))),
            Outcome::Ok(false)
        );
        assert_eq!(check(&scan, 100, &Ok(Response::Count(10))), Outcome::Wrong);

        let put = op(OpKind::Update, 1);
        assert_eq!(check(&put, 100, &Ok(Response::Ok)), Outcome::Ok(true));
        assert_eq!(
            check(&put, 100, &Err(ClientError::ConnectionClosed)),
            Outcome::Refused
        );
    }

    #[test]
    fn writes_are_logged_in_the_warm_up_too() {
        let tl = Timeline::new(&[(Duration::from_secs(1), false)]);
        let mut rec = Record::new(&tl, 10);
        let mut put = op(OpKind::Update, 3);
        acks::stamp(&mut put, 1);
        rec.settle(None, &put, Outcome::Ok(true), 5);
        assert_eq!(rec.tallies[0].issued, 0);
        let load = keys::value_for(3, 0, 100);
        assert!(acks::final_ok(3, Some(&put.value), 100, &rec.writes));
        assert!(!acks::final_ok(3, Some(&load), 100, &rec.writes));
    }

    #[test]
    fn timeline_windows() {
        let tl = Timeline::new(&[
            (Duration::from_secs(2), false),
            (Duration::from_secs(3), true),
        ]);
        assert_eq!(tl.window(tl.start), None);
        assert_eq!(tl.window(tl.bounds[0]), Some(0));
        assert_eq!(tl.window(tl.bounds[1]), Some(1));
        assert!(tl.traced(Some(1)) && !tl.traced(Some(0)) && !tl.traced(None));
        assert_eq!(tl.window(tl.end()), None);
    }
}
