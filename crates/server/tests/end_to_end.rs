//! Wire-level end-to-end tests: multi-shard serving, pipelining across
//! connections, BUSY backpressure under flood, drain-and-flush shutdown
//! with zero dropped acknowledged writes, and the existing workload
//! `Runner` driving a server over TCP through the client's `KvStore` impl.

use dcs_core::{BackendKind, BackendOpts};
use dcs_server::protocol::{Request, Response};
use dcs_server::{
    Client, ClientConfig, ClientError, MissMode, Partitioner, Server, ServerConfig, ShardBackend,
    ShardConfig,
};
use dcs_workload::{
    keys, AsyncGet, AsyncKvStore, CompletedGet, KvStore, Runner, StoreFailure, WorkloadSpec,
};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn start_caching(
    shards: usize,
    records: u64,
) -> (Server, Vec<Arc<dyn KvStore + Send + Sync>>, Partitioner) {
    let backends = BackendKind::Caching.build_shards(shards);
    let partitioner = if shards == 1 {
        Partitioner::single()
    } else {
        Partitioner::from_splits(keys::range_splits(records, shards))
    };
    let server = Server::start(
        backends.clone(),
        partitioner.clone(),
        ServerConfig::default(),
    )
    .expect("start server");
    (server, backends, partitioner)
}

/// The acceptance scenario: ≥4 shards, multiple pipelined connections,
/// drain shutdown, then every acknowledged write re-read from the
/// backends.
#[test]
fn four_shards_pipelined_no_acked_write_lost() {
    const RECORDS: u64 = 2_000;
    let (server, backends, partitioner) = start_caching(4, RECORDS);
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            connections: 3,
            ..ClientConfig::default()
        },
    )
    .unwrap();

    // Pipeline a burst of writes and reads across the whole key space so
    // every shard sees traffic, without waiting between submissions.
    let mut write_tickets = Vec::new();
    for id in 0..RECORDS {
        let key = keys::encode(id).to_vec();
        let value = keys::value_for(id, 1, 64);
        write_tickets.push((id, client.submit(Request::Put { key, value }).unwrap()));
    }
    let mut acked: HashSet<u64> = HashSet::new();
    for (id, t) in write_tickets {
        match t.wait().unwrap() {
            Response::Ok => {
                acked.insert(id);
            }
            Response::Busy => {} // rejected, not acked: allowed to be absent
            other => panic!("write {id}: {other:?}"),
        }
    }

    // An ack means applied: reads pipelined after the acks must see every
    // acknowledged write, from any connection in the pool.
    let mut read_tickets = Vec::new();
    for id in (0..RECORDS).step_by(7) {
        let key = keys::encode(id).to_vec();
        read_tickets.push((id, client.submit(Request::Get { key }).unwrap()));
    }
    for (id, t) in read_tickets {
        match t.wait().unwrap() {
            Response::Value(v) => {
                if acked.contains(&id) {
                    let v = v.unwrap_or_else(|| panic!("read {id}: acked write not visible"));
                    assert_eq!(keys::parse_value(&v), Some((id, 1)));
                }
            }
            Response::Busy => {}
            other => panic!("read {id}: {other:?}"),
        }
    }

    // Cross-shard scan over the wire: counts records across split keys.
    let scanned = client.scan(&keys::encode(0), RECORDS as u32).unwrap();
    assert_eq!(scanned as u64, acked.len() as u64);

    client.close();
    let report = server.shutdown();

    // All four shards actually served traffic...
    assert_eq!(report.shards.len(), 4);
    for (i, s) in report.shards.iter().enumerate() {
        assert!(s.total_ops() > 0, "shard {i} idle");
        assert!(s.group_commits > 0, "shard {i} never group-committed");
    }
    // ...group commit actually batched (fewer commits than records)...
    let commits: u64 = report.shards.iter().map(|s| s.group_commits).sum();
    let committed: u64 = report
        .shards
        .iter()
        .map(|s| s.group_committed_records)
        .sum();
    assert_eq!(committed, acked.len() as u64, "every acked write logged");
    assert!(commits < committed, "group commit should batch writes");
    // ...and zero acknowledged writes were dropped by the drain shutdown.
    for &id in &acked {
        let key = keys::encode(id);
        let got = backends[partitioner.shard_of(&key)]
            .kv_get(&key)
            .unwrap()
            .unwrap_or_else(|| panic!("acked write {id} lost after shutdown"));
        assert_eq!(keys::parse_value(&got), Some((id, 1)));
    }
}

/// A deliberately slow store: every op takes ~1ms, so a flood through a
/// tiny mailbox must hit the BUSY path.
struct SlowStore(std::sync::Mutex<std::collections::BTreeMap<Vec<u8>, Vec<u8>>>);

impl KvStore for SlowStore {
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure> {
        std::thread::sleep(std::time::Duration::from_millis(1));
        Ok(self.0.lock().unwrap().get(key).cloned())
    }
    fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
        std::thread::sleep(std::time::Duration::from_millis(1));
        self.0.lock().unwrap().insert(key, value);
        Ok(())
    }
    fn kv_delete(&self, key: Vec<u8>) -> Result<(), StoreFailure> {
        self.0.lock().unwrap().remove(&key);
        Ok(())
    }
    fn kv_scan(&self, start: &[u8], limit: usize) -> Result<usize, StoreFailure> {
        Ok(self
            .0
            .lock()
            .unwrap()
            .range(start.to_vec()..)
            .take(limit)
            .count())
    }
}

#[test]
fn flood_gets_busy_not_hangs_and_accepted_ops_all_answered() {
    let backends: Vec<Arc<dyn KvStore + Send + Sync>> =
        vec![Arc::new(SlowStore(Default::default()))];
    let server = Server::start(
        backends,
        Partitioner::single(),
        ServerConfig {
            shard: ShardConfig {
                mailbox_capacity: 4,
                batch_max: 2,
                ..ShardConfig::default()
            },
            durable_wal: false,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            connections: 1,
            ..ClientConfig::default()
        },
    )
    .unwrap();

    const FLOOD: usize = 200;
    let mut tickets = Vec::new();
    for i in 0..FLOOD {
        tickets.push(
            client
                .submit(Request::Put {
                    key: format!("k{i:04}").into_bytes(),
                    value: vec![7; 16],
                })
                .unwrap(),
        );
    }
    let mut ok = 0usize;
    let mut busy = 0usize;
    for t in tickets {
        match t.wait().unwrap() {
            Response::Ok => ok += 1,
            Response::Busy => busy += 1,
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(ok + busy, FLOOD, "every request answered");
    assert!(
        busy > 0,
        "a 1ms/op store behind a 4-deep mailbox must shed load"
    );
    assert!(ok > 0, "some requests must get through");

    client.close();
    let report = server.shutdown();
    assert_eq!(report.shards[0].busy_rejections, busy as u64);
    let mb = &report.mailboxes[0];
    assert_eq!(mb.accepted, mb.drained, "no accepted request dropped");
    assert!(mb.depth_high_water() <= 4);
}

/// Async test double with a deterministic miss set: keys starting with
/// `cold` take a wall-clock device delay; everything else is served from
/// memory. Lets the wire-level tests control exactly which GETs miss.
struct ColdKeyStore {
    map: std::sync::Mutex<std::collections::BTreeMap<Vec<u8>, Vec<u8>>>,
    delay: Duration,
    next_token: std::sync::atomic::AtomicU64,
    pending: std::sync::Mutex<Vec<(u64, Vec<u8>, Instant)>>,
}

impl ColdKeyStore {
    fn new(delay: Duration) -> Self {
        ColdKeyStore {
            map: Default::default(),
            delay,
            next_token: std::sync::atomic::AtomicU64::new(1),
            pending: Default::default(),
        }
    }
}

impl KvStore for ColdKeyStore {
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreFailure> {
        if key.starts_with(b"cold") {
            std::thread::sleep(self.delay);
        }
        Ok(self.map.lock().unwrap().get(key).cloned())
    }
    fn kv_put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StoreFailure> {
        self.map.lock().unwrap().insert(key, value);
        Ok(())
    }
    fn kv_delete(&self, key: Vec<u8>) -> Result<(), StoreFailure> {
        self.map.lock().unwrap().remove(&key);
        Ok(())
    }
    fn kv_scan(&self, start: &[u8], limit: usize) -> Result<usize, StoreFailure> {
        Ok(self
            .map
            .lock()
            .unwrap()
            .range(start.to_vec()..)
            .take(limit)
            .count())
    }
}

impl AsyncKvStore for ColdKeyStore {
    fn kv_get_submit(&self, key: &[u8]) -> Result<AsyncGet, StoreFailure> {
        if key.starts_with(b"cold") {
            let token = self
                .next_token
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.pending
                .lock()
                .unwrap()
                .push((token, key.to_vec(), Instant::now() + self.delay));
            Ok(AsyncGet::Pending(token))
        } else {
            Ok(AsyncGet::Ready(self.map.lock().unwrap().get(key).cloned()))
        }
    }
    fn kv_get_resident(&self, key: &[u8]) -> Option<Option<Vec<u8>>> {
        (!key.starts_with(b"cold")).then(|| self.map.lock().unwrap().get(key).cloned())
    }
    fn kv_poll(&self, out: &mut Vec<CompletedGet>) -> usize {
        let mut pending = self.pending.lock().unwrap();
        let now = Instant::now();
        let mut reaped = 0;
        pending.retain(|(token, key, ready)| {
            if *ready <= now {
                out.push(CompletedGet {
                    token: *token,
                    result: Ok(self.map.lock().unwrap().get(key).cloned()),
                });
                reaped += 1;
                false
            } else {
                true
            }
        });
        reaped
    }
    fn kv_inflight(&self) -> usize {
        self.pending.lock().unwrap().len()
    }
}

fn start_cold_key_server(miss_mode: MissMode, delay: Duration) -> (Server, Arc<ColdKeyStore>) {
    let store = Arc::new(ColdKeyStore::new(delay));
    store.kv_put(b"coldA".to_vec(), b"polar".to_vec()).unwrap();
    store.kv_put(b"hot".to_vec(), b"lava".to_vec()).unwrap();
    let server = Server::start_with(
        vec![ShardBackend {
            kv: store.clone(),
            async_kv: Some(store.clone()),
        }],
        Partitioner::single(),
        ServerConfig {
            shard: ShardConfig {
                miss_mode,
                ..ShardConfig::default()
            },
            durable_wal: false,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (server, store)
}

/// The acceptance scenario for the async miss path, over the wire: a GET
/// that misses to a slow device must not delay pipelined GETs that hit,
/// on the *same shard and connection*, and the miss itself is still
/// answered correctly (out of order, by request id).
#[test]
fn slow_miss_does_not_block_hits_over_the_wire() {
    const DELAY: Duration = Duration::from_millis(300);
    let (server, store) = start_cold_key_server(MissMode::Async, DELAY);
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            connections: 1,
            ..ClientConfig::default()
        },
    )
    .unwrap();

    let t0 = Instant::now();
    let cold = client
        .submit(Request::Get {
            key: b"coldA".to_vec(),
        })
        .unwrap();
    let hits: Vec<_> = (0..8)
        .map(|_| {
            client
                .submit(Request::Get {
                    key: b"hot".to_vec(),
                })
                .unwrap()
        })
        .collect();
    for t in hits {
        assert_eq!(t.wait().unwrap(), Response::Value(Some(b"lava".to_vec())));
    }
    let hits_done = t0.elapsed();
    assert!(
        hits_done < DELAY,
        "hits pipelined behind a {DELAY:?} miss took {hits_done:?} — the miss blocked the shard"
    );
    assert_eq!(
        cold.wait().unwrap(),
        Response::Value(Some(b"polar".to_vec()))
    );
    assert!(t0.elapsed() >= DELAY, "miss answered before its fetch");

    client.close();
    let report = server.shutdown();
    assert_eq!(report.shards[0].misses, 1);
    assert_eq!(report.shards[0].miss_latency.count, 1);
    assert_eq!(store.kv_inflight(), 0);
}

/// The blocking baseline of the same scenario: in sync miss mode the hits
/// queued behind the miss wait out the whole device delay.
#[test]
fn sync_miss_mode_blocks_queued_hits() {
    const DELAY: Duration = Duration::from_millis(150);
    let (server, _store) = start_cold_key_server(MissMode::Sync, DELAY);
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            connections: 1,
            ..ClientConfig::default()
        },
    )
    .unwrap();

    let t0 = Instant::now();
    let cold = client
        .submit(Request::Get {
            key: b"coldA".to_vec(),
        })
        .unwrap();
    let hit = client
        .submit(Request::Get {
            key: b"hot".to_vec(),
        })
        .unwrap();
    assert_eq!(hit.wait().unwrap(), Response::Value(Some(b"lava".to_vec())));
    assert!(
        t0.elapsed() >= DELAY,
        "a hit behind a blocking miss cannot finish before the device"
    );
    assert_eq!(
        cold.wait().unwrap(),
        Response::Value(Some(b"polar".to_vec()))
    );

    client.close();
    let report = server.shutdown();
    assert_eq!(report.shards[0].misses, 1);
}

/// The pooled client is a `KvStore`, so the stock workload runner can
/// drive a live server over TCP with no special casing.
#[test]
fn workload_runner_drives_server_over_the_wire() {
    const RECORDS: u64 = 400;
    let (server, _backends, _partitioner) = start_caching(2, RECORDS);
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            connections: 2,
            ..ClientConfig::default()
        },
    )
    .unwrap();

    let spec = WorkloadSpec::ycsb('f', RECORDS, 48, 11);
    let runner = Runner::new(spec);
    assert_eq!(runner.load(&client).unwrap(), RECORDS);
    let counts = runner.run(&client, 2_000).unwrap();
    assert_eq!(counts.total(), 2_000);
    assert!(counts.read_hits as f64 / counts.reads as f64 > 0.95);

    client.close();
    let report = server.shutdown();
    let served: u64 = report.shards.iter().map(|s| s.total_ops()).sum();
    assert!(served >= 2_000 + RECORDS);
}

/// Two caching shards split at "m", each with its async handle, so the
/// server serves memory hits on the connection thread.
fn start_caching_async() -> Server {
    let backends = BackendKind::Caching
        .build_shards_with(2, BackendOpts::default())
        .into_iter()
        .map(|b| ShardBackend {
            kv: b.kv,
            async_kv: b.async_kv,
        })
        .collect();
    Server::start_with(
        backends,
        Partitioner::from_splits(vec![b"m".to_vec()]),
        ServerConfig::default(),
    )
    .expect("start server")
}

fn one_connection(server: &Server) -> Client {
    Client::connect(
        server.addr(),
        ClientConfig {
            connections: 1,
            ..ClientConfig::default()
        },
    )
    .unwrap()
}

/// A GET on an idle connection that memory can answer is served by the
/// connection thread: the owning shard's mailbox never sees it, yet it
/// is counted as a GET and reported in STATS.
#[test]
fn idle_connection_hit_bypasses_the_mailbox() {
    let server = start_caching_async();
    let client = one_connection(&server);
    client.put(b"wk", b"v1").unwrap();
    let shard = &server.shards()[1];
    let accepted = shard.mailbox().stats().accepted;
    assert_eq!(accepted, 1, "the PUT went through the mailbox");

    for _ in 0..5 {
        assert_eq!(client.get(b"wk").unwrap(), Some(b"v1".to_vec()));
    }
    assert_eq!(
        client.get(b"wz").unwrap(),
        None,
        "an absent key is a hit too"
    );
    assert_eq!(shard.mailbox().stats().accepted, accepted);
    assert_eq!(shard.metrics().inline_gets.load(Ordering::Relaxed), 6);
    assert_eq!(shard.metrics().gets.load(Ordering::Relaxed), 6);
    assert_eq!(shard.metrics().read_latency.count(), 6);
    let stats = client.stats().unwrap();
    assert!(
        stats.contains("\"server.inline_gets\":6"),
        "STATS lacks the inline count: {stats}"
    );

    client.close();
    let report = server.shutdown();
    assert_eq!(report.shards[1].inline_gets, 6);
}

/// A GET pipelined right behind a PUT of the same key on one connection
/// must see the PUT: the connection is busy, so the GET queues behind
/// the PUT in the shard mailbox instead of racing it on the reader.
#[test]
fn get_pipelined_behind_put_sees_it() {
    let server = start_caching_async();
    let client = one_connection(&server);
    client.put(b"wk", b"v0").unwrap();
    for i in 1..=50u32 {
        let value = format!("v{i}").into_bytes();
        let put = client
            .submit(Request::Put {
                key: b"wk".to_vec(),
                value: value.clone(),
            })
            .unwrap();
        let get = client
            .submit(Request::Get {
                key: b"wk".to_vec(),
            })
            .unwrap();
        assert_eq!(get.wait().unwrap(), Response::Value(Some(value)));
        assert_eq!(put.wait().unwrap(), Response::Ok);
    }
    client.close();
    server.shutdown();
}

/// Sync miss mode keeps every GET on the shard worker, hits included.
#[test]
fn sync_miss_mode_never_serves_inline() {
    let (server, _store) = start_cold_key_server(MissMode::Sync, Duration::from_millis(1));
    let client = one_connection(&server);
    for _ in 0..5 {
        assert_eq!(client.get(b"hot").unwrap(), Some(b"lava".to_vec()));
    }
    let shard = &server.shards()[0];
    assert_eq!(shard.metrics().inline_gets.load(Ordering::Relaxed), 0);
    assert_eq!(shard.mailbox().stats().accepted, 5);
    client.close();
    server.shutdown();
}

/// Moving a range away and back must not resurrect a key deleted while
/// it was away: the return import deletes what only the target still
/// holds from its earlier ownership.
#[test]
fn range_round_trip_keeps_acknowledged_deletes() {
    let server = start_caching_async();
    let client = one_connection(&server);
    client.put(b"wk", b"old").unwrap();
    let range = server.router().map().load().range_of(b"wk");
    assert_eq!(server.router().map().load().owner_of_range(range), Some(1));

    server.migrate_range(range, 0).expect("move to shard 0");
    client.delete(b"wk").unwrap();
    assert_eq!(client.get(b"wk").unwrap(), None);
    server
        .migrate_range(range, 1)
        .expect("move back to shard 1");

    assert_eq!(
        client.get(b"wk").unwrap(),
        None,
        "an acknowledged delete was undone by the move back"
    );
    assert_eq!(server.backends()[1].kv_get(b"wk").unwrap(), None);
    client.close();
    server.shutdown();
}

/// One thread pipelines 256 GETs of a 512 KiB value, each keyed by
/// 60,000 bytes, on one connection before waiting on any of them. The
/// server writes these inline hits itself and stops reading requests
/// while its replies go unread, so the client's stalled submits must
/// drain replies or the pipeline deadlocks.
#[test]
fn deep_pipeline_of_large_replies_completes() {
    const DEPTH: usize = 256;
    let (server, store) = start_cold_key_server(MissMode::Async, Duration::from_millis(1));
    let key = vec![b'k'; 60_000];
    let value: Vec<u8> = (0..512 * 1024u32).map(|i| (i % 251) as u8).collect();
    store.kv_put(key.clone(), value.clone()).unwrap();
    let client = Arc::new(one_connection(&server));
    let (done, rx) = mpsc::channel();
    let pipeliner = client.clone();
    std::thread::spawn(move || {
        let tickets: Vec<_> = (0..DEPTH)
            .map(|_| pipeliner.submit(Request::Get { key: key.clone() }).unwrap())
            .collect();
        let answered = tickets
            .into_iter()
            .map(|t| t.wait())
            .filter(|r| matches!(r, Ok(Response::Value(Some(v))) if *v == value))
            .count();
        done.send(answered).unwrap();
    });
    // Unoptimised builds move the ~134 MB of replies about three times
    // slower (1.1–1.5 s alone on 2 vCPUs, 0.4–0.5 s optimised), and the
    // suite's other tests share the cores. A deadlock never finishes, so
    // the looser bound there loses nothing.
    let bound = Duration::from_secs(if cfg!(debug_assertions) { 10 } else { 2 });
    let answered = rx.recv_timeout(bound).unwrap_or_else(|_| {
        panic!("a deep pipeline of large replies must finish within {bound:?}")
    });
    assert_eq!(answered, DEPTH, "every GET returns the stored value");
    client.close();
    server.shutdown();
}

/// One reply as a waiting thread saw it: the key, the outcome, and when
/// `wait` returned.
type Waited = (&'static str, Result<Response, ClientError>, Instant);

/// GETs each key on `client` and waits on it from a thread of its own,
/// pausing `gap` after each so that an earlier waiter holds the read half
/// before a later one waits. Outcomes arrive in completion order. Should
/// the scheduler delay a thread past its gap, the roles swap and the
/// callers' assertions still hold: the test gets weaker, not flaky.
fn wait_in_threads(client: &Client, gets: &[(&'static str, Duration)]) -> mpsc::Receiver<Waited> {
    let (done, rx) = mpsc::channel();
    for &(key, gap) in gets {
        let ticket = client
            .submit(Request::Get {
                key: key.as_bytes().to_vec(),
            })
            .unwrap();
        let done = done.clone();
        std::thread::spawn(move || {
            let outcome = ticket.wait();
            done.send((key, outcome, Instant::now())).unwrap();
        });
        std::thread::sleep(gap);
    }
    rx
}

/// Two threads share one connection. The waiter of the delayed GET is
/// the reader, so it fills the other waiter's slot: the immediate reply
/// returns long before the delay.
#[test]
fn reading_waiter_fills_the_other_waiters_slot() {
    const DELAY: Duration = Duration::from_millis(200);
    let (server, _store) = start_cold_key_server(MissMode::Async, DELAY);
    let client = one_connection(&server);
    let t0 = Instant::now();
    let rx = wait_in_threads(
        &client,
        &[
            ("coldA", Duration::from_millis(20)),
            ("hot", Duration::ZERO),
        ],
    );
    let (key, outcome, at) = rx.recv_timeout(DELAY * 5).expect("a waiter hung");
    assert_eq!(key, "hot");
    assert_eq!(outcome.unwrap(), Response::Value(Some(b"lava".to_vec())));
    assert!(
        at - t0 < DELAY / 2,
        "the immediate reply took {:?}: the reader did not fill its slot",
        at - t0
    );
    let (key, outcome, at) = rx.recv_timeout(DELAY * 5).expect("the reader hung");
    assert_eq!(key, "coldA");
    assert_eq!(outcome.unwrap(), Response::Value(Some(b"polar".to_vec())));
    assert!(at - t0 >= DELAY, "miss answered before its fetch");
    client.close();
    server.shutdown();
}

/// The reverse order: the reader's own reply lands first while the other
/// waiter is parked, so the reader must hand the read half over for the
/// later reply to resolve.
#[test]
fn reader_hands_the_read_half_to_a_parked_waiter() {
    const DELAY: Duration = Duration::from_millis(200);
    let (server, store) = start_cold_key_server(MissMode::Async, DELAY);
    store.kv_put(b"coldB".to_vec(), b"ice".to_vec()).unwrap();
    let client = one_connection(&server);
    // coldB is submitted 50 ms after coldA, so its reply lands 50 ms
    // after the reader's own, while its waiter is parked.
    let rx = wait_in_threads(
        &client,
        &[
            ("coldA", Duration::from_millis(50)),
            ("coldB", Duration::ZERO),
        ],
    );
    for (want_key, want_value) in [("coldA", "polar"), ("coldB", "ice")] {
        let (key, outcome, _) = rx
            .recv_timeout(DELAY * 5)
            .expect("the parked waiter was never handed the read half");
        assert_eq!(key, want_key);
        assert_eq!(outcome.unwrap(), Response::Value(Some(want_value.into())));
    }
    client.close();
    server.shutdown();
}

/// `close` while one thread is blocked in `wait` as the reader and
/// another is parked resolves both with `ConnectionClosed`, long before
/// either reply could land.
#[test]
fn close_resolves_the_reading_and_the_parked_waiter() {
    const DELAY: Duration = Duration::from_secs(1);
    let (server, store) = start_cold_key_server(MissMode::Async, DELAY);
    store.kv_put(b"coldB".to_vec(), b"ice".to_vec()).unwrap();
    let client = one_connection(&server);
    let gap = Duration::from_millis(20);
    let rx = wait_in_threads(&client, &[("coldA", gap), ("coldB", gap)]);
    let t0 = Instant::now();
    client.close();
    for _ in 0..2 {
        let (_, outcome, at) = rx
            .recv_timeout(DELAY / 2)
            .expect("close left a waiter hanging");
        assert_eq!(outcome, Err(ClientError::ConnectionClosed));
        assert!(at - t0 < DELAY / 2);
    }
    server.shutdown();
}
