//! The workloads' fixed shapes and building what they run against:
//! caching stores, the server, the client, and the bulk load.

use dcs_core::{CachingStore, StoreBuilder};
use dcs_server::shard::{MissMode, Partitioner};
use dcs_server::{
    Client, ClientConfig, RebalanceConfig, Request, Response, Server, ServerConfig, ShardBackend,
    ShardConfig, Ticket,
};
use dcs_workload::{keys, KeyDist, OpKind, OpMix, WorkloadSpec};
use std::collections::VecDeque;
use std::sync::Arc;

/// Every workload runs this many shards.
pub const SHARDS: usize = 2;
/// Load threads, and client connections on the wire.
pub const LOAD_THREADS: usize = 2;
/// Requests per second the load threads of a wire workload offer
/// together. Below what the two cores serve, so every run does the same
/// work: an unpaced closed loop swung between 5.7K and 20K req/s on a
/// busy host, and an 8K req/s open loop built a backlog that lasted the
/// rest of the run.
pub const RATE: f64 = 4_000.0;
/// Bytes per value, and per chunk an rmw appends.
pub const VALUE_LEN: usize = 100;

/// How a workload drives the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Over the wire; each load thread keeps one request in flight and
    /// sends on its own Poisson schedule, so together they offer
    /// [`RATE`] while the server keeps up.
    Paced,
    /// No server: load threads call the shard-routed stores directly.
    InProcess,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub mode: Mode,
    pub records: u64,
    /// Per-shard memory budget; `None` keeps the store's default (8 MiB).
    pub budget: Option<usize>,
    spec: fn(u64, u64) -> WorkloadSpec,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "wire-read-hot",
        mode: Mode::Paced,
        records: 20_000,
        budget: None,
        spec: ycsb_c_uniform,
    },
    Workload {
        name: "wire-mixed-cold",
        mode: Mode::Paced,
        records: 20_000,
        budget: Some(256 << 10),
        spec: mixed,
    },
    Workload {
        name: "inproc-read-cold",
        mode: Mode::InProcess,
        records: 100_000,
        budget: Some(1 << 20),
        spec: ycsb_b,
    },
];

/// YCSB-C (read-only) over uniform keys.
fn ycsb_c_uniform(records: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec::read_only_uniform(records, VALUE_LEN, seed)
}

/// Reads beside writes and short scans: 50% get, 25% put, 15% rmw,
/// 10% scan(10), Zipfian θ=0.99 (so shard 0 holds the hot keys).
fn mixed(records: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        record_count: records,
        key_dist: KeyDist::zipfian(0.99),
        mix: OpMix::new(vec![
            (OpKind::Read, 0.50),
            (OpKind::Update, 0.25),
            (OpKind::ReadModifyWrite, 0.15),
            (OpKind::Scan { limit: 10 }, 0.10),
        ]),
        value_len: VALUE_LEN,
        seed,
    }
}

/// YCSB-B: 95% get, 5% update, Zipfian θ=0.99.
fn ycsb_b(records: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec::ycsb('b', records, VALUE_LEN, seed)
}

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The spec one stream of operations draws from. `stream` separates
    /// the load threads (and the bulk load, stream 0) under one seed.
    pub fn spec(&self, seed: u64, stream: u64) -> WorkloadSpec {
        (self.spec)(self.records, mix_seed(seed, stream))
    }
}

/// SplitMix64 finaliser: independent seeds per stream from one seed.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One caching store exactly as `BackendKind::Caching.build_with` makes
/// it (small-test configuration, 1,024 device segments, no injected read
/// latency, optional memory budget), kept concrete so its `stats()` stay
/// reachable.
pub fn caching_store(budget: Option<usize>) -> Arc<CachingStore> {
    let mut b = StoreBuilder::small_test();
    b.device.segment_count = 1024;
    b.device.wall_read_latency = 0;
    if let Some(budget) = budget {
        b.memory_budget = budget;
    }
    Arc::new(b.build())
}

/// What a workload runs against.
pub struct Env {
    pub stores: Vec<Arc<CachingStore>>,
    pub partitioner: Partitioner,
    /// The server and its client, on the wire workloads.
    pub wire: Option<(Server, Arc<Client>)>,
}

impl Env {
    /// Build the stores (and for wire workloads start the server and
    /// connect), then bulk-load every record.
    pub fn build(w: &Workload, seed: u64) -> Env {
        let stores: Vec<_> = (0..SHARDS).map(|_| caching_store(w.budget)).collect();
        let partitioner = Partitioner::from_splits(keys::range_splits(w.records, SHARDS));
        let load = w.spec(seed, 0);
        if w.mode == Mode::InProcess {
            // One load thread per shard, as the measured window uses both
            // cores.
            std::thread::scope(|scope| {
                for (shard, store) in stores.iter().enumerate() {
                    let (load, partitioner) = (&load, &partitioner);
                    scope.spawn(move || {
                        for (key, value) in load.load_set() {
                            if partitioner.shard_of(&key) == shard {
                                dcs_workload::KvStore::kv_put(&**store, key, value)
                                    .expect("load put");
                            }
                        }
                    });
                }
            });
            return Env {
                stores,
                partitioner,
                wire: None,
            };
        }
        let config = ServerConfig {
            shard: ShardConfig {
                miss_mode: MissMode::Async,
                ..ShardConfig::default()
            },
            rebalance: RebalanceConfig {
                enabled: false,
                ..RebalanceConfig::default()
            },
            ..ServerConfig::default()
        };
        let server = Server::start_with(
            stores
                .iter()
                .map(|s| ShardBackend {
                    kv: s.clone(),
                    async_kv: Some(s.clone()),
                })
                .collect(),
            partitioner.clone(),
            config,
        )
        .expect("start server");
        let client = Client::connect(
            server.addr(),
            ClientConfig {
                connections: LOAD_THREADS,
                ..ClientConfig::default()
            },
        )
        .expect("connect client");
        bulk_load(&client, &load);
        Env {
            stores,
            partitioner,
            wire: Some((server, Arc::new(client))),
        }
    }

    /// Drain and stop the server, if any.
    pub fn shut_down(&mut self) {
        if let Some((server, client)) = self.wire.take() {
            client.close();
            server.shutdown();
        }
    }
}

/// Pipelined load of every record; each put must be acknowledged.
fn bulk_load(client: &Client, spec: &WorkloadSpec) {
    const WINDOW: usize = 512;
    let mut inflight: VecDeque<(Vec<u8>, Vec<u8>, Ticket)> = VecDeque::new();
    let settle = |q: &mut VecDeque<(Vec<u8>, Vec<u8>, Ticket)>, keep: usize| {
        while q.len() > keep {
            let (key, value, ticket) = q.pop_front().expect("queue longer than keep");
            match ticket.wait() {
                Ok(Response::Ok) => {}
                // A full mailbox refused it: retry through the client's
                // backing-off path so the load set stays complete.
                Ok(Response::Busy) => client.put(&key, &value).expect("load put retry"),
                other => panic!("load put failed: {other:?}"),
            }
        }
    };
    for (key, value) in spec.load_set() {
        let ticket = client
            .submit(Request::Put {
                key: key.clone(),
                value: value.clone(),
            })
            .expect("load submit");
        inflight.push_back((key, value, ticket));
        settle(&mut inflight, WINDOW);
    }
    settle(&mut inflight, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{BackendKind, BackendOpts};
    use dcs_workload::KvStore;

    /// Runs a seeded single-thread YCSB-B stream on a store and returns
    /// its device reads (the SS-read count).
    fn ss_reads(store: &dyn KvStore, device: &dcs_flashsim::FlashDevice) -> (u64, u64) {
        let spec = WorkloadSpec::ycsb('b', 5_000, VALUE_LEN, 7);
        for (k, v) in spec.load_set() {
            store.kv_put(k, v).unwrap();
        }
        let mut gen = spec.generator();
        for _ in 0..20_000 {
            let op = gen.next_op();
            let key = keys::encode(op.key_id).to_vec();
            match op.kind {
                OpKind::Read => {
                    store.kv_get(&key).unwrap().expect("loaded key");
                }
                _ => store.kv_put(key, op.value).unwrap(),
            }
        }
        let s = device.stats();
        (s.reads, s.bytes_read)
    }

    #[test]
    fn concrete_store_matches_backend_kind_construction() {
        let budget = Some(128 << 10);
        let built = BackendKind::Caching.build_with(BackendOpts {
            memory_budget: budget,
            wall_read_latency: 0,
        });
        let via_kind = ss_reads(&*built.kv, built.device.as_deref().unwrap());
        let store = caching_store(budget);
        let direct = ss_reads(&*store, store.device());
        assert!(via_kind.0 > 0, "the budget must force SS reads");
        assert_eq!(via_kind, direct);
        assert_eq!(store.stats().device.reads, direct.0);
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(Workload::named(w.name).unwrap().name, w.name);
        }
        assert!(Workload::named("nope").is_none());
    }
}
