//! Layer counters snapshotted at window boundaries, and the per-layer
//! metrics derived from their deltas.
//!
//! Every count here is a difference between two snapshots, so the bulk
//! load and the warm-up never leak into a window's figures.

use crate::samples::{ratio, Kind, Sorted, Tally};
use dcs_core::{CachingStore, StoreStats};
use dcs_costmodel::HardwareCatalog;
use dcs_server::{MailboxStats, Shard, ShardSnapshot};
use dcs_telemetry::{CostTotals, HistogramSnapshot};
use std::sync::Arc;
use std::time::Instant;

/// One shard's serving counters at an instant.
#[derive(Clone)]
pub struct ShardSnap {
    counters: ShardSnapshot,
    read: HistogramSnapshot,
    write: HistogramSnapshot,
    miss: HistogramSnapshot,
    mailbox: MailboxStats,
}

/// Every layer's public counters at an instant.
#[derive(Clone)]
pub struct Snap {
    pub at: Instant,
    pub cpu_s: f64,
    /// The process's peak resident set so far, MiB.
    pub peak_rss_mb: f64,
    ledger: CostTotals,
    stores: Vec<StoreStats>,
    shards: Vec<ShardSnap>,
}

impl Snap {
    pub fn take(stores: &[Arc<CachingStore>], shards: &[Arc<Shard>]) -> Snap {
        Snap {
            at: Instant::now(),
            cpu_s: crate::procfs::cpu_seconds(),
            peak_rss_mb: crate::procfs::peak_rss_mb(),
            ledger: dcs_telemetry::ledger().totals(),
            stores: stores.iter().map(|s| s.stats()).collect(),
            shards: shards
                .iter()
                .map(|s| {
                    let mailbox = s.mailbox().stats();
                    let m = s.metrics();
                    ShardSnap {
                        counters: m.snapshot(mailbox.depth_high_water()),
                        read: m.read_latency.snapshot(),
                        write: m.write_latency.snapshot(),
                        miss: m.miss_latency.snapshot(),
                        mailbox,
                    }
                })
                .collect(),
        }
    }
}

/// The interval between two snapshots.
pub struct Window<'a> {
    pub open: &'a Snap,
    pub close: &'a Snap,
}

impl Window<'_> {
    pub fn secs(&self) -> f64 {
        (self.close.at - self.open.at).as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        self.close.cpu_s - self.open.cpu_s
    }

    /// The paper's §3 cost of the window in catalog dollars: the
    /// ledger's execution counts priced per operation plus DRAM and flash
    /// rent for the window's length.
    pub fn cost(&self) -> f64 {
        let hw = HardwareCatalog::paper();
        let d = self.close.ledger.delta(&self.open.ledger);
        let secs = self.secs();
        d.dram_bytes as f64 * hw.dram_per_byte * secs
            + d.flash_bytes as f64 * hw.flash_per_byte * secs
            + d.mm_ops as f64 * hw.mm_exec_cost()
            + d.ss_ops() as f64 * hw.ss_exec_cost()
    }

    fn wal_barriers(&self) -> u64 {
        self.close.ledger.wal_barriers - self.open.ledger.wal_barriers
    }

    /// Sum over stores of a counter's growth.
    fn store(&self, f: impl Fn(&StoreStats) -> u64) -> u64 {
        self.open
            .stores
            .iter()
            .zip(&self.close.stores)
            .map(|(a, b)| f(b) - f(a))
            .sum()
    }

    /// Sum over shards of a counter's growth.
    fn shard(&self, f: impl Fn(&ShardSnap) -> u64) -> u64 {
        self.open
            .shards
            .iter()
            .zip(&self.close.shards)
            .map(|(a, b)| f(b) - f(a))
            .sum()
    }

    /// Per-shard growth of a latency histogram.
    fn hists(&self, f: impl Fn(&ShardSnap) -> &HistogramSnapshot) -> Vec<HistogramSnapshot> {
        self.open
            .shards
            .iter()
            .zip(&self.close.shards)
            .map(|(a, b)| hist_delta(f(a), f(b)))
            .collect()
    }
}

/// `later − earlier`, bucket by bucket. The window's largest sample is
/// not recoverable from two cumulative snapshots, so the later maximum
/// stands in as the bound quantiles clamp to.
fn hist_delta(earlier: &HistogramSnapshot, later: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = *later;
    for (x, e) in d.counts.iter_mut().zip(earlier.counts.iter()) {
        *x -= e;
    }
    d.count -= earlier.count;
    d.sum -= earlier.sum;
    d
}

fn merged(hs: &[HistogramSnapshot]) -> HistogramSnapshot {
    let mut m = HistogramSnapshot::default();
    for h in hs {
        m.merge(h);
    }
    m
}

fn us(h: &HistogramSnapshot, q: f64) -> f64 {
    h.quantile(q) / 1e3
}

/// What a traced window saw from the load threads' side.
pub struct Traced<'a> {
    pub tally: &'a Tally,
    /// Nanoseconds in `Client::submit`, in `Ticket::wait`, and how late
    /// the paced threads sent each request; empty in process.
    pub submit: &'a [u32],
    pub wait: &'a [u32],
    pub send_lag: &'a [u32],
    /// Get p50 of the untraced and of the traced windows, for the
    /// tracing overhead.
    pub get_p50_us: (f64, f64),
    /// `(encode_ns, decode_ns, bytes)` per operation over the window's
    /// own request and response frames.
    pub codec: (f64, f64, f64),
}

/// A named metric with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Every per-layer metric. A layer this workload's requests never reach
/// reads 0.
pub fn per_layer(w: &Window, t: &Traced) -> Vec<Metric> {
    let ops = t.tally.completed();
    let gets = t.tally.sorted(Kind::Get);
    let writes = t.tally.count(Kind::Put) + t.tally.count(Kind::Rmw);
    let per_kop = |n: u64| ratio(n * 1000, ops);

    let submit = Sorted::new(t.submit.to_vec());
    let wait = Sorted::new(t.wait.to_vec());

    let read = w.hists(|s| &s.read);
    let write = w.hists(|s| &s.write);
    let miss = merged(&w.hists(|s| &s.miss));
    let (read, write_max) = (
        merged(&read),
        write
            .iter()
            .filter(|h| h.count > 0)
            .map(|h| us(h, 0.5))
            .fold(0.0, f64::max),
    );
    let write = merged(&write);
    let shard_ops: Vec<u64> = w
        .open
        .shards
        .iter()
        .zip(&w.close.shards)
        .map(|(a, b)| b.counters.total_ops() - a.counters.total_ops())
        .collect();
    let parked_peak = w
        .close
        .shards
        .iter()
        .map(|s| s.counters.parked_peak)
        .max()
        .unwrap_or(0);
    let has_shards = !w.close.shards.is_empty();
    let outside_shard = if has_shards {
        gets.us(0.5) - us(&read, 0.5)
    } else {
        0.0
    };

    let ss = w.store(|s| s.tree.ss_ops);
    let mm = w.store(|s| s.tree.mm_ops);
    let footprint: usize = w.close.stores.iter().map(|s| s.footprint_bytes).sum();
    let flash_reads = w.store(|s| s.lss.flash_reads);
    let buffer_hits = w.store(|s| s.lss.buffer_hits);
    let mut depth = HistogramSnapshot::default();
    for (a, b) in w.open.stores.iter().zip(&w.close.stores) {
        depth.merge(&hist_delta(&a.device.io_depth, &b.device.io_depth));
    }

    let lag = Sorted::new(t.send_lag.to_vec());
    let (untraced_p50, traced_p50) = t.get_p50_us;

    vec![
        ("client.submit_p50_us", submit.us(0.5), "us"),
        ("client.wait_p50_us", wait.us(0.5), "us"),
        ("client.wait_p99_us", wait.us(0.99), "us"),
        ("protocol.encode_ns", t.codec.0, "ns"),
        ("protocol.decode_ns", t.codec.1, "ns"),
        ("protocol.bytes_per_op", t.codec.2, "bytes"),
        ("server.outside_shard_p50_us", outside_shard, "us"),
        (
            "mailbox.ops_per_batch",
            ratio(
                w.shard(|s| s.counters.batched_ops),
                w.shard(|s| s.counters.batches),
            ),
            "ops",
        ),
        (
            "mailbox.busy_ratio",
            ratio(
                w.shard(|s| s.mailbox.rejected_busy),
                w.shard(|s| s.mailbox.accepted + s.mailbox.rejected_busy),
            ),
            "ratio",
        ),
        ("shard.read_p50_us", us(&read, 0.5), "us"),
        ("shard.read_p99_us", us(&read, 0.99), "us"),
        ("shard.write_p50_us", us(&write, 0.5), "us"),
        ("shard.write_p99_us", us(&write, 0.99), "us"),
        ("shard.write_p50_us_max", write_max, "us"),
        ("shard.miss_p50_us", us(&miss, 0.5), "us"),
        ("shard.miss_p99_us", us(&miss, 0.99), "us"),
        ("shard.parked_peak", parked_peak as f64, "count"),
        (
            "shard.hot_share",
            ratio(
                shard_ops.iter().copied().max().unwrap_or(0),
                shard_ops.iter().sum(),
            ),
            "ratio",
        ),
        (
            "tc.records_per_commit",
            ratio(
                w.shard(|s| s.counters.group_committed_records),
                w.shard(|s| s.counters.group_commits),
            ),
            "records",
        ),
        (
            "tc.barriers_per_write",
            ratio(w.wal_barriers(), writes),
            "ratio",
        ),
        ("core.ss_fraction", ratio(ss, ss + mm), "ratio"),
        (
            "core.footprint_mb",
            footprint as f64 / (1 << 20) as f64,
            "MiB",
        ),
        (
            "bwtree.fetches_per_kop",
            per_kop(w.store(|s| s.tree.fetches)),
            "count",
        ),
        (
            "bwtree.evictions_per_kop",
            per_kop(w.store(|s| s.tree.evictions + s.tree.base_evictions)),
            "count",
        ),
        (
            "bwtree.consolidations_per_kop",
            per_kop(w.store(|s| s.tree.consolidations)),
            "count",
        ),
        (
            "bwtree.splits_per_kop",
            per_kop(w.store(|s| s.tree.leaf_splits + s.tree.inner_splits)),
            "count",
        ),
        (
            "llama.flash_reads_per_get",
            ratio(flash_reads, gets.len() as u64),
            "ratio",
        ),
        (
            "llama.buffer_hit_ratio",
            ratio(buffer_hits, buffer_hits + flash_reads),
            "ratio",
        ),
        (
            "llama.pages_evicted_per_kop",
            per_kop(w.store(|s| s.cache.pages_evicted)),
            "count",
        ),
        (
            "llama.parts_relocated_per_kop",
            per_kop(w.store(|s| s.lss.parts_relocated)),
            "count",
        ),
        (
            "llama.stored_per_payload_byte",
            ratio(
                w.store(|s| s.lss.stored_bytes),
                w.store(|s| s.lss.payload_bytes),
            ),
            "ratio",
        ),
        (
            "flashsim.reads_per_get",
            ratio(w.store(|s| s.device.reads), gets.len() as u64),
            "ratio",
        ),
        (
            "flashsim.bytes_read_per_get",
            ratio(w.store(|s| s.device.bytes_read), gets.len() as u64),
            "bytes",
        ),
        (
            "flashsim.write_amp",
            ratio(w.store(|s| s.device.bytes_written), t.tally.written_bytes),
            "ratio",
        ),
        (
            "flashsim.syncs_per_write",
            ratio(w.store(|s| s.device.syncs) + w.wal_barriers(), writes),
            "ratio",
        ),
        ("flashsim.io_depth_mean", depth.mean(), "ios"),
        (
            "telemetry.trace_overhead_pct",
            if untraced_p50 > 0.0 {
                (traced_p50 - untraced_p50) / untraced_p50 * 100.0
            } else {
                0.0
            },
            "%",
        ),
        ("driver.send_lag_p99_us", lag.us(0.99), "us"),
    ]
}
