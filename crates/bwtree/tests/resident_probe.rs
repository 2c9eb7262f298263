//! The memory-only probe counts nothing when it cannot answer: a
//! resident probe that reaches a flash-resident leaf must leave the
//! tree's counters, the process cost ledger and the page-cache MRC
//! exactly as they were, so the fetching path that takes over counts
//! the read once. Its own test binary, because the ledger and the MRC
//! registry are process-wide.

use bytes::Bytes;
use dcs_bwtree::{BwTree, BwTreeConfig, MemStore, TryGetAsync};
use std::sync::{Arc, Mutex};

/// Serializes the tests in this binary: both touch the process ledger.
static GLOBALS: Mutex<()> = Mutex::new(());

fn kv(i: u32) -> (Bytes, Bytes) {
    (
        Bytes::from(format!("key{i:05}")),
        Bytes::from(format!("val{i:05}")),
    )
}

/// `(ledger mm_ops, page-cache MRC accesses)`.
fn globals() -> (u64, u64) {
    (
        dcs_telemetry::global().counter("cost.mm_ops").value(),
        dcs_telemetry::mrc()
            .profiler("mrc.page_cache")
            .snapshot()
            .accesses,
    )
}

#[test]
fn resident_probe_of_flash_resident_leaf_counts_nothing() {
    let _serial = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let t = BwTree::with_store(BwTreeConfig::default(), Arc::new(MemStore::new()));
    for i in 0..20u32 {
        let (k, v) = kv(i);
        t.put(k, v);
    }
    let leaf = t.pages().into_iter().find(|p| p.is_leaf).unwrap();
    t.evict_page(leaf.pid).unwrap();

    let (stats, ledger) = (t.stats(), globals());
    assert_eq!(t.try_get_resident(&kv(3).0), None);
    assert_eq!(t.stats(), stats, "tree counters moved");
    assert_eq!(globals(), ledger, "ledger mm_ops or MRC accesses moved");

    // The fetching path then counts the read exactly once.
    assert!(matches!(
        t.try_get_async(&kv(3).0),
        TryGetAsync::NeedFetch { .. }
    ));
    assert_eq!(t.stats().gets, stats.gets + 1);
    assert_eq!(globals().1, ledger.1 + 1);
}

#[test]
fn resident_hit_counts_like_an_async_hit() {
    let _serial = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let t = BwTree::in_memory(BwTreeConfig::default());
    for i in 0..20u32 {
        let (k, v) = kv(i);
        t.put(k, v);
    }
    let before = t.stats();
    assert_eq!(t.try_get_async(&kv(3).0), TryGetAsync::Hit(Some(kv(3).1)));
    let after_async = t.stats();
    assert_eq!(t.try_get_resident(&kv(4).0), Some(Some(kv(4).1)));
    let after_resident = t.stats();
    assert_eq!(after_async.gets - before.gets, 1);
    assert_eq!(after_resident.gets - after_async.gets, 1);
    assert_eq!(after_async.mm_ops - before.mm_ops, 1);
    assert_eq!(after_resident.mm_ops - after_async.mm_ops, 1);
    assert_eq!(t.try_get_resident(b"absent"), Some(None), "absent is a hit");
}
