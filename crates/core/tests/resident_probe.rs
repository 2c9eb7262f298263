//! `CachingStore::get_resident` counts a hit exactly as a ready
//! `get_submit` does, so serving a hit from either path leaves the same
//! cost ledger and miss-ratio curves behind. Its own test binary,
//! because the ledger and the MRC registry are process-wide.

use dcs_core::{StoreBuilder, SubmittedGet};

/// `[ledger mm_ops, ledger ss_reads, record-cache MRC accesses,
/// page-cache MRC accesses]`.
fn globals() -> [u64; 4] {
    let r = dcs_telemetry::global();
    let mrc = |name: &str| dcs_telemetry::mrc().profiler(name).snapshot().accesses;
    [
        r.counter("cost.mm_ops").value(),
        r.counter("cost.ss_reads").value(),
        mrc("mrc.record_cache"),
        mrc("mrc.page_cache"),
    ]
}

fn delta(before: [u64; 4], after: [u64; 4]) -> [u64; 4] {
    [0, 1, 2, 3].map(|i| after[i] - before[i])
}

#[test]
fn resident_hit_counts_like_a_submitted_hit() {
    let store = StoreBuilder::small_test().build();
    for i in 0..200u32 {
        store.put(format!("key{i:05}"), format!("val{i:05}"));
    }

    let (g0, s0) = (globals(), store.stats().tree);
    let Ok(SubmittedGet::Ready(Some(v))) = store.get_submit(b"key00007") else {
        panic!("a resident key must be a ready hit");
    };
    assert_eq!(&v[..], b"val00007");
    let (g1, s1) = (globals(), store.stats().tree);
    assert_eq!(
        store.get_resident(b"key00008"),
        Some(Some("val00008".into()))
    );
    let (g2, s2) = (globals(), store.stats().tree);

    assert_eq!(delta(g0, g1), delta(g1, g2), "ledger or MRC deltas differ");
    assert_eq!(delta(g0, g1)[2], 1, "one record-cache access per get");
    assert_eq!(s1.gets - s0.gets, s2.gets - s1.gets);
    assert_eq!(s1.mm_ops - s0.mm_ops, s2.mm_ops - s1.mm_ops);
    assert_eq!(s1.ss_ops - s0.ss_ops, s2.ss_ops - s1.ss_ops);
}
