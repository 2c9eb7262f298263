//! The writes each load thread had acknowledged, and the read-back check
//! that every record's final value is one those writes allow.
//!
//! Every value is whole chunks of `value_len` bytes, each one
//! `keys::value_for(id, stamp, ..)`: the bulk load and a put write one
//! chunk, and an rmw appends one. A write's stamp is its generator
//! version folded with the thread that sent it, so it names exactly one
//! write; the load's stamp is 0.

use crate::setup::LOAD_THREADS;
use dcs_workload::{keys, Operation};

/// Give a write's value a stamp unique across the load threads: the
/// generator numbers each thread's writes 1, 2, ... on its own.
pub fn stamp(op: &mut Operation, thread: usize) {
    if let Some((_, version)) = keys::parse_value(&op.value) {
        let stamp = version * LOAD_THREADS as u32 + thread as u32;
        op.value[8..12].copy_from_slice(&stamp.to_le_bytes());
    }
}

/// One load thread's writes. Each thread has at most one request in
/// flight, so its writes to a key take effect in the order it sent them.
#[derive(Debug, Clone)]
pub struct Writes {
    /// Per record: the stamp of the thread's last acknowledged write and
    /// whether that write was a put (0 when it has none).
    last: Vec<(u32, bool)>,
    /// `(id, stamp)` of every write whose outcome the thread cannot know
    /// (refused, failed, or answered wrongly): it may have taken effect.
    in_doubt: Vec<(u64, u32)>,
}

impl Writes {
    pub fn new(records: u64) -> Writes {
        Writes {
            last: vec![(0, false); records as usize],
            in_doubt: Vec::new(),
        }
    }

    /// Account one write: `acked` when the store acknowledged it.
    pub fn record(&mut self, op: &Operation, put: bool, acked: bool) {
        let Some((_, stamp)) = keys::parse_value(&op.value) else {
            return;
        };
        if acked {
            self.last[op.key_id as usize] = (stamp, put);
        } else {
            self.in_doubt.push((op.key_id, stamp));
        }
    }
}

/// Whether `value`, record `id`'s value after every write has drained,
/// is one the threads' writes allow. Its last chunk comes from the write
/// that took effect last, which is some thread's last acknowledged write
/// to the record or a write in doubt; with neither, it is the load's. A
/// put's chunk stands alone. A lost, stale or reverted write fails.
pub fn final_ok(id: u64, value: Option<&[u8]>, value_len: usize, writes: &[Writes]) -> bool {
    let Some(value) = value.filter(|v| !v.is_empty() && v.len() % value_len == 0) else {
        return false;
    };
    let stamps: Option<Vec<u32>> = value
        .chunks(value_len)
        .map(|c| keys::parse_value(c).filter(|p| p.0 == id).map(|p| p.1))
        .collect();
    let Some(&last) = stamps.as_deref().and_then(<[u32]>::last) else {
        return false;
    };
    let alone = value.len() == value_len;
    let mut acked = writes.iter().map(|w| w.last[id as usize]);
    if last == 0 {
        return alone && acked.all(|(s, _)| s == 0);
    }
    acked.any(|(s, put)| s == last && (alone || !put))
        || writes.iter().any(|w| w.in_doubt.contains(&(id, last)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_workload::OpKind;

    const LEN: usize = 100;

    fn write(kind: OpKind, id: u64, version: u32, thread: usize) -> Operation {
        let mut op = Operation {
            kind,
            key_id: id,
            value: keys::value_for(id, version, LEN),
        };
        stamp(&mut op, thread);
        op
    }

    fn ok(value: &[u8], writes: &[Writes]) -> bool {
        final_ok(3, Some(value), LEN, writes)
    }

    #[test]
    fn stamps_are_unique_across_threads() {
        let a = write(OpKind::Update, 3, 7, 0);
        let b = write(OpKind::Update, 3, 7, 1);
        assert_ne!(a.value, b.value);
        assert_eq!(keys::parse_value(&a.value), Some((3, 14)));
        assert_eq!(keys::parse_value(&b.value), Some((3, 15)));
    }

    #[test]
    fn load_value_passes_only_without_acknowledged_writes() {
        let load = keys::value_for(3, 0, LEN);
        let mut w = vec![Writes::new(10), Writes::new(10)];
        assert!(ok(&load, &w));
        let put = write(OpKind::Update, 3, 1, 0);
        w[0].record(&put, true, true);
        // The store handed back the load value after an acknowledged put.
        assert!(!ok(&load, &w));
        assert!(ok(&put.value, &w));
        assert!(!final_ok(3, None, LEN, &w));
    }

    #[test]
    fn stale_or_foreign_values_fail() {
        let mut w = vec![Writes::new(10), Writes::new(10)];
        let older = write(OpKind::Update, 3, 1, 0);
        let newer = write(OpKind::Update, 3, 2, 0);
        w[0].record(&older, true, true);
        w[0].record(&newer, true, true);
        assert!(!ok(&older.value, &w));
        assert!(ok(&newer.value, &w));
        // The other thread's last put may have taken effect last.
        let other = write(OpKind::Update, 3, 1, 1);
        w[1].record(&other, true, true);
        assert!(ok(&other.value, &w));
        // A value for another key fails, as does a torn one.
        assert!(!ok(&keys::value_for(4, 0, LEN), &w));
        assert!(!ok(&newer.value[..LEN - 1], &w));
    }

    #[test]
    fn rmw_appends_and_put_stands_alone() {
        let mut w = vec![Writes::new(10), Writes::new(10)];
        let put = write(OpKind::Update, 3, 1, 0);
        let rmw = write(OpKind::ReadModifyWrite, 3, 2, 0);
        w[0].record(&put, true, true);
        w[0].record(&rmw, false, true);
        let appended = [put.value.clone(), rmw.value.clone()].concat();
        assert!(ok(&appended, &w));
        // The rmw was acknowledged but is missing.
        assert!(!ok(&put.value, &w));
        // A put's chunk with something appended after it.
        let mut w = vec![Writes::new(10), Writes::new(10)];
        w[0].record(&put, true, true);
        assert!(!ok(&[put.value.clone(), put.value.clone()].concat(), &w));
    }

    #[test]
    fn writes_in_doubt_may_have_taken_effect() {
        let mut w = vec![Writes::new(10), Writes::new(10)];
        let acked = write(OpKind::Update, 3, 1, 0);
        let doubt = write(OpKind::Update, 3, 2, 1);
        w[0].record(&acked, true, true);
        w[1].record(&doubt, true, false);
        assert!(ok(&acked.value, &w));
        assert!(ok(&doubt.value, &w));
        assert!(!ok(&write(OpKind::Update, 3, 3, 1).value, &w));
    }
}
