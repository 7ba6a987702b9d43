//! Regression guards on the modeled NVM reads of sorted merges.
//!
//! A zero-copy merge and a lazy-copy drain both consume their input in
//! ascending key order, so each position is found by a finger search
//! forward from the previous one instead of a descent from the head. These
//! tests count node reads through the device model's byte counter
//! (`Stats::nvm_bytes_read`, one 32-byte read per inspected node) and bound
//! them per moved node / per drained entry. A descent from the head of a
//! 20k-node list inspects about 27 nodes, so the bounds fail if either path
//! goes back to head descents.

use std::sync::Arc;

use miodb_common::{OpKind, Stats};
use miodb_pmem::{DeviceModel, PmemPool};
use miodb_skiplist::iter::OwnedEntry;
use miodb_skiplist::merge::MergeLimits;
use miodb_skiplist::{zero_copy_merge, GrowableSkipList, InsertionMark, SkipListArena};

/// Modeled bytes per inspected node (`VISIT_BYTES` in the crate).
const VISIT_BYTES: f64 = 32.0;
const N: u64 = 10_000;

fn nvm_pool() -> (Arc<PmemPool>, Arc<Stats>) {
    let stats = Arc::new(Stats::new());
    let pool = PmemPool::new(64 << 20, DeviceModel::nvm_unthrottled(), stats.clone()).unwrap();
    (pool, stats)
}

fn key(i: u64) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

/// `0..n` in a scrambled order, so tower heights are unrelated to key
/// order.
fn scrambled(n: u64) -> impl Iterator<Item = u64> {
    // 7919 is prime and coprime with every n used here.
    (0..n).map(move |i| (i * 7919) % n)
}

fn node_reads(stats: &Stats, before: u64) -> f64 {
    (stats.snapshot().nvm_bytes_read - before) as f64 / VISIT_BYTES
}

#[test]
fn zero_copy_merge_reads_few_nodes_per_moved_node() {
    let (pool, stats) = nvm_pool();
    let new = SkipListArena::new(pool.clone(), 4 << 20).unwrap();
    let old = SkipListArena::new(pool.clone(), 4 << 20).unwrap();
    for i in scrambled(N) {
        new.insert(&key(2 * i + 1), b"new", N + i + 1, OpKind::Put)
            .unwrap();
        old.insert(&key(2 * i), b"old", i + 1, OpKind::Put).unwrap();
    }
    let mark = InsertionMark::alloc(&pool).unwrap();
    let before = stats.snapshot().nvm_bytes_read;
    let out = zero_copy_merge(&pool, new.head(), old.head(), &mark, MergeLimits::none());
    let per_node = node_reads(&stats, before) / out.stats().moved as f64;
    assert!(out.is_complete());
    assert_eq!(out.stats().moved, N);
    assert_eq!(old.list().count_nodes(), 2 * N as usize);
    // Finger search: 3.0. Head descents into both tables: 27.8.
    assert!(
        per_node <= 6.0,
        "{per_node:.1} modeled node reads per moved node"
    );
}

#[test]
fn apply_run_reads_few_nodes_per_entry() {
    let (pool, stats) = nvm_pool();
    let repo = GrowableSkipList::new(pool, 1 << 20).unwrap();
    for i in scrambled(2 * N) {
        repo.apply(&key(2 * i), b"old", i + 1, OpKind::Put).unwrap();
    }
    // A drain of N entries: updates of existing keys interleaved with
    // inserts of new ones, in ascending key order.
    let run: Vec<OwnedEntry> = (0..N)
        .map(|i| OwnedEntry {
            key: key(2 * i + i % 2),
            value: b"new".to_vec(),
            seq: 4 * N + i,
            kind: OpKind::Put,
        })
        .collect();
    let before = stats.snapshot().nvm_bytes_read;
    repo.apply_run(run).unwrap();
    let per_entry = node_reads(&stats, before) / N as f64;
    assert_eq!(repo.len(), (2 * N + N / 2) as usize);
    // Finger search: 2.0. A head descent per entry: 26.9.
    assert!(
        per_entry <= 6.0,
        "{per_entry:.1} modeled node reads per entry"
    );
}
