//! The commit path: every write — a put, a batch, a write group, a
//! follower's apply of a shipped record and recovery's replay — is one
//! commit of one WAL record, logged once and published once.
//!
//! The deadlock tests run their workload on a helper thread and fail after
//! 20 s instead of hanging the suite. One test arms a process-global fault
//! point, so every test here holds [`fault::exclusive`] to keep the
//! injected failures out of the others.

use std::collections::HashMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use miodb::common::fault::{self, points, FaultPolicy};
use miodb::common::{OpKind, ReplicationSink};
use miodb::pmem::PmemPool;
use miodb::wal::{decode_record_bytes, encode_group_record, encode_record, GroupOp, WalRecord};
use miodb::{KvEngine, MioDb, MioOptions, Stats, WriteBatch};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("miodb-commit-{}-{name}", std::process::id()))
}

/// Runs `f` on its own thread and returns its result, failing the test if
/// it takes longer than 20 s.
fn within_20s<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => panic!("{what} did not finish within 20 s"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

fn recover_from(path: &std::path::Path, opts: &MioOptions) -> MioDb {
    let pool = PmemPool::restore_from_file(path, opts.nvm_device, Arc::new(Stats::new())).unwrap();
    MioDb::recover(pool, opts.clone()).unwrap()
}

fn dense_key(i: u32) -> Vec<u8> {
    format!("dense{i:05}").into_bytes()
}

fn dense_value(i: u32) -> Vec<u8> {
    vec![(i % 251) as u8; 1024]
}

/// One shipped leader record of `n` 1 KB puts with sequence numbers from 1,
/// decoded the way a follower decodes it.
fn shipped_record(n: u32) -> Vec<WalRecord> {
    let kvs: Vec<(Vec<u8>, Vec<u8>)> = (0..n).map(|i| (dense_key(i), dense_value(i))).collect();
    let ops: Vec<GroupOp<'_>> = kvs
        .iter()
        .map(|(key, value)| GroupOp {
            key,
            value,
            kind: OpKind::Put,
        })
        .collect();
    decode_record_bytes(&encode_group_record(&ops, 1).unwrap()).unwrap()
}

#[test]
fn follower_applies_a_shipped_record_larger_than_a_memtable() {
    let _g = fault::exclusive();
    // 192 KB of records against 64 KiB MemTables: the apply must rotate
    // several times under the writer mutex.
    let db = Arc::new(MioDb::open(MioOptions::small_for_tests()).unwrap());
    let records = shipped_record(192);
    let applier = db.clone();
    within_20s("apply_replicated of 192 x 1 KB", move || {
        applier.apply_replicated(&records).unwrap()
    });
    assert_eq!(db.last_sequence(), 192);
    for i in 0..192 {
        assert_eq!(
            db.get(&dense_key(i)).unwrap(),
            Some(dense_value(i)),
            "key {i}"
        );
    }
}

#[test]
fn acknowledged_batch_larger_than_a_memtable_recovers() {
    let _g = fault::exclusive();
    let opts = MioOptions::small_for_tests();
    let path = tmp("large-batch");
    {
        let db = MioDb::open(opts.clone()).unwrap();
        let mut batch = WriteBatch::new();
        for i in 0..192 {
            batch.put(&dense_key(i), &dense_value(i));
        }
        db.write_batch(batch).unwrap();
        db.snapshot(&path).unwrap();
    }
    let recover_path = path.clone();
    let db = within_20s("recover of a 192 x 1 KB batch", move || {
        recover_from(&recover_path, &opts)
    });
    std::fs::remove_file(&path).ok();
    assert_eq!(db.last_sequence(), 192);
    for i in 0..192 {
        assert_eq!(
            db.get(&dense_key(i)).unwrap(),
            Some(dense_value(i)),
            "key {i}"
        );
    }
}

#[test]
fn follower_logs_a_shipped_batch_all_or_nothing() {
    let _g = fault::exclusive();
    let opts = MioOptions::small_for_tests();
    let records: Vec<WalRecord> = shipped_record(8)
        .into_iter()
        .map(|r| WalRecord {
            value: r.value[..16].to_vec(),
            ..r
        })
        .collect();
    for nth in [1, 2] {
        let path = tmp(&format!("follower-atomic-{nth}"));
        {
            let db = MioDb::open(opts.clone()).unwrap();
            fault::arm(points::WAL_APPEND_PRE_CRC, FaultPolicy::FailNth(nth));
            let applied = db.apply_replicated(&records);
            fault::disarm_all();
            db.snapshot(&path).unwrap();
            eprintln!("FailNth({nth}): apply_replicated -> {applied:?}");
        }
        let db = recover_from(&path, &opts);
        std::fs::remove_file(&path).ok();
        let present = (0..8u32)
            .filter(|i| db.get(&dense_key(*i)).unwrap().is_some())
            .count();
        assert!(
            present == 0 || present == 8,
            "FailNth({nth}): a shipped 8-op batch recovered {present} of 8 ops"
        );
    }
}

/// Every op written, by key (keys are unique): its value and kind.
type Written = HashMap<Vec<u8>, (Vec<u8>, OpKind)>;

/// A sink that records every publish.
#[derive(Default)]
struct RecordingSink {
    published: Mutex<Vec<(Vec<u8>, u64, u64)>>,
}

impl ReplicationSink for RecordingSink {
    fn publish(&self, bytes: &[u8], seq_first: u64, seq_last: u64) {
        self.published
            .lock()
            .unwrap()
            .push((bytes.to_vec(), seq_first, seq_last));
    }

    fn wait_committed(&self, _seq_last: u64) -> miodb::Result<()> {
        Ok(())
    }
}

#[test]
fn published_records_tile_the_sequence_space_and_decode_to_the_writes() {
    let _g = fault::exclusive();
    let db = Arc::new(MioDb::open(MioOptions::small_for_tests()).unwrap());
    let sink = Arc::new(RecordingSink::default());
    db.set_commit_sink(Some(sink.clone() as Arc<dyn ReplicationSink>));
    // Every op written, and every batch's keys.
    let expected: Mutex<Written> = Mutex::new(HashMap::new());
    let batches: Mutex<Vec<Vec<Vec<u8>>>> = Mutex::new(Vec::new());
    let write_batch = |prefix: String, n: u32| {
        let mut batch = WriteBatch::new();
        let mut keys = Vec::new();
        let mut exp = Vec::new();
        for j in 0..n {
            let key = format!("{prefix}-{j}").into_bytes();
            if j == 1 {
                batch.delete(&key);
                exp.push((key.clone(), (Vec::new(), OpKind::Delete)));
            } else {
                let value = format!("bv-{prefix}-{j}").into_bytes();
                batch.put(&key, &value);
                exp.push((key.clone(), (value, OpKind::Put)));
            }
            keys.push(key);
        }
        db.write_batch(batch).unwrap();
        expected.lock().unwrap().extend(exp);
        batches.lock().unwrap().push(keys);
    };

    // Uncontended single puts and deletes: the shipped bytes are exactly
    // the single-op record encoding.
    for i in 0..50u32 {
        let key = format!("single-{i}").into_bytes();
        let (value, kind) = if i % 7 == 3 {
            (Vec::new(), OpKind::Delete)
        } else {
            (vec![b'x'; (i * 37 % 700) as usize], OpKind::Put)
        };
        match kind {
            OpKind::Put => db.put(&key, &value).unwrap(),
            OpKind::Delete => db.delete(&key).unwrap(),
        }
        let seq = db.last_sequence();
        let last = sink.published.lock().unwrap().last().cloned().unwrap();
        assert_eq!(
            last,
            (encode_record(&key, &value, seq, kind).unwrap(), seq, seq)
        );
        expected.lock().unwrap().insert(key, (value, kind));
    }
    for i in 0..20u32 {
        write_batch(format!("batch-{i}"), 2 + i % 5);
    }
    // An 8-writer storm mixing puts and batches.
    std::thread::scope(|s| {
        for t in 0..8u32 {
            let db = &db;
            let expected = &expected;
            let write_batch = &write_batch;
            s.spawn(move || {
                for i in 0..300u32 {
                    if i % 5 == 0 {
                        write_batch(format!("storm-{t}-{i}"), 3);
                    } else {
                        let key = format!("storm-{t}-{i}").into_bytes();
                        let value = format!("sv-{t}-{i}").into_bytes();
                        db.put(&key, &value).unwrap();
                        expected.lock().unwrap().insert(key, (value, OpKind::Put));
                    }
                }
            });
        }
    });
    db.set_commit_sink(None);

    let published = sink.published.lock().unwrap().clone();
    let expected = expected.into_inner().unwrap();
    // (buffer index, position in buffer) of every shipped op, by key.
    let mut shipped: HashMap<Vec<u8>, (usize, usize)> = HashMap::new();
    let mut next = 1u64;
    for (b, (bytes, first, last)) in published.iter().enumerate() {
        assert_eq!(
            *first, next,
            "publish {b} does not start where the last ended"
        );
        assert!(last >= first);
        next = last + 1;
        let records = decode_record_bytes(bytes).unwrap();
        assert_eq!(records.len() as u64, last - first + 1, "publish {b}");
        for (pos, r) in records.into_iter().enumerate() {
            assert_eq!(r.seq, first + pos as u64, "publish {b} is not dense");
            let (value, kind) = expected
                .get(&r.key)
                .unwrap_or_else(|| panic!("shipped a key never written: {:?}", r.key));
            assert_eq!((&r.value, r.kind), (value, *kind));
            assert!(
                shipped.insert(r.key, (b, pos)).is_none(),
                "an op shipped twice"
            );
        }
    }
    assert_eq!(
        next - 1,
        db.last_sequence(),
        "publishes must cover every sequence"
    );
    assert_eq!(shipped.len(), expected.len(), "every op is shipped once");
    // A batch ships as one record, its ops adjacent and in order.
    for keys in batches.into_inner().unwrap() {
        let (b0, p0) = shipped[&keys[0]];
        for (j, key) in keys.iter().enumerate() {
            assert_eq!(shipped[key], (b0, p0 + j), "batch split across records");
        }
    }
}
