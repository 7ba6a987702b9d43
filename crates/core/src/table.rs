//! PMTables and the engine-side MemTable wrapper.

use std::sync::Arc;

use miodb_bloom::BloomFilter;
use miodb_common::{OpKind, Result, SequenceNumber};
use miodb_pmem::{PmemPool, PmemRegion};
use miodb_skiplist::{SkipList, SkipListArena};
use miodb_wal::WriteAheadLog;
use parking_lot::Mutex;

/// A persistent, immutable-by-writers skip-list table in the elastic
/// buffer.
///
/// A PMTable owns the set of arenas its nodes physically live in: after a
/// zero-copy merge the merged table's nodes span the arenas of both inputs,
/// so arena ownership is transferred (unioned) at merge time and memory is
/// reclaimed only when the table is lazy-copied into the repository.
#[derive(Debug)]
pub struct PmTable {
    /// Read view rooted at the table's head node.
    pub list: SkipList,
    /// Every arena whose nodes may be reachable from `list`.
    pub arenas: Vec<PmemRegion>,
    /// Mergeable bloom filter over the table's keys (kept in DRAM; rebuilt
    /// from the list on recovery).
    pub bloom: BloomFilter,
    /// Approximate number of nodes.
    pub len: usize,
    /// Approximate user bytes.
    pub data_bytes: u64,
    /// Largest sequence number contained (age ordering sanity checks).
    pub newest_seq: SequenceNumber,
}

impl PmTable {
    /// Total NVM bytes held by this table's arenas.
    pub fn arena_bytes(&self) -> u64 {
        self.arenas.iter().map(|a| a.len).sum()
    }

    /// Rebuilds the bloom filter by scanning the list (recovery path).
    pub fn rebuild_bloom(
        list: &SkipList,
        expected_keys: usize,
        bits_per_key: usize,
    ) -> BloomFilter {
        let mut bloom = BloomFilter::with_bits_per_key(expected_keys.max(16), bits_per_key);
        for e in list.iter() {
            bloom.insert(&e.key);
        }
        bloom
    }

    /// Frees all arenas back to `pool`, consuming the table. The caller
    /// must guarantee no readers hold references (see the engine's
    /// unique-ownership GC).
    pub fn release(self, pool: &PmemPool) {
        for a in self.arenas {
            pool.free(a);
        }
    }
}

/// The engine-side MemTable: a DRAM skip-list arena plus its WAL and an
/// incrementally built bloom filter (inherited by the flushed PMTable).
pub struct MemTable {
    arena: SkipListArena,
    wal: WriteAheadLog,
    bloom: Mutex<BloomFilter>,
}

impl std::fmt::Debug for MemTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTable")
            .field("used", &self.arena.used_bytes())
            .field("len", &self.arena.len())
            .finish()
    }
}

impl MemTable {
    /// Creates a MemTable of `capacity` bytes in `dram`, logging to a
    /// fresh WAL in `nvm`.
    ///
    /// # Errors
    ///
    /// Returns a capacity error if either pool cannot fit its part.
    pub fn new(
        dram: &Arc<PmemPool>,
        nvm: &Arc<PmemPool>,
        capacity: usize,
        wal_segment: usize,
        bloom_bits_per_key: usize,
        bloom_expected_keys: usize,
    ) -> Result<MemTable> {
        let arena = SkipListArena::new(dram.clone(), capacity)?;
        let wal = WriteAheadLog::new(nvm.clone(), wal_segment)?;
        Ok(MemTable {
            arena,
            wal,
            bloom: Mutex::new(BloomFilter::with_bits_per_key(
                bloom_expected_keys,
                bloom_bits_per_key,
            )),
        })
    }

    /// Appends one encoded commit record to this MemTable's WAL — the
    /// commit's single modeled NVM append. Indexing happens afterwards via
    /// [`MemTable::insert_concurrent`].
    ///
    /// # Errors
    ///
    /// Propagates WAL allocation and injected-fault failures; nothing is
    /// logged on error.
    pub fn log(&self, record: &[u8]) -> Result<()> {
        self.wal.append_encoded(record)
    }

    /// Inserts one already-logged entry concurrently with other group
    /// members (CAS skip-list splicing; the bloom update takes a short
    /// mutex).
    ///
    /// # Errors
    ///
    /// Returns [`miodb_common::Error::ArenaFull`] if the arena cannot fit
    /// the node — the commit reserves worst-case capacity up front, so
    /// this indicates an engine bug, but it is handled gracefully.
    pub fn insert_concurrent(
        &self,
        key: &[u8],
        value: &[u8],
        seq: SequenceNumber,
        kind: OpKind,
    ) -> Result<()> {
        self.arena.insert_concurrent(key, value, seq, kind)?;
        self.bloom.lock().insert(key);
        Ok(())
    }

    /// The underlying arena (flush path).
    pub fn arena(&self) -> &SkipListArena {
        &self.arena
    }

    /// Read view.
    pub fn list(&self) -> SkipList {
        self.arena.list()
    }

    /// Snapshot of the bloom filter (cloned into the flushed PMTable).
    pub fn bloom_snapshot(&self) -> BloomFilter {
        self.bloom.lock().clone()
    }

    /// WAL segments, persisted in the manifest for replay.
    pub fn wal_segments(&self) -> Vec<PmemRegion> {
        self.wal.segments()
    }

    /// Releases the arena and the WAL, consuming the MemTable.
    pub fn release(self) {
        self.arena.release();
        self.wal.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miodb_common::Stats;
    use miodb_pmem::DeviceModel;

    fn pools() -> (Arc<PmemPool>, Arc<PmemPool>) {
        let stats = Arc::new(Stats::new());
        (
            PmemPool::new(4 << 20, DeviceModel::dram(), stats.clone()).unwrap(),
            PmemPool::new(8 << 20, DeviceModel::nvm_unthrottled(), stats).unwrap(),
        )
    }

    /// Logs and indexes one put, the way a one-op commit does.
    fn put(m: &MemTable, key: &[u8], value: &[u8], seq: SequenceNumber) {
        m.log(&miodb_wal::encode_record(key, value, seq, OpKind::Put).unwrap())
            .unwrap();
        m.insert_concurrent(key, value, seq, OpKind::Put).unwrap();
    }

    #[test]
    fn memtable_logs_and_indexes() {
        let (dram, nvm) = pools();
        let m = MemTable::new(&dram, &nvm, 64 * 1024, 64 * 1024, 16, 1024).unwrap();
        put(&m, b"k", b"v", 1);
        assert_eq!(m.list().get(b"k").unwrap().value, b"v");
        let replayed = miodb_wal::WriteAheadLog::replay(&nvm, &m.wal_segments()).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].key, b"k");
        assert!(m.bloom_snapshot().may_contain(b"k"));
        assert!(!m.bloom_snapshot().may_contain(b"other"));
    }

    #[test]
    fn release_frees_both_pools() {
        let (dram, nvm) = pools();
        let d0 = dram.used_bytes();
        let n0 = nvm.used_bytes();
        let m = MemTable::new(&dram, &nvm, 64 * 1024, 16 * 1024, 16, 1024).unwrap();
        put(&m, b"k", b"v", 1);
        m.release();
        assert_eq!(dram.used_bytes(), d0);
        assert_eq!(nvm.used_bytes(), n0);
    }

    #[test]
    fn rebuild_bloom_covers_all_keys() {
        let (dram, _nvm) = pools();
        let arena = SkipListArena::new(dram, 64 * 1024).unwrap();
        for i in 0..100u32 {
            arena
                .insert(format!("k{i}").as_bytes(), b"v", i as u64 + 1, OpKind::Put)
                .unwrap();
        }
        let bloom = PmTable::rebuild_bloom(&arena.list(), 100, 16);
        for i in 0..100u32 {
            assert!(bloom.may_contain(format!("k{i}").as_bytes()));
        }
    }
}
