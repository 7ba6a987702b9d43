//! Zero-copy compaction: merging two PMTables by pointer re-linking only.
//!
//! Implements §4.3 of the paper. The *newtable* (younger) is drained node
//! by node into the *oldtable* (older); no KV bytes move. For each run of
//! same-key versions at the front of the newtable:
//!
//! 1. the newest node `n` is recorded in the persistent [`InsertionMark`]
//!    (phase `Unlink`),
//! 2. the older duplicates behind it are unlinked and dropped (they are
//!    superseded by `n`),
//! 3. `n` is unlinked from the newtable,
//! 4. the mark advances to phase `Splice` and `n` is spliced into the
//!    oldtable at its multi-version position, bypassing any older
//!    duplicates already there,
//! 5. the mark is cleared.
//!
//! All link updates are single atomic release stores, so concurrent point
//! lookups never block; a reader that consults **newtable → mark →
//! oldtable** (see [`InsertionMark::read`]) observes every node at every
//! instant of the merge (paper §4.3, cases 1–2).
//!
//! Unlinked nodes keep their outgoing pointers, so a reader standing on one
//! continues traversing correctly; their memory is reclaimed only by the
//! later lazy-copy compaction (lazy freeing, §4.4).
//!
//! The merge is **resumable**: if the process dies mid-step (simulated via
//! [`MergeLimits::abandon_after_link_writes`] plus a pool snapshot),
//! re-running [`zero_copy_merge`] first completes the marked node's step —
//! every sub-operation is idempotent — then continues draining.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use miodb_common::Result;
use miodb_pmem::{PmemPool, PmemRegion};

use crate::node::{find_preds, find_preds_from, raw, LookupResult, MAX_HEIGHT};

/// Merge progress phase, persisted in the low bits of the mark word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePhase {
    /// The marked node is being unlinked from the newtable.
    Unlink = 0,
    /// The marked node is being spliced into the oldtable.
    Splice = 1,
}

/// A persistent one-word slot naming the node currently in flight between
/// the two tables of a zero-copy merge.
///
/// Readers call [`InsertionMark::read`] between searching the newtable and
/// the oldtable so the in-flight node is never missed. The slot lives in
/// NVM, making merges crash-resumable.
#[derive(Clone)]
pub struct InsertionMark {
    pool: Arc<PmemPool>,
    region: PmemRegion,
}

impl std::fmt::Debug for InsertionMark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InsertionMark")
            .field("slot", &self.region.offset)
            .field("value", &self.load_raw())
            .finish()
    }
}

impl InsertionMark {
    /// Allocates a cleared mark slot in `pool`.
    ///
    /// # Errors
    ///
    /// Returns [`miodb_common::Error::PoolExhausted`] if the pool is full.
    pub fn alloc(pool: &Arc<PmemPool>) -> Result<InsertionMark> {
        let region = pool.alloc(64)?;
        pool.atomic_u64(region.offset).store(0, Ordering::Release);
        Ok(InsertionMark {
            pool: pool.clone(),
            region,
        })
    }

    /// Re-attaches to a mark slot that survived a crash (its offset comes
    /// from the manifest).
    pub fn from_raw(pool: Arc<PmemPool>, region: PmemRegion) -> InsertionMark {
        InsertionMark { pool, region }
    }

    /// The slot's region (persisted in the manifest).
    pub fn region(&self) -> PmemRegion {
        self.region
    }

    fn load_raw(&self) -> u64 {
        self.pool
            .atomic_u64(self.region.offset)
            .load(Ordering::Acquire)
    }

    /// Current marked node and phase, if a merge step is in flight.
    pub fn load(&self) -> Option<(u64, MergePhase)> {
        let v = self.load_raw();
        if v == 0 {
            None
        } else {
            let phase = if v & 1 == 0 {
                MergePhase::Unlink
            } else {
                MergePhase::Splice
            };
            Some((v & !7, phase))
        }
    }

    fn set(&self, node: u64, phase: MergePhase) {
        debug_assert_eq!(node & 7, 0);
        self.pool
            .atomic_u64(self.region.offset)
            .store(node | phase as u64, Ordering::Release);
        self.pool.charge_write(8);
    }

    fn clear(&self) {
        self.pool
            .atomic_u64(self.region.offset)
            .store(0, Ordering::Release);
        // Bump the step counter (second word of the slot): readers use it
        // to detect that a merge step completed during their descent.
        self.pool
            .atomic_u64(self.region.offset + 8)
            .fetch_add(1, Ordering::Release);
        self.pool.charge_write(16);
    }

    /// Number of completed merge steps through this mark (monotonic).
    pub fn step_count(&self) -> u64 {
        self.pool
            .atomic_u64(self.region.offset + 8)
            .load(Ordering::Acquire)
    }

    /// Checks whether the in-flight node (if any) matches `key`, returning
    /// its version. Safe to call concurrently with the merge: node payloads
    /// are immutable and the mark always names a fully written node.
    pub fn read(&self, key: &[u8]) -> Option<LookupResult> {
        let (node, _) = self.load()?;
        let pool = &*self.pool;
        raw::charge_visit(pool);
        if raw::key(pool, node) != key {
            return None;
        }
        let value = raw::value(pool, node).to_vec();
        pool.charge_read(value.len());
        Some(LookupResult {
            value,
            seq: raw::seq(pool, node),
            kind: raw::kind(pool, node),
        })
    }

    /// Materializes the in-flight node (key included) as an owned entry,
    /// for merging iterators that must not miss it.
    pub fn entry(&self) -> Option<crate::iter::OwnedEntry> {
        let (node, _) = self.load()?;
        let pool = &*self.pool;
        raw::charge_visit(pool);
        Some(crate::iter::OwnedEntry {
            key: raw::key(pool, node).to_vec(),
            value: raw::value(pool, node).to_vec(),
            seq: raw::seq(pool, node),
            kind: raw::kind(pool, node),
        })
    }

    /// Frees the slot. Callers must ensure no merge is using it.
    pub fn release(self) {
        self.pool.free(self.region);
    }
}

/// Counters describing one merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Nodes re-linked from the newtable into the oldtable.
    pub moved: u64,
    /// Newtable nodes dropped because a newer version superseded them.
    pub dropped_new: u64,
    /// Oldtable nodes bypassed (logically deleted) by newer versions.
    pub bypassed_old: u64,
    /// Atomic link-word writes performed.
    pub link_writes: u64,
}

/// Result of [`zero_copy_merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The newtable was fully drained into the oldtable.
    Complete(MergeStats),
    /// A limit fired; call [`zero_copy_merge`] again to continue.
    Paused(MergeStats),
}

impl MergeOutcome {
    /// The stats regardless of completion.
    pub fn stats(&self) -> MergeStats {
        match *self {
            MergeOutcome::Complete(s) | MergeOutcome::Paused(s) => s,
        }
    }

    /// Returns `true` if the merge finished.
    pub fn is_complete(&self) -> bool {
        matches!(self, MergeOutcome::Complete(_))
    }
}

/// Optional stopping conditions, used by tests and incremental compactors.
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeLimits {
    /// Stop (cleanly, between steps) after this many key runs.
    pub max_steps: Option<usize>,
    /// Abandon abruptly after this many link writes, leaving the mark and
    /// half-updated pointers in place — simulates a crash mid-step.
    pub abandon_after_link_writes: Option<u64>,
}

impl MergeLimits {
    /// No limits: run to completion.
    pub fn none() -> MergeLimits {
        MergeLimits::default()
    }
}

struct Ctx<'a> {
    pool: &'a PmemPool,
    stats: MergeStats,
    abandon_after: Option<u64>,
    abandoned: bool,
    /// Update vector of the oldtable position just after the previous
    /// step's node (see [`crate::node::find_preds_from`]). Newtable nodes
    /// arrive in ascending order, so each splice searches forward from
    /// here instead of from the head. `None` until the first splice of a
    /// [`zero_copy_merge`] call, which descends from the head.
    finger: Option<[u64; MAX_HEIGHT]>,
}

impl<'a> Ctx<'a> {
    /// Performs one atomic link write; returns false if the crash limit
    /// fired (caller must unwind immediately without cleanup).
    #[must_use]
    fn store_link(&mut self, node: u64, level: usize, target: u64) -> bool {
        if let Some(max) = self.abandon_after {
            if self.stats.link_writes >= max {
                self.abandoned = true;
                return false;
            }
        }
        raw::set_next(self.pool, node, level, target);
        self.stats.link_writes += 1;
        true
    }

    /// Unlinks `node` given its predecessor on every level, top-down, on
    /// each level where it is still linked. Idempotent.
    #[must_use]
    fn unlink_at(&mut self, preds: &[u64; MAX_HEIGHT], node: u64) -> bool {
        let pool = self.pool;
        for level in (0..raw::height(pool, node)).rev() {
            if raw::next(pool, preds[level], level) == node {
                let succ = raw::next(pool, node, level);
                if !self.store_link(preds[level], level, succ) {
                    return false;
                }
            }
        }
        true
    }

    /// Splices `node` into the oldtable at its multi-version position,
    /// dropping it if a newer version already exists there and bypassing
    /// older duplicates. Idempotent.
    #[must_use]
    fn splice(&mut self, old_head: u64, node: u64) -> bool {
        let pool = self.pool;
        let key = raw::key(pool, node);
        let seq = raw::seq(pool, node);
        let height = raw::height(pool, node);
        let mut preds = [0u64; MAX_HEIGHT];
        match &self.finger {
            Some(finger) => {
                find_preds_from(pool, finger, key, seq, &mut preds);
                #[cfg(debug_assertions)]
                crate::node::debug_assert_preds(pool, old_head, key, seq, &preds);
            }
            None => {
                find_preds(pool, old_head, key, seq, &mut preds);
            }
        }

        // A same-key predecessor is necessarily newer (multi-version order):
        // the incoming node is superseded and dropped.
        if preds[0] != old_head && raw::key(pool, preds[0]) == key {
            self.stats.dropped_new += 1;
            self.finger = Some(preds);
            return true;
        }

        // Bypass older duplicates already in the oldtable. They sit directly
        // after the insertion position (or after `node` itself on resume).
        let mut dups = Vec::new();
        let mut s = raw::next(pool, preds[0], 0);
        while s != 0 {
            if s == node {
                s = raw::next(pool, s, 0);
                continue;
            }
            if raw::key(pool, s) != key {
                break;
            }
            raw::charge_visit(pool);
            dups.push(s);
            s = raw::next(pool, s, 0);
        }
        for dup in dups {
            let dh = raw::height(pool, dup);
            for level in (0..dh).rev() {
                // The predecessor of `dup` at this level is either the
                // already-spliced `node` or the position predecessor.
                if level < height && raw::next(pool, node, level) == dup {
                    let succ = raw::next(pool, dup, level);
                    if !self.store_link(node, level, succ) {
                        return false;
                    }
                } else if raw::next(pool, preds[level], level) == dup {
                    let succ = raw::next(pool, dup, level);
                    if !self.store_link(preds[level], level, succ) {
                        return false;
                    }
                }
            }
            self.stats.bypassed_old += 1;
        }

        // Link bottom-up so the node becomes reachable at level 0 first.
        #[allow(clippy::needless_range_loop)] // level indexes preds AND towers
        for level in 0..height {
            let succ = raw::next(pool, preds[level], level);
            if succ == node {
                continue; // already linked here (resume)
            }
            if !self.store_link(node, level, succ) {
                return false;
            }
            if !self.store_link(preds[level], level, node) {
                return false;
            }
        }
        self.stats.moved += 1;
        preds[..height].fill(node);
        self.finger = Some(preds);
        true
    }
}

/// Merges the list rooted at `new_head` into the list rooted at
/// `old_head` by pointer re-linking, using `mark` for reader visibility
/// and crash resumability. See the module docs for the step protocol.
///
/// If `mark` is set on entry, the interrupted step is completed first
/// (crash recovery, paper §4.7).
pub fn zero_copy_merge(
    pool: &Arc<PmemPool>,
    new_head: u64,
    old_head: u64,
    mark: &InsertionMark,
    limits: MergeLimits,
) -> MergeOutcome {
    let mut ctx = Ctx {
        pool,
        stats: MergeStats::default(),
        abandon_after: limits.abandon_after_link_writes,
        abandoned: false,
        finger: None,
    };

    // Crash-recovery prelude: finish the marked node's step. Its splice
    // descends from the head (the finger starts empty).
    if let Some((node, phase)) = mark.load() {
        if phase == MergePhase::Unlink {
            if !unlink_front_run(&mut ctx, new_head, node) {
                return MergeOutcome::Paused(ctx.stats);
            }
            mark.set(node, MergePhase::Splice);
        }
        if !ctx.splice(old_head, node) {
            return MergeOutcome::Paused(ctx.stats);
        }
        mark.clear();
    }

    let mut steps = 0usize;
    loop {
        if let Some(max) = limits.max_steps {
            if steps >= max {
                return MergeOutcome::Paused(ctx.stats);
            }
        }
        let first = raw::next(pool, new_head, 0);
        if first == 0 {
            return MergeOutcome::Complete(ctx.stats);
        }
        mark.set(first, MergePhase::Unlink);
        if !unlink_front_run(&mut ctx, new_head, first) {
            return MergeOutcome::Paused(ctx.stats);
        }
        mark.set(first, MergePhase::Splice);
        if !ctx.splice(old_head, first) {
            return MergeOutcome::Paused(ctx.stats);
        }
        mark.clear();
        steps += 1;
    }
}

/// Mark-aware point lookup for the **newtable** of an in-flight merge
/// (the paper's §4.3 Case 2): a traversal that stepped onto the marked
/// node while it was being spliced would follow its rewritten pointers
/// into the oldtable and silently miss the rest of the newtable. This
/// descent therefore never crosses the currently marked node — on
/// encountering it, the whole descent restarts from the head, where the
/// unlink (which precedes the splice phase) has already bypassed it.
///
/// A descent that overlapped a mark transition retries, with no bound:
/// a bounded retry that fell through to `None` would let the caller read
/// an older version from the oldtable. Retries stop once the merge pauses
/// or finishes, since only a transition during the descent causes one.
///
/// Callers follow the full protocol: `get_skip_marked(new) -> mark.read ->
/// old.get`, so the marked node itself is still found via the mark.
pub fn get_skip_marked(
    list: &crate::SkipList,
    key: &[u8],
    mark: &InsertionMark,
) -> Option<LookupResult> {
    let pool = list.pool().clone();
    let head = list.head();
    'attempt: loop {
        // Validated like a seqlock: a descent that overlapped any mark
        // transition may have stood on a node that a merge step moved
        // meanwhile, and followed its rewritten pointers into the
        // oldtable (an ABA no per-step check sees). Such a descent
        // retries.
        let (word, steps) = (mark.load_raw(), mark.step_count());
        let marked = word & !7;
        let mut x = head;
        let mut visits = 0u64;
        for level in (0..MAX_HEIGHT).rev() {
            loop {
                let nxt = raw::next(&pool, x, level);
                if nxt == 0 {
                    break;
                }
                // Check the attempt-start snapshot *and* the live mark on
                // every step: a merge step can complete and mark a
                // different node mid-descent, and crossing that newly
                // marked node while its tower is rewritten into the
                // oldtable loses the rest of the newtable (the stale
                // `marked` snapshot alone missed exactly that — the root
                // cause of the multi_writer_stress lost-read flake).
                if nxt == marked || Some(nxt) == mark.load().map(|(n, _)| n) {
                    // The in-flight node is (or just became) unsafe to
                    // cross; restart from the head, which already bypasses
                    // it (unlink precedes the splice phase).
                    pool.charge_read_batch(visits, 32);
                    continue 'attempt;
                }
                visits += 1;
                let nk = raw::key(&pool, nxt);
                let ns = raw::seq(&pool, nxt);
                if miodb_common::types::mv_cmp(nk, ns, key, miodb_common::MAX_SEQUENCE_NUMBER)
                    == std::cmp::Ordering::Less
                {
                    x = nxt;
                } else {
                    break;
                }
            }
        }
        let node = raw::next(&pool, x, 0);
        pool.charge_read_batch(visits, 32);
        if node != 0 && node == marked {
            // Defer the marked node to the mark-read step of the protocol.
            continue 'attempt;
        }
        // Node payloads are immutable, so reading before validating is safe.
        let found = (node != 0 && raw::key(&pool, node) == key).then(|| {
            let value = raw::value(&pool, node).to_vec();
            pool.charge_read(value.len());
            LookupResult {
                value,
                seq: raw::seq(&pool, node),
                kind: raw::kind(&pool, node),
            }
        });
        if mark.load_raw() != word || mark.step_count() != steps {
            continue 'attempt;
        }
        return found;
    }
}

/// Removes the newtable's front run of versions: unlinks and drops every
/// node after `first` that shares its key (older versions, superseded by
/// `first`), then unlinks `first`. The older duplicates go *before* `first`
/// so that a concurrent reader searching newtable→mark→oldtable always
/// finds the newest version first.
///
/// No search is needed: `first` is the front node, so the head precedes it
/// on every level, and each duplicate, removed in order, is preceded by
/// `first` on `first`'s levels and by the head above. This also holds when
/// resuming after a crash: the marked node stays the front node from the
/// moment it is marked until its unlink completes, and every unlink is
/// idempotent. Returns false if the crash limit fired.
#[must_use]
fn unlink_front_run(ctx: &mut Ctx<'_>, new_head: u64, first: u64) -> bool {
    let pool = ctx.pool;
    let key = raw::key(pool, first);
    let mut dups = Vec::new();
    let mut cur = raw::next(pool, first, 0);
    while cur != 0 && raw::key(pool, cur) == key {
        raw::charge_visit(pool);
        dups.push(cur);
        cur = raw::next(pool, cur, 0);
    }
    let mut preds = [new_head; MAX_HEIGHT];
    preds[..raw::height(pool, first)].fill(first);
    for d in dups {
        #[cfg(debug_assertions)]
        crate::node::debug_assert_preds(pool, new_head, key, raw::seq(pool, d), &preds);
        if !ctx.unlink_at(&preds, d) {
            return false;
        }
        ctx.stats.dropped_new += 1;
    }
    let preds = [new_head; MAX_HEIGHT];
    #[cfg(debug_assertions)]
    crate::node::debug_assert_preds(pool, new_head, key, raw::seq(pool, first), &preds);
    ctx.unlink_at(&preds, first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SkipList;
    use crate::SkipListArena;
    use miodb_common::types::mv_cmp;
    use miodb_common::{OpKind, Stats};
    use miodb_pmem::{DeviceModel, PmemPool};

    fn pool() -> Arc<PmemPool> {
        PmemPool::new(
            16 << 20,
            DeviceModel::nvm_unthrottled(),
            Arc::new(Stats::new()),
        )
        .unwrap()
    }

    fn table(pool: &Arc<PmemPool>, entries: &[(&[u8], &[u8], u64)]) -> SkipListArena {
        let t = SkipListArena::new(pool.clone(), 1 << 20).unwrap();
        for (k, v, s) in entries {
            t.insert(k, v, *s, OpKind::Put).unwrap();
        }
        t
    }

    fn merged_view(pool: &Arc<PmemPool>, old: &SkipListArena) -> SkipList {
        SkipList::from_raw(pool.clone(), old.head())
    }

    #[test]
    fn merge_disjoint_tables() {
        let p = pool();
        let new = table(&p, &[(b"b", b"2", 10), (b"d", b"4", 11)]);
        let old = table(&p, &[(b"a", b"1", 1), (b"c", b"3", 2)]);
        let mark = InsertionMark::alloc(&p).unwrap();
        let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        assert!(out.is_complete());
        assert_eq!(out.stats().moved, 2);
        assert_eq!(out.stats().dropped_new, 0);
        let m = merged_view(&p, &old);
        let keys: Vec<Vec<u8>> = m.iter().map(|e| e.key).collect();
        assert_eq!(
            keys,
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
        assert!(SkipList::from_raw(p.clone(), new.head()).is_empty());
        assert!(mark.load().is_none());
    }

    #[test]
    fn merge_dedups_overlapping_keys() {
        let p = pool();
        // Newtable strictly newer.
        let new = table(&p, &[(b"a", b"new-a", 10), (b"b", b"new-b", 11)]);
        let old = table(
            &p,
            &[
                (b"a", b"old-a", 1),
                (b"b", b"old-b", 2),
                (b"c", b"old-c", 3),
            ],
        );
        let mark = InsertionMark::alloc(&p).unwrap();
        let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        let stats = out.stats();
        assert_eq!(stats.moved, 2);
        assert_eq!(stats.bypassed_old, 2);
        let m = merged_view(&p, &old);
        assert_eq!(m.get(b"a").unwrap().value, b"new-a");
        assert_eq!(m.get(b"b").unwrap().value, b"new-b");
        assert_eq!(m.get(b"c").unwrap().value, b"old-c");
        assert_eq!(m.count_nodes(), 3, "old duplicates bypassed");
    }

    #[test]
    fn merge_dedups_within_newtable() {
        let p = pool();
        let new = table(&p, &[(b"k", b"v1", 5), (b"k", b"v2", 6), (b"k", b"v3", 7)]);
        let old = table(&p, &[]);
        let mark = InsertionMark::alloc(&p).unwrap();
        let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        let stats = out.stats();
        assert_eq!(stats.moved, 1);
        assert_eq!(stats.dropped_new, 2);
        let m = merged_view(&p, &old);
        assert_eq!(m.get(b"k").unwrap().value, b"v3");
        assert_eq!(m.count_nodes(), 1);
    }

    #[test]
    fn merge_into_empty_old() {
        let p = pool();
        let new = table(&p, &[(b"x", b"1", 1), (b"y", b"2", 2), (b"z", b"3", 3)]);
        let old = table(&p, &[]);
        let mark = InsertionMark::alloc(&p).unwrap();
        let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        assert_eq!(out.stats().moved, 3);
        assert_eq!(merged_view(&p, &old).count_nodes(), 3);
    }

    #[test]
    fn merge_empty_new_is_noop() {
        let p = pool();
        let new = table(&p, &[]);
        let old = table(&p, &[(b"a", b"1", 1)]);
        let mark = InsertionMark::alloc(&p).unwrap();
        let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        assert_eq!(out.stats(), MergeStats::default());
        assert_eq!(merged_view(&p, &old).count_nodes(), 1);
    }

    #[test]
    fn tombstones_flow_through_merge() {
        let p = pool();
        let new = SkipListArena::new(p.clone(), 1 << 20).unwrap();
        new.insert(b"dead", b"", 10, OpKind::Delete).unwrap();
        let old = table(&p, &[(b"dead", b"alive", 1)]);
        let mark = InsertionMark::alloc(&p).unwrap();
        zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
        let r = merged_view(&p, &old).get(b"dead").unwrap();
        assert_eq!(r.kind, OpKind::Delete);
        assert_eq!(r.seq, 10);
    }

    #[test]
    fn paused_merge_resumes_cleanly() {
        let p = pool();
        let entries: Vec<(Vec<u8>, Vec<u8>, u64)> = (0..100u32)
            .map(|i| {
                (
                    format!("k{i:03}").into_bytes(),
                    b"v".to_vec(),
                    100 + i as u64,
                )
            })
            .collect();
        let refs: Vec<(&[u8], &[u8], u64)> = entries
            .iter()
            .map(|(k, v, s)| (k.as_slice(), v.as_slice(), *s))
            .collect();
        let new = table(&p, &refs);
        let old = table(&p, &[(b"k050x", b"mid", 1)]);
        let mark = InsertionMark::alloc(&p).unwrap();
        let mut total_moved = 0;
        let mut rounds = 0;
        loop {
            let out = zero_copy_merge(
                &p,
                new.head(),
                old.head(),
                &mark,
                MergeLimits {
                    max_steps: Some(7),
                    abandon_after_link_writes: None,
                },
            );
            total_moved += out.stats().moved;
            rounds += 1;
            if out.is_complete() {
                break;
            }
            assert!(rounds < 100, "merge did not converge");
        }
        assert_eq!(total_moved, 100);
        let m = merged_view(&p, &old);
        assert_eq!(m.count_nodes(), 101);
        for i in 0..100u32 {
            assert!(
                m.get(format!("k{i:03}").as_bytes()).is_some(),
                "k{i:03} lost"
            );
        }
    }

    #[test]
    fn crash_mid_step_resumes_without_loss() {
        // Abandon after every possible link-write count and verify the
        // resumed merge always converges to the same correct state.
        for crash_at in 1..60u64 {
            let p = pool();
            let new = table(
                &p,
                &[
                    (b"a", b"na", 10),
                    (b"b", b"nb", 11),
                    (b"c", b"nc", 12),
                    (b"d", b"nd", 13),
                ],
            );
            let old = table(&p, &[(b"a", b"oa", 1), (b"c", b"oc", 2), (b"e", b"oe", 3)]);
            let mark = InsertionMark::alloc(&p).unwrap();
            let out = zero_copy_merge(
                &p,
                new.head(),
                old.head(),
                &mark,
                MergeLimits {
                    max_steps: None,
                    abandon_after_link_writes: Some(crash_at),
                },
            );
            if out.is_complete() {
                // crash_at beyond total writes: nothing to resume.
            } else {
                // "Restart": resume with no limits.
                let out2 = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
                assert!(out2.is_complete(), "crash_at={crash_at}");
            }
            let m = merged_view(&p, &old);
            assert_eq!(m.get(b"a").unwrap().value, b"na", "crash_at={crash_at}");
            assert_eq!(m.get(b"b").unwrap().value, b"nb", "crash_at={crash_at}");
            assert_eq!(m.get(b"c").unwrap().value, b"nc", "crash_at={crash_at}");
            assert_eq!(m.get(b"d").unwrap().value, b"nd", "crash_at={crash_at}");
            assert_eq!(m.get(b"e").unwrap().value, b"oe", "crash_at={crash_at}");
            assert_eq!(m.count_nodes(), 5, "crash_at={crash_at}");
            assert!(mark.load().is_none(), "crash_at={crash_at}");
            assert!(SkipList::from_raw(p.clone(), new.head()).is_empty());
        }
    }

    /// Deterministic regression for the multi_writer_stress lost-read
    /// flake (ROADMAP item 6): tables transitioning settled → merging →
    /// merged must never lose a key from the reader protocol
    /// (`get_skip_marked(new)` → `mark.read` → `old.get`). Part 1 pauses
    /// the merge at *every step boundary* and probes every key — the
    /// suspect interleaving (reader probing while half the keys have
    /// migrated to the oldtable) run as a deterministic schedule instead
    /// of a racy stress. Part 2 freezes the merge after every individual
    /// link write (mark set, tower half re-pointed) and probes the
    /// guaranteed-visible set: the marked key itself, everything already
    /// merged ahead of it, and the oldtable's own keys.
    #[test]
    fn reader_protocol_sees_every_key_at_every_merge_interleaving() {
        let keys: Vec<String> = (0..24u32).map(|i| format!("k{i:03}")).collect();
        let build = |p: &Arc<PmemPool>| {
            // Every 4th key carries an older duplicate in the newtable so
            // the steps exercise drop-front-duplicates too.
            let mut new_entries: Vec<(Vec<u8>, Vec<u8>, u64)> = Vec::new();
            for (i, k) in keys.iter().enumerate() {
                if i % 4 == 0 {
                    new_entries.push((k.clone().into_bytes(), b"superseded".to_vec(), 50));
                }
                new_entries.push((k.clone().into_bytes(), format!("new-{k}").into_bytes(), 100));
            }
            let new_refs: Vec<(&[u8], &[u8], u64)> = new_entries
                .iter()
                .map(|(k, v, s)| (k.as_slice(), v.as_slice(), *s))
                .collect();
            let new = table(p, &new_refs);
            let old = table(p, &[(b"m-aaa", b"old", 1), (b"m-zzz", b"old", 2)]);
            let mark = InsertionMark::alloc(p).unwrap();
            (new, old, mark)
        };
        let probe = |new_view: &SkipList, old_view: &SkipList, mark: &InsertionMark, k: &str| {
            get_skip_marked(new_view, k.as_bytes(), mark)
                .or_else(|| mark.read(k.as_bytes()))
                .or_else(|| old_view.get(k.as_bytes()))
        };

        // Part 1: pause at every clean step boundary, probe every key.
        {
            let p = pool();
            let (new, old, mark) = build(&p);
            let new_view = SkipList::from_raw(p.clone(), new.head());
            let old_view = SkipList::from_raw(p.clone(), old.head());
            let mut boundary = 0usize;
            loop {
                for k in &keys {
                    let found = probe(&new_view, &old_view, &mark, k)
                        .unwrap_or_else(|| panic!("{k} invisible at step boundary {boundary}"));
                    assert_eq!(
                        found.value,
                        format!("new-{k}").as_bytes(),
                        "stale {k} at step boundary {boundary}"
                    );
                }
                for mk in ["m-aaa", "m-zzz"] {
                    assert_eq!(
                        probe(&new_view, &old_view, &mark, mk).unwrap().value,
                        b"old",
                        "{mk} lost at step boundary {boundary}"
                    );
                }
                let out = zero_copy_merge(
                    &p,
                    new.head(),
                    old.head(),
                    &mark,
                    MergeLimits {
                        max_steps: Some(1),
                        abandon_after_link_writes: None,
                    },
                );
                assert!(mark.load().is_none(), "mark leaked past a step boundary");
                boundary += 1;
                if out.is_complete() {
                    break;
                }
                assert!(boundary < 1000, "merge did not converge");
            }
        }

        // Part 2: freeze after every individual link write; mid-step the
        // guaranteed-visible set is the marked key (covered by the mark
        // itself), every key merged ahead of it, and the oldtable keys.
        for crash_at in 1..10_000u64 {
            let p = pool();
            let (new, old, mark) = build(&p);
            let out = zero_copy_merge(
                &p,
                new.head(),
                old.head(),
                &mark,
                MergeLimits {
                    max_steps: None,
                    abandon_after_link_writes: Some(crash_at),
                },
            );
            let new_view = SkipList::from_raw(p.clone(), new.head());
            let old_view = SkipList::from_raw(p.clone(), old.head());
            let marked_key = mark
                .load()
                .map(|(n, _)| String::from_utf8(raw::key(&p, n).to_vec()).unwrap());
            for k in &keys {
                match &marked_key {
                    Some(mk) if k == mk => {
                        // The in-flight key must be served by the mark
                        // (its list linkage is arbitrary mid-step).
                        let found = mark.read(k.as_bytes()).unwrap_or_else(|| {
                            panic!("marked {k} invisible at crash_at={crash_at}")
                        });
                        assert_eq!(found.value, format!("new-{k}").as_bytes());
                    }
                    Some(mk) if k < mk => {
                        // Fully merged ahead of the frozen step: the plain
                        // oldtable probe must already serve it.
                        let found = old_view.get(k.as_bytes()).unwrap_or_else(|| {
                            panic!("merged {k} invisible at crash_at={crash_at}")
                        });
                        assert_eq!(
                            found.value,
                            format!("new-{k}").as_bytes(),
                            "stale {k} at crash_at={crash_at}"
                        );
                    }
                    _ => {
                        // Beyond the marked node (or merge complete): the
                        // full protocol finds it; skip get_skip_marked's
                        // bounded-restart fallback which presumes a live
                        // compactor advancing the mark.
                        let found = new_view
                            .get(k.as_bytes())
                            .or_else(|| mark.read(k.as_bytes()))
                            .or_else(|| old_view.get(k.as_bytes()))
                            .unwrap_or_else(|| panic!("{k} invisible at crash_at={crash_at}"));
                        assert_eq!(
                            found.value,
                            format!("new-{k}").as_bytes(),
                            "stale {k} at crash_at={crash_at}"
                        );
                    }
                }
            }
            for mk in ["m-aaa", "m-zzz"] {
                assert_eq!(
                    old_view.get(mk.as_bytes()).unwrap().value,
                    b"old",
                    "{mk} lost at crash_at={crash_at}"
                );
            }
            if out.is_complete() {
                break; // later crash points are no-ops
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Runs the merge step by step and, before every splice after the
        /// first, checks the finger search against a head descent on every
        /// level. The finger then comes from each kind of step: a move, a
        /// drop of a superseded node, a move that bypassed older oldtable
        /// versions, and a move after dropping newtable duplicates. Fixed
        /// keys (`x` and `y` suffixes) guarantee a drop and a bypass per case.
        #[test]
        fn splice_finger_matches_head_descent(
            old_ops in proptest::collection::vec((0u16..48, 0u64..1000), 1..150),
            new_ops in proptest::collection::vec((0u16..48, 0u64..1000), 1..150),
            fixed in (0u16..48, 0u16..48),
        ) {
            let p = pool();
            let key = |k: u16, suffix: &str| format!("k{k:03}{suffix}").into_bytes();
            // Unique seqs: a random high part, the table and the index.
            let mut old_entries: Vec<(Vec<u8>, u64)> = old_ops
                .iter()
                .enumerate()
                .map(|(i, &(k, s))| (key(k, ""), s << 20 | i as u64))
                .collect();
            let mut new_entries: Vec<(Vec<u8>, u64)> = new_ops
                .iter()
                .enumerate()
                .map(|(i, &(k, s))| (key(k, ""), s << 20 | 1 << 19 | i as u64))
                .collect();
            // Dropped: the oldtable's version is newer.
            old_entries.push((key(fixed.0, "x"), 1 << 40));
            new_entries.push((key(fixed.0, "x"), 1));
            // Bypassed: two older oldtable versions.
            old_entries.push((key(fixed.1, "y"), 1));
            old_entries.push((key(fixed.1, "y"), 2));
            new_entries.push((key(fixed.1, "y"), 1 << 40));
            let refs = |v: &[(Vec<u8>, u64)]| -> SkipListArena {
                let t = SkipListArena::new(p.clone(), 1 << 20).unwrap();
                for (k, s) in v {
                    t.insert(k, b"v", *s, OpKind::Put).unwrap();
                }
                t
            };
            let (new, old) = (refs(&new_entries), refs(&old_entries));
            let (new_head, old_head) = (new.head(), old.head());

            let mut ctx = Ctx {
                pool: &p,
                stats: MergeStats::default(),
                abandon_after: None,
                abandoned: false,
                finger: None,
            };
            let mut splice_drops = 0;
            loop {
                let first = raw::next(&p, new_head, 0);
                if first == 0 {
                    break;
                }
                proptest::prop_assert!(unlink_front_run(&mut ctx, new_head, first));
                if let Some(finger) = ctx.finger {
                    let (k, s) = (raw::key(&p, first), raw::seq(&p, first));
                    let mut want = [0u64; MAX_HEIGHT];
                    find_preds(&p, old_head, k, s, &mut want);
                    let mut got = [0u64; MAX_HEIGHT];
                    find_preds_from(&p, &finger, k, s, &mut got);
                    proptest::prop_assert_eq!(got, want);
                }
                let dropped = ctx.stats.dropped_new;
                proptest::prop_assert!(ctx.splice(old_head, first));
                splice_drops += ctx.stats.dropped_new - dropped;
            }
            proptest::prop_assert!(splice_drops >= 1);
            proptest::prop_assert!(ctx.stats.bypassed_old >= 2);
            proptest::prop_assert!(ctx.stats.moved >= 1);
            let keys: Vec<(Vec<u8>, u64)> = merged_view(&p, &old).iter().map(|e| (e.key, e.seq)).collect();
            proptest::prop_assert!(keys.windows(2).all(|w| mv_cmp(&w[0].0, w[0].1, &w[1].0, w[1].1).is_lt()));
        }
    }

    #[test]
    fn mark_read_finds_in_flight_node() {
        let p = pool();
        let new = table(&p, &[(b"k", b"v", 5)]);
        let old = table(&p, &[]);
        let mark = InsertionMark::alloc(&p).unwrap();
        // Crash immediately after the node is unlinked from new (the node
        // now lives only in the mark).
        let out = zero_copy_merge(
            &p,
            new.head(),
            old.head(),
            &mark,
            MergeLimits {
                max_steps: None,
                abandon_after_link_writes: Some(1),
            },
        );
        assert!(!out.is_complete());
        // Reader protocol: newtable -> mark -> oldtable.
        let new_view = SkipList::from_raw(p.clone(), new.head());
        let old_view = SkipList::from_raw(p.clone(), old.head());
        let found = new_view
            .get(b"k")
            .or_else(|| mark.read(b"k"))
            .or_else(|| old_view.get(b"k"))
            .expect("in-flight node must be visible");
        assert_eq!(found.value, b"v");
        assert!(mark.read(b"other").is_none());
    }

    #[test]
    fn concurrent_reads_during_merge() {
        use std::sync::atomic::{AtomicBool, Ordering as AOrd};
        let p = pool();
        let n = 400u32;
        let entries: Vec<(Vec<u8>, Vec<u8>, u64)> = (0..n)
            .map(|i| {
                (
                    format!("k{i:04}").into_bytes(),
                    format!("new{i}").into_bytes(),
                    1000 + i as u64,
                )
            })
            .collect();
        let refs: Vec<(&[u8], &[u8], u64)> = entries
            .iter()
            .map(|(k, v, s)| (k.as_slice(), v.as_slice(), *s))
            .collect();
        let new = table(&p, &refs);
        // Old table holds older versions of the even keys.
        let old_entries: Vec<(Vec<u8>, Vec<u8>, u64)> = (0..n)
            .step_by(2)
            .map(|i| (format!("k{i:04}").into_bytes(), b"old".to_vec(), i as u64))
            .collect();
        let old_refs: Vec<(&[u8], &[u8], u64)> = old_entries
            .iter()
            .map(|(k, v, s)| (k.as_slice(), v.as_slice(), *s))
            .collect();
        let old = table(&p, &old_refs);
        let mark = InsertionMark::alloc(&p).unwrap();

        let new_view = SkipList::from_raw(p.clone(), new.head());
        let old_view = SkipList::from_raw(p.clone(), old.head());
        let done = Arc::new(AtomicBool::new(false));

        std::thread::scope(|s| {
            // Reader threads follow the paper's lookup protocol.
            for t in 0..4 {
                let new_view = new_view.clone();
                let old_view = old_view.clone();
                let mark = mark.clone();
                let done = done.clone();
                s.spawn(move || {
                    let mut i = t;
                    let mut checked = 0u32;
                    while !done.load(AOrd::Acquire) || checked < 200 {
                        let key = format!("k{:04}", i % n);
                        let found = get_skip_marked(&new_view, key.as_bytes(), &mark)
                            .or_else(|| mark.read(key.as_bytes()))
                            .or_else(|| old_view.get(key.as_bytes()))
                            .unwrap_or_else(|| panic!("{key} invisible during merge"));
                        // Must never see a stale "old" value for a key that
                        // has a newer version: newest-first protocol.
                        assert!(
                            found.value.starts_with(b"new"),
                            "stale read for {key}: {:?}",
                            String::from_utf8_lossy(&found.value)
                        );
                        i += 7;
                        checked += 1;
                    }
                });
            }
            let out = zero_copy_merge(&p, new.head(), old.head(), &mark, MergeLimits::none());
            assert!(out.is_complete());
            done.store(true, AOrd::Release);
        });

        let m = merged_view(&p, &old);
        assert_eq!(m.count_nodes(), n as usize);
    }
}
