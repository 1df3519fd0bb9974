//! The recovery driver (Algorithm 9).
//!
//! `open` is [`recover`] plus the tree's own phase 4: the
//! driver validates the owner slot and stored configuration, finishes an
//! interrupted initialization, replays the micro-logs, harvests and audits
//! the leaf chain, and hands back the survivors' discriminators; the tree
//! then bulk-builds its volatile index over them. Every pointer, count or
//! metadata word that fails validation is reported as [`Error::Corrupt`] —
//! a damaged image never panics.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use fptree_pmem::{PmemPool, RawPPtr};

use crate::api::Error;
use crate::config::par_map;
use crate::groups::GroupMgr;
use crate::keys::KeyKind;
use crate::layout::LeafLayout;
use crate::leafops::Ctx;
use crate::meta::{TreeMeta, STATUS_READY};
use crate::metrics::{Counter, RecoveryStats};

/// What [`recover`] hands to a tree's `open_with`.
pub(crate) struct Recovered<K: KeyKind> {
    pub ctx: Ctx,
    /// Group free lists rebuilt against the surviving chain (inert for
    /// trees created without leaf groups).
    pub groups: GroupMgr,
    /// `(max_key, leaf)` of every non-empty surviving leaf in chain order —
    /// the input of the inner-node build. Empty means the tree is its
    /// (empty) head leaf.
    pub entries: Vec<(K::Owned, u64)>,
    /// Number of stored keys.
    pub len: usize,
    /// Resolved worker count for the caller's index build.
    pub threads: usize,
    /// Phase timings with `build_us` still zero (see [`stamp_build`]);
    /// `None` on the re-initialization path of an interrupted `create`.
    pub stats: Option<RecoveryStats>,
}

/// Completes `stats` once the caller's index build (phase 4), started at
/// `t`, is done.
pub(crate) fn stamp_build(stats: Option<RecoveryStats>, t: Instant) -> Option<RecoveryStats> {
    stats.map(|s| RecoveryStats {
        build_us: t.elapsed().as_micros() as u64,
        ..s
    })
}

/// Recovers the tree whose metadata is referenced by the owner pointer at
/// `owner_slot`, on `threads` workers (0 means
/// [`crate::config::default_recovery_threads`]). The result is
/// bit-identical for every `threads` value: the parallel phases partition
/// work in chain order and stitch the pieces back together serially.
pub(crate) fn recover<K: KeyKind>(
    pool: Arc<PmemPool>,
    owner_slot: u64,
    threads: usize,
) -> Result<Recovered<K>, Error> {
    let threads = if threads == 0 {
        crate::config::default_recovery_threads()
    } else {
        threads
    };
    let checked = Arc::clone(&pool);
    let _op = checked.begin_checked_op("tree_open");
    if owner_slot == 0 || !owner_slot.is_multiple_of(8) || !pool.in_bounds(owner_slot, 16) {
        return Err(Error::corrupt("owner slot", owner_slot));
    }
    let owner: RawPPtr = pool.read_at(owner_slot);
    if owner.is_null() {
        return Err(Error::corrupt("no tree metadata at owner slot", owner_slot));
    }
    let meta = TreeMeta::open(&pool, owner.offset)?;
    let (cfg, key_slot, var) = meta.stored_config(&pool);
    if key_slot != K::SLOT_SIZE || var != K::IS_VAR {
        return Err(Error::corrupt(
            "tree was created with a different key kind",
            meta.off,
        ));
    }
    cfg.try_validate()
        .map_err(|e| Error::corrupt(format!("stored configuration: {e}"), meta.off))?;
    let layout = LeafLayout::new(&cfg, K::SLOT_SIZE);
    // `try_validate` covers the per-leaf knobs; the group size is only
    // bounded by the pool, so a garbage word here could overflow the
    // group-walk arithmetic.
    let group_bytes = crate::groups::group_bytes(cfg.leaf_group_size, layout.size);
    if group_bytes.is_none_or(|b| b > pool.capacity()) {
        return Err(Error::corrupt(
            format!("stored leaf-group size {}", cfg.leaf_group_size),
            meta.off,
        ));
    }
    let ctx = Ctx::new(pool, cfg, layout, meta);
    ctx.metrics.inc(Counter::RecoveryRebuilds);
    let mut groups = GroupMgr::with_sanitize(cfg.leaf_group_size, K::IS_VAR);

    if meta.status(&ctx.pool) != STATUS_READY {
        let head = reinitialize(&ctx, &mut groups)?;
        groups.rebuild(&ctx.pool, &layout, &meta, &HashSet::from([head]))?;
        return Ok(Recovered {
            ctx,
            groups,
            entries: Vec::new(),
            len: 0,
            threads,
            stats: None,
        });
    }

    // Phase 1 — replay micro-logs (serial: each log is a single record,
    // and order matters — allocation logs first, so the split/delete
    // replays see consistent group/leaf structures).
    let t = Instant::now();
    GroupMgr::recover_getleaf(&ctx.pool, &meta, &layout, cfg.leaf_group_size)?;
    GroupMgr::recover_freeleaf(&ctx.pool, &meta)?;
    for i in 0..meta.n_logs {
        ctx.recover_split::<K>(i)?;
    }
    for i in 0..meta.n_logs {
        ctx.recover_delete(i)?;
    }
    let replay_us = t.elapsed().as_micros() as u64;

    // Phase 2 — harvest the on-chain leaf set (parallel over the group
    // directory when there is one).
    let t = Instant::now();
    let chain = harvest_chain(&ctx, threads)?;
    let harvest_us = t.elapsed().as_micros() as u64;

    // Phase 3 — reset locks and audit leaves across the worker pool, then
    // serially unlink empties and restore the group free lists.
    let t = Instant::now();
    let audits = audit_leaves::<K>(&ctx, &chain, threads)?;
    let (entries, in_tree, len) = sweep::<K>(&ctx, &chain, audits);
    groups.rebuild(&ctx.pool, &layout, &meta, &in_tree)?;
    let audit_us = t.elapsed().as_micros() as u64;

    let stats = RecoveryStats {
        threads,
        replay_us,
        harvest_us,
        audit_us,
        build_us: 0,
        leaves: chain.len() as u64,
    };
    Ok(Recovered {
        ctx,
        groups,
        entries,
        len,
        threads,
        stats: Some(stats),
    })
}

/// Crashed during initialization (Algorithm 9 lines 1–2): re-initializes
/// to an empty tree and returns its head leaf.
///
/// An interrupted `create` leaves at most its head leaf. The head is zeroed
/// and its `next` word is never followed: the block may be a recycled leaf
/// of another tree whose stale `next` still points into that tree's chain.
fn reinitialize(ctx: &Ctx, groups: &mut GroupMgr) -> Result<u64, Error> {
    let (pool, meta, layout) = (&ctx.pool, &ctx.meta, &ctx.layout);
    GroupMgr::recover_getleaf(pool, meta, layout, ctx.cfg.leaf_group_size)?;
    let head = meta.head(pool);
    let head = if head.is_null() {
        groups.rebuild(pool, layout, meta, &HashSet::new())?;
        groups.try_get_leaf(pool, layout, meta, meta.head_slot())?
    } else {
        ctx.check_leaf_ptr(head.offset, "leaf-list head")?;
        head.offset
    };
    ctx.zero_leaf(head);
    meta.set_status(pool, STATUS_READY);
    Ok(head)
}

/// Maps `f` over contiguous chunks of `items` through
/// [`crate::config::par_map`], one chunk per worker, returning the
/// per-chunk results in order. Inline work stays under the caller's
/// checked operation; work on a spawned worker opens its own `worker_op`
/// (durability-checker attribution is per-thread).
fn par_chunks<T: Sync, R: Send>(
    ctx: &Ctx,
    items: &[T],
    threads: usize,
    worker_op: Option<&'static str>,
    f: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    let chunks: Vec<&[T]> = items
        .chunks(items.len().div_ceil(threads.max(1)).max(1))
        .collect();
    let caller = std::thread::current().id();
    par_map(&chunks, threads, |part| {
        let spawned = std::thread::current().id() != caller;
        let _op = worker_op
            .filter(|_| spawned)
            .map(|label| ctx.pool.begin_checked_op(label));
        f(part)
    })
}

/// Recovery phase 2: collects the linked leaf chain, validated.
///
/// With a leaf-group directory the next pointers of *all* directory leaves
/// are harvested by the worker pool first (the directory gives the random
/// access the serial next-pointer walk lacks); the chain is then stitched
/// serially from the harvested map. Without groups there is no directory,
/// so the chain is walked serially.
fn harvest_chain(ctx: &Ctx, threads: usize) -> Result<Vec<u64>, Error> {
    let head = ctx.meta.head(&ctx.pool);
    if head.is_null() {
        return Err(Error::corrupt(
            "initialized tree must have a head leaf",
            ctx.meta.head_slot(),
        ));
    }
    let head = head.offset;
    ctx.check_leaf_ptr(head, "leaf-list head")?;

    let next_of: Option<HashMap<u64, u64>> = if ctx.cfg.leaf_group_size > 1 {
        let directory =
            GroupMgr::walk_directory(&ctx.pool, &ctx.layout, &ctx.meta, ctx.cfg.leaf_group_size)?;
        let leaves: Vec<u64> = directory
            .iter()
            .flat_map(|&g| {
                (0..ctx.cfg.leaf_group_size as u64)
                    .map(move |i| g + crate::groups::GROUP_HEADER + i * ctx.layout.size as u64)
            })
            .collect();
        let parts = par_chunks(ctx, &leaves, threads, None, |part| {
            part.iter()
                .map(|&l| (l, ctx.leaf(l).next().offset))
                .collect::<Vec<_>>()
        });
        Some(parts.into_iter().flatten().collect())
    } else {
        None
    };

    // Stitch the chain in list order, catching cycles and escapes.
    let mut chain = Vec::new();
    let mut seen = HashSet::new();
    let mut cur = head;
    loop {
        if !seen.insert(cur) {
            return Err(Error::corrupt("leaf-list cycle", cur));
        }
        chain.push(cur);
        let next = match &next_of {
            Some(map) => *map
                .get(&cur)
                .ok_or_else(|| Error::corrupt("chained leaf outside the group directory", cur))?,
            None => ctx.leaf(cur).next().offset,
        };
        if next == 0 {
            return Ok(chain);
        }
        ctx.check_leaf_ptr(next, "leaf-list next pointer")?;
        cur = next;
    }
}

/// Recovery phase 3: resets locks and runs the Algorithm-17 leak audit over
/// every on-chain leaf, partitioned in chain order across the worker pool;
/// yields each leaf's `(count, max_key)`, where the count is the merged
/// one: slots plus distinct buffered keys without a slot. On a clean image
/// the audit only reads — live buffers stay live — so it issues no persist.
/// Audit mutations are leaf-local, so the partitioning cannot change the
/// outcome.
#[allow(clippy::type_complexity)]
fn audit_leaves<K: KeyKind>(
    ctx: &Ctx,
    chain: &[u64],
    threads: usize,
) -> Result<Vec<(usize, Option<K::Owned>)>, Error> {
    let audit_one = |off: u64| -> Result<(usize, Option<K::Owned>), Error> {
        ctx.metrics.inc(Counter::RecoveryLeaves);
        let leaf = ctx.leaf(off);
        leaf.reset_lock();
        // The buffer digest is transient like the lock: whatever the image
        // carries (ahead of the surviving entries, behind them, or bytes an
        // older build kept in these words) is overwritten from the
        // validated walk before anything below consults it.
        // The walk's live count serves every step below.
        let live = leaf.digest_rebuild();
        // Order matters: the slot audit first (with live buffer entries
        // among the owned references, so the staged copies of a fold that
        // crashed before its bitmap commit are reset, not released), then
        // the census of the live buffer, then the dead-entry audit for blobs
        // a crashed append left behind. Only a fold that crashed after its
        // bitmap commit — live entries already sitting in valid slots — is
        // finished here; any other buffer is the steady state and stays.
        // All steps are leaf-local and deterministic, keeping parallel
        // recovery bit-identical to serial.
        ctx.audit_leaf::<K>(off, live)?;
        let census = leaf.wbuf_census::<K>(live);
        let (fresh, live) = if census.crashed_fold() {
            leaf.wbuf_fold::<K>();
            (0, 0)
        } else {
            (census.fresh, live)
        };
        ctx.audit_wbuf::<K>(off, live)?;
        // A folded buffer's keys are in the slots now, and the census saw
        // them all: the larger of the two maxima covers the merged set.
        let max = leaf.max_slot_key::<K>().max(census.max);
        Ok((leaf.count() + fresh, max))
    };
    let parts = par_chunks(ctx, chain, threads, Some("recovery_audit"), |part| {
        part.iter()
            .map(|&off| audit_one(off))
            .collect::<Result<Vec<_>, Error>>()
    });
    let mut out = Vec::with_capacity(chain.len());
    for part in parts {
        out.extend(part?);
    }
    Ok(out)
}

/// Serial tail of recovery phase 3: unlinks empty leaves (replicating the
/// sequential walk's unlink order exactly — `is_last` here is the serial
/// walk's `next.is_null()`) and collects the survivors' discriminators for
/// the inner build, the on-chain leaf set, and the key count.
#[allow(clippy::type_complexity)]
fn sweep<K: KeyKind>(
    ctx: &Ctx,
    chain: &[u64],
    audits: Vec<(usize, Option<K::Owned>)>,
) -> (Vec<(K::Owned, u64)>, HashSet<u64>, usize) {
    let mut entries = Vec::new();
    let mut in_tree = HashSet::new();
    let mut len = 0usize;
    let mut prev: Option<u64> = None;
    let last = chain.len() - 1;
    for (i, (&off, (count, max))) in chain.iter().zip(audits).enumerate() {
        if count == 0 && !(prev.is_none() && i == last) {
            // Empty non-lone leaf: a rolled-back delete left it linked.
            ctx.delete_leaf(None, off, prev, 0);
            continue;
        }
        in_tree.insert(off);
        entries.extend(max.map(|max| (max, off)));
        len += count;
        prev = Some(off);
    }
    (entries, in_tree, len)
}
