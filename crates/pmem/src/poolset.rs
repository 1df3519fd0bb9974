//! Multi-pool ("shard set") construction, save, and load paths.
//!
//! A keyspace-sharded tree runs over N independent pools — one SCM "file"
//! per shard, so each shard has its own allocator, micro-log set, and
//! durability domain. This module provides the pool-level plumbing: create
//! N pools with distinct file ids, round-trip them through a family of
//! shard files (`base.shard0`, `base.shard1`, ...), and rediscover the
//! shard count from the files on disk at open time. A family of one pool
//! is the plain file `base`, so an unsharded tree and a one-shard tree
//! persist alike; where both a plain file and shard files exist, the
//! shard files win.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::alloc::AllocError;
use crate::pool::{PmemPool, PoolOptions};

/// Path of shard `i`'s pool file under `base`: `<base>.shard<i>`.
pub fn shard_path(base: impl AsRef<Path>, i: usize) -> PathBuf {
    let base = base.as_ref();
    let mut name = base
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(&format!(".shard{i}"));
    base.with_file_name(name)
}

/// Number of consecutive shard files present under `base`, probing
/// `base.shard0`, `base.shard1`, ... until the first missing file.
pub fn shard_file_count(base: impl AsRef<Path>) -> usize {
    let mut n = 0;
    while shard_path(base.as_ref(), n).exists() {
        n += 1;
    }
    n
}

/// Creates `n` fresh pools, each of `opts.size` bytes; shard `i` gets file
/// id `opts.file_id + i`, so persistent pointers from different shards can
/// never be confused with each other.
pub fn create_pools(n: usize, opts: PoolOptions) -> Result<Vec<Arc<PmemPool>>, AllocError> {
    if n == 0 {
        return Err(AllocError::PoolTooSmall);
    }
    (0..n)
        .map(|i| {
            let shard_opts = PoolOptions {
                file_id: opts.file_id + i as u64,
                ..opts
            };
            PmemPool::create(shard_opts).map(Arc::new)
        })
        .collect()
}

/// Saves every pool under `base`: one pool to the plain file `base`,
/// several to their shard files (see [`shard_path`]). One pool goes to
/// `base.shard0` instead when shard files already exist under `base`
/// (a one-pool family an older save wrote), because [`load_pools`] reads
/// those first.
pub fn save_pools(pools: &[Arc<PmemPool>], base: impl AsRef<Path>) -> std::io::Result<()> {
    let base = base.as_ref();
    if let [pool] = pools {
        if shard_file_count(base) == 0 {
            return pool.save(base);
        }
    }
    for (i, pool) in pools.iter().enumerate() {
        pool.save(shard_path(base, i))?;
    }
    Ok(())
}

/// Loads the pools saved under `base`: the full family of shard files,
/// probing from `base.shard0` upward, or else the plain file `base` as a
/// family of one. Fails with `NotFound` if neither exists; each pool keeps
/// the mode/latency from `opts` (size comes from the file).
pub fn load_pools(
    base: impl AsRef<Path>,
    opts: PoolOptions,
) -> std::io::Result<Vec<Arc<PmemPool>>> {
    let base = base.as_ref();
    let n = shard_file_count(base);
    if n == 0 {
        if base.exists() {
            return Ok(vec![Arc::new(PmemPool::load(base, opts)?)]);
        }
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no pool file or shard files under {}", base.display()),
        ));
    }
    (0..n)
        .map(|i| PmemPool::load(shard_path(base, i), opts).map(Arc::new))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_path_appends_suffix() {
        assert_eq!(
            shard_path("/tmp/data.pool", 3),
            PathBuf::from("/tmp/data.pool.shard3")
        );
        assert_eq!(shard_path("rel.img", 0), PathBuf::from("rel.img.shard0"));
    }

    #[test]
    fn create_pools_assigns_distinct_file_ids() {
        let pools = create_pools(3, PoolOptions::direct(1 << 20)).unwrap();
        let ids: Vec<u64> = pools.iter().map(|p| p.file_id()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn create_zero_pools_is_an_error() {
        assert!(create_pools(0, PoolOptions::direct(1 << 20)).is_err());
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fptree-poolset-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("set.pool");
        let pools = create_pools(2, PoolOptions::direct(1 << 20)).unwrap();
        pools[0].set_root(111);
        pools[1].set_root(222);
        save_pools(&pools, &base).unwrap();
        assert_eq!(shard_file_count(&base), 2);
        let loaded = load_pools(&base, PoolOptions::direct(0)).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].root(), 111);
        assert_eq!(loaded[1].root(), 222);
        assert_eq!(loaded[1].file_id(), 2);
        std::fs::remove_dir_all(&dir).ok();
        assert!(load_pools(&base, PoolOptions::direct(0)).is_err());
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fptree-poolset-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn one_pool_roundtrips_as_the_plain_file() {
        let dir = temp_dir("one");
        let base = dir.join("one.pool");
        let pools = create_pools(1, PoolOptions::direct(1 << 20)).unwrap();
        pools[0].set_root(333);
        save_pools(&pools, &base).unwrap();
        assert!(base.is_file());
        assert_eq!(shard_file_count(&base), 0);
        let loaded = load_pools(&base, PoolOptions::direct(0)).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].root(), 333);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plain_file_loads_as_one_pool_with_its_file_id() {
        let dir = temp_dir("plain");
        let base = dir.join("plain.pool");
        let pool = PmemPool::create(PoolOptions {
            file_id: 7,
            ..PoolOptions::direct(1 << 20)
        })
        .unwrap();
        pool.save(&base).unwrap();
        let loaded = load_pools(&base, PoolOptions::direct(0)).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].file_id(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn family_wins_over_plain_file() {
        let dir = temp_dir("both");
        let base = dir.join("both.pool");
        let plain = create_pools(1, PoolOptions::direct(1 << 20)).unwrap();
        plain[0].set_root(1);
        plain[0].save(&base).unwrap();
        let family = create_pools(2, PoolOptions::direct(1 << 20)).unwrap();
        family[0].set_root(10);
        family[1].set_root(20);
        save_pools(&family, &base).unwrap();
        let loaded = load_pools(&base, PoolOptions::direct(0)).unwrap();
        let roots: Vec<u64> = loaded.iter().map(|p| p.root()).collect();
        assert_eq!(roots, vec![10, 20]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_pool_saves_over_an_existing_one_pool_family() {
        let dir = temp_dir("stale");
        let base = dir.join("stale.pool");
        let pools = create_pools(1, PoolOptions::direct(1 << 20)).unwrap();
        pools[0].save(shard_path(&base, 0)).unwrap();
        pools[0].set_root(44);
        save_pools(&pools, &base).unwrap();
        assert!(!base.exists());
        assert_eq!(
            load_pools(&base, PoolOptions::direct(0)).unwrap()[0].root(),
            44
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
