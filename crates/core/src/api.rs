//! The typed [`Error`] of every fallible path, the byte-string key limit,
//! and the one pre-flight check behind the `try_create` constructors.
//!
//! `ConcurrentTree::try_create` (and the [`crate::Exclusive`] handle's) and
//! `Sharded::try_create` validate the configuration *and* the pool sizing
//! before any persistent state is touched, so misuse surfaces as an
//! [`Error`] instead of a panic deep in the layout or allocator code; the
//! positional `create` constructors are those plus `expect`.
//!
//! ```
//! use std::sync::Arc;
//! use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
//! use fptree_core::{Error, FPTree, TreeConfig};
//!
//! let pool = Arc::new(PmemPool::create(PoolOptions::direct(8 << 10)).unwrap());
//! let err = FPTree::try_create(pool, TreeConfig::fptree(), ROOT_SLOT).err().unwrap();
//! assert!(matches!(err, Error::PoolFull { .. }));
//! ```

use std::fmt;

use fptree_pmem::{usable_size, AllocError, PmemPool, BLOCK_HEADER_SIZE, USER_BASE};

use crate::config::TreeConfig;
use crate::groups::group_bytes;
use crate::keys::KeyKind;
use crate::layout::LeafLayout;
use crate::meta::TreeMeta;

/// Maximum accepted key length in bytes on the byte-string index seams —
/// memcached's key limit, so the kvcache wire protocol round-trips with
/// external memcached clients.
pub const MAX_KEY_BYTES: usize = 250;

/// Typed error for the crate's fallible paths.
#[derive(Debug)]
pub enum Error {
    /// The [`TreeConfig`] violates a structural invariant.
    InvalidConfig(String),
    /// The pool cannot hold the tree's initial footprint (or ran out of
    /// space). Sizes are zero when the allocator did not report them.
    PoolFull {
        /// Bytes the operation needed.
        required: u64,
        /// Bytes the pool had available.
        available: u64,
        /// Which shard's pool filled, when the tree is sharded — skewed
        /// keyspaces fill one shard long before the others, and an
        /// anonymous "pool is full" would hide that.
        shard: Option<usize>,
    },
    /// A byte-string key exceeds [`MAX_KEY_BYTES`].
    KeyTooLarge {
        /// Offered key length.
        len: usize,
        /// The accepted maximum.
        max: usize,
    },
    /// The underlying pool file failed or holds an incompatible image.
    Io(std::io::Error),
    /// A lock guarding an index was poisoned by a panicking holder.
    Poisoned,
    /// The persistent image is inconsistent: a pointer, count, or metadata
    /// word read during recovery fails validation. The tree refuses to
    /// recover rather than follow corrupt state.
    Corrupt {
        /// Which structure failed validation.
        what: String,
        /// Pool offset of the offending word (0 when not applicable).
        offset: u64,
    },
}

impl Error {
    /// Shorthand for a [`Error::Corrupt`] at `offset`.
    pub(crate) fn corrupt(what: impl Into<String>, offset: u64) -> Error {
        Error::Corrupt {
            what: what.into(),
            offset,
        }
    }

    /// Annotates the error with the shard it arose in: [`Error::PoolFull`]
    /// gets its `shard` field set, [`Error::Corrupt`] gets a `shard N:`
    /// prefix on `what`; other variants pass through unchanged.
    pub(crate) fn with_shard(self, shard: usize) -> Error {
        match self {
            Error::PoolFull {
                required,
                available,
                ..
            } => Error::PoolFull {
                required,
                available,
                shard: Some(shard),
            },
            Error::Corrupt { what, offset } => Error::Corrupt {
                what: format!("shard {shard}: {what}"),
                offset,
            },
            other => other,
        }
    }

    /// The shard the error arose in, when known (see
    /// [`Error::PoolFull::shard`]).
    pub fn shard(&self) -> Option<usize> {
        match self {
            Error::PoolFull { shard, .. } => *shard,
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid tree configuration: {msg}"),
            Error::PoolFull {
                required,
                available,
                shard,
            } => {
                match shard {
                    Some(i) => write!(f, "pool of shard {i} is full")?,
                    None => write!(f, "pool is full")?,
                }
                if *required != 0 || *available != 0 {
                    write!(f, ": need {required} bytes, {available} available")?;
                }
                Ok(())
            }
            Error::KeyTooLarge { len, max } => {
                write!(f, "key of {len} bytes exceeds the {max}-byte limit")
            }
            Error::Io(e) => write!(f, "pool I/O error: {e}"),
            Error::Poisoned => write!(f, "index lock poisoned by a panicking holder"),
            Error::Corrupt { what, offset } => {
                if *offset == 0 {
                    write!(f, "corrupt tree image: {what}")
                } else {
                    write!(f, "corrupt tree image: {what} (pool offset {offset:#x})")
                }
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e)
    }
}

impl From<AllocError> for Error {
    fn from(e: AllocError) -> Error {
        match e {
            AllocError::OutOfMemory | AllocError::PoolTooSmall | AllocError::TooLarge => {
                Error::PoolFull {
                    required: 0,
                    available: 0,
                    shard: None,
                }
            }
            other => Error::Io(std::io::Error::other(other.to_string())),
        }
    }
}

impl<T> From<std::sync::PoisonError<T>> for Error {
    fn from(_: std::sync::PoisonError<T>) -> Error {
        Error::Poisoned
    }
}

/// Rejects byte-string keys longer than [`MAX_KEY_BYTES`].
pub fn check_key(key: &[u8]) -> Result<(), Error> {
    if key.len() > MAX_KEY_BYTES {
        return Err(Error::KeyTooLarge {
            len: key.len(),
            max: MAX_KEY_BYTES,
        });
    }
    Ok(())
}

/// Pre-flight for the `try_create` constructors: validates `cfg` and that
/// `pool` can hold the tree's initial footprint — the metadata block with
/// `n_logs` micro-log pairs plus the first leaf (or leaf group) — before
/// any persistent write. Allocations are costed as the allocator serves
/// them ([`usable_size`] behind a block header).
pub(crate) fn check_create<K: KeyKind>(
    cfg: &TreeConfig,
    pool: &PmemPool,
    n_logs: usize,
) -> Result<(), Error> {
    cfg.try_validate().map_err(Error::InvalidConfig)?;
    let layout = LeafLayout::new(cfg, K::SLOT_SIZE);
    let first_alloc = if cfg.leaf_group_size > 1 {
        group_bytes(cfg.leaf_group_size, layout.size)
    } else {
        Some(layout.size)
    };
    let block = |size: usize| usable_size(size).map(|b| BLOCK_HEADER_SIZE + b as u64);
    let Some(Ok(first_block)) = first_alloc.map(block) else {
        return Err(Error::InvalidConfig(format!(
            "a group of {} leaves exceeds the allocator's largest block",
            cfg.leaf_group_size
        )));
    };
    let required = block(TreeMeta::byte_size(n_logs))? + first_block;
    let available = (pool.capacity() as u64).saturating_sub(USER_BASE);
    if required > available {
        return Err(Error::PoolFull {
            required,
            available,
            shard: None,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_key_enforces_memcached_limit() {
        assert!(check_key(&[0u8; MAX_KEY_BYTES]).is_ok());
        let err = check_key(&[0u8; MAX_KEY_BYTES + 1]).unwrap_err();
        assert!(matches!(err, Error::KeyTooLarge { len: 251, max: 250 }));
    }

    #[test]
    fn error_display_is_actionable() {
        let e = Error::PoolFull {
            required: 100,
            available: 50,
            shard: None,
        };
        assert_eq!(e.to_string(), "pool is full: need 100 bytes, 50 available");
        let e = e.with_shard(3);
        assert_eq!(
            e.to_string(),
            "pool of shard 3 is full: need 100 bytes, 50 available"
        );
        assert_eq!(e.shard(), Some(3));
        assert_eq!(
            Error::Poisoned.to_string(),
            "index lock poisoned by a panicking holder"
        );
    }
}
