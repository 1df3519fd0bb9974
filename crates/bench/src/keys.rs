//! Workload key generation.

/// Deterministic pseudo-random permutation of `0..n` scaled into a sparse
/// key space: uniformly distributed, duplicate-free, reproducible — the
/// paper's "uniformly distributed generated data".
pub fn shuffled_keys(n: usize, seed: u64) -> Vec<u64> {
    // Feistel-free approach: multiply by an odd constant (a bijection over
    // u64) and add a seed offset; uniqueness is preserved.
    const ODD: u64 = 0x9E37_79B9_7F4A_7C15;
    (0..n as u64)
        .map(|i| (i.wrapping_add(seed)).wrapping_mul(ODD))
        .collect()
}

/// Two disjoint sets of `n` shuffled keys: `warm` preloads a tree, `extra`
/// is what an insert phase adds (and a delete phase takes away). Shuffled
/// sets from neighbouring seeds overlap, since `shuffled_keys(n, s + 1)` is
/// `shuffled_keys(n, s)` shifted by one, so both halves come from one set.
pub fn key_sets(n: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut warm = shuffled_keys(2 * n, seed);
    let extra = warm.split_off(n);
    (warm, extra)
}

/// 16-byte string key for the variable-size-key experiments (paper: 16-byte
/// strings).
pub fn string_key(k: u64) -> Vec<u8> {
    format!("{k:016x}").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_unique_and_deterministic() {
        let a = shuffled_keys(10_000, 1);
        let b = shuffled_keys(10_000, 1);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort();
        s.dedup();
        assert_eq!(s.len(), 10_000);
        let c = shuffled_keys(100, 2);
        assert_ne!(&a[..100], &c[..]);
    }

    #[test]
    fn key_sets_are_disjoint() {
        let (warm, extra) = key_sets(5_000, 1);
        assert_eq!((warm.len(), extra.len()), (5_000, 5_000));
        let warm: std::collections::HashSet<u64> = warm.into_iter().collect();
        assert!(extra.iter().all(|k| !warm.contains(k)));
    }

    #[test]
    fn string_keys_are_sixteen_bytes() {
        assert_eq!(string_key(0).len(), 16);
        assert_eq!(string_key(u64::MAX).len(), 16);
        assert_ne!(string_key(1), string_key(2));
    }
}
