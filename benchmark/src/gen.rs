//! Deterministic input generation.
//!
//! Everything the program under test receives is derived here from the
//! `--seed` argument and nothing else: splitmix64 streams with per-thread
//! sub-seeds, scrambled key ids (so insertion order is not key order), a
//! YCSB-style zipfian, stripe-local op streams for the in-process tree
//! workloads, TATP transaction streams and pre-rendered wire windows. Op
//! streams are built *before* a timed section's clock starts.

/// splitmix64: tiny, fast, and good enough to drive a benchmark.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

/// One splitmix64 output step; also the benchmark's general 64-bit mixer.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for the
    /// ranges used here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Independent sub-seed for stream `stream` (a thread, a phase) of a run.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    mix64(seed ^ mix64(stream.wrapping_add(0x5EED)))
}

/// Multiplier scrambling key ids into keys.
pub const SCRAMBLE: u64 = 0x9E37_79B9_7F4A_7C15;
/// Ids at or above this are never inserted: lookups for them must miss.
pub const ABSENT_BASE: u64 = 1 << 40;
/// Each client thread of a mixed workload owns ids `[t·STRIPE, (t+1)·STRIPE)`.
pub const STRIPE: u64 = 1 << 32;

/// The key for id `id`: consecutive ids land far apart in key order.
#[inline]
pub fn key_of(id: u64) -> u64 {
    id.wrapping_mul(SCRAMBLE) | 1
}

/// `SCRAMBLE⁻¹ mod 2⁶⁴`, by Newton iteration (`SCRAMBLE` is odd).
const UNSCRAMBLE: u64 = {
    let mut inv = SCRAMBLE;
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(SCRAMBLE.wrapping_mul(inv)));
        i += 1;
    }
    inv
};

/// Inverse of [`key_of`] for ids below `2^41` (audits decode scanned keys).
pub fn id_of(key: u64) -> Option<u64> {
    [key, key ^ 1]
        .into_iter()
        .map(|k| k.wrapping_mul(UNSCRAMBLE))
        .find(|&id| id < (ABSENT_BASE << 1) && key_of(id) == key)
}

/// The value the oracle expects for `id` after `version` updates.
#[inline]
pub fn value_of(id: u64, version: u8) -> u64 {
    mix64(id ^ ((version as u64) << 56)) | 1
}

// ------------------------------------------------------------------ zipfian

/// YCSB's zipfian generator (Gray et al.), ranks `0..n`, rank 0 hottest.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
    /// Odd stride coprime with `n`: spreads ranks over the id space so the
    /// hot keys are not neighbours.
    stride: u64,
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n >= 2);
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        let mut stride = ((n as f64 * 0.618_033_988) as u64) | 1;
        while gcd(stride, n) != 1 {
            stride += 2;
        }
        Zipfian {
            n,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            stride,
        }
    }

    /// Theoretical share of draws that hit rank 0.
    #[cfg(test)]
    pub fn top_share(&self) -> f64 {
        1.0 / self.zetan
    }

    /// Draws a rank.
    pub fn rank(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// Maps a rank to an item id in `0..n` (a fixed permutation).
    pub fn id_of_rank(&self, rank: u64) -> u64 {
        ((rank as u128 * self.stride as u128) % self.n as u128) as u64
    }

    /// Draws an item id in `0..n`.
    pub fn id(&self, rng: &mut SplitMix64) -> u64 {
        self.id_of_rank(self.rank(rng))
    }
}

// ------------------------------------------------------- tree op streams

/// Uniform `get` stream over the ids `s·STRIPE + 0..per_stripe` of
/// `stripes` stripes; `absent_pct` percent of the lookups are for ids that
/// were never inserted.
pub fn get_stream(
    seed: u64,
    stripes: u64,
    per_stripe: u64,
    len: usize,
    absent_pct: u64,
) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| {
            let id = rng.below(stripes) * STRIPE + rng.below(per_stripe);
            if rng.below(100) < absent_pct {
                ABSENT_BASE | id
            } else {
                id
            }
        })
        .collect()
}

/// Operation kinds of a mixed stream, packed in the top two bits of a `u32`
/// whose low 30 bits are the stripe-local index.
pub const OP_GET: u32 = 0;
pub const OP_INSERT: u32 = 1;
pub const OP_UPDATE: u32 = 2;
pub const OP_REMOVE: u32 = 3;

#[inline]
pub fn op_kind(op: u32) -> u32 {
    op >> 30
}
#[inline]
pub fn op_index(op: u32) -> u32 {
    op & ((1 << 30) - 1)
}

/// Percent shares of a mixed stream (they sum to 100).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub get: u64,
    pub insert: u64,
    pub update: u64,
    pub remove: u64,
}

/// A stripe-local mixed stream over a live index range that starts as
/// `0..preloaded`: inserts take the next fresh index, removes retire the
/// oldest, gets and updates pick a live index uniformly. Because the live
/// set is always a contiguous range, the oracle is two integers and a
/// version byte per index.
pub fn mixed_stream(seed: u64, preloaded: u32, len: usize, mix: Mix) -> Vec<u32> {
    assert_eq!(mix.get + mix.insert + mix.update + mix.remove, 100);
    let mut rng = SplitMix64::new(seed);
    let (mut lo, mut hi) = (0u64, preloaded as u64);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let r = rng.below(100);
        let live = hi - lo;
        let pick = |rng: &mut SplitMix64| (lo + rng.below(live)) as u32;
        let op = if live < 2 || (mix.get..mix.get + mix.insert).contains(&r) {
            hi += 1;
            (OP_INSERT << 30) | (hi - 1) as u32
        } else if r < mix.get {
            (OP_GET << 30) | pick(&mut rng)
        } else if r < mix.get + mix.insert + mix.update {
            (OP_UPDATE << 30) | pick(&mut rng)
        } else {
            lo += 1;
            (OP_REMOVE << 30) | (lo - 1) as u32
        };
        assert!(hi < (1 << 30), "stripe index overflows the op encoding");
        out.push(op);
    }
    out
}

/// Highest stripe-local index a stream can touch, plus one.
pub fn stream_index_bound(preloaded: u32, stream: &[u32]) -> usize {
    stream
        .iter()
        .filter(|&&op| op_kind(op) == OP_INSERT)
        .map(|&op| op_index(op) as usize + 1)
        .max()
        .unwrap_or(0)
        .max(preloaded as usize)
}

// ------------------------------------------------------------ TATP stream

/// One read-only TATP transaction with its parameters (TATP's own names).
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Txn {
    GetSubscriberData {
        s_id: u64,
    },
    GetNewDestination {
        s_id: u64,
        sf_type: u64,
        start: u64,
        end: u64,
    },
    GetAccessData {
        s_id: u64,
        ai_type: u64,
    },
}

/// The 35/10/35 read-only mix over `subscribers` uniformly chosen s_ids.
pub fn tatp_stream(seed: u64, subscribers: u64, len: usize) -> Vec<Txn> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| {
            let s_id = 1 + rng.below(subscribers);
            match rng.below(80) {
                0..=34 => Txn::GetSubscriberData { s_id },
                35..=44 => {
                    let start = [0, 8, 16][rng.below(3) as usize];
                    Txn::GetNewDestination {
                        s_id,
                        sf_type: 1 + rng.below(4),
                        start,
                        end: start + 1 + rng.below(8),
                    }
                }
                _ => Txn::GetAccessData {
                    s_id,
                    ai_type: 1 + rng.below(4),
                },
            }
        })
        .collect()
}

// ------------------------------------------------------------ wire windows

/// Most requests per pipelined window (the `wire_kv` pipeline depth).
pub const WINDOW: usize = 16;
/// Bytes of every wire value.
pub const WIRE_VALUE_LEN: usize = 64;

/// The wire key of item `id`.
pub fn wire_key(id: u64) -> Vec<u8> {
    format!("key:{id:012}").into_bytes()
}

/// The 64 printable bytes every `set` of item `id` stores; since a key's
/// value never changes, a racing `get` has exactly one right answer.
pub fn wire_value(id: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(WIRE_VALUE_LEN);
    for w in 0..(WIRE_VALUE_LEN / 16) as u64 {
        v.extend_from_slice(format!("{:016x}", mix64(id ^ (w << 48))).as_bytes());
    }
    v
}

/// Request bytes of one `set`.
pub fn render_set(id: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(b"set ");
    out.extend_from_slice(&wire_key(id));
    out.extend_from_slice(format!(" 0 0 {WIRE_VALUE_LEN}\r\n").as_bytes());
    out.extend_from_slice(&wire_value(id));
    out.extend_from_slice(b"\r\n");
}

/// Request bytes of one single-key `get`.
pub fn render_get(id: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(b"get ");
    out.extend_from_slice(&wire_key(id));
    out.extend_from_slice(b"\r\n");
}

/// The exact response to a `get` of item `id` that hits.
pub fn expected_hit(id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(b"VALUE ");
    out.extend_from_slice(&wire_key(id));
    out.extend_from_slice(format!(" 0 {WIRE_VALUE_LEN}\r\n").as_bytes());
    out.extend_from_slice(&wire_value(id));
    out.extend_from_slice(b"\r\nEND\r\n");
    out
}

/// One pipelined window: `depth` requests rendered back to back.
#[derive(Debug, Clone)]
pub struct Window {
    /// Byte range of the window in [`WireStream::bytes`].
    pub start: usize,
    pub end: usize,
    /// Requests in the window (at most [`WINDOW`]).
    pub depth: usize,
    /// Item id of each request.
    pub ids: [u32; WINDOW],
    /// Bit `i` set: request `i` is a `set`.
    pub sets: u16,
}

/// A connection's whole pre-rendered request stream.
#[derive(Debug, Clone, Default)]
pub struct WireStream {
    pub bytes: Vec<u8>,
    pub windows: Vec<Window>,
}

/// Renders `windows` mixed windows of `depth` requests for connection
/// `conn` of `conns`: each request is a `set` with probability
/// `set_pct`/100, else a `get`. A connection draws zipfian over its own
/// stripe of the items — item `zipf.id() * conns + conn` — so no two
/// connections ever touch the same key and every reply has one right
/// answer (see the README on why shared keys would not).
pub fn wire_stream(
    seed: u64,
    zipf: &Zipfian,
    (conn, conns): (usize, usize),
    windows: usize,
    depth: usize,
    set_pct: u64,
) -> WireStream {
    assert!((1..=WINDOW).contains(&depth));
    let mut rng = SplitMix64::new(seed);
    let mut s = WireStream::default();
    for _ in 0..windows {
        let start = s.bytes.len();
        let mut ids = [0u32; WINDOW];
        let mut sets = 0u16;
        for (i, slot) in ids.iter_mut().enumerate().take(depth) {
            let id = zipf.id(&mut rng) * conns as u64 + conn as u64;
            *slot = id as u32;
            if rng.below(100) < set_pct {
                sets |= 1 << i;
                render_set(id, &mut s.bytes);
            } else {
                render_get(id, &mut s.bytes);
            }
        }
        s.windows.push(Window {
            start,
            end: s.bytes.len(),
            depth,
            ids,
            sets,
        });
    }
    s
}

/// FNV-1a over a byte stream (stream-identity hash for the tests and the
/// `inputs_hash` line of the report).
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Hash of a `u64` stream.
pub fn hash_u64s(v: &[u64]) -> u64 {
    fnv1a(v.iter().flat_map(|x| x.to_le_bytes()))
}

/// Hash of a `u32` stream.
pub fn hash_u32s(v: &[u32]) -> u64 {
    fnv1a(v.iter().flat_map(|x| x.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIXED: Mix = Mix {
        get: 50,
        insert: 20,
        update: 20,
        remove: 10,
    };

    #[test]
    fn same_seed_same_streams_different_seed_different_streams() {
        let z = Zipfian::new(1000, 0.99);
        let all = |seed: u64| {
            (
                hash_u64s(&get_stream(seed, 2, 500, 5000, 10)),
                hash_u32s(&mixed_stream(seed, 100, 5000, MIXED)),
                fnv1a(wire_stream(seed, &z, (0, 1), 50, WINDOW, 10).bytes),
                format!("{:?}", tatp_stream(seed, 100, 500)),
            )
        };
        assert_eq!(all(7), all(7));
        let (a, b) = (all(7), all(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
        assert_ne!(a.3, b.3);
        assert_ne!(sub_seed(7, 0), sub_seed(7, 1));
    }

    #[test]
    fn zipf_top_key_share_matches_theory() {
        let z = Zipfian::new(200_000, 0.99);
        let mut rng = SplitMix64::new(1);
        let n = 2_000_000;
        let top = (0..n).filter(|_| z.rank(&mut rng) == 0).count();
        let share = top as f64 / n as f64;
        let rel = (share / z.top_share() - 1.0).abs();
        assert!(rel < 0.02, "share {share} vs theory {}", z.top_share());
        // The rank → id map is a permutation.
        let z = Zipfian::new(1000, 0.99);
        let mut seen = vec![false; 1000];
        for r in 0..1000 {
            seen[z.id_of_rank(r) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn get_stream_has_ten_percent_absent_keys() {
        let s = get_stream(3, 2, 1 << 19, 400_000, 10);
        let absent = s.iter().filter(|&&id| id >= ABSENT_BASE).count();
        let share = absent as f64 / s.len() as f64;
        assert!((share - 0.10).abs() < 0.005, "absent share {share}");
        assert!(s
            .iter()
            .all(|&id| (id & !ABSENT_BASE) / STRIPE < 2 && id % STRIPE < (1 << 19)));
    }

    #[test]
    fn keys_scramble_and_decode() {
        assert!(key_of(1) > key_of(2) || key_of(2) > key_of(3));
        for id in [
            0,
            1,
            2,
            999_999,
            STRIPE + 5,
            3 * STRIPE + 77,
            ABSENT_BASE | 9,
        ] {
            assert_eq!(id_of(key_of(id)), Some(id), "id {id}");
        }
        assert_ne!(value_of(5, 0), value_of(5, 1));
    }

    #[test]
    fn mixed_stream_keeps_a_contiguous_live_range() {
        let s = mixed_stream(11, 1000, 200_000, MIXED);
        let (mut lo, mut hi) = (0u32, 1000u32);
        let mut kinds = [0usize; 4];
        for &op in &s {
            let (k, i) = (op_kind(op), op_index(op));
            kinds[k as usize] += 1;
            match k {
                OP_INSERT => {
                    assert_eq!(i, hi);
                    hi += 1;
                }
                OP_REMOVE => {
                    assert_eq!(i, lo);
                    lo += 1;
                }
                _ => assert!(lo <= i && i < hi),
            }
        }
        let share = |k: u32| kinds[k as usize] as f64 / s.len() as f64;
        assert!((share(OP_GET) - 0.5).abs() < 0.01);
        assert!((share(OP_REMOVE) - 0.1).abs() < 0.01);
        assert_eq!(stream_index_bound(1000, &s), hi as usize);
    }

    #[test]
    fn wire_windows_render_sixteen_parseable_requests() {
        let z = Zipfian::new(500, 0.99);
        let s = wire_stream(5, &z, (1, 2), 200, WINDOW, 10);
        assert!(s
            .windows
            .iter()
            .all(|w| w.ids.iter().all(|id| id % 2 == 1 && *id < 1000)));
        let mut sets = 0;
        for w in &s.windows {
            let mut buf = &s.bytes[w.start..w.end];
            for i in 0..WINDOW {
                let (cmd, used) = fptree_kvcache::protocol::parse(buf).expect("parses");
                let key = wire_key(w.ids[i] as u64);
                match cmd {
                    fptree_kvcache::protocol::Command::Set { key: k, data, .. } => {
                        assert!(w.sets & (1 << i) != 0);
                        assert_eq!(k, key);
                        assert_eq!(data, wire_value(w.ids[i] as u64));
                        sets += 1;
                    }
                    fptree_kvcache::protocol::Command::Get { keys } => {
                        assert!(w.sets & (1 << i) == 0);
                        assert_eq!(keys, vec![key]);
                    }
                    other => panic!("unexpected {other:?}"),
                }
                buf = &buf[used..];
            }
            assert!(buf.is_empty());
        }
        let share = sets as f64 / (200 * WINDOW) as f64;
        assert!((share - 0.10).abs() < 0.03, "set share {share}");
        assert_eq!(
            expected_hit(3).len(),
            "VALUE ".len() + 16 + " 0 64\r\n".len() + 64 + "\r\nEND\r\n".len()
        );
    }
}
