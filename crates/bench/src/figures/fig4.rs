//! Figure 4: expected number of in-leaf key probes during a successful
//! search, for the FPTree (fingerprints), wBTree (binary search) and
//! NV-Tree (reverse linear scan), across leaf sizes m = 4…256: the paper's
//! closed forms (§4.2), an empirical simulation, and the anchor claims.
//!
//! Two repo tables ride along, both on one real leaf in a zero-latency
//! pool: `find_slot` throughput of the SWAR word probe against its scalar
//! reference loop, and the SCM read lines each probe is charged.

use fptree_core::fingerprint::{
    expected_probes_fptree, expected_probes_fptree_perkey, expected_probes_nvtree,
    expected_probes_wbtree, fingerprint_u64, FP_DOMAIN,
};
use fptree_core::keys::{FixedKey, KeyKind};
use fptree_core::layout::LeafLayout;
use fptree_core::leaf::Leaf;
use fptree_core::TreeConfig;
use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
use rand::prelude::*;

use crate::{timed, Report, Row, Scale};

/// Figure 4 target.
pub fn fig4(s: Scale) -> Vec<Report> {
    let mut probes = Report::new("fig4_probes", "Figure 4: expected in-leaf key probes vs m");
    for m in (2..=8).map(|p| 1usize << p) {
        probes.push(
            Row::new(format!("m={m}"))
                .field("FPTree(paper)", expected_probes_fptree(m, FP_DOMAIN))
                .field(
                    "FPTree(perkey)",
                    expected_probes_fptree_perkey(m, FP_DOMAIN),
                )
                .field("FPTree(meas)", simulate(m, s.pick(400, 20)))
                .field("wBTree", expected_probes_wbtree(m))
                .field("NV-Tree", expected_probes_nvtree(m)),
        );
    }

    // The m = 32 anchor (~1 probe vs 5 and 16.5) is the m=32 row above.
    let mut anchors = Report::new("fig4_anchors", "Figure 4 crossover claims (§4.2)");
    // "less than two key probes on average up to m ≈ 400"
    let below_two = (4..=1024)
        .filter(|&m| expected_probes_fptree(m, FP_DOMAIN) < 2.0)
        .max()
        .unwrap_or(0);
    // "the wBTree outperforms the FPTree only starting from m ≈ 4096"
    let wbtree_wins = (256..=16384)
        .step_by(64)
        .find(|&m| expected_probes_fptree(m, FP_DOMAIN) > expected_probes_wbtree(m))
        .unwrap_or(0);
    anchors.push(
        Row::new("crossovers")
            .field("probes<2 up to m", below_two as f64)
            .field("wBTree wins from m", wbtree_wins as f64),
    );

    vec![probes, anchors, swar_probe(s.pick(25, 2)), charged_lines()]
}

/// Empirical per-key probe count: fill leaves with random keys, search each
/// stored key, count fingerprint-filtered probes.
fn simulate(m: usize, trials: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(4);
    let mut probes = 0u64;
    for _ in 0..trials {
        let keys: Vec<u64> = (0..m).map(|_| rng.gen()).collect();
        let fps: Vec<u8> = keys.iter().map(|&k| fingerprint_u64(k)).collect();
        for (i, &k) in keys.iter().enumerate() {
            let fp = fingerprint_u64(k);
            for (j, &f) in fps.iter().enumerate() {
                if f == fp {
                    probes += 1;
                    if j == i {
                        break;
                    }
                }
            }
        }
    }
    probes as f64 / (trials * m) as f64
}

/// A zero-latency pool holding one committed leaf of `cfg` filled with
/// `keys`, and the leaf's layout and offset.
fn filled_leaf(cfg: &TreeConfig, keys: &[u64]) -> (PmemPool, LeafLayout, u64) {
    let pool = PmemPool::create(PoolOptions::direct(1 << 20)).expect("pool");
    let layout = LeafLayout::new(cfg, FixedKey::SLOT_SIZE);
    let off = pool.allocate(ROOT_SLOT, layout.size).expect("leaf");
    pool.write_bytes(off, &vec![0u8; layout.size]);
    let leaf = Leaf::new(&pool, &layout, off);
    for (slot, &k) in keys.iter().enumerate() {
        FixedKey::write_slot(&pool, leaf.key_off(slot), &k);
        leaf.set_value(slot, k);
        if cfg.fingerprints {
            leaf.set_fingerprint(slot, FixedKey::fingerprint(&k));
        }
    }
    leaf.commit_bitmap(layout.full_bitmap());
    (pool, layout, off)
}

/// A leaf probe: the SWAR word probe or its scalar reference.
type Probe = for<'a, 'b> fn(&'a Leaf<'b>, &u64) -> Option<usize>;
const SWAR: Probe = |leaf, k| leaf.find_slot::<FixedKey>(k);
const SCALAR: Probe = |leaf, k| leaf.find_slot_scalar::<FixedKey>(k);

/// `find_slot` throughput, SWAR vs scalar, over the same leaf: best of
/// `reps` passes, half hits and half misses (a miss scans every
/// fingerprint — the SWAR sweet spot).
fn swar_probe(reps: usize) -> Report {
    let mut report = Report::new(
        "fig4_swar",
        "find_slot throughput: SWAR word probe vs scalar byte loop (Mprobe/s)",
    );
    let mut log_speedup = 0.0;
    let sizes = [8usize, 16, 32, 64];
    for m in sizes {
        let cfg = TreeConfig::fptree().with_leaf_capacity(m);
        let keys: Vec<u64> = (0..m as u64).map(|i| i * 0x9E37_79B9 + 17).collect();
        let (pool, layout, off) = filled_leaf(&cfg, &keys);
        let leaf = Leaf::new(&pool, &layout, off);
        let mut rng = StdRng::seed_from_u64(7);
        let probes: Vec<u64> = (0..4096)
            .map(|i| {
                if i % 2 == 0 {
                    keys[rng.gen_range(0..m)]
                } else {
                    rng.gen::<u64>() | (1 << 63) // misses (stored keys stay below)
                }
            })
            .collect();
        let pass = |probe: Probe| {
            for k in &probes {
                std::hint::black_box(probe(&leaf, k));
            }
        };
        let mops = |probe: Probe| {
            let best = (0..reps).map(|_| timed(|| pass(probe)).1);
            probes.len() as f64 / best.fold(f64::INFINITY, f64::min)
        };
        let (swar, scalar) = (mops(SWAR), mops(SCALAR));
        log_speedup += (swar / scalar).ln();
        report.push(
            Row::new(format!("m={m}"))
                .field("swar_Mops", swar)
                .field("scalar_Mops", scalar)
                .field("speedup", swar / scalar),
        );
    }
    let geomean = (log_speedup / sizes.len() as f64).exp();
    report.push(Row::new("overall").field("swar_speedup", geomean));
    report
}

/// Charged SCM read lines per probe at m = 32: the linear (no-fingerprint)
/// path charges its one-pass key scan, a fingerprint hit additionally only
/// the matched slot.
fn charged_lines() -> Report {
    let mut report = Report::new(
        "fig4_charged_lines",
        "charged SCM read lines per probe (hit vs miss), m = 32",
    );
    let fingerprints = TreeConfig::fptree().with_leaf_capacity(32);
    let linear = TreeConfig {
        fingerprints: false,
        split_arrays: false,
        ..TreeConfig::ptree()
    };
    for (label, cfg, probe) in [
        ("fingerprint(swar)", &fingerprints, SWAR),
        ("fingerprint(scalar)", &fingerprints, SCALAR),
        ("linear(interleaved)", &linear, SWAR),
    ] {
        let keys: Vec<u64> = (0..cfg.leaf_capacity as u64).map(|i| i * 977 + 3).collect();
        let (pool, layout, off) = filled_leaf(cfg, &keys);
        let leaf = Leaf::new(&pool, &layout, off);
        let lines_per = |key: fn(u64) -> u64, hit: bool| {
            pool.stats().reset();
            for &k in &keys {
                assert_eq!(probe(&leaf, &key(k)).is_some(), hit);
            }
            pool.stats().snapshot().read_lines as f64 / keys.len() as f64
        };
        report.push(
            Row::new(label)
                .field("lines/hit", lines_per(|k| k, true))
                .field("lines/miss", lines_per(|k| k | 1 << 63, false)),
        );
    }
    report
}
