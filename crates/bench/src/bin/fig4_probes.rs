//! Figure 4: expected number of in-leaf key probes during a successful
//! search, for the FPTree (fingerprints), wBTree (binary search), and
//! NV-Tree (reverse linear scan), across leaf sizes m = 4…256.
//!
//! Emits both the paper's closed-form expectations (§4.2) and an empirical
//! simulation (random fingerprint arrays, counting actual probes), plus the
//! two crossover anchor points the paper calls out.
//!
//! Additionally benchmarks the real in-leaf probe (`Leaf::find_slot`) on a
//! direct (zero-latency) pool, so the numbers are pure CPU cost: the same
//! leaf is probed by the SWAR word probe and by its scalar reference loop
//! (`Leaf::find_slot_scalar`), and the charged SCM read lines per probe are
//! re-baselined for the fingerprint and linear paths.

use fptree_bench::{Args, Report, Row};
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
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let out = args.get_str("out");
    let trials: usize = args.get("trials", 400);
    let reps: usize = args.get("reps", 25);

    let mut report = Report::new("fig4_probes", "Figure 4: expected in-leaf key probes vs m");
    let mut m = 4usize;
    while m <= 256 {
        let measured = simulate(m, trials);
        report.push(
            Row::new(format!("m={m}"))
                .field("FPTree(paper)", expected_probes_fptree(m, FP_DOMAIN))
                .field(
                    "FPTree(perkey)",
                    expected_probes_fptree_perkey(m, FP_DOMAIN),
                )
                .field("FPTree(meas)", measured)
                .field("wBTree", expected_probes_wbtree(m))
                .field("NV-Tree", expected_probes_nvtree(m)),
        );
        m *= 2;
    }
    report.emit(out);

    let mut anchors = Report::new("fig4_anchors", "Figure 4 anchor claims (§4.2)");
    anchors.push(
        Row::new("m=32 probes")
            .field("FPTree", expected_probes_fptree(32, FP_DOMAIN))
            .field("wBTree", expected_probes_wbtree(32))
            .field("NV-Tree", expected_probes_nvtree(32)),
    );
    // "less than two key probes on average up to m ≈ 400"
    let mut crossover_2 = 0usize;
    for m in 4..=1024 {
        if expected_probes_fptree(m, FP_DOMAIN) < 2.0 {
            crossover_2 = m;
        }
    }
    // "the wBTree outperforms the FPTree only starting from m ≈ 4096"
    let mut crossover_wb = 0usize;
    for m in (256..=16384).step_by(64) {
        if expected_probes_fptree(m, FP_DOMAIN) > expected_probes_wbtree(m) {
            crossover_wb = m;
            break;
        }
    }
    anchors.push(
        Row::new("crossovers")
            .field("probes<2 up to m", crossover_2 as f64)
            .field("wBTree wins from m", crossover_wb as f64),
    );
    anchors.emit(out);

    swar_probe_bench(out, reps);
    charged_lines(out);
}

/// Wall-clock `find_slot` throughput, SWAR word-wise probe vs the scalar
/// byte loop, over the same leaf. Direct pool → zero modeled latency, so
/// this isolates the probe's CPU cost. Half the probes hit, half miss (a
/// miss scans every fingerprint — the SWAR sweet spot).
fn swar_probe_bench(out: Option<&str>, reps: usize) {
    let mut report = Report::new(
        "fig4_swar",
        "find_slot throughput: SWAR word probe vs scalar byte loop (Mprobe/s)",
    );
    let mut speedups = Vec::new();
    for m in [8usize, 16, 32, 64] {
        let pool = PmemPool::create(PoolOptions::direct(1 << 20)).unwrap();
        let cfg = TreeConfig {
            leaf_capacity: m,
            ..TreeConfig::fptree()
        };
        let layout = LeafLayout::new(&cfg, FixedKey::SLOT_SIZE);
        let off = pool.allocate(ROOT_SLOT, layout.size).unwrap();
        pool.write_bytes(off, &vec![0u8; layout.size]);
        let leaf = Leaf::new(&pool, &layout, off);
        let keys: Vec<u64> = (0..m as u64).map(|i| i * 0x9E37_79B9 + 17).collect();
        for (slot, &k) in keys.iter().enumerate() {
            FixedKey::write_slot(&pool, leaf.key_off(slot), &k);
            leaf.set_value(slot, k ^ 0x5A);
            leaf.set_fingerprint(slot, FixedKey::fingerprint(&k));
        }
        leaf.commit_bitmap(layout.full_bitmap());

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

        // Generic over the probe so each side is a direct, inlinable call.
        fn time(probes: &[u64], reps: usize, probe: impl Fn(&u64) -> Option<usize>) -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t = Instant::now();
                for k in probes {
                    std::hint::black_box(probe(k));
                }
                best = best.min(t.elapsed().as_secs_f64());
            }
            probes.len() as f64 / best / 1e6
        }
        let swar = time(&probes, reps, |k| leaf.find_slot::<FixedKey>(k));
        let scalar = time(&probes, reps, |k| leaf.find_slot_scalar::<FixedKey>(k));
        speedups.push(swar / scalar);
        report.push(
            Row::new(format!("m={m}"))
                .field("swar_Mops", swar)
                .field("scalar_Mops", scalar)
                .field("speedup", swar / scalar),
        );
    }
    let geo = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    report.push(Row::new("overall").field("swar_speedup", geo));
    report.emit(out);
}

/// Charged SCM read lines per probe after the accounting fix: the linear
/// (no-fingerprint) path charges the one-pass key scan, not the scan plus
/// a second per-slot touch; a fingerprint hit additionally charges only
/// the matched slot.
fn charged_lines(out: Option<&str>) {
    type Probe = for<'a, 'b> fn(&'a Leaf<'b>, &u64) -> Option<usize>;
    const SWAR: Probe = |leaf, k| leaf.find_slot::<FixedKey>(k);
    const SCALAR: Probe = |leaf, k| leaf.find_slot_scalar::<FixedKey>(k);
    let mut report = Report::new(
        "fig4_charged_lines",
        "charged SCM read lines per probe (hit vs miss)",
    );
    let lines_for = |cfg: &TreeConfig, probe: Probe, label: &str, report: &mut Report| {
        let pool = PmemPool::create(PoolOptions::direct(1 << 20)).unwrap();
        let layout = LeafLayout::new(cfg, FixedKey::SLOT_SIZE);
        let off = pool.allocate(ROOT_SLOT, layout.size).unwrap();
        pool.write_bytes(off, &vec![0u8; layout.size]);
        let leaf = Leaf::new(&pool, &layout, off);
        let keys: Vec<u64> = (0..cfg.leaf_capacity as u64).map(|i| i * 977 + 3).collect();
        for (slot, &k) in keys.iter().enumerate() {
            FixedKey::write_slot(&pool, leaf.key_off(slot), &k);
            leaf.set_value(slot, k);
            if cfg.fingerprints {
                leaf.set_fingerprint(slot, FixedKey::fingerprint(&k));
            }
        }
        leaf.commit_bitmap(layout.full_bitmap());
        pool.stats().reset();
        for k in &keys {
            assert!(probe(&leaf, k).is_some());
        }
        let hit = pool.stats().snapshot().read_lines as f64 / keys.len() as f64;
        pool.stats().reset();
        for k in &keys {
            assert!(probe(&leaf, &(k | 1 << 63)).is_none());
        }
        let miss = pool.stats().snapshot().read_lines as f64 / keys.len() as f64;
        report.push(
            Row::new(label)
                .field("lines/hit", hit)
                .field("lines/miss", miss),
        );
    };
    let m = 32usize;
    let fp = TreeConfig {
        leaf_capacity: m,
        ..TreeConfig::fptree()
    };
    lines_for(&fp, SWAR, "fingerprint(swar)", &mut report);
    lines_for(&fp, SCALAR, "fingerprint(scalar)", &mut report);
    lines_for(
        &TreeConfig {
            leaf_capacity: m,
            fingerprints: false,
            split_arrays: false,
            ..TreeConfig::ptree()
        },
        SWAR,
        "linear(interleaved)",
        &mut report,
    );
    report.emit(out);
}

/// Empirical per-key probe count: fill leaves with random keys, search each
/// stored key, count fingerprint-filtered probes.
fn simulate(m: usize, trials: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(4);
    let mut probes = 0u64;
    let mut searches = 0u64;
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
            searches += 1;
        }
    }
    probes as f64 / searches as f64
}
