//! Every `fptree-figures` target runs end to end at smoke scale.

use std::collections::HashSet;
use std::fs;

use fptree_bench::{run_target, Scale, Stamp, TARGETS};

#[test]
fn every_target_runs_at_smoke_scale() {
    let dir = std::env::temp_dir().join(format!("fptree-figures-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let stamp = Stamp::here();
    for (name, figure) in TARGETS {
        let jsonl = dir.join(format!("{name}.jsonl"));
        // A rerun must replace a target's rows, not append to them.
        fs::write(&jsonl, "{\"stale\":true}\n").unwrap();
        let reports = run_target(name, figure, Scale { smoke: true }, &stamp, &dir).unwrap();

        let mut coordinates = HashSet::new();
        for r in &reports {
            assert!(!r.rows().is_empty(), "{name}: {} has no rows", r.experiment);
            for row in r.rows() {
                assert!(
                    coordinates.insert((r.experiment.clone(), row.label.clone())),
                    "{name}: ({}, {}) is not unique",
                    r.experiment,
                    row.label
                );
                for (field, v) in &row.fields {
                    assert!(
                        v.is_finite(),
                        "{name}: {} {} {field} = {v}",
                        r.experiment,
                        row.label
                    );
                }
            }
        }
        let written = fs::read_to_string(&jsonl).unwrap();
        let mut lines = written.lines();
        let first = lines.next().unwrap();
        assert!(
            first.starts_with("{\"stamp\":") && first.contains("\"nproc\":"),
            "{first}"
        );
        assert_eq!(lines.count(), coordinates.len(), "{name}: one line per row");
        assert!(dir.join(format!("{name}.txt")).exists());

        if name == "fig7" {
            // Batched ingest must amortize: at 64 keys per commit the FPTree
            // issues at most half the persists per key it does at 1.
            let batch = reports
                .iter()
                .find(|r| r.experiment == "fig7_batch_fixed")
                .unwrap();
            let persists = |b: usize| {
                let row = batch.row(&format!("FPTree @90ns b{b}")).unwrap();
                row.get("persists_per_key").unwrap()
            };
            assert!(
                persists(1) >= 2.0 * persists(64),
                "persists/key: batch 1 {} vs batch 64 {}",
                persists(1),
                persists(64)
            );
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}
