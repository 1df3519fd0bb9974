//! `fptree-figures <target> [--smoke] [--out DIR]`
//!
//! Regenerates one paper table or figure (or `all` of them) into
//! `DIR/<target>.txt` and `DIR/<target>.jsonl` (default `DIR`: `results`),
//! printing the tables as it goes. `--smoke` runs at a small scale.

use std::path::PathBuf;
use std::time::Instant;

use fptree_bench::{run_target, Scale, Stamp, TARGETS};

fn usage() -> ! {
    let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: fptree-figures <{}|all> [--smoke] [--out DIR]",
        names.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let mut target = None;
    let mut scale = Scale { smoke: false };
    let mut out = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => scale.smoke = true,
            "--out" => out = args.next().map(PathBuf::from).unwrap_or_else(|| usage()),
            name if target.is_none()
                && (name == "all" || TARGETS.iter().any(|(t, _)| *t == name)) =>
            {
                target = Some(arg.clone())
            }
            _ => usage(),
        }
    }
    let target = target.unwrap_or_else(|| usage());
    let stamp = Stamp::here();
    for (name, figure) in TARGETS {
        if target != "all" && target != name {
            continue;
        }
        let start = Instant::now();
        match run_target(name, figure, scale, &stamp, &out) {
            Ok(reports) => reports.iter().for_each(|r| print!("{}", r.render())),
            Err(e) => {
                eprintln!("fptree-figures: writing {name} to {}: {e}", out.display());
                std::process::exit(1);
            }
        }
        eprintln!("{name}: {:.1} s", start.elapsed().as_secs_f64());
    }
}
