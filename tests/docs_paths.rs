//! The documents name files that exist: every file name written as inline
//! code in README.md, DESIGN.md and EXPERIMENTS.md resolves to a file in
//! the workspace. A name with a directory resolves as a path suffix, a bare
//! name (`node.rs`) as a file name anywhere; a `:line` suffix is ignored.

use std::collections::HashSet;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const EXTENSIONS: [&str; 9] = [
    "rs", "md", "toml", "json", "jsonl", "csv", "yml", "lock", "sh",
];

/// Every file under `dir`, as a `/`-separated path relative to the root,
/// skipping build output and version-control metadata.
fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let entry = entry.expect("directory entry");
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                walk(root, &path, out);
            }
        } else {
            let rel = path.strip_prefix(root).expect("under the root");
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// Inline code spans outside fenced blocks that look like file names.
fn named_files(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            let name = span.split(':').next().unwrap_or_default();
            let plain = name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_-./".contains(c));
            let ext = name.rsplit_once('.').map(|(_, e)| e);
            if plain && ext.is_some_and(|e| EXTENSIONS.contains(&e)) && !name.starts_with('.') {
                names.push(name.to_string());
            }
        }
    }
    names
}

#[test]
fn documented_file_names_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(root, root, &mut files);
    let bare: HashSet<&str> = files
        .iter()
        .map(|f| f.rsplit('/').next().unwrap_or(f))
        .collect();
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("document");
        for name in named_files(&text) {
            let found = if name.contains('/') {
                let name = name.trim_start_matches("./");
                files
                    .iter()
                    .any(|f| f == name || f.ends_with(&format!("/{name}")))
            } else {
                bare.contains(name.as_str())
            };
            if !found {
                missing.push(format!("{doc}: `{name}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "documents name files that do not exist:\n{}",
        missing.join("\n")
    );
}
