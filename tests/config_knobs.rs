//! Pins the configuration surface: the `TSGB_*` environment variables
//! named in the code and scripts (`crates/`, `src/`, `tests/`,
//! `scripts/`) must be exactly the ones README's "Configuration" table
//! lists. A new knob cannot land undocumented, and a deleted one
//! cannot linger in the table. On the CLI side, `tsgbench` must reject
//! a flag its subcommand does not know rather than ignore it.

use std::collections::BTreeSet;
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Adds every `TSGB_*` name in `text` to `out`. A name ending in `_`
/// (the `TSGB_SERVE_*` form) is a prefix, not a knob.
fn collect_names(text: &str, out: &mut BTreeSet<String>) {
    let bytes = text.as_bytes();
    let in_name = |b: u8| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_';
    let mut from = 0;
    while let Some(off) = text[from..].find("TSGB_") {
        let start = from + off;
        let mut end = start + "TSGB_".len();
        while end < bytes.len() && in_name(bytes[end]) {
            end += 1;
        }
        from = end;
        let name = &text[start..end];
        if !name.ends_with('_') {
            out.insert(name.to_string());
        }
    }
}

fn collect_tree(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_tree(&path, out);
            }
        } else if matches!(path.extension().and_then(|e| e.to_str()), Some("rs" | "sh")) {
            let text = std::fs::read_to_string(&path).expect("readable source file");
            collect_names(&text, out);
        }
    }
}

/// The first-column names of the table under README's
/// `## Configuration` heading.
fn readme_table() -> BTreeSet<String> {
    let readme = std::fs::read_to_string(Path::new(ROOT).join("README.md")).expect("README.md");
    let section = readme
        .split("\n## Configuration\n")
        .nth(1)
        .expect("README has a `## Configuration` section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|cell| cell.split('`').next())
        .filter(|name| name.starts_with("TSGB_"))
        .map(String::from)
        .collect()
}

#[test]
fn readme_configuration_table_lists_exactly_the_knobs_in_use() {
    let mut used = BTreeSet::new();
    for dir in ["crates", "src", "tests", "scripts"] {
        collect_tree(&Path::new(ROOT).join(dir), &mut used);
    }
    let documented = readme_table();
    let undocumented: Vec<_> = used.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&used).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "named in code but missing from README's Configuration table: {undocumented:?}; \
         listed in the table but named nowhere in code: {stale:?}"
    );
}

#[test]
fn prefixes_are_not_knobs() {
    let mut names = BTreeSet::new();
    collect_names(
        "`TSGB_SERVE_*` and \"TSGB_\" are prefixes; TSGB_THREADS=4 and `TSGB_OBS_FILE` are",
        &mut names,
    );
    let want: BTreeSet<String> = ["TSGB_OBS_FILE", "TSGB_THREADS"].map(String::from).into();
    assert_eq!(names, want);
}

/// `tsgbench train` fails on a flag it does not know — a removed one
/// (`--ckpt-dtype`) or a misspelt one (`--epoch`) — and names it,
/// instead of ignoring it and training with the defaults.
#[test]
fn train_rejects_unknown_flags() {
    for (flag, value) in [("--ckpt-dtype", "f32"), ("--epoch", "5")] {
        let out =
            std::env::temp_dir().join(format!("tsgb-unknown-flag-{}{flag}", std::process::id()));
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_tsgbench"))
            .args(["train", "--out"])
            .arg(&out)
            .args([flag, value])
            .output()
            .expect("tsgbench runs");
        let _ = std::fs::remove_dir_all(&out);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "train accepted {flag} {value}");
        assert!(
            stderr.contains(flag),
            "the error does not name {flag}: {stderr}"
        );
    }
}
