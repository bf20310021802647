//! DESIGN.md §3 indexes every experiment binary: each
//! `crates/experiments/src/bin/<id>.rs` is named as `bin/<id>` in the table's
//! "Regenerating target" column, and every `bin/<id>` named there exists.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const COLUMN: &str = "Regenerating target";

/// The `bin/<id>` names in §3's "Regenerating target" column.
fn indexed_bins(design: &str) -> BTreeSet<String> {
    let section =
        design.split("\n## ").find(|s| s.starts_with("3. ")).expect("DESIGN.md has a section 3");
    let mut rows = section
        .lines()
        .filter(|l| l.starts_with('|'))
        .map(|l| l.trim().trim_matches('|').split('|').map(str::trim).collect::<Vec<_>>());
    let header = rows.next().expect("section 3 has a table");
    let column = header.iter().position(|c| *c == COLUMN).expect("a Regenerating target column");
    let mut bins = BTreeSet::new();
    for row in rows.skip(1) {
        assert_eq!(row.len(), header.len(), "malformed row in DESIGN.md §3: {row:?}");
        for (i, _) in row[column].match_indices("bin/") {
            let id: String = row[column][i + 4..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            bins.insert(id);
        }
    }
    bins
}

/// The binaries `crates/experiments/src/bin/` builds.
fn built_bins(root: &Path) -> BTreeSet<String> {
    fs::read_dir(root.join("crates/experiments/src/bin"))
        .expect("crates/experiments/src/bin")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().expect("file stem").to_string_lossy().into_owned())
        .collect()
}

#[test]
fn design_index_names_every_experiment_bin_and_no_other() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let indexed = indexed_bins(&design);
    let built = built_bins(root);
    assert!(!built.is_empty(), "no experiment binaries found");
    let unindexed: Vec<_> = built.difference(&indexed).collect();
    let missing: Vec<_> = indexed.difference(&built).collect();
    assert!(unindexed.is_empty(), "bins with no DESIGN.md §3 row: {unindexed:?}");
    assert!(missing.is_empty(), "DESIGN.md §3 names bins that do not exist: {missing:?}");
}
