//! Pins the ARCHITECTURE.md metric inventory to `/v1/metrics`: every
//! family a store-backed server's `metrics_text()` renders must have
//! exactly one `| `name` | type |` row, and the inventory must not list a
//! family it does not render. A metric added to the walk cannot ship
//! without its row, and a renamed or removed one cannot leave a stale row.
//! The "(the N layers)" and "(the N route classes)" cells must count the
//! `layer` and `route` label values the same body renders.

use adds_serve::server::{ServeOptions, Server};
use std::collections::{BTreeMap, BTreeSet};

/// The inventory's table rows, header and rule skipped.
fn inventory_rows() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ARCHITECTURE.md");
    let doc = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let (_, rest) = doc
        .split_once("**Metric inventory.**")
        .expect("ARCHITECTURE.md has a metric inventory");
    rest.lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2) // header and rule
        .map(String::from)
        .collect()
}

/// The inventory's `(name, type)` rows, in order.
fn inventory() -> Vec<(String, String)> {
    inventory_rows()
        .iter()
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            (cells[1].trim_matches('`').to_string(), cells[2].to_string())
        })
        .collect()
}

/// A fresh store-backed server's `/v1/metrics` body.
fn metrics_text(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("adds_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeOptions::default()
    };
    let text = Server::bind(&opts).expect("bind").state().metrics_text();
    let _ = std::fs::remove_dir_all(&dir);
    text
}

/// Every family's type, from the `# TYPE` lines of a fresh store-backed
/// server's `/v1/metrics` body.
fn rendered(tag: &str) -> BTreeMap<String, String> {
    metrics_text(tag)
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|decl| {
            let (name, kind) = decl.split_once(' ').expect("# TYPE name kind");
            (name.to_string(), kind.to_string())
        })
        .collect()
}

#[test]
fn every_rendered_family_has_one_inventory_row() {
    let rows = inventory();
    for (name, kind) in rendered("docs_rows") {
        let found: Vec<&String> = rows
            .iter()
            .filter(|(row, _)| *row == name)
            .map(|(_, kind)| kind)
            .collect();
        assert_eq!(
            found,
            [&kind],
            "ARCHITECTURE.md needs exactly one `| `{name}` | {kind} |` row"
        );
    }
}

#[test]
fn inventory_lists_no_family_that_is_not_rendered() {
    let rendered = rendered("docs_stale");
    for (name, _) in inventory() {
        assert!(
            rendered.contains_key(&name),
            "ARCHITECTURE.md lists `{name}`, which /v1/metrics does not render"
        );
    }
}

#[test]
fn inventory_counts_the_rendered_label_values() {
    let text = metrics_text("docs_counts");
    let rows = inventory_rows();
    for (label, noun) in [("layer", "layers"), ("route", "route classes")] {
        let key = format!("{label}=\"");
        let values: BTreeSet<&str> = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| line.split_once(key.as_str())?.1.split('"').next())
            .collect();
        let suffix = format!(" {noun})");
        let cells: Vec<&str> = rows
            .iter()
            .filter_map(|row| row.split("(the ").nth(1)?.split_once(suffix.as_str()))
            .map(|(count, _)| count)
            .collect();
        assert!(
            !cells.is_empty(),
            "no `(the N {noun})` cell in the inventory"
        );
        for count in cells {
            assert_eq!(
                count,
                values.len().to_string(),
                "the inventory's `(the {count} {noun})` against {values:?}"
            );
        }
    }
}
