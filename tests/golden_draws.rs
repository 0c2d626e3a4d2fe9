//! Golden-file regression for the seeded families: every seed-derived
//! draw of [`FamilySpec::build_csr`] in a fixed grid is pinned by a digest
//! of its edge list, compared line for line against a checked-in table.
//!
//! The in-crate tests that compare `build_csr` with the public seeded
//! constructors (`generators::random_tree`, `generators::gnp_connected`)
//! cannot catch a changed draw: both sides run the same edge stream, so
//! an edit that moved one coin flip would move both. This table was
//! generated once and does not move with the code. The golden campaign
//! corpus pins `gnp` only at n = 6 and 24, and only through run
//! statistics.
//!
//! To regenerate after an *intentional* change to a seeded stream:
//! `UPDATE_GOLDEN=1 cargo test --test golden_draws` — then review the
//! table diff like any other code change.

use radio_graph::{Csr, FamilySpec};
use radio_util::rng::splitmix64;

const DRAWS_TABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/family_draws.tsv");

/// Every seeded family, with `gnp` at its size-adaptive default and at
/// both ends of the density range.
const SPECS: [&str; 7] = [
    "random-tree",
    "gnp",
    "gnp:0",
    "gnp:0.25",
    "gnp:1",
    "random-connected:3",
    "random-caterpillar:4+6",
];

/// The size axis; each spec keeps the sizes it accepts (a pinned spec
/// builds at its own node count instead).
const SIZES: [usize; 7] = [1, 2, 3, 9, 32, 128, 256];

const SEEDS: [u64; 3] = [0, 77, 0xFEED];

/// A `splitmix64` fold over `n`, `m` and the sorted edge list.
fn digest(g: &Csr) -> u64 {
    let mut h = splitmix64(g.node_count() as u64);
    h = splitmix64(h ^ g.edge_count() as u64);
    for (u, v) in g.edges() {
        h = splitmix64(h ^ (u64::from(u) << 32 | u64::from(v)));
    }
    h
}

/// One `spec n seed digest` line per draw of the grid, tab-separated.
fn draw_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for spec in SPECS {
        let family: FamilySpec = spec.parse().unwrap();
        for n in family.sizes_for(&SIZES) {
            if family.check_size(n).is_err() {
                continue;
            }
            for seed in SEEDS {
                let g = family.build_csr(n, seed).unwrap();
                rows.push(format!("{spec}\t{n}\t{seed}\t{:016x}", digest(&g)));
            }
        }
    }
    rows
}

#[test]
fn seeded_draws_match_the_checked_in_table() {
    let rows = draw_rows();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut body = rows.join("\n");
        body.push('\n');
        std::fs::write(DRAWS_TABLE, body).expect("write table");
        eprintln!("regenerated {DRAWS_TABLE} — review the diff before committing");
        return;
    }
    let table = std::fs::read_to_string(DRAWS_TABLE)
        .unwrap_or_else(|e| panic!("missing table {DRAWS_TABLE} ({e}); run with UPDATE_GOLDEN=1"));
    let expected: Vec<&str> = table.lines().collect();
    for (got, want) in rows.iter().zip(&expected) {
        assert_eq!(got, want, "a seeded draw drifted from {DRAWS_TABLE}");
    }
    assert_eq!(
        rows.len(),
        expected.len(),
        "row count drifted from {DRAWS_TABLE}"
    );
}

#[test]
fn the_draw_grid_has_the_expected_shape() {
    // a guard on the guard: every spec keeps its sizes, so the table
    // cannot quietly narrow
    let rows = draw_rows();
    assert_eq!(
        rows.len(),
        3 * (5 * SIZES.len() + 4 + 1),
        "5 specs at every size, random-connected:3 at n ≥ 4, the caterpillar \
         at its pinned 10, × 3 seeds"
    );
    for spec in SPECS {
        let prefix = format!("{spec}\t");
        assert!(rows.iter().any(|r| r.starts_with(&prefix)), "{spec}");
    }
}
