//! Golden EXPLAIN corpus: the full `explain()` text — logical plan,
//! generated MAL and optimised MAL — of about twenty statements at
//! optimizer levels 0 and 2, pinned byte for byte in
//! `tests/snapshots/explain_corpus.txt`.
//!
//! Together the statements emit every primitive family the code
//! generator and the optimizer produce: dimension binds and slices,
//! structural-grouping tiles (shift + accumulate at level 0, one
//! `tileagg` at level 2), the Fig 1 guarded
//! CASE, joins, value GROUP BY/HAVING, casts, LIKE, ORDER BY/LIMIT,
//! nil tests, scalar aggregates with candidate propagation and
//! select→project / select→aggregate fusion, and a prepared statement
//! with parameter slots. A change to MAL text, to a primitive's name or
//! to which pass fires shows up here as a diff.
//!
//! Regenerate with `UPDATE_API_SNAPSHOT=1 cargo test --test explain_corpus`.

use sciql::{Connection, SessionConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

#[path = "common/corpus.rs"]
mod corpus;
use corpus::{CORPUS, SCHEMA};

fn corpus_text() -> String {
    let mut out = String::from("# EXPLAIN corpus (generated — see tests/explain_corpus.rs)\n");
    for level in [0u8, 2] {
        let mut conn = Connection::with_config(SessionConfig {
            opt_level: level,
            ..SessionConfig::serial()
        });
        for ddl in SCHEMA {
            conn.execute(ddl).unwrap_or_else(|e| panic!("{ddl}: {e}"));
        }
        for (title, sql) in CORPUS {
            let text = conn
                .explain(sql)
                .unwrap_or_else(|e| panic!("{title}: {sql}: {e}"));
            writeln!(out, "\n=== opt {level} · {title}\n{text}").unwrap();
        }
    }
    out
}

#[test]
fn explain_text_matches_corpus() {
    let generated = corpus_text();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/explain_corpus.txt");
    if std::env::var_os("UPDATE_API_SNAPSHOT").is_some() {
        std::fs::write(&path, &generated).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing {}; generate it with UPDATE_API_SNAPSHOT=1 cargo test --test explain_corpus",
            path.display()
        )
    });
    assert_eq!(
        committed, generated,
        "EXPLAIN text changed; if intentional, regenerate with \
         UPDATE_API_SNAPSHOT=1 cargo test --test explain_corpus"
    );
}

/// Guard the guard: the corpus must keep exercising every primitive
/// family, or the snapshot silently stops covering one.
#[test]
fn corpus_covers_every_emitted_family() {
    let text = corpus_text();
    for needle in [
        "sql.bind(",
        "array.shift(",
        "array.tileagg(",
        "algebra.thetaselect(",
        "algebra.maskselect(",
        "algebra.projection(",
        "algebra.selectproject(",
        "algebra.joinn(",
        "algebra.crossproduct(",
        "algebra.sortperm(",
        "algebra.slice(",
        "batcalc.ifthenelse(",
        "batcalc.isnil(",
        "batcalc.like(",
        "batcalc.fill(",
        "batcalc.not(",
        "batcalc.and(",
        "batcalc.or(",
        "batcalc.neg(",
        "batcalc.abs(",
        "batcalc.mod(",
        "batcalc.dbl(",
        "batcalc.int(",
        "batcalc.str(",
        "group.group(",
        "group.subgroup(",
        "group.extents(",
        "aggr.subsum(",
        "aggr.subavg(",
        "aggr.subcount(",
        "aggr.submin(",
        "aggr.submax(",
        "aggr.sum(",
        "aggr.selectagg(",
        "bat.single(",
        "language.pass(",
        "?0",
    ] {
        assert!(text.contains(needle), "corpus lost {needle:?}");
    }
}
