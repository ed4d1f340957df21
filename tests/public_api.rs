//! Public-API snapshot guard for the driver surface and for the core
//! session surface underneath it.
//!
//! The tests scrape every public item declaration out of `src/driver.rs`
//! (snapshot `tests/snapshots/driver_api.txt`) and out of
//! `crates/core/src/{session,engine,exec,storage}.rs` (snapshot
//! `tests/snapshots/core_session_api.txt`), and out of the MAL layer's
//! program, interpreter, optimizer and primitive-library modules
//! (snapshot `tests/snapshots/mal_api.txt`, which also covers the entry
//! points the out-of-workspace `benchmark/` crate calls), and compare
//! the normalized lists against the committed snapshots. A future PR that renames,
//! removes or re-types a public item fails here and must consciously
//! update the snapshot (regenerate with
//! `UPDATE_API_SNAPSHOT=1 cargo test --test public_api`).

use std::fmt::Write as _;
use std::path::PathBuf;

/// Extract normalized public item signatures from a Rust source file:
/// `pub fn/struct/enum/trait/type` declarations (and exported macros),
/// captured up to the opening brace or semicolon, whitespace-collapsed,
/// plus each `pub` field of a `pub struct` as
/// `pub struct Name { pub field: Type }`.
fn public_items(source: &str) -> Vec<String> {
    const STARTERS: &[&str] = &[
        "pub fn ",
        "pub struct ",
        "pub enum ",
        "pub trait ",
        "pub type ",
    ];
    let mut items = Vec::new();
    let mut capture: Option<String> = None;
    // A macro is public only under `#[macro_export]`.
    let mut exported = false;
    // The struct whose body the scan is in, when that struct is public.
    let mut public_struct: Option<&str> = None;
    for raw in source.lines() {
        let line = raw.trim();
        match line.split_once("struct ") {
            Some((head, rest)) if head.is_empty() || head.starts_with("pub") => {
                public_struct = (head == "pub ")
                    .then(|| {
                        rest.split(|c: char| !c.is_alphanumeric() && c != '_')
                            .next()
                    })
                    .flatten();
            }
            _ => {}
        }
        if let (None, Some(name), Some((field, ty))) = (
            &capture,
            public_struct,
            line.strip_prefix("pub ").and_then(|f| f.split_once(':')),
        ) {
            if field.chars().all(|c| c.is_alphanumeric() || c == '_') {
                let ty = ty.trim().trim_end_matches(',');
                items.push(format!("pub struct {name} {{ pub {field}: {ty} }}"));
                continue;
            }
        }
        if capture.is_none()
            && (STARTERS.iter().any(|s| line.starts_with(s))
                || (exported && line.starts_with("macro_rules! ")))
        {
            capture = Some(String::new());
        }
        exported = line == "#[macro_export]";
        if let Some(buf) = capture.as_mut() {
            buf.push_str(line);
            buf.push(' ');
            if line.contains('{') || line.contains(';') {
                let sig = buf
                    .split(['{', ';'])
                    .next()
                    .unwrap_or_default()
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .join(" ");
                items.push(sig);
                capture = None;
            }
        }
    }
    items.sort();
    items
}

/// Scrape `sources` (repo-relative) and compare against `snapshot`.
fn check_snapshot(title: &str, sources: &[&str], snapshot: &str) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut items = Vec::new();
    for rel in sources {
        let source =
            std::fs::read_to_string(root.join(rel)).unwrap_or_else(|_| panic!("read {rel}"));
        items.extend(public_items(&source));
    }
    items.sort();
    let mut generated = String::new();
    writeln!(
        generated,
        "# Public items of {title} (generated — see tests/public_api.rs)"
    )
    .unwrap();
    for item in items {
        writeln!(generated, "{item}").unwrap();
    }
    let snap_path = root.join("tests/snapshots").join(snapshot);
    if std::env::var_os("UPDATE_API_SNAPSHOT").is_some() {
        std::fs::create_dir_all(snap_path.parent().unwrap()).unwrap();
        std::fs::write(&snap_path, &generated).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&snap_path).unwrap_or_else(|_| {
        panic!(
            "missing snapshot {}; generate it with UPDATE_API_SNAPSHOT=1 cargo test --test public_api",
            snap_path.display()
        )
    });
    assert_eq!(
        committed, generated,
        "the public API of {title} changed; if intentional, regenerate the snapshot with \
         UPDATE_API_SNAPSHOT=1 cargo test --test public_api"
    );
}

#[test]
fn driver_public_api_matches_snapshot() {
    check_snapshot("sciql_repro::driver", &["src/driver.rs"], "driver_api.txt");
}

/// The statement entry points underneath the driver: `Connection`,
/// `SharedEngine` / `EngineSession`, the shared executor, and the store
/// structs whose fields the out-of-workspace `benchmark/` crate reads.
#[test]
fn core_session_api_matches_snapshot() {
    check_snapshot(
        "sciql::{session, engine, exec}",
        &[
            "crates/core/src/session.rs",
            "crates/core/src/engine.rs",
            "crates/core/src/exec.rs",
            "crates/core/src/storage.rs",
        ],
        "core_session_api.txt",
    );
}

/// The MAL layer: program representation, interpreter, optimizer entry
/// points and the primitive library.
#[test]
fn mal_api_matches_snapshot() {
    check_snapshot(
        "mal::{ir, interp, opt, registry, prims}",
        &[
            "crates/mal/src/ir.rs",
            "crates/mal/src/interp.rs",
            "crates/mal/src/opt.rs",
            "crates/mal/src/registry.rs",
            "crates/mal/src/prims/mod.rs",
        ],
        "mal_api.txt",
    );
}

#[test]
fn scraper_sees_the_core_surface() {
    // Guard the guard: if the scraper silently broke, the snapshot would
    // degenerate to an empty list and stop protecting anything.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(root.join("src/driver.rs")).unwrap();
    let items = public_items(&source);
    for needle in [
        "pub fn connect(url: &str) -> Result<Conn>",
        "pub struct Conn",
        "pub struct Statement",
        "pub struct Rows",
        "pub trait FromSql: Sized",
        "pub enum SciqlError",
    ] {
        assert!(
            items.iter().any(|i| i.starts_with(needle)),
            "scraper lost {needle:?}; items: {items:#?}"
        );
    }
    assert!(items.len() >= 40, "suspiciously few items: {}", items.len());
    // The store fields `benchmark/` reads are part of the guarded surface.
    let source = std::fs::read_to_string(root.join("crates/core/src/storage.rs")).unwrap();
    let items = public_items(&source);
    for needle in [
        "pub struct ArrayStore { pub dims: Vec<Arc<Bat>> }",
        "pub struct ArrayStore { pub attrs: Vec<Arc<Bat>> }",
    ] {
        assert!(
            items.iter().any(|i| i == needle),
            "scraper lost {needle:?}; items: {items:#?}"
        );
    }
}
