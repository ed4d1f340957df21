//! The names this benchmark prints: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `../BENCHMARK.json` is the
//! same table for the driver; a unit test keeps the two in step.

/// Seconds one timed pass measures when `--seconds` is not given
/// (equals `run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// One workload: its name and the one-sentence reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "array-update",
        why: "Fig-1 guarded + sparse UPDATE, in-place image invert and a Life step, embedded: CASE evaluation, dimension BATs, copy-on-write and dirt tracking do the work; parser, net and store idle.",
    },
    WorkloadSpec {
        name: "array-query",
        why: "Read-only scans, group sum, Fig-1(e) tiling and 8192 point statements (half plan-cache hits), embedded: exposes the gdk::par dispatch floor and makes parser/algebra/mal.opt a third of the round.",
    },
    WorkloadSpec {
        name: "tcp-stream",
        why: "64k- and 4k-row selects, prepared scalars and a pipelined batch over loopback tcp: result-page encode, Wire flush and frame decode dominate; kernels only do a zone-skipped projection.",
    },
    WorkloadSpec {
        name: "durable-write",
        why: "COPY frames, prepared cell UPDATEs, windowed reads and routed read-back on a file: vault over tcp with group commit and one replica, 2 clients: engine mutex, WAL, fsync, checkpoint, ship+apply.",
    },
];

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// relative worsening that counts as a regression.
pub struct E2eSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: &[E2eSpec] = &[
    E2eSpec {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    E2eSpec {
        name: "round_p50_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.24,
    },
    E2eSpec {
        name: "rounds_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.24,
    },
    E2eSpec {
        name: "recover_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.20,
    },
    E2eSpec {
        name: "space_amp",
        unit: "ratio",
        lower_is_better: true,
        bound: 0.02,
    },
];

/// A per-layer metric: name, unit, direction. No bound.
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// A count that must repeat exactly between runs of one seed.
    pub exact: bool,
}

const fn measure(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        lower_is_better: true,
        exact: false,
    }
}

const fn count(name: &'static str, lower_is_better: bool) -> LayerSpec {
    LayerSpec {
        name,
        unit: "count",
        lower_is_better,
        exact: true,
    }
}

/// A count other threads feed while it is read (server sessions, the
/// replica's periodic acks, two racing writers): it can be off by a
/// frame or a batch between runs.
const fn loose_count(name: &'static str, lower_is_better: bool) -> LayerSpec {
    LayerSpec {
        name,
        unit: "count",
        lower_is_better,
        exact: false,
    }
}

/// Times are per traced round (median over the traced rounds) unless the
/// README says per call; counts are totals over the traced pass.
pub const PER_LAYER: &[LayerSpec] = &[
    measure("driver.overhead_us", "us"),
    measure("parser.parse_us", "us"),
    measure("algebra.bind_us", "us"),
    measure("algebra.codegen_us", "us"),
    measure("mal.opt_us", "us"),
    count("mal.instrs_removed", false),
    count("mal.fusions", false),
    measure("core.exec_us", "us"),
    count("core.tuples_produced", true),
    count("core.tiles_skipped", false),
    count("core.intermediates_avoided", false),
    count("core.plan_cache_hits", false),
    measure("gdk.kernel_us", "us"),
    measure("gdk.sql_over_kernel", "ratio"),
    measure("gdk.par_ratio", "ratio"),
    measure("core.result.encode_us", "us"),
    measure("core.result.decode_us", "us"),
    measure("core.result.bytes_per_row", "B"),
    measure("net.rtt_us", "us"),
    measure("net.wire_us", "us"),
    measure("net.tcp_over_embedded", "ratio"),
    loose_count("net.bytes_in", true),
    loose_count("net.bytes_out", true),
    measure("store.wal_append_us", "us"),
    measure("store.fsync_us", "us"),
    measure("store.checkpoint_ms", "ms"),
    measure("store.open_ms", "ms"),
    count("store.wal_appends", true),
    count("store.wal_fsyncs", true),
    count("store.tiles_rewritten", true),
    count("store.tiles_reused", false),
    measure("store.wal_bytes_per_user_byte", "ratio"),
    loose_count("core.commit.batch_mean", false),
    loose_count("core.commit.fsyncs_saved", false),
    measure("repl.apply_lag_ms", "ms"),
    count("repl.records_shipped", true),
    measure("ledger.planning_share", "ratio"),
    measure("ledger.kernel_share", "ratio"),
    measure("ledger.unattributed_share", "ratio"),
    measure("harness.trace_overhead", "ratio"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::str)
            .unwrap_or_else(|| panic!("{key} in {entry:?}"))
    }

    fn better(lower: bool) -> &'static str {
        if lower {
            "lower"
        } else {
            "higher"
        }
    }

    #[test]
    fn benchmark_json_has_exactly_the_contract_keys() {
        let j = benchmark_json();
        assert_eq!(
            j.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            j.get("run_seconds").and_then(Json::num),
            Some(RUN_SECONDS as f64)
        );
        let paths: Vec<&str> = j
            .get("paths")
            .unwrap()
            .items()
            .iter()
            .filter_map(Json::str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
        let command: Vec<&str> = j
            .get("command")
            .unwrap()
            .items()
            .iter()
            .filter_map(Json::str)
            .collect();
        assert!(command.contains(&"benchmark/Cargo.toml"));
        assert!(command
            .iter()
            .all(|a| !a.starts_with('/') && !a.contains("..")));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let j = benchmark_json();
        let listed = j.get("workloads").unwrap().items();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, w) in listed.iter().zip(WORKLOADS) {
            assert_eq!(entry.keys(), ["name", "why"]);
            assert_eq!(field(entry, "name"), w.name);
            assert_eq!(field(entry, "why"), w.why);
            assert!(w.why.chars().count() <= 200, "{}: why is too long", w.name);
            assert!(!w.why.contains('\n'));
        }
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let j = benchmark_json();
        let listed = j.get("end_to_end").unwrap().items();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, m) in listed.iter().zip(END_TO_END) {
            assert_eq!(entry.keys(), ["name", "unit", "better", "bound"]);
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), better(m.lower_is_better));
            assert_eq!(entry.get("bound").and_then(Json::num), Some(m.bound));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.lower_is_better),
            ("setup_s", "s", true)
        );
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let j = benchmark_json();
        let listed = j.get("per_layer").unwrap().items();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, m) in listed.iter().zip(PER_LAYER) {
            assert_eq!(entry.keys(), ["name", "unit", "better"]);
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), better(m.lower_is_better));
        }
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(!names[..i].contains(name), "{name} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }
}
