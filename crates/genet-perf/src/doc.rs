//! Parsing `BENCH_<figure>.json` into a typed document.
//!
//! Accepts both schema versions: `genet-bench-perf-v1` (no `stages`
//! object) and the current additive `genet-bench-perf-v2`. Unknown future
//! fields are ignored, so v2 consumers keep working on later additive
//! schemas too.

use genet_telemetry::json::{parse, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;

/// One aggregated span-tree node (a `phases[]` element).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Canonical slash-separated path (`train/sequencing/round-*`).
    pub path: String,
    /// Span instances aggregated here.
    pub calls: u64,
    /// Subtree wall-clock nanoseconds.
    pub total_nanos: u64,
    /// Total minus children.
    pub self_nanos: u64,
}

/// Worker-level utilization of one parallel stage (a `stages` entry).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageRow {
    /// Items processed across all batches.
    pub items: u64,
    /// Parallel batches aggregated.
    pub batches: u64,
    /// Max worker count any batch used.
    pub max_workers: u64,
    /// Summed busy time across workers and batches.
    pub busy_nanos: u64,
    /// Per-worker busy nanoseconds, worker-index order.
    pub worker_busy_ns: Vec<u64>,
    /// Per-worker item counts, worker-index order.
    pub worker_items: Vec<u64>,
    /// Busy-time imbalance (max/mean; 1.0 is perfectly balanced).
    pub imbalance: f64,
    /// Items per second of summed busy time (0 when untimed).
    pub items_per_sec: f64,
}

/// A parsed `BENCH_<figure>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Schema tag (`genet-bench-perf-v1` or `-v2`).
    pub schema: String,
    /// Figure binary name (`fig09_asymptotic`).
    pub figure: String,
    /// Master seed of the run.
    pub seed: u64,
    /// `quick` or `full`.
    pub mode: String,
    /// Resolved worker-thread count.
    pub threads: u64,
    /// Total run wall-clock in milliseconds.
    pub wall_ms: f64,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Per-stage worker utilization (empty for v1 files).
    pub stages: BTreeMap<String, StageRow>,
    /// The aggregated span tree, pre-order.
    pub phases: Vec<PhaseRow>,
}

fn get_str(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing/invalid string field {key:?}"))
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing/invalid integer field {key:?}"))
}

fn get_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing/invalid number field {key:?}"))
}

impl BenchDoc {
    /// Parses one BENCH json document (schema v1 or v2).
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let v = parse(text.trim())?;
        let schema = get_str(&v, "schema")?;
        if schema != "genet-bench-perf-v1" && schema != "genet-bench-perf-v2" {
            return Err(format!("unsupported schema {schema:?}"));
        }
        let mut counters = BTreeMap::new();
        if let Some(JsonValue::Obj(fields)) = v.get("counters") {
            for (k, cv) in fields {
                counters.insert(
                    k.clone(),
                    cv.as_u64()
                        .ok_or_else(|| format!("counter {k:?} is not an integer"))?,
                );
            }
        }
        let mut stages = BTreeMap::new();
        if let Some(JsonValue::Obj(fields)) = v.get("stages") {
            for (name, sv) in fields {
                stages.insert(
                    name.clone(),
                    StageRow {
                        items: get_u64(sv, "items")?,
                        batches: get_u64(sv, "batches")?,
                        max_workers: get_u64(sv, "max_workers")?,
                        busy_nanos: get_u64(sv, "busy_nanos")?,
                        worker_busy_ns: sv
                            .get("worker_busy_ns")
                            .and_then(JsonValue::as_u64_array)
                            .unwrap_or_default(),
                        worker_items: sv
                            .get("worker_items")
                            .and_then(JsonValue::as_u64_array)
                            .unwrap_or_default(),
                        imbalance: get_f64(sv, "imbalance")?,
                        items_per_sec: get_f64(sv, "items_per_sec")?,
                    },
                );
            }
        }
        let mut phases = Vec::new();
        if let Some(JsonValue::Arr(items)) = v.get("phases") {
            for pv in items {
                phases.push(PhaseRow {
                    path: get_str(pv, "path")?,
                    calls: get_u64(pv, "calls")?,
                    total_nanos: get_u64(pv, "total_nanos")?,
                    self_nanos: get_u64(pv, "self_nanos")?,
                });
            }
        }
        Ok(BenchDoc {
            schema,
            figure: get_str(&v, "figure")?,
            seed: get_u64(&v, "seed")?,
            mode: get_str(&v, "mode")?,
            threads: get_u64(&v, "threads")?,
            wall_ms: get_f64(&v, "wall_ms")?,
            counters,
            stages,
            phases,
        })
    }

    /// Reads and parses a BENCH json file.
    pub fn load(path: &Path) -> Result<BenchDoc, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Looks a phase up by canonical path.
    pub fn phase(&self, path: &str) -> Option<&PhaseRow> {
        self.phases.iter().find(|p| p.path == path)
    }
}

/// Wall-clock milliseconds to integer nanoseconds, for `(wall)` pseudo-span
/// rows. Negative or non-finite inputs clamp to zero; values beyond `u64`
/// saturate (the cast is safe at any realistic run length).
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub fn ms_to_nanos(ms: f64) -> u64 {
    if ms.is_finite() && ms > 0.0 {
        (ms * 1e6).round() as u64
    } else {
        0
    }
}

/// A handcrafted v1 document (the pre-`stages` schema) for tests.
#[cfg(test)]
pub fn sample_v1() -> &'static str {
    r#"{"schema":"genet-bench-perf-v1","figure":"fig04","seed":42,"mode":"quick","threads":4,"wall_ms":1234.5,"counters":{"episodes":12},"phases":[{"path":"train","calls":1,"total_nanos":1000,"self_nanos":400},{"path":"train/rollout","calls":5,"total_nanos":600,"self_nanos":600}]}"#
}

/// A handcrafted v2 document with one stage, for tests.
#[cfg(test)]
pub fn sample_v2() -> &'static str {
    r#"{"schema":"genet-bench-perf-v2","figure":"fig04","seed":42,"mode":"quick","threads":4,"wall_ms":1234.5,"counters":{"episodes":12,"eval_envs":16},"stages":{"eval/policy":{"items":16,"batches":2,"max_workers":4,"busy_nanos":40,"worker_busy_ns":[10,10,10,10],"worker_items":[4,4,4,4],"imbalance":1.0,"items_per_sec":400000000.0}},"phases":[{"path":"train","calls":1,"total_nanos":1000,"self_nanos":400},{"path":"train/rollout","calls":5,"total_nanos":600,"self_nanos":600}]}"#
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_v1_without_stages() {
        let doc = BenchDoc::parse(sample_v1()).unwrap();
        assert_eq!(doc.schema, "genet-bench-perf-v1");
        assert_eq!(doc.figure, "fig04");
        assert_eq!(doc.seed, 42);
        assert_eq!(doc.mode, "quick");
        assert_eq!(doc.threads, 4);
        assert!((doc.wall_ms - 1234.5).abs() < 1e-9);
        assert_eq!(doc.counters["episodes"], 12);
        assert!(doc.stages.is_empty());
        assert_eq!(doc.phases.len(), 2);
        assert_eq!(doc.phase("train/rollout").unwrap().total_nanos, 600);
    }

    #[test]
    fn parses_v2_with_stages() {
        let doc = BenchDoc::parse(sample_v2()).unwrap();
        assert_eq!(doc.schema, "genet-bench-perf-v2");
        let stage = &doc.stages["eval/policy"];
        assert_eq!(stage.items, 16);
        assert_eq!(stage.max_workers, 4);
        assert_eq!(stage.worker_busy_ns, vec![10, 10, 10, 10]);
        assert!((stage.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_unknown_schema_and_garbage() {
        assert!(BenchDoc::parse(r#"{"schema":"genet-bench-perf-v99"}"#).is_err());
        assert!(BenchDoc::parse("not json").is_err());
        assert!(BenchDoc::parse(r#"{"figure":"x"}"#).is_err());
    }
}
