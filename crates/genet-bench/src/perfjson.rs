//! Machine-readable per-run performance file: `BENCH_<figure>.json`.
//!
//! Whenever `--telemetry` is active, every figure binary drops one JSON
//! file next to its TSVs summarizing where the wall-clock went: total run
//! time, the aggregated span tree (total/self nanoseconds and call counts
//! per canonical phase path), counter totals, per-stage worker utilization
//! (items, per-worker busy time, imbalance, throughput), and the run
//! coordinates (seed, quick/full mode, configured worker-thread count).
//! CI's perf-smoke job parses it; `genet-perf` reports, diffs, archives and
//! gates it across commits. The schema (`genet-bench-perf-v2`, a strict
//! additive extension of v1) is documented in DESIGN.md §12.
//!
//! Like every collector, the sink only *observes*: results stay
//! bit-identical with or without it (`telemetry_transparency`).

use genet::prelude::{Collector, Event};
use genet::telemetry::json::ObjWriter;
use genet::telemetry::{SpanTree, StageAgg};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Format version of `BENCH_<figure>.json`. v2 adds the `stages` object
/// (worker-level utilization per parallel stage); every v1 field is
/// unchanged, so v1 consumers keep working on v2 files.
pub const BENCH_JSON_SCHEMA: &str = "genet-bench-perf-v2";

#[derive(Default)]
struct State {
    spans: SpanTree,
    counters: BTreeMap<&'static str, u64>,
    stages: BTreeMap<String, StageAgg>,
    finished: bool,
}

/// Collector that accumulates spans/counters/stage utilization and writes
/// `BENCH_<figure>.json` when finished (or dropped).
pub struct BenchJsonSink {
    path: PathBuf,
    figure: String,
    seed: u64,
    full: bool,
    started: Instant,
    state: Mutex<State>,
}

impl BenchJsonSink {
    /// A sink that will write `BENCH_<figure>.json` into `dir`.
    pub fn new(dir: &Path, figure: &str, seed: u64, full: bool) -> Self {
        Self {
            path: dir.join(format!("BENCH_{figure}.json")),
            figure: figure.to_string(),
            seed,
            full,
            // genet-lint: allow(wall-clock-in-result-path) observation-only perf file; results never read it
            started: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// Where the JSON file will be written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Serializes the accumulated profile (also the Drop path, idempotent).
    pub fn finish(&self) {
        // genet-lint: allow(panic-in-library) mutex-poisoning check; crash-fast like every telemetry sink
        let mut st = self.state.lock().unwrap();
        if st.finished {
            return;
        }
        st.finished = true;
        let wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let json = render(
            &self.figure,
            self.seed,
            self.full,
            wall_ms,
            &st.counters,
            &st.stages,
            &st.spans,
        );
        if let Err(e) = std::fs::write(&self.path, json) {
            eprintln!("warning: cannot write {}: {e}", self.path.display());
        } else {
            eprintln!("[telemetry] wrote {}", self.path.display());
        }
    }
}

impl Drop for BenchJsonSink {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Collector for BenchJsonSink {
    fn record(&self, event: &Event) {
        if let Event::ParStage {
            stage,
            items,
            workers,
            busy_nanos,
            busy_ns,
            worker_items,
            ..
        } = event
        {
            // genet-lint: allow(panic-in-library) mutex-poisoning check; crash-fast like every telemetry sink
            let mut st = self.state.lock().unwrap();
            st.stages.entry(stage.clone()).or_default().absorb(
                *items,
                *workers,
                *busy_nanos,
                busy_ns,
                worker_items,
            );
        }
    }

    fn span_end(&self, path: &str, nanos: u64) {
        // genet-lint: allow(panic-in-library) mutex-poisoning check; crash-fast like every telemetry sink
        self.state.lock().unwrap().spans.add(path, nanos);
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        // genet-lint: allow(panic-in-library) mutex-poisoning check; crash-fast like every telemetry sink
        *self.state.lock().unwrap().counters.entry(name).or_insert(0) += delta;
    }
}

fn render(
    figure: &str,
    seed: u64,
    full: bool,
    wall_ms: f64,
    counters: &BTreeMap<&'static str, u64>,
    stages: &BTreeMap<String, StageAgg>,
    spans: &SpanTree,
) -> String {
    let mut w = ObjWriter::new();
    w.str("schema", BENCH_JSON_SCHEMA);
    w.str("figure", figure);
    w.uint("seed", seed);
    w.str("mode", if full { "full" } else { "quick" });
    // The worker count the run resolved from GENET_THREADS / the hardware —
    // shared by the eval, rollout and update engines.
    w.uint(
        "threads",
        genet::core::evaluate::configured_threads() as u64,
    );
    w.num("wall_ms", wall_ms);
    let mut body = w.finish();
    body.pop(); // reopen the object to splice the nested fields
    body.push_str(",\"counters\":{");
    for (i, (k, v)) in counters.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let mut cw = ObjWriter::new();
        cw.uint(k, *v);
        let obj = cw.finish();
        body.push_str(&obj[1..obj.len() - 1]);
    }
    body.push_str("},\"stages\":{");
    for (i, (stage, agg)) in stages.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let mut sw = ObjWriter::new();
        sw.uint("items", agg.items);
        sw.uint("batches", agg.batches);
        sw.uint("max_workers", agg.max_workers);
        sw.uint("busy_nanos", agg.busy_nanos);
        sw.uint_array("worker_busy_ns", &agg.worker_busy);
        sw.uint_array("worker_items", &agg.worker_items);
        sw.num("imbalance", agg.imbalance());
        sw.num("items_per_sec", agg.items_per_sec().unwrap_or(0.0));
        body.push('"');
        genet::telemetry::json::escape_into(&mut body, stage);
        body.push_str("\":");
        body.push_str(&sw.finish());
    }
    body.push_str("},\"phases\":[");
    for (i, (path, node)) in spans.preorder().into_iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let mut pw = ObjWriter::new();
        pw.str("path", &path);
        pw.uint("calls", node.calls);
        pw.uint("total_nanos", spans.effective_nanos(node));
        pw.uint("self_nanos", spans.self_nanos(node));
        body.push_str(&pw.finish());
    }
    body.push_str("]}\n");
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use genet::telemetry::json::{parse, JsonValue};

    fn sample_json() -> String {
        let mut spans = SpanTree::new();
        spans.add("train/initial/rollout", 100);
        spans.add("train/initial/ppo-update", 300);
        spans.add("train/initial", 500);
        spans.add("eval", 900);
        let mut counters = BTreeMap::new();
        counters.insert("episodes", 12u64);
        counters.insert("env_steps", 3400u64);
        let mut stages = BTreeMap::new();
        let mut agg = StageAgg::default();
        agg.absorb(8, 2, 1_000_000_000, &[600_000_000, 400_000_000], &[4, 4]);
        stages.insert("rollout".to_string(), agg);
        render(
            "fig04_xy_example",
            42,
            false,
            123.5,
            &counters,
            &stages,
            &spans,
        )
    }

    #[test]
    fn renders_valid_json_with_expected_fields() {
        let doc = parse(sample_json().trim()).expect("BENCH json must parse");
        assert_eq!(
            doc.get("schema").unwrap().as_str().unwrap(),
            BENCH_JSON_SCHEMA
        );
        assert_eq!(
            doc.get("figure").unwrap().as_str().unwrap(),
            "fig04_xy_example"
        );
        assert_eq!(doc.get("seed").unwrap().as_u64().unwrap(), 42);
        assert_eq!(doc.get("mode").unwrap().as_str().unwrap(), "quick");
        assert!(doc.get("threads").unwrap().as_u64().unwrap() >= 1);
        assert!(doc.get("wall_ms").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("episodes")
                .unwrap()
                .as_u64(),
            Some(12)
        );
        let phases = match doc.get("phases").unwrap() {
            JsonValue::Arr(items) => items,
            other => panic!("phases must be an array, got {other:?}"),
        };
        let find = |p: &str| {
            phases
                .iter()
                .find(|ph| ph.get("path").and_then(JsonValue::as_str) == Some(p))
                .unwrap_or_else(|| panic!("missing phase {p}"))
        };
        let update = find("train/initial/ppo-update");
        assert_eq!(update.get("total_nanos").unwrap().as_u64(), Some(300));
        assert_eq!(update.get("calls").unwrap().as_u64(), Some(1));
        // Parent self-time subtracts the children.
        let initial = find("train/initial");
        assert_eq!(initial.get("self_nanos").unwrap().as_u64(), Some(100));
        find("eval");
    }

    #[test]
    fn stages_section_carries_worker_utilization() {
        let doc = parse(sample_json().trim()).unwrap();
        let rollout = doc.get("stages").unwrap().get("rollout").unwrap();
        assert_eq!(rollout.get("items").unwrap().as_u64(), Some(8));
        assert_eq!(rollout.get("batches").unwrap().as_u64(), Some(1));
        assert_eq!(rollout.get("max_workers").unwrap().as_u64(), Some(2));
        assert_eq!(
            rollout.get("busy_nanos").unwrap().as_u64(),
            Some(1_000_000_000)
        );
        assert_eq!(
            rollout.get("worker_busy_ns").unwrap().as_u64_array(),
            Some(vec![600_000_000, 400_000_000])
        );
        assert_eq!(
            rollout.get("worker_items").unwrap().as_u64_array(),
            Some(vec![4, 4])
        );
        // max/mean = 600ms / 500ms.
        assert!((rollout.get("imbalance").unwrap().as_f64().unwrap() - 1.2).abs() < 1e-9);
        // 8 items in 1s of summed busy time.
        assert!((rollout.get("items_per_sec").unwrap().as_f64().unwrap() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn sink_writes_file_on_finish_and_aggregates_par_stages() {
        let dir = std::env::temp_dir().join("genet_perfjson_test");
        let _ = std::fs::create_dir_all(&dir);
        let sink = BenchJsonSink::new(&dir, "figtest", 7, true);
        sink.span_end("train", 1000);
        sink.counter_add("episodes", 3);
        sink.record(&Event::par_stage(
            "eval/policy",
            "",
            16,
            4,
            vec![10, 10, 10, 10],
            vec![4, 4, 4, 4],
        ));
        sink.finish();
        sink.finish(); // idempotent
        let text = std::fs::read_to_string(sink.path()).unwrap();
        let doc = parse(text.trim()).unwrap();
        assert_eq!(doc.get("mode").unwrap().as_str().unwrap(), "full");
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(7));
        let stage = doc.get("stages").unwrap().get("eval/policy").unwrap();
        assert_eq!(stage.get("items").unwrap().as_u64(), Some(16));
        assert_eq!(stage.get("max_workers").unwrap().as_u64(), Some(4));
        let _ = std::fs::remove_file(sink.path());
    }
}
