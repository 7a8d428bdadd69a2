//! The metric catalogue and the result line the benchmark prints.
//!
//! Three kinds of metric exist:
//! * **gated** end-to-end metrics, emitted by every workload with
//!   tracing off and listed under `end_to_end` in `BENCHMARK.json`;
//! * **reported** end-to-end metrics, which apply to one workload
//!   only (quality, route latency, event throughput) or can read 0
//!   (`failed_frac`), printed with tracing off but not gated;
//! * **layer** metrics, emitted by every traced run and listed under
//!   `per_layer`; a layer a workload never calls reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload emits with tracing off.
pub const GATED: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("wall_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// End-to-end metrics printed with tracing off but not gated.
pub const REPORTED: &[MetricDef] = &[
    m("failed_frac", "frac", Lower),
    m("auc_answer", "frac", Higher),
    m("rmse_votes", "votes", Lower),
    m("rmse_time", "h", Lower),
    m("route_p50_ms", "ms", Lower),
    m("route_p90_ms", "ms", Lower),
    m("append_events_per_s", "1/s", Higher),
    m("replay_events_per_s", "1/s", Higher),
];

/// Per-layer metrics every traced run emits.
pub const LAYERS: &[MetricDef] = &[
    // Set-up layers (every workload; 0 where the call is not made).
    m("synth.generate_s", "s", Lower),
    m("data.preprocess_s", "s", Lower),
    m("features.build_s", "s", Lower),
    m("features.fit_s", "s", Lower),
    m("core.train_s", "s", Lower),
    // Self time per layer over the whole traced run.
    m("synth.self_s", "s", Lower),
    m("data.self_s", "s", Lower),
    m("topics.self_s", "s", Lower),
    m("graph.self_s", "s", Lower),
    m("features.self_s", "s", Lower),
    m("core.self_s", "s", Lower),
    m("eval.self_s", "s", Lower),
    m("recsys.self_s", "s", Lower),
    m("wal.self_s", "s", Lower),
    m("store.self_s", "s", Lower),
    m("obs.coverage_frac", "frac", Higher),
    m("obs.trace_overhead_frac", "frac", Lower),
    // cv_medium: fold internals, per run_cv call.
    m("core.timing_train_s", "s", Lower),
    m("core.vote_train_s", "s", Lower),
    m("core.answer_train_s", "s", Lower),
    m("core.timing_steps_per_s", "1/s", Higher),
    m("eval.fold_other_s", "s", Lower),
    m("eval.fold_p50_s", "s", Lower),
    m("eval.fold_max_s", "s", Lower),
    m("par.busy_frac", "frac", Higher),
    // featurize_paper: per build + read-back round.
    m("graph.closeness_s", "s", Lower),
    m("graph.betweenness_s", "s", Lower),
    m("topics.lda_train_s", "s", Lower),
    m("topics.lda_sweeps_per_s", "1/s", Higher),
    m("features.assemble_s", "s", Lower),
    m("features.pairs", "count", Higher),
    m("store.columnar_write_s", "s", Lower),
    m("store.columnar_read_s", "s", Lower),
    m("store.columnar_bytes", "bytes", Lower),
    // route_medium: per routed question.
    m("core.predict_us", "us", Lower),
    m("features.request_us", "us", Lower),
    m("recsys.recommend_us", "us", Lower),
    m("recsys.eligible", "count", Higher),
    m("recsys.unrouted", "count", Lower),
    m("route_p50_ms", "ms", Lower),
    m("route_p90_ms", "ms", Lower),
    m("route_p99_ms", "ms", Lower),
    m("route_samples", "count", Higher),
    // ingest_paper: per append + replay round.
    m("data.event_encode_s", "s", Lower),
    m("wal.append_s", "s", Lower),
    m("wal.fsyncs", "count", Lower),
    m("wal.bytes", "bytes", Lower),
    m("wal.replay_decode_s", "s", Lower),
    m("data.replay_fold_s", "s", Lower),
    m("append_events_per_s", "1/s", Higher),
    m("replay_events_per_s", "1/s", Higher),
];

/// Looks a metric up by name in every catalogue.
pub fn find(name: &str) -> Option<MetricDef> {
    GATED
        .iter()
        .chain(REPORTED)
        .chain(LAYERS)
        .find(|d| d.name == name)
        .copied()
}

/// What one run measured: operation counts plus named values.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// Operations attempted (folds, rows, routed questions, events).
    pub attempted: u64,
    /// Operations that failed: an error, a panic, a non-finite output
    /// or a failed output check.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// One line per failed check, for the log.
    pub problems: Vec<String>,
    /// Metrics this run could not measure, with the reason; they read
    /// 0 in the result line.
    pub unresolved: BTreeMap<&'static str, String>,
}

impl Report {
    /// Records `value` under the catalogued metric `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the catalogue: a typo here would
    /// silently drop a metric from the result line.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric `{name}` is not catalogued"));
        self.values.insert(def.name, value);
    }

    /// Marks the catalogued metric `name` as not measured, for `why`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the catalogue.
    pub fn unresolved(&mut self, name: &str, why: String) {
        let def = find(name).unwrap_or_else(|| panic!("metric `{name}` is not catalogued"));
        self.unresolved.insert(def.name, why);
    }

    /// A run whose set-up failed: one failed operation, no metrics.
    pub fn setup_failed(error: String) -> Self {
        let mut report = Report::default();
        report.tally(1, 1, Some(format!("set-up failed: {error}")));
        report
    }

    /// Counts `ops` attempted operations, `failed` of which failed,
    /// keeping `problem` for the log when any did.
    pub fn tally(&mut self, ops: u64, failed: u64, problem: Option<String>) {
        self.attempted += ops;
        self.failed += failed.min(ops);
        if failed > 0 {
            if let Some(p) = problem {
                if self.problems.len() < 20 {
                    self.problems.push(p);
                }
            }
        }
    }

    /// True when every operation passed and every emitted value is
    /// finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.values.values().all(|v| v.is_finite())
    }

    /// Human-readable lines: one per metric with a value, naming its
    /// unit, direction and kind.
    pub fn describe(&self, traced: bool) -> String {
        let mut out = String::new();
        let kinds: &[(&[MetricDef], &str)] = if traced {
            &[(LAYERS, "layer")]
        } else {
            &[(GATED, "gated"), (REPORTED, "reported")]
        };
        for (defs, kind) in kinds {
            for def in defs.iter() {
                let (shown, note) = match (self.values.get(def.name), self.unresolved.get(def.name))
                {
                    (Some(v), _) => (format!("{v:.6}"), String::new()),
                    (None, Some(why)) => ("unresolved".to_string(), format!(": {why}")),
                    (None, None) => continue,
                };
                let _ = writeln!(
                    out,
                    "metric {:<26} {shown:>16} {:<6} ({} is better) [{kind}{note}]",
                    def.name,
                    def.unit,
                    def.better.word()
                );
            }
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// gated metric (tracing off) or every layer metric (tracing on).
    /// A layer the workload never called, or a metric left unresolved,
    /// reads 0.
    pub fn json_line(&self, traced: bool) -> String {
        let defs = if traced { LAYERS } else { GATED };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, def) in defs.iter().enumerate() {
            // `+ 0.0` turns an empty sum's -0.0 into 0.0.
            let v = self.values.get(def.name).copied().unwrap_or(0.0) + 0.0;
            let shown = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {shown}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_within_each_json_section() {
        for defs in [GATED, LAYERS] {
            let mut names: Vec<&str> = defs.iter().map(|d| d.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), defs.len());
        }
    }

    #[test]
    fn json_line_carries_every_section_metric() {
        let mut r = Report::default();
        r.tally(3, 0, None);
        r.set("wall_s", 1.5);
        let line = r.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for d in GATED {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", d.name)));
        }
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn a_failed_operation_or_non_finite_value_is_not_correct() {
        let mut r = Report::default();
        r.tally(10, 1, Some("bad".into()));
        assert!(!r.correct());
        assert!(r.json_line(false).starts_with("{\"correct\": false"));
        let mut r = Report::default();
        r.tally(10, 0, None);
        r.set("wall_s", f64::NAN);
        assert!(!r.correct());
        assert!(r.json_line(false).contains("\"wall_s\": {\"value\": null"));
        let r = Report::setup_failed("no pool".into());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (1, 1));
    }

    #[test]
    fn an_unresolved_metric_is_described_and_reads_0() {
        let mut r = Report::default();
        r.tally(1, 0, None);
        r.unresolved("obs.trace_overhead_frac", "1 pair".into());
        assert!(r.correct());
        let line = r.describe(true);
        assert!(line.contains("obs.trace_overhead_frac"), "{line}");
        assert!(
            line.contains("unresolved frac   (lower is better) [layer: 1 pair]"),
            "{line}"
        );
        assert!(r
            .json_line(true)
            .contains("\"obs.trace_overhead_frac\": {\"value\": 0.0,"));
    }
}
