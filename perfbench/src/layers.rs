//! Per-layer numbers from a traced run.
//!
//! The benchmark opens a root span ([`ROOT_SPAN`]) on its main thread
//! and spans around each call it makes into a layer; the layers add
//! their own spans and counters. A layer's self time is the part of
//! its spans' durations not covered by child spans.
//!
//! Work the program runs as detached tasks (CV folds, synth shards,
//! WAL segment decode) roots its own span path on whichever thread ran
//! it, so its time is not charged to the main-thread span that waited
//! for it. The analysis hands each task to the innermost main-thread
//! span that was open when it started, then splits that span's self
//! time between the layers of its tasks: a task that ran inline on the
//! main thread moves its own self time; tasks on worker threads share
//! what remains, which the main thread spent waiting, by their busy
//! time.

use std::collections::BTreeMap;

use forumcast_obs::{Event, EventKind, Histogram, TraceLog};

use crate::harness::ROOT_SPAN;

/// The layers self time is reported for, in catalogue order.
pub const LAYER_NAMES: &[&str] = &[
    "synth", "data", "topics", "graph", "features", "core", "eval", "recsys", "wal", "store",
];

/// The layer a span label belongs to, from its prefix; `None` for the
/// benchmark's own glue.
pub fn layer_of(base_name: &str) -> Option<&'static str> {
    let prefix = base_name.split('.').next().unwrap_or(base_name);
    match prefix {
        "synth" => Some("synth"),
        "data" | "ingest" => Some("data"),
        "lda" | "topics" | "text" => Some("topics"),
        "graph" => Some("graph"),
        "features" => Some("features"),
        "ml" | "core" => Some("core"),
        "eval" => Some("eval"),
        "recsys" => Some("recsys"),
        "wal" => Some("wal"),
        "store" => Some("store"),
        _ => None,
    }
}

fn span_times(ev: &Event) -> Option<(u64, u64)> {
    match ev.kind {
        EventKind::Span { dur_ns, self_ns } => Some((dur_ns, self_ns)),
        _ => None,
    }
}

fn is_main(ev: &Event) -> bool {
    ev.path == ROOT_SPAN || ev.path.starts_with(&format!("{ROOT_SPAN}/"))
}

/// Self time per layer (seconds) over the given logs, and the share
/// of their summed wall time those self times cover.
pub fn self_times(logs: &[&TraceLog]) -> (BTreeMap<&'static str, f64>, f64) {
    let mut per_layer: BTreeMap<&'static str, f64> =
        LAYER_NAMES.iter().map(|&l| (l, 0.0)).collect();
    let mut covered_ns = 0.0;
    let mut wall_ns = 0.0;
    for log in logs {
        wall_ns += log.wall_ns as f64;
        let main: Vec<&Event> = log
            .events
            .iter()
            .filter(|e| is_main(e) && span_times(e).is_some())
            .collect();
        // Tasks, grouped by the innermost main span open at their start.
        let mut inline: Vec<BTreeMap<&'static str, f64>> = vec![BTreeMap::new(); main.len()];
        let mut waited: Vec<BTreeMap<&'static str, f64>> = vec![BTreeMap::new(); main.len()];
        for ev in log.events.iter().filter(|e| !is_main(e)) {
            let (Some((_, self_ns)), Some(layer)) = (span_times(ev), layer_of(ev.base_name()))
            else {
                continue;
            };
            let owner = main
                .iter()
                .enumerate()
                .filter(|(_, m)| {
                    let (dur, _) = span_times(m).expect("main spans filtered");
                    m.ts_ns <= ev.ts_ns && ev.ts_ns <= m.ts_ns + dur
                })
                // Innermost: the shortest, and the deepest on a tie.
                .min_by_key(|(_, m)| {
                    let (dur, _) = span_times(m).expect("main spans filtered");
                    (dur, std::cmp::Reverse(m.path.len()))
                })
                .map(|(i, _)| i);
            if let Some(i) = owner {
                let bucket = if ev.tid == main[i].tid {
                    &mut inline[i]
                } else {
                    &mut waited[i]
                };
                *bucket.entry(layer).or_insert(0.0) += self_ns as f64;
            }
        }
        for (i, m) in main.iter().enumerate() {
            let (_, self_ns) = span_times(m).expect("main spans filtered");
            let mut remaining = self_ns as f64;
            for (&layer, &ns) in &inline[i] {
                let moved = ns.min(remaining);
                *per_layer.entry(layer).or_insert(0.0) += moved;
                covered_ns += moved;
                remaining -= moved;
            }
            let busy: f64 = waited[i].values().sum();
            if busy > 0.0 {
                for (&layer, &ns) in &waited[i] {
                    let share = remaining * ns / busy;
                    *per_layer.entry(layer).or_insert(0.0) += share;
                    covered_ns += share;
                }
            } else if let Some(layer) = layer_of(m.base_name()) {
                *per_layer.entry(layer).or_insert(0.0) += remaining;
                covered_ns += remaining;
            }
        }
    }
    let secs = per_layer.into_iter().map(|(l, ns)| (l, ns / 1e9)).collect();
    let coverage = if wall_ns > 0.0 {
        covered_ns / wall_ns
    } else {
        0.0
    };
    (secs, coverage)
}

/// Joins the logs of several armed windows into one, as if each
/// window had started where the previous one ended: timestamps shift
/// by the walls of the windows before, walls add up, counters and
/// histograms of the same name merge.
pub fn merge(logs: Vec<TraceLog>) -> TraceLog {
    let mut events = Vec::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut hists: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut wall_ns = 0;
    for log in logs {
        events.extend(log.events.into_iter().map(|mut e| {
            e.ts_ns += wall_ns;
            e
        }));
        for (name, v) in log.counters {
            *counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in log.hists {
            match hists.get_mut(&name) {
                Some(merged) => merged.merge(&h),
                None => {
                    hists.insert(name, h);
                }
            }
        }
        wall_ns += log.wall_ns;
    }
    TraceLog {
        events,
        counters: counters.into_iter().collect(),
        hists: hists.into_iter().collect(),
        wall_ns,
    }
}

/// Durations (seconds) of every span whose label, unit suffix
/// stripped, is `base_name`.
pub fn durations(log: &TraceLog, base_name: &str) -> Vec<f64> {
    log.events
        .iter()
        .filter(|e| e.base_name() == base_name)
        .filter_map(span_times)
        .map(|(dur, _)| dur as f64 / 1e9)
        .collect()
}

/// Summed duration (seconds) of the spans labelled `base_name`.
pub fn total(log: &TraceLog, base_name: &str) -> f64 {
    durations(log, base_name).iter().fold(0.0, |a, b| a + b)
}

/// Summed self time (seconds) of the spans labelled `base_name`.
pub fn total_self(log: &TraceLog, base_name: &str) -> f64 {
    log.events
        .iter()
        .filter(|e| e.base_name() == base_name)
        .filter_map(span_times)
        .map(|(_, s)| s as f64 / 1e9)
        .fold(0.0, |a, b| a + b)
}

/// The value of counter `name` (0 when never bumped).
pub fn counter(log: &TraceLog, name: &str) -> u64 {
    log.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, ts: u64, dur: u64, self_ns: u64, tid: u64) -> Event {
        Event {
            kind: EventKind::Span {
                dur_ns: dur,
                self_ns,
            },
            path: path.to_string(),
            unit: None,
            seq: 0,
            ts_ns: ts,
            tid,
        }
    }

    #[test]
    fn waiting_is_split_by_worker_busy_time_and_glue_is_uncovered() {
        // Root 0..100 with 10 ns of glue; a 90 ns eval.run_cv call that
        // only waits on two folds whose trainers are 3/4 of their time.
        let log = TraceLog {
            events: vec![
                span("perfbench", 0, 100, 10, 1),
                span("perfbench/eval.run_cv", 5, 90, 90, 1),
                span("eval.fold#0", 10, 80, 20, 2),
                span("eval.fold#0/ml.timing.train", 12, 60, 60, 2),
                span("eval.fold#1", 10, 80, 20, 3),
                span("eval.fold#1/ml.timing.train", 12, 60, 60, 3),
            ],
            counters: vec![],
            hists: vec![],
            wall_ns: 100,
        };
        let (secs, coverage) = self_times(&[&log]);
        assert!((secs["core"] * 1e9 - 67.5).abs() < 1e-6);
        assert!((secs["eval"] * 1e9 - 22.5).abs() < 1e-6);
        assert!((coverage - 0.9).abs() < 1e-9);
    }

    #[test]
    fn inline_tasks_move_their_own_self_time() {
        // One-thread synth.generate: shards run inline, detached.
        let log = TraceLog {
            events: vec![
                span("perfbench", 0, 100, 0, 1),
                span("perfbench/synth.generate", 0, 100, 100, 1),
                span("synth.shard#0", 0, 70, 70, 1),
                span("wal.replay.segment#0", 0, 20, 20, 1),
            ],
            counters: vec![],
            hists: vec![],
            wall_ns: 100,
        };
        let (secs, coverage) = self_times(&[&log]);
        assert!((secs["synth"] * 1e9 - 80.0).abs() < 1e-6);
        assert!((secs["wal"] * 1e9 - 20.0).abs() < 1e-6);
        assert!((coverage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merged_windows_keep_their_own_timelines() {
        // Two windows whose main spans both start at 0: merged, the
        // second window's fold must not be charged to the first.
        let window = |fold_layer: &str| TraceLog {
            events: vec![
                span("perfbench", 0, 100, 0, 1),
                span("perfbench/eval.run_cv", 0, 100, 100, 1),
                span(&format!("{fold_layer}#0"), 10, 80, 80, 2),
            ],
            counters: vec![("c".to_string(), 2)],
            hists: vec![],
            wall_ns: 100,
        };
        let log = merge(vec![window("eval.fold"), window("graph.closeness")]);
        assert_eq!(log.wall_ns, 200);
        assert_eq!(counter(&log, "c"), 4);
        let (secs, coverage) = self_times(&[&log]);
        assert!((secs["eval"] * 1e9 - 100.0).abs() < 1e-6);
        assert!((secs["graph"] * 1e9 - 100.0).abs() < 1e-6);
        assert!((coverage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn labels_map_to_layers() {
        assert_eq!(layer_of("ml.timing.train"), Some("core"));
        assert_eq!(layer_of("lda.train"), Some("topics"));
        assert_eq!(layer_of("perfbench"), None);
    }
}
