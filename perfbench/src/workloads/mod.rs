//! The four workloads and the phase runner they share.
//!
//! Every workload runs the same phases in one process:
//! 1. set-up, single-threaded, at least
//!    [`MIN_SETUP_REPEATS`](crate::harness::MIN_SETUP_REPEATS) times
//!    (`setup_s` is the median);
//! 2. the timed phase: rounds of the workload's unit of work until
//!    `--seconds` is spent (`wall_s` is the median round);
//! 3. with `--trace 1` only, the timed phase runs every round twice,
//!    untraced and with the collector armed, in alternating order,
//!    then the layer probes. The traced rounds must reproduce the
//!    untraced outputs bit for bit, and the median slowdown within a
//!    pair is the tracing overhead.

use forumcast_obs::TraceLog;

use crate::harness::{
    median, peak_rss_mb, pin_threads, run_pairs, run_rounds, setup_repeated, Digest, Opts,
    RoundResult, ROOT_SPAN,
};
use crate::layers;
use crate::metrics::Report;

pub mod cv;
pub mod featurize;
pub mod ingest;
pub mod route;

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &[
    "cv_medium",
    "featurize_paper",
    "route_medium",
    "ingest_paper",
];

/// Runs the named workload.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(name: &str, opts: &Opts) -> Result<Report, String> {
    match name {
        "cv_medium" => Ok(cv::run(opts)),
        "featurize_paper" => Ok(featurize::run(opts)),
        "route_medium" => Ok(route::run(opts)),
        "ingest_paper" => Ok(ingest::run(opts)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// One round's checked output.
#[derive(Debug, Clone, Default)]
pub struct Round<X> {
    /// Operations the round attempted.
    pub ops: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The first failed check, for the log.
    pub problem: Option<String>,
    /// Digest of everything the round produced.
    pub digest: Digest,
    /// Workload-specific measurements.
    pub extra: X,
}

impl<X> Round<X> {
    /// Counts `ops` operations, failing them all when `check` failed.
    pub fn check(&mut self, ops: u64, check: Result<(), String>) {
        self.ops += ops;
        if let Err(e) = check {
            self.failed += ops;
            self.problem.get_or_insert(e);
        }
    }
}

/// Everything one run measured, before it is turned into metrics.
pub struct Phases<S, X> {
    /// The set-up output the rounds ran against.
    pub state: S,
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// How many times set-up ran.
    pub setup_repeats: usize,
    /// Rounds with the collector disarmed.
    pub plain: Vec<RoundResult<Round<X>>>,
    /// Rounds with the collector armed (`--trace 1` only); index `i`
    /// repeats plain round `i`.
    pub traced: Vec<RoundResult<Round<X>>>,
    /// Events recorded during set-up (`--trace 1` only).
    pub setup_log: Option<TraceLog>,
    /// Events recorded during the traced rounds and probes, their armed
    /// windows joined by [`layers::merge`].
    pub timed_log: Option<TraceLog>,
    /// The layer probes' outcome (`Ok` when untraced).
    pub probe: Result<(), String>,
}

impl<S, X> Phases<S, X> {
    /// Successful plain rounds.
    pub fn plain_ok(&self) -> impl Iterator<Item = &(f64, Round<X>)> {
        self.plain.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Successful traced rounds.
    pub fn traced_ok(&self) -> impl Iterator<Item = &(f64, Round<X>)> {
        self.traced.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Number of successful traced rounds (at least 1, for averaging).
    pub fn traced_rounds(&self) -> f64 {
        self.traced_ok().count().max(1) as f64
    }
}

/// Runs set-up, then the timed phase on `threads` workers, then (when
/// tracing) `probes`. Each traced round, and the probes, run in an
/// armed window of their own; the untraced rounds run disarmed.
///
/// # Errors
///
/// Returns the set-up error, when set-up failed.
pub fn drive<S, X>(
    opts: &Opts,
    threads: usize,
    setup: impl FnMut() -> Result<S, String>,
    mut round: impl FnMut(&S, usize) -> Result<(f64, Round<X>), String>,
    probes: impl FnOnce(&S) -> Result<(), String>,
) -> Result<Phases<S, X>, String> {
    let guard = opts.trace.then(forumcast_obs::arm);
    let (state, setup_repeats, setup_s) = {
        let _root = forumcast_obs::span(ROOT_SPAN);
        setup_repeated(setup)?
    };
    let setup_log = guard.as_ref().and_then(|_| forumcast_obs::drain());
    drop(guard);

    pin_threads(threads);
    if !opts.trace {
        let plain = run_rounds(opts.seconds, |i| round(&state, i));
        return Ok(Phases {
            state,
            setup_s,
            setup_repeats,
            plain,
            traced: Vec::new(),
            setup_log,
            timed_log: None,
            probe: Ok(()),
        });
    }
    let mut windows = Vec::new();
    let mut armed = |f: &mut dyn FnMut()| {
        let _guard = forumcast_obs::arm();
        {
            let _root = forumcast_obs::span(ROOT_SPAN);
            f();
        }
        windows.extend(forumcast_obs::drain());
    };
    let (plain, traced) = run_pairs(opts.seconds, |i, traced| {
        if !traced {
            return round(&state, i);
        }
        let mut out = None;
        armed(&mut || out = Some(round(&state, i)));
        out.expect("the armed window ran the round")
    });
    let mut probes = Some(probes);
    let mut probe = None;
    armed(&mut || probe = probes.take().map(|p| p(&state)));
    Ok(Phases {
        state,
        setup_s,
        setup_repeats,
        plain,
        traced,
        setup_log,
        timed_log: Some(layers::merge(windows)),
        probe: probe.expect("the armed window ran the probes"),
    })
}

/// Tallies every round into `report`. A round that errored or
/// panicked fails `expected_ops` operations; a round whose digest
/// differs from `reference(i, traced)` fails all of its operations.
/// A traced run's layer probes count as one more operation.
pub fn account<S, X>(
    report: &mut Report,
    phases: &Phases<S, X>,
    expected_ops: u64,
    reference: impl Fn(usize, bool) -> Option<Digest>,
) {
    for (traced, rounds) in [(false, &phases.plain), (true, &phases.traced)] {
        for (i, r) in rounds.iter().enumerate() {
            match r {
                Err(e) => report.tally(expected_ops, expected_ops, Some(e.clone())),
                Ok((_, round)) => {
                    let mismatch = reference(i, traced).filter(|d| *d != round.digest);
                    match mismatch {
                        Some(want) => report.tally(
                            round.ops,
                            round.ops,
                            Some(format!(
                                "{} round {i} digest {:#018x} != {:#018x}",
                                if traced { "traced" } else { "untraced" },
                                round.digest.0,
                                want.0
                            )),
                        ),
                        None => report.tally(round.ops, round.failed, round.problem.clone()),
                    }
                }
            }
        }
    }
    if phases.timed_log.is_some() {
        let failed = phases.probe.as_ref().err();
        report.tally(
            1,
            u64::from(failed.is_some()),
            failed.map(|e| format!("layer probe failed: {e}")),
        );
    }
}

/// The digest of the first successful plain round: the reference the
/// other rounds of a repeatable workload must reproduce.
pub fn first_digest<S, X>(phases: &Phases<S, X>) -> Option<Digest> {
    phases.plain_ok().next().map(|(_, r)| r.digest)
}

/// Metrics every workload reports the same way: `setup_s`, `wall_s`,
/// `peak_rss_mb`; and when traced, the set-up layers, self time per
/// layer, coverage (checked against 90%) and tracing overhead: the
/// median over round pairs of traced ÷ untraced round time − 1.
pub fn common_metrics<S, X>(report: &mut Report, phases: &Phases<S, X>) {
    let plain: Vec<f64> = phases.plain_ok().map(|(s, _)| *s).collect();
    report.set("setup_s", phases.setup_s);
    report.set("wall_s", median(&plain));
    report.set("peak_rss_mb", peak_rss_mb());
    let (Some(setup), Some(timed)) = (&phases.setup_log, &phases.timed_log) else {
        return;
    };
    let repeats = phases.setup_repeats as f64;
    for (metric, span) in [
        ("synth.generate_s", "synth.generate"),
        ("data.preprocess_s", "data.preprocess"),
        ("features.build_s", "features.build"),
        ("features.fit_s", "features.fit"),
        ("core.train_s", "core.train"),
    ] {
        report.set(metric, layers::total(setup, span) / repeats);
    }
    let (self_s, coverage) = layers::self_times(&[setup, timed]);
    for (layer, secs) in self_s {
        report.set(&format!("{layer}.self_s"), secs);
    }
    report.set("obs.coverage_frac", coverage);
    report.tally(
        1,
        u64::from(coverage < 0.9),
        Some(format!(
            "layer self times cover only {:.1}% of the traced wall",
            coverage * 100.0
        )),
    );
    let slowdowns: Vec<f64> = phases
        .plain
        .iter()
        .zip(&phases.traced)
        .filter_map(|pair| match pair {
            (Ok((plain, _)), Ok((traced, _))) if *plain > 0.0 => Some(traced / plain - 1.0),
            _ => None,
        })
        .collect();
    if slowdowns.len() >= MIN_OVERHEAD_PAIRS {
        report.set("obs.trace_overhead_frac", median(&slowdowns));
    } else {
        report.unresolved(
            "obs.trace_overhead_frac",
            format!(
                "{} untraced/traced pair(s), at least {MIN_OVERHEAD_PAIRS} needed",
                slowdowns.len()
            ),
        );
    }
}

/// Fewest round pairs `obs.trace_overhead_frac` is reported from: with
/// fewer, one pair's noise would be the figure.
pub const MIN_OVERHEAD_PAIRS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(probe: Result<(), String>) -> Phases<(), ()> {
        let round = Round {
            ops: 3,
            ..Round::default()
        };
        Phases {
            state: (),
            setup_s: 1.0,
            setup_repeats: 3,
            plain: vec![Ok((1.0, round.clone()))],
            traced: vec![Ok((1.0, round))],
            setup_log: Some(layers::merge(Vec::new())),
            timed_log: Some(layers::merge(Vec::new())),
            probe,
        }
    }

    #[test]
    fn a_failed_layer_probe_fails_the_run() {
        let mut report = Report::default();
        account(&mut report, &traced(Err("no log".into())), 3, |_, _| None);
        assert_eq!((report.attempted, report.failed), (7, 1));
        assert!(!report.correct());
        assert!(report.problems[0].contains("no log"));

        let mut report = Report::default();
        account(&mut report, &traced(Ok(())), 3, |_, _| None);
        assert_eq!((report.attempted, report.failed), (7, 0));
    }

    #[test]
    fn overhead_needs_enough_pairs() {
        let mut phases = traced(Ok(()));
        let mut report = Report::default();
        common_metrics(&mut report, &phases);
        assert!(report.unresolved.contains_key("obs.trace_overhead_frac"));
        // Drift between pairs cancels: each pair is 10% slower traced.
        let pair = |plain: f64| {
            (
                Ok((plain, Round::default())),
                Ok((plain * 1.1, Round::default())),
            )
        };
        let (plain, traced): (Vec<_>, Vec<_>) = [1.0, 2.0, 1.5, 3.0].map(pair).into_iter().unzip();
        phases.plain = plain;
        phases.traced = traced;
        let mut report = Report::default();
        common_metrics(&mut report, &phases);
        assert!((report.values["obs.trace_overhead_frac"] - 0.1).abs() < 1e-9);
    }
}
