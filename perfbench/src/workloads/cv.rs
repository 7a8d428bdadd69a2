//! `cv_medium`: the training layers. Set-up generates the medium
//! forum, preprocesses it and builds the experiment; each round is one
//! `run_cv` (5 folds × 1 repeat, baselines on, quick trainer) on two
//! workers.

use std::time::Instant;

use forumcast_core::TrainConfig;
use forumcast_eval::fold::run_fold;
use forumcast_eval::split::stratified_folds;
use forumcast_eval::{run_cv_resumable, CvOptions, EvalConfig, ExperimentData, FoldOutcome};
use forumcast_features::ExtractorConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{account, common_metrics, drive, first_digest, Round};
use crate::checks;
use crate::harness::{median, Opts};
use crate::layers;
use crate::metrics::Report;

/// CV fold workers in the timed phase.
const WORKERS: usize = 2;

/// The evaluation protocol for this run's seed and size.
fn config(opts: &Opts) -> EvalConfig {
    let base = if opts.tiny {
        EvalConfig::quick()
    } else {
        EvalConfig {
            extractor: ExtractorConfig::fast(),
            train: TrainConfig::fast(),
            ..EvalConfig::standard()
        }
    };
    let mut cfg = base.with_seed(opts.seed);
    cfg.synth = cfg.synth.with_seed(opts.seed);
    cfg
}

/// The positive and negative fold maps of each repeat, drawn the way
/// `run_cv` draws them: from the seed `cfg.seed ^ (0xC5 + rep)`,
/// positives first. This copies a private detail of `run_cv`, so
/// [`check_fold_maps`] verifies it on every traced run.
fn fold_maps(data: &ExperimentData, cfg: &EvalConfig) -> Vec<(Vec<usize>, Vec<usize>)> {
    let pos_groups: Vec<u32> = data.positives.iter().map(|p| p.user.0).collect();
    let neg_groups: Vec<u32> = data.negatives.iter().map(|p| p.user.0).collect();
    (0..cfg.repeats)
        .map(|rep| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0xC5 + rep as u64));
            let pos = stratified_folds(&pos_groups, cfg.folds, &mut rng);
            let neg = stratified_folds(&neg_groups, cfg.folds, &mut rng);
            (pos, neg)
        })
        .collect()
}

/// Re-runs the first fold job (repeat 0, test fold 0) through the
/// public `run_fold` on the derived fold maps and compares its outcome
/// with `run_cv`'s, bit for bit. Should `run_cv` change how it splits,
/// this fails the run instead of leaving `core.timing_steps_per_s`
/// quietly wrong.
fn check_fold_maps(
    data: &ExperimentData,
    cfg: &EvalConfig,
    maps: &[(Vec<usize>, Vec<usize>)],
    first: &FoldOutcome,
) -> Result<(), String> {
    let (pos, neg) = maps.first().ok_or("no repeat to derive folds for")?;
    let again = run_fold(data, cfg, pos, neg, 0, None, true, None);
    let bits = |f: &FoldOutcome| {
        [
            f.auc,
            f.auc_baseline,
            f.rmse_votes,
            f.rmse_votes_baseline,
            f.rmse_time,
            f.rmse_time_baseline,
        ]
        .map(f64::to_bits)
    };
    if bits(&again) == bits(first) {
        Ok(())
    } else {
        Err(format!(
            "the derived fold maps do not reproduce run_cv's first fold \
             ({again:?} != {first:?}): core.timing_steps_per_s would be wrong"
        ))
    }
}

/// Timing-trainer steps one `run_cv` takes: the timing model makes one
/// step per training thread per epoch, and a target thread is in a
/// fold's training set when any of its positives is.
fn timing_steps(data: &ExperimentData, cfg: &EvalConfig, maps: &[(Vec<usize>, Vec<usize>)]) -> f64 {
    let mut steps = 0usize;
    for (folds, _) in maps {
        for test in 0..cfg.folds {
            let mut in_train = vec![false; data.num_targets];
            for (p, &f) in data.positives.iter().zip(folds) {
                if f != test {
                    in_train[p.target] = true;
                }
            }
            steps += in_train.iter().filter(|&&t| t).count();
        }
    }
    (steps * cfg.train.timing.epochs) as f64
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let cfg = config(opts);
    let run_cfg = EvalConfig {
        threads: WORKERS,
        ..cfg.clone()
    };
    let expected = (cfg.folds * cfg.repeats) as u64;
    let phases = drive(
        opts,
        WORKERS,
        || {
            let setup_cfg = EvalConfig {
                threads: 1,
                ..cfg.clone()
            };
            let raw = forumcast_synth::generate_with_threads(&cfg.synth, 1);
            let clean = {
                let _s = forumcast_obs::span("data.preprocess");
                raw.preprocess().0
            };
            Ok(ExperimentData::build(&clean, &setup_cfg))
        },
        |data, _| {
            let started = Instant::now();
            let folds = run_cv_resumable(data, &run_cfg, None, true, &CvOptions::default())
                .map_err(|e| e.to_string())?;
            let secs = started.elapsed().as_secs_f64();
            let mut round: Round<Vec<FoldOutcome>> = Round::default();
            if folds.len() as u64 != expected {
                round.check(
                    expected,
                    Err(format!(
                        "{} fold outcomes, expected {expected}",
                        folds.len()
                    )),
                );
            }
            for f in &folds {
                round.check(1, checks::fold(f));
                for v in [
                    f.auc,
                    f.auc_baseline,
                    f.rmse_votes,
                    f.rmse_votes_baseline,
                    f.rmse_time,
                    f.rmse_time_baseline,
                ] {
                    round.digest.float(v);
                }
            }
            round.extra = folds;
            Ok((secs, round))
        },
        |_| Ok(()),
    );
    let phases = match phases {
        Ok(p) => p,
        Err(e) => return Report::setup_failed(e),
    };

    let mut report = Report::default();
    let reference = first_digest(&phases);
    account(&mut report, &phases, expected, |_, _| reference);
    common_metrics(&mut report, &phases);
    if let Some((_, round)) = phases.plain_ok().next() {
        let n = round.extra.len().max(1) as f64;
        report.set(
            "auc_answer",
            round.extra.iter().map(|f| f.auc).sum::<f64>() / n,
        );
        report.set(
            "rmse_votes",
            round.extra.iter().map(|f| f.rmse_votes).sum::<f64>() / n,
        );
        report.set(
            "rmse_time",
            round.extra.iter().map(|f| f.rmse_time).sum::<f64>() / n,
        );
    }
    if let Some(log) = &phases.timed_log {
        let n = phases.traced_rounds();
        let timing = layers::total(log, "ml.timing.train");
        let vote = layers::total(log, "ml.vote.train");
        let answer = layers::total(log, "ml.answer.train");
        let folds = layers::durations(log, "eval.fold");
        let fold_total: f64 = folds.iter().sum();
        report.set("core.timing_train_s", timing / n);
        report.set("core.vote_train_s", vote / n);
        report.set("core.answer_train_s", answer / n);
        // The step count rests on fold maps derived outside run_cv:
        // check them against the folds run_cv ran and the outcome of
        // its first fold.
        let maps = fold_maps(&phases.state, &cfg);
        let trainings = layers::durations(log, "ml.timing.train").len();
        let derived = maps.len() * cfg.folds * n as usize;
        let check = if folds.len() != derived || trainings != derived {
            Err(format!(
                "{} eval.fold and {trainings} ml.timing.train spans, {derived} derived folds",
                folds.len()
            ))
        } else {
            match phases.plain_ok().next().and_then(|(_, r)| r.extra.first()) {
                Some(first) => check_fold_maps(&phases.state, &run_cfg, &maps, first),
                None => Err("no fold outcome to check the derived fold maps against".into()),
            }
        };
        report.tally(1, u64::from(check.is_err()), check.err());
        if timing > 0.0 {
            report.set(
                "core.timing_steps_per_s",
                timing_steps(&phases.state, &cfg, &maps) * n / timing,
            );
        }
        report.set(
            "eval.fold_other_s",
            (fold_total - timing - vote - answer) / n,
        );
        report.set("eval.fold_p50_s", median(&folds));
        report.set("eval.fold_max_s", folds.iter().copied().fold(0.0, f64::max));
        let run_cv = layers::total(log, "eval.run_cv");
        if run_cv > 0.0 {
            report.set("par.busy_frac", fold_total / (run_cv * WORKERS as f64));
        }
    }
    report
}
