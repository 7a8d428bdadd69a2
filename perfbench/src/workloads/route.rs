//! `route_medium`: the serving path as a closed loop with one client.
//! Set-up generates the medium forum, trains a `ResponsePredictor`
//! (quick trainer) on its experiment data and fits one
//! `FeatureExtractor` on every thread. The timed phase routes
//! questions in chronological order, one at a time: features for every
//! candidate in a fixed pool, `predict` for each,
//! `QuestionRouter::recommend` with the CLI defaults, then
//! `record_answer` for the top-ranked user.

use std::time::Instant;

use forumcast_core::{ResponsePredictor, TrainConfig, TrainingSet};
use forumcast_data::{Dataset, UserId};
use forumcast_eval::{EvalConfig, ExperimentData};
use forumcast_features::{ExtractorConfig, FeatureExtractor};
use forumcast_recsys::{Candidate, QuestionRouter, RouterConfig};

use super::{account, common_metrics, drive, Round};
use crate::checks;
use crate::harness::{median, quantile, Opts};
use crate::layers;
use crate::metrics::Report;

/// Quality/timing trade-off λ (the CLI default).
const LAMBDA: f64 = 0.5;

/// Router settings: the CLI defaults ε = 0.3, capacity 1.0, 24 h
/// load window.
fn router_config() -> RouterConfig {
    RouterConfig {
        epsilon: 0.3,
        default_capacity: 1.0,
        load_window: 24.0,
    }
}

/// Questions routed per round.
fn questions_per_round(opts: &Opts) -> usize {
    if opts.tiny {
        5
    } else {
        100
    }
}

/// Candidates scored per question: the most active answerers. A fixed
/// pool keeps the work per question the same for every seed (about 870
/// users answer anything on the medium forum, a few dozen more or less
/// by seed).
fn pool_size(opts: &Opts) -> usize {
    if opts.tiny {
        60
    } else {
        768
    }
}

/// Everything the route loop serves from.
struct Served {
    /// The preprocessed forum.
    dataset: Dataset,
    /// Extractor fitted on every thread.
    extractor: FeatureExtractor,
    /// The trained model.
    predictor: ResponsePredictor,
    /// The candidate pool: the most active answerers, most active first
    /// (ties by user id).
    pool: Vec<UserId>,
    /// First thread routed: the experiment's first target.
    first: usize,
}

/// The experiment's records as one training set, grouped per target
/// thread for the timing model, the way a fold builds its training set.
fn training_set(data: &ExperimentData) -> TrainingSet {
    let mut ts = TrainingSet::new(data.dim);
    for p in &data.positives {
        ts.push_answer(p.x.clone(), true);
        ts.push_vote(p.x.clone(), p.votes);
    }
    for n in &data.negatives {
        ts.push_answer(n.x.clone(), false);
    }
    let pos = data.positives_by_target();
    let neg = data.negatives_by_target();
    for (t, (pos, neg)) in pos.iter().zip(&neg).enumerate() {
        if pos.is_empty() {
            continue;
        }
        let answers = pos
            .iter()
            .map(|&i| (data.positives[i].x.clone(), data.positives[i].response_time))
            .collect();
        let non = neg.iter().map(|&i| data.negatives[i].x.clone()).collect();
        ts.push_timing_thread(answers, non, data.windows[t], data.num_users);
    }
    ts
}

fn setup(cfg: &EvalConfig, pool_size: usize) -> Result<Served, String> {
    let raw = forumcast_synth::generate_with_threads(&cfg.synth, 1);
    let dataset = {
        let _s = forumcast_obs::span("data.preprocess");
        raw.preprocess().0
    };
    let data = ExperimentData::build(&dataset, cfg);
    let ts = {
        let _s = forumcast_obs::span("core.training_set");
        training_set(&data)
    };
    let predictor = {
        let _s = forumcast_obs::span("core.train");
        ResponsePredictor::train(&ts, &cfg.train)
    };
    let extractor = {
        let _s = forumcast_obs::span("features.fit");
        FeatureExtractor::fit(dataset.threads(), dataset.num_users(), &cfg.extractor)
    };
    let ctx = extractor.context();
    let mut pool: Vec<(f64, UserId)> = (0..dataset.num_users())
        .map(UserId)
        .map(|u| (ctx.answers_provided(u), u))
        .filter(|&(answers, _)| answers > 0.0)
        .collect();
    pool.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    if pool.len() < pool_size {
        // A smaller pool would do less work per question on this seed.
        return Err(format!(
            "{} users answer anything, fewer than the {pool_size}-user candidate pool",
            pool.len()
        ));
    }
    pool.truncate(pool_size);
    let pool = pool.into_iter().map(|(_, u)| u).collect();
    let first = ((dataset.num_questions() as f64 * cfg.warmup_frac) as usize)
        .min(dataset.num_questions().saturating_sub(1));
    Ok(Served {
        dataset,
        extractor,
        predictor,
        pool,
        first,
    })
}

/// Per-round measurements.
#[derive(Debug, Default, Clone)]
struct Routed {
    /// End-to-end latency of each routed question (ms).
    latency_ms: Vec<f64>,
    /// Eligible candidates summed over the round's questions.
    eligible: u64,
    /// Questions with no feasible routing (`None`).
    unrouted: u64,
}

/// Routes question `q` (a thread index), returning its latency and the
/// check result; mixes the decision into `round.digest`.
fn route_one(
    served: &Served,
    router: &mut QuestionRouter,
    q: usize,
    round: &mut Round<Routed>,
) -> (f64, Result<(), String>) {
    let thread = &served.dataset.threads()[q];
    let now = thread.asked_at();
    let window = (served.dataset.horizon() - now).max(0.5);

    let t0 = Instant::now();
    let xs: Vec<(UserId, Vec<f64>)> = {
        let _s = forumcast_obs::span("features.request");
        let d_q = served.extractor.question_topics(thread);
        served
            .pool
            .iter()
            .filter(|&&u| u != thread.asker())
            .map(|&u| (u, served.extractor.features(u, thread, &d_q)))
            .collect()
    };
    let candidates: Vec<Candidate> = {
        let _s = forumcast_obs::span("core.predict");
        xs.iter()
            .map(|(u, x)| {
                let (a, v, r) = served.predictor.predict(x, window);
                Candidate {
                    user: *u,
                    answer_prob: a,
                    votes: v,
                    response_time: r,
                }
            })
            .collect()
    };
    let rec = {
        let _s = forumcast_obs::span("recsys.recommend");
        router.recommend(now, LAMBDA, &candidates)
    };
    let mut secs = t0.elapsed().as_secs_f64();

    // Checks run off the clock, before the answer changes the load.
    let mut check = checks::predictions(&candidates);
    round.digest.word(q as u64);
    let top = match &rec {
        None => {
            round.extra.unrouted += 1;
            None
        }
        Some(rec) => {
            round.extra.eligible += rec.users().len() as u64;
            let cap = router.config().default_capacity;
            let remaining: Vec<f64> = rec
                .users()
                .iter()
                .map(|&u| cap - router.load(now, u))
                .collect();
            check = check.and(checks::distribution(rec.probabilities(), &remaining));
            for (&u, &p) in rec.users().iter().zip(rec.probabilities()) {
                round.digest.word(u64::from(u.0));
                round.digest.float(p);
            }
            rec.ranking().first().copied()
        }
    };
    if let Some(u) = top {
        round.digest.word(u64::from(u.0));
        let t1 = Instant::now();
        let _s = forumcast_obs::span("recsys.record");
        router.record_answer(now, u);
        secs += t1.elapsed().as_secs_f64();
    }
    (secs, check)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
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
    cfg.threads = 1;
    let per_round = questions_per_round(opts);
    let mut router = QuestionRouter::new(router_config());
    // The router state round `i` started from, while a traced run
    // still has to run round `i` a second time.
    let mut start: Option<(usize, QuestionRouter)> = None;
    let phases = drive(
        opts,
        1,
        || setup(&cfg, pool_size(opts)),
        |served, i| {
            if opts.trace {
                match &start {
                    Some((j, saved)) if *j == i => router = saved.clone(),
                    _ => start = Some((i, router.clone())),
                }
            }
            let n = served.dataset.num_questions();
            let span = n - served.first;
            let mut round: Round<Routed> = Round::default();
            let mut secs = 0.0;
            for k in 0..per_round {
                let pos = (i * per_round + k) % span;
                if pos == 0 {
                    // Each pass over the questions starts from a fresh
                    // router: time restarts, so the load history does
                    // too, and traced rounds reproduce untraced ones.
                    router = QuestionRouter::new(router_config());
                }
                let q = served.first + pos;
                let (s, check) = route_one(served, &mut router, q, &mut round);
                secs += s;
                round.extra.latency_ms.push(s * 1e3);
                round.check(1, check);
            }
            Ok((secs, round))
        },
        |_| Ok(()),
    );
    let phases = match phases {
        Ok(p) => p,
        Err(e) => return Report::setup_failed(e),
    };

    let mut report = Report::default();
    let plain_digests: Vec<_> = phases
        .plain
        .iter()
        .map(|r| r.as_ref().ok().map(|(_, r)| r.digest))
        .collect();
    account(&mut report, &phases, per_round as u64, |i, traced| {
        if traced {
            plain_digests.get(i).copied().flatten()
        } else {
            None
        }
    });
    common_metrics(&mut report, &phases);
    let latency: Vec<f64> = phases
        .plain_ok()
        .flat_map(|(_, r)| r.extra.latency_ms.iter().copied())
        .collect();
    report.set("route_p50_ms", quantile(&latency, 0.5));
    report.set("route_p90_ms", quantile(&latency, 0.9));
    if let Some(log) = &phases.timed_log {
        report.set("route_p99_ms", quantile(&latency, 0.99));
        report.set("route_samples", latency.len() as f64);
        let us = |name: &str| median(&layers::durations(log, name)) * 1e6;
        report.set("core.predict_us", us("core.predict"));
        report.set("features.request_us", us("features.request"));
        report.set("recsys.recommend_us", us("recsys.recommend"));
        let routed: u64 = phases
            .plain_ok()
            .map(|(_, r)| r.ops - r.extra.unrouted)
            .sum();
        let eligible: u64 = phases.plain_ok().map(|(_, r)| r.extra.eligible).sum();
        report.set("recsys.eligible", eligible as f64 / routed.max(1) as f64);
        report.set(
            "recsys.unrouted",
            phases
                .plain_ok()
                .map(|(_, r)| r.extra.unrouted)
                .sum::<u64>() as f64,
        );
    }
    report
}
