//! `featurize_paper`: the feature pipeline with no training. Set-up
//! generates and preprocesses the paper-scale forum; each round builds
//! the experiment straight into the columnar store
//! (`SpilledExperiment::build`, fast extractor, 3 buckets, two
//! workers), reopens it and streams every row back.

use std::path::Path;
use std::time::Instant;

use forumcast_data::Dataset;
use forumcast_eval::{ColumnarError, EvalConfig, RowStream, SpilledExperiment};
use forumcast_features::ExtractorConfig;
use forumcast_synth::SynthConfig;

use super::{account, common_metrics, drive, first_digest, Round};
use crate::checks::{self, Shape};
use crate::harness::{dir_bytes, Digest, Opts, WorkDir};
use crate::layers;
use crate::metrics::Report;

/// Feature-extraction workers in the timed phase.
const WORKERS: usize = 2;

const SPILL: &str = "spill";

/// The extraction protocol for this run's seed and size.
fn config(opts: &Opts) -> EvalConfig {
    let base = if opts.tiny {
        EvalConfig::quick()
    } else {
        EvalConfig {
            synth: SynthConfig::paper_scale(),
            extractor: ExtractorConfig::fast(),
            buckets: 3,
            ..EvalConfig::standard()
        }
    };
    let mut cfg = base.with_seed(opts.seed);
    cfg.synth = cfg.synth.with_seed(opts.seed);
    cfg.threads = WORKERS;
    cfg
}

/// Streams every row of both row files, returning the shape seen, the
/// count of non-finite features, and a digest of every value.
fn stream_all(spilled: &SpilledExperiment) -> Result<(Shape, u64, Digest), ColumnarError> {
    let mut digest = Digest::default();
    let mut non_finite = 0u64;
    let mut dim = spilled.dim;
    let mut count = |mut stream: RowStream| -> Result<usize, ColumnarError> {
        let mut rows = 0;
        while let Some((meta, x)) = stream.next_row()? {
            rows += 1;
            if x.len() != spilled.dim {
                dim = x.len();
            }
            digest.word(u64::from(meta.user.0));
            digest.word(meta.target as u64);
            digest.float(meta.votes);
            digest.float(meta.response_time);
            for &v in &x {
                non_finite += u64::from(!v.is_finite());
                digest.float(v);
            }
        }
        Ok(rows)
    };
    let pos = count(spilled.stream_pos()?)?;
    let neg = count(spilled.stream_neg()?)?;
    Ok(((pos, neg, dim), non_finite, digest))
}

/// One build + read-back round; its extra is the spill's size in bytes.
fn round(data: &Dataset, cfg: &EvalConfig, dir: &Path) -> Result<(f64, Round<u64>), String> {
    let started = Instant::now();
    let built = {
        let _s = forumcast_obs::span("features.spill_build");
        SpilledExperiment::build(data, cfg, dir)
    }
    .map_err(|e| e.to_string())?;
    let written = (built.pos.len(), built.neg.len(), built.dim);
    drop(built);
    let reopened = {
        let _s = forumcast_obs::span("store.columnar_open");
        SpilledExperiment::open(dir)
    }
    .map_err(|e| e.to_string())?;
    let shape = (reopened.pos.len(), reopened.neg.len(), reopened.dim);
    let (streamed, non_finite, digest) = {
        let _s = forumcast_obs::span("store.columnar_stream");
        stream_all(&reopened)
    }
    .map_err(|e| e.to_string())?;
    let secs = started.elapsed().as_secs_f64();
    let mut round = Round {
        digest,
        extra: dir_bytes(dir),
        ..Round::default()
    };
    round.check(
        (written.0 + written.1) as u64,
        checks::spill(written, shape, streamed, non_finite),
    );
    Ok((secs, round))
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let cfg = config(opts);
    let work = WorkDir::new("featurize");
    let phases = drive(
        opts,
        WORKERS,
        || {
            let raw = forumcast_synth::generate_with_threads(&cfg.synth, 1);
            let _s = forumcast_obs::span("data.preprocess");
            Ok(raw.preprocess().0)
        },
        |data, _| round(data, &cfg, &work.fresh(SPILL)),
        |_| {
            // The round streams rows back but writes them inside the
            // build, interleaved with extraction: time the columnar
            // write alone by spilling the last round's rows again.
            let resident = {
                let _s = forumcast_obs::span("store.columnar_load");
                SpilledExperiment::open(&work.existing(SPILL)).and_then(|s| s.to_resident())
            }
            .map_err(|e| format!("reloading the spill: {e}"))?;
            let _s = forumcast_obs::span("store.columnar_write");
            SpilledExperiment::spill(&resident, &cfg, &work.fresh("respill"))
                .map(drop)
                .map_err(|e| format!("re-spilling: {e}"))
        },
    );
    let phases = match phases {
        Ok(p) => p,
        Err(e) => return Report::setup_failed(e),
    };

    let mut report = Report::default();
    let expected = phases.plain_ok().next().map_or(1, |(_, r)| r.ops.max(1));
    let reference = first_digest(&phases);
    account(&mut report, &phases, expected, |_, _| reference);
    common_metrics(&mut report, &phases);
    if let Some(log) = &phases.timed_log {
        let n = phases.traced_rounds();
        let lda = layers::total(log, "lda.train");
        report.set(
            "graph.closeness_s",
            layers::total(log, "graph.closeness") / n,
        );
        report.set(
            "graph.betweenness_s",
            (layers::total(log, "graph.betweenness")
                + layers::total(log, "graph.betweenness_sampled"))
                / n,
        );
        report.set("topics.lda_train_s", lda / n);
        if lda > 0.0 {
            report.set(
                "topics.lda_sweeps_per_s",
                layers::counter(log, "lda.gibbs.sweeps") as f64 / lda,
            );
        }
        report.set(
            "features.assemble_s",
            layers::total_self(log, "features.bucket") / n,
        );
        report.set(
            "features.pairs",
            (layers::counter(log, "features.pairs.pos")
                + layers::counter(log, "features.pairs.neg")) as f64
                / n,
        );
        report.set(
            "store.columnar_read_s",
            (layers::total(log, "store.columnar_open")
                + layers::total(log, "store.columnar_stream"))
                / n,
        );
        report.set(
            "store.columnar_write_s",
            layers::total(log, "store.columnar_write"),
        );
        let bytes: u64 = phases.traced_ok().map(|(_, r)| r.extra).sum();
        report.set("store.columnar_bytes", bytes as f64 / n);
    }
    report
}
