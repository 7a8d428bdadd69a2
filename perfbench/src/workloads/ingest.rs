//! `ingest_paper`: the event log, writes beside reads. Set-up generates
//! the paper-scale forum, turns it into its event stream and folds the
//! stream in memory for the reference state hash. Each round appends
//! the stream to a fresh log (`ingest_events`) and replays it
//! (`replay_wal` on one thread).

use std::time::Instant;

use forumcast_data::{encode_event, ForumEvent, Ingestor};
use forumcast_synth::SynthConfig;
use forumcast_wal::{FsyncPolicy, Wal, WalConfig};

use super::{account, common_metrics, drive, first_digest, Round};
use crate::checks;
use crate::harness::{dir_bytes, median, Digest, Opts, WorkDir};
use crate::layers;
use crate::metrics::Report;

/// WAL segment size: 8 MiB, so a paper-scale round rotates twice and
/// fsyncs three times (the 64 KiB default fsyncs ~340 times a round,
/// which measures the disk rather than the program).
const SEGMENT_BYTES: u64 = 8 << 20;

/// The set-up output.
struct Stream {
    /// The forum as events, ids = indices.
    events: Vec<ForumEvent>,
    /// State hash of the events folded in memory.
    reference: u64,
}

fn fold(events: &[ForumEvent]) -> u64 {
    let mut ingestor = Ingestor::new();
    for (id, e) in events.iter().enumerate() {
        ingestor.offer_event(id as u64, e.clone());
    }
    ingestor.finish();
    ingestor.state().hash()
}

/// Per-round measurements.
#[derive(Debug, Default, Clone)]
struct Logged {
    /// Seconds in `ingest_events`.
    append_s: f64,
    /// Seconds in `replay_wal`.
    replay_s: f64,
    /// Segments written; each was fsynced once (on rotation or finish).
    segments: u64,
    /// Bytes of the log directory.
    bytes: u64,
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let synth = if opts.tiny {
        SynthConfig::small()
    } else {
        SynthConfig::paper_scale()
    }
    .with_seed(opts.seed);
    let cfg = WalConfig {
        fingerprint: format!("perfbench ingest seed={}", opts.seed),
        segment_bytes: SEGMENT_BYTES,
        fsync: FsyncPolicy::OnRotate,
    };
    let work = WorkDir::new("ingest");
    let phases = drive(
        opts,
        1,
        || {
            let raw = forumcast_synth::generate_with_threads(&synth, 1);
            let events = {
                let _s = forumcast_obs::span("data.events_from_dataset");
                forumcast_data::events_from_dataset(&raw)
            };
            let reference = {
                let _s = forumcast_obs::span("data.reference_fold");
                fold(&events)
            };
            let _s = forumcast_obs::span("data.drop_dataset");
            drop(raw);
            Ok(Stream { events, reference })
        },
        |stream, i| {
            let dir = work.fresh(&format!("wal-{i}"));
            let started = Instant::now();
            let ingested = {
                let _s = forumcast_obs::span("wal.ingest");
                forumcast_data::ingest_events(&dir, &cfg, &stream.events)
            }
            .map_err(|e| e.to_string())?;
            let append_s = started.elapsed().as_secs_f64();
            let started = Instant::now();
            let replayed = {
                let _s = forumcast_obs::span("data.replay");
                forumcast_data::replay_wal(&dir, 1)
            }
            .map_err(|e| e.to_string())?;
            let replay_s = started.elapsed().as_secs_f64();

            let mut round = Round {
                extra: Logged {
                    append_s,
                    replay_s,
                    segments: replayed.segments as u64,
                    bytes: dir_bytes(&dir),
                },
                ..Round::default()
            };
            let (ingest_hash, replay_hash) = {
                let _s = forumcast_obs::span("data.state_hash");
                (ingested.state.hash(), replayed.state.hash())
            };
            round.digest = Digest(replay_hash);
            let clean_log = if ingested.resumed_from + ingested.reopens > 0 || replayed.damaged > 0
            {
                Err(format!(
                    "log not clean: resumed from {}, {} reopen(s), {} damaged segment(s)",
                    ingested.resumed_from, ingested.reopens, replayed.damaged
                ))
            } else {
                Ok(())
            };
            let check = checks::replay("ingest", ingest_hash, stream.reference, &ingested.report)
                .and(checks::replay(
                    "replay",
                    replay_hash,
                    stream.reference,
                    &replayed.report,
                ))
                .and(clean_log);
            round.check(stream.events.len() as u64, check);
            {
                // Freeing the two folded states is data-layer work.
                let _s = forumcast_obs::span("data.drop_state");
                drop((ingested, replayed));
            }
            // Deleting the logs is the benchmark's own work: leave a
            // traced round's log to the next untraced round, outside
            // the armed window.
            if !forumcast_obs::is_enabled() {
                work.clear();
            }
            Ok((append_s + replay_s, round))
        },
        |stream| {
            // `ingest_events` encodes, appends and folds in one call:
            // time each layer alone on the same events.
            let payloads: Vec<Vec<u8>> = {
                let _s = forumcast_obs::span("data.event_encode");
                stream.events.iter().map(encode_event).collect()
            };
            {
                let _s = forumcast_obs::span("wal.append");
                let (mut wal, _) = Wal::open(&work.fresh("probe"), cfg.clone())
                    .map_err(|e| format!("opening the probe log: {e}"))?;
                for (id, p) in payloads.iter().enumerate() {
                    wal.append(id as u64, p)
                        .map_err(|e| format!("appending event {id}: {e}"))?;
                }
                wal.finish()
                    .map_err(|e| format!("finishing the probe log: {e}"))?;
            }
            let _s = forumcast_obs::span("data.fold");
            fold(&stream.events);
            Ok(())
        },
    );
    let phases = match phases {
        Ok(p) => p,
        Err(e) => return Report::setup_failed(e),
    };

    let mut report = Report::default();
    let events = phases.state.events.len() as u64;
    let reference = first_digest(&phases);
    account(&mut report, &phases, events, |_, _| reference);
    common_metrics(&mut report, &phases);
    let append: Vec<f64> = phases.plain_ok().map(|(_, r)| r.extra.append_s).collect();
    let replay: Vec<f64> = phases.plain_ok().map(|(_, r)| r.extra.replay_s).collect();
    if !append.is_empty() {
        report.set("append_events_per_s", events as f64 / median(&append));
        report.set("replay_events_per_s", events as f64 / median(&replay));
    }
    if let Some(log) = &phases.timed_log {
        let n = phases.traced_rounds();
        report.set(
            "data.event_encode_s",
            layers::total(log, "data.event_encode"),
        );
        report.set("wal.append_s", layers::total(log, "wal.append"));
        report.set("data.replay_fold_s", layers::total(log, "data.fold"));
        report.set(
            "wal.replay_decode_s",
            layers::total(log, "wal.replay.segment") / n,
        );
        let per_round = |f: fn(&Logged) -> u64| {
            phases.traced_ok().map(|(_, r)| f(&r.extra)).sum::<u64>() as f64 / n
        };
        report.set("wal.fsyncs", per_round(|l| l.segments));
        report.set("wal.bytes", per_round(|l| l.bytes));
    }
    report
}
