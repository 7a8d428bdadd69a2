//! Output checks. Each returns the reason an output is wrong; the
//! workloads count every failed check against the operations it
//! covers, so a wrong answer is never reported as a fast one.

use forumcast_data::ReplayReport;
use forumcast_eval::FoldOutcome;
use forumcast_recsys::Candidate;

/// A fold passes when all six metrics are finite and our model's AUC
/// lies in (0.5, 1].
pub fn fold(outcome: &FoldOutcome) -> Result<(), String> {
    let all = [
        outcome.auc,
        outcome.auc_baseline,
        outcome.rmse_votes,
        outcome.rmse_votes_baseline,
        outcome.rmse_time,
        outcome.rmse_time_baseline,
    ];
    if !all.iter().all(|v| v.is_finite()) {
        return Err(format!("non-finite fold outcome {outcome:?}"));
    }
    if !(outcome.auc > 0.5 && outcome.auc <= 1.0) {
        return Err(format!("answer AUC {} outside (0.5, 1]", outcome.auc));
    }
    Ok(())
}

/// Shape of a spilled experiment: positive rows, negative rows, and
/// the feature dimension.
pub type Shape = (usize, usize, usize);

/// A spill passes when the reopened shape and the rows streamed back
/// equal what was written, and no feature is non-finite.
pub fn spill(
    written: Shape,
    reopened: Shape,
    streamed: Shape,
    non_finite: u64,
) -> Result<(), String> {
    if reopened != written {
        return Err(format!(
            "reopened shape {reopened:?} != written {written:?}"
        ));
    }
    if streamed != written {
        return Err(format!(
            "streamed shape {streamed:?} != written {written:?}"
        ));
    }
    if non_finite > 0 {
        return Err(format!("{non_finite} non-finite feature value(s)"));
    }
    Ok(())
}

/// Every model prediction for a routed question must be finite.
pub fn predictions(candidates: &[Candidate]) -> Result<(), String> {
    match candidates.iter().find(|c| {
        !(c.answer_prob.is_finite() && c.votes.is_finite() && c.response_time.is_finite())
    }) {
        Some(c) => Err(format!("non-finite prediction for {}: {c:?}", c.user)),
        None => Ok(()),
    }
}

/// A routing distribution passes when it sums to 1 within 1e-9 and
/// every `p_u` lies in `[0, remaining capacity of u]`.
pub fn distribution(probabilities: &[f64], remaining: &[f64]) -> Result<(), String> {
    if probabilities.len() != remaining.len() {
        return Err(format!(
            "{} probabilities for {} eligible users",
            probabilities.len(),
            remaining.len()
        ));
    }
    let sum: f64 = probabilities.iter().sum();
    if sum.is_nan() || (sum - 1.0).abs() > 1e-9 {
        return Err(format!("routing probabilities sum to {sum}"));
    }
    for (i, (&p, &cap)) in probabilities.iter().zip(remaining).enumerate() {
        if !(p >= 0.0 && p <= cap + 1e-12) {
            return Err(format!("p[{i}] = {p} outside [0, {cap}]"));
        }
    }
    Ok(())
}

/// A replayed (or freshly ingested) log passes when its state hash
/// equals the set-up reference and no event was a duplicate, a gap or
/// poison.
pub fn replay(what: &str, hash: u64, reference: u64, report: &ReplayReport) -> Result<(), String> {
    if hash != reference {
        return Err(format!(
            "{what} state hash {hash:#018x} != reference {reference:#018x}"
        ));
    }
    if report.dup_skipped + report.gaps + report.poison_total() > 0 {
        return Err(format!("{what} tallies not clean: {report}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use forumcast_data::UserId;

    fn cand(a: f64) -> Candidate {
        Candidate {
            user: UserId(1),
            answer_prob: a,
            votes: 1.0,
            response_time: 2.0,
        }
    }

    #[test]
    fn sound_outputs_pass() {
        let f = FoldOutcome {
            auc: 0.78,
            auc_baseline: 0.7,
            rmse_votes: 1.0,
            rmse_votes_baseline: 1.2,
            rmse_time: 5.0,
            rmse_time_baseline: 6.0,
        };
        assert!(fold(&f).is_ok());
        assert!(spill((2, 2, 26), (2, 2, 26), (2, 2, 26), 0).is_ok());
        assert!(predictions(&[cand(0.4)]).is_ok());
        assert!(distribution(&[0.25, 0.75], &[1.0, 1.0]).is_ok());
        assert!(replay("replay", 7, 7, &ReplayReport::default()).is_ok());
    }

    #[test]
    fn bad_outputs_fail() {
        let f = FoldOutcome {
            auc: 0.5,
            auc_baseline: 0.7,
            rmse_votes: 1.0,
            rmse_votes_baseline: 1.2,
            rmse_time: 5.0,
            rmse_time_baseline: 6.0,
        };
        assert!(fold(&f).is_err());
        assert!(fold(&FoldOutcome {
            auc: 0.8,
            rmse_time: f64::NAN,
            ..f
        })
        .is_err());
        assert!(spill((2, 2, 26), (2, 1, 26), (2, 2, 26), 0).is_err());
        assert!(spill((2, 2, 26), (2, 2, 26), (2, 2, 26), 1).is_err());
        assert!(predictions(&[cand(f64::NAN)]).is_err());
        assert!(distribution(&[0.5, 0.4], &[1.0, 1.0]).is_err());
        assert!(distribution(&[1.5, -0.5], &[2.0, 1.0]).is_err());
        assert!(distribution(&[0.5, 0.5], &[1.0, 0.25]).is_err());
        assert!(distribution(&[f64::NAN, 1.0], &[1.0, 1.0]).is_err());
        assert!(replay("replay", 7, 7 ^ 1, &ReplayReport::default()).is_err());
        let dirty = ReplayReport {
            gaps: 1,
            ..ReplayReport::default()
        };
        assert!(replay("replay", 7, 7, &dirty).is_err());
    }
}
