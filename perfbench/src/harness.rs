//! Shared machinery: options, repeated set-up, the timed round loop,
//! order statistics, scratch directories and output digests.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How one run is configured on the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: generator and evaluation seed.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Tiny inputs for the benchmark's own tests.
    pub tiny: bool,
}

/// Set-up runs at least this many times per run; `setup_s` is the
/// median.
pub const MIN_SETUP_REPEATS: usize = 3;

/// Cheap set-ups repeat until this many seconds of set-up have been
/// measured, so their median rests on more samples.
pub const SETUP_BUDGET_S: f64 = 5.0;

/// Set-up never runs more often than this.
pub const MAX_SETUP_REPEATS: usize = 7;

/// Name of the root span every armed window opens, so the per-layer
/// analysis can tell the benchmark's main thread from worker tasks.
pub const ROOT_SPAN: &str = "perfbench";

/// Pins the worker-thread count of every layer that sizes its pool
/// from the environment (`FORUMCAST_THREADS`), so a run uses the same
/// parallelism on any host. Called only while no other thread runs.
pub fn pin_threads(n: usize) {
    std::env::set_var("FORUMCAST_THREADS", n.to_string());
}

/// Runs `f` single-threaded [`MIN_SETUP_REPEATS`] times, then again
/// while the set-ups so far took less than [`SETUP_BUDGET_S`], up to
/// [`MAX_SETUP_REPEATS`]. Keeps the last output and returns it with the
/// number of repeats and the median set-up time in seconds.
///
/// # Errors
///
/// Returns the first set-up error: no round can run without set-up.
pub fn setup_repeated<T>(
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, usize, f64), String> {
    pin_threads(1);
    let mut secs: Vec<f64> = Vec::with_capacity(MAX_SETUP_REPEATS);
    let mut last = None;
    while secs.len() < MIN_SETUP_REPEATS
        || (secs.len() < MAX_SETUP_REPEATS && secs.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous copy first so peak memory holds one.
        drop(last.take());
        let started = Instant::now();
        let out = f()?;
        secs.push(started.elapsed().as_secs_f64());
        last = Some(out);
    }
    let out = last.expect("at least one set-up ran");
    Ok((out, secs.len(), median(&secs)))
}

/// The outcome of one timed round: the round's time in seconds (the
/// workload decides what it covers) and its output, or the reason it
/// failed — an error or a caught panic.
pub type RoundResult<T> = Result<(f64, T), String>;

/// Runs rounds until the budget is spent: always one round, then
/// another only while the median round so far (wall clock, checks
/// included) still fits in `budget_s`.
pub fn run_rounds<T>(
    budget_s: f64,
    mut round: impl FnMut(usize) -> Result<(f64, T), String>,
) -> Vec<RoundResult<T>> {
    let started = Instant::now();
    let mut results = Vec::new();
    let mut walls = Vec::new();
    loop {
        let i = results.len();
        let r_started = Instant::now();
        results.push(caught(i, || round(i)));
        walls.push(r_started.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() + median(&walls) > budget_s {
            return results;
        }
    }
}

/// Runs every round twice, untraced and traced (`round(i, traced)`),
/// until the budget is spent, the way [`run_rounds`] runs single
/// rounds. Even pairs run the untraced round first, odd pairs the
/// traced one, so neither side always runs warm. The two rounds of a
/// pair run back to back, so host speed drift slower than a pair
/// affects both alike. Returns the untraced and the traced results,
/// index `i` of each from pair `i`.
pub fn run_pairs<T>(
    budget_s: f64,
    mut round: impl FnMut(usize, bool) -> Result<(f64, T), String>,
) -> (Vec<RoundResult<T>>, Vec<RoundResult<T>>) {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    run_rounds(budget_s, |i| {
        for armed in [i % 2 == 1, i % 2 == 0] {
            let r = caught(i, || round(i, armed));
            if armed {
                traced.push(r);
            } else {
                plain.push(r);
            }
        }
        Ok((0.0, ()))
    });
    (plain, traced)
}

/// Runs round `i`, turning a panic into an error.
fn caught<T>(i: usize, round: impl FnOnce() -> Result<(f64, T), String>) -> RoundResult<T> {
    match catch_unwind(AssertUnwindSafe(round)) {
        Ok(r) => r,
        Err(payload) => Err(format!("round {i} panicked: {}", panic_message(&*payload))),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 when
/// empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    forumcast_obs::peak_rss_kb() as f64 / 1024.0
}

/// A scratch directory under `.bench_work/` in the working directory,
/// unique to this process and tag, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates (or empties) the scratch directory for `tag`.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created: every workload
    /// that needs one writes to disk, so no run is possible without.
    pub fn new(tag: &str) -> Self {
        let path = PathBuf::from(".bench_work").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        WorkDir { path }
    }

    /// The path of sub-directory `name`, removed first if present.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.existing(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Removes every sub-directory.
    pub fn clear(&self) {
        let _ = std::fs::remove_dir_all(&self.path);
        let _ = std::fs::create_dir_all(&self.path);
    }

    /// The path of sub-directory `name`, as a previous step left it.
    pub fn existing(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Remove the shared parent too once no other run uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Total size in bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// FNV-1a over 64-bit words (a word, not a byte, per step): a digest
/// of a round's outputs, used to check that rounds, and the traced and
/// untraced runs, agree bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Mixes the bits of a float in.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rounds_stop_within_budget_and_catch_panics() {
        let r = run_rounds(0.0, |_| -> Result<(f64, ()), String> { panic!("boom") });
        assert_eq!(r.len(), 1);
        assert!(r[0].as_ref().unwrap_err().contains("boom"));
        let r = run_rounds(0.05, |_| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            Ok((0.01, ()))
        });
        assert!(r.len() >= 2 && r.len() <= 6, "{} rounds", r.len());
    }

    #[test]
    fn pairs_alternate_which_side_runs_first() {
        let mut order = Vec::new();
        let (plain, traced) = run_pairs(0.05, |i, armed| {
            order.push((i, armed));
            std::thread::sleep(std::time::Duration::from_millis(5));
            Ok((0.005, i))
        });
        assert!(plain.len() >= 2, "{} pairs", plain.len());
        assert_eq!(plain.len(), traced.len());
        assert_eq!(&order[..4], &[(0, false), (0, true), (1, true), (1, false)]);
        for (i, (p, t)) in plain.iter().zip(&traced).enumerate() {
            assert_eq!(p.as_ref().unwrap().1, i);
            assert_eq!(t.as_ref().unwrap().1, i);
        }
    }
}
