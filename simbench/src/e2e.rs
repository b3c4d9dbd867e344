//! End-to-end measurement: untraced runs, repeated for the time budget.

use crate::alloc::{self, AllocCount};
use crate::calib::{scaled, Calibration};
use crate::provenance::digest_of;
use crate::report::Report;
use ia_experiments::{RunResult, Scenario, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Fewest runs an end-to-end measurement makes, however short its budget:
/// enough for a median and a digest comparison.
const MIN_RUNS: usize = 3;

/// One untraced run.
pub struct Run {
    /// Wall times of `World::new` and `World::run`.
    pub setup_s: f64,
    pub run_s: f64,
    /// Mean time of the calibration kernel timed before and after.
    pub kernel_s: f64,
    /// Peak live heap over set-up plus run, bytes above the level at start.
    pub peak_heap: usize,
    /// Allocations made inside `World::run`.
    pub allocs: AllocCount,
    pub events: u64,
    pub result: RunResult,
    /// Digest of `result`, which carries the run's `TrafficStats`.
    pub digest: u64,
}

/// Build and run `scenario` once, timing set-up and run separately, with
/// the calibration kernel timed on either side.
pub fn run_once(scenario: &Scenario, calibration: &mut Calibration) -> Run {
    let scenario = scenario.clone();
    let kernel_before = calibration.time();
    let heap_base = alloc::reset_peak();
    let start = Instant::now();
    let mut world = World::new(scenario);
    let setup_s = start.elapsed().as_secs_f64();
    let allocs_base = AllocCount::now();
    let start = Instant::now();
    world.run();
    let run_s = start.elapsed().as_secs_f64();
    let allocs = AllocCount::now().since(allocs_base);
    let peak_heap = alloc::peak().saturating_sub(heap_base);
    let kernel_s = (kernel_before + calibration.time()) / 2.0;
    let result = run_result(&world);
    Run {
        setup_s,
        run_s,
        kernel_s,
        peak_heap,
        allocs,
        events: world.events_processed(),
        digest: digest_of(&result),
        result,
    }
}

/// A finished world's `RunResult`, assembled as `run_scenario` does.
pub fn run_result(world: &World) -> RunResult {
    let ads = world.tracker().outcomes();
    let delivery_time_dist = (0..ads.len())
        .map(|i| world.tracker().delivery_time_distribution(i))
        .collect();
    RunResult {
        ads,
        delivery_time_dist,
        traffic: world.medium().stats().clone(),
    }
}

/// The completed runs of a measurement, and how many panicked.
pub struct Runs {
    pub done: Vec<Run>,
    pub panicked: usize,
}

impl Runs {
    /// Run `scenario` until `budget` has passed and at least `min` runs
    /// were attempted.
    pub fn collect(scenario: &Scenario, budget: Duration, min: usize) -> Runs {
        let mut calibration = Calibration::new();
        let deadline = Instant::now() + budget;
        let mut runs = Runs {
            done: Vec::new(),
            panicked: 0,
        };
        while runs.attempted() < min || Instant::now() < deadline {
            match catch_unwind(AssertUnwindSafe(|| run_once(scenario, &mut calibration))) {
                Ok(run) => runs.done.push(run),
                Err(_) => runs.panicked += 1,
            }
        }
        runs
    }

    pub fn attempted(&self) -> usize {
        self.done.len() + self.panicked
    }

    /// The first run of the outcome most runs share.
    pub fn consensus(&self) -> Option<&Run> {
        let agreeing = |run: &Run| self.done.iter().filter(|r| r.digest == run.digest).count();
        let most = self.done.iter().map(agreeing).max()?;
        self.done.iter().find(|run| agreeing(run) == most)
    }

    /// Runs that panicked or whose outcome differs from the consensus.
    pub fn failed(&self) -> usize {
        let consensus = self.consensus().map(|run| run.digest);
        self.panicked
            + self
                .done
                .iter()
                .filter(|run| Some(run.digest) != consensus)
                .count()
    }

    pub fn median(&self, metric: impl Fn(&Run) -> f64) -> f64 {
        median(self.done.iter().map(metric).collect())
    }
}

/// Median of `values`; 0 when there are none.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Range and consistency checks on a run's paper metrics (their exact
/// values differ from seed to seed).
fn plausible(result: &RunResult) -> bool {
    !result.ads.is_empty()
        && result.messages() > 0
        && (0.0..=100.0).contains(&result.delivery_rate())
        && result.delivery_time().is_finite()
        && result.delivery_time() >= 0.0
        && result
            .ads
            .iter()
            .all(|ad| ad.delivered <= ad.passed && ad.delivered_passages <= ad.passages)
}

/// Run `scenario` untraced for `seconds` and report the end-to-end
/// metrics, with the consensus outcome digest.
pub fn measure(scenario: &Scenario, seconds: f64) -> (Report, Option<u64>) {
    let runs = Runs::collect(scenario, Duration::from_secs_f64(seconds), MIN_RUNS);
    let consensus = runs.consensus();
    let mut report = Report {
        attempted: runs.attempted() as u64,
        failed: runs.failed() as u64,
        ..Report::default()
    };
    report.correct = report.failed == 0 && consensus.is_some_and(|run| plausible(&run.result));
    let paper = consensus.map(|run| &run.result);
    report.push("run_s", runs.median(|r| scaled(r.run_s, r.kernel_s)), "s");
    report.push(
        "setup_s",
        runs.median(|r| scaled(r.setup_s, r.kernel_s)),
        "s",
    );
    report.push(
        "peak_heap_mb",
        runs.median(|r| r.peak_heap as f64) / 1e6,
        "MB",
    );
    report.push(
        "delivery_rate_pct",
        paper.map_or(0.0, RunResult::delivery_rate),
        "%",
    );
    report.push(
        "delivery_time_s",
        paper.map_or(0.0, RunResult::delivery_time),
        "s",
    );
    report.push(
        "messages",
        paper.map_or(0.0, |p| p.messages() as f64),
        "count",
    );
    let reproducible = (report.attempted - report.failed) as f64;
    report.push(
        "reproducible_runs_pct",
        100.0 * per(reproducible, report.attempted as f64),
        "%",
    );
    (report, consensus.map(|run| run.digest))
}
