//! Multi-seed execution and summary statistics.

use crate::scenario::Scenario;
use crate::stats::Distribution;
use crate::tracker::AdOutcome;
use crate::world::World;
use ia_radio::TrafficStats;

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Per-ad outcomes.
    pub ads: Vec<AdOutcome>,
    /// Per-ad delivery-wait distributions (same indexing as `ads`).
    pub delivery_time_dist: Vec<Distribution>,
    /// Channel statistics over the whole run (= one life cycle for the
    /// paper scenarios, whose horizon is the ad's window end).
    pub traffic: TrafficStats,
}

impl RunResult {
    /// What `world` reports (after [`World::run`]: the run's outcome).
    pub fn of(world: &World) -> Self {
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

    /// Delivery rate (%), averaged over ads (single-ad runs: that ad's).
    pub fn delivery_rate(&self) -> f64 {
        if self.ads.is_empty() {
            return 0.0;
        }
        self.ads.iter().map(|a| a.delivery_rate).sum::<f64>() / self.ads.len() as f64
    }

    /// Mean delivery time (s), averaged over ads with deliveries.
    pub fn delivery_time(&self) -> f64 {
        let with: Vec<&AdOutcome> = self.ads.iter().filter(|a| a.delivered > 0).collect();
        if with.is_empty() {
            return 0.0;
        }
        with.iter().map(|a| a.mean_delivery_time).sum::<f64>() / with.len() as f64
    }

    /// The paper's Number of Messages.
    pub fn messages(&self) -> u64 {
        self.traffic.messages
    }
}

/// Execute one scenario.
pub fn run_scenario(scenario: &Scenario) -> RunResult {
    let mut world = World::new(scenario.clone());
    world.run();
    RunResult::of(&world)
}

/// Execute the scenario once per seed, in parallel, with the worker count
/// bounded by the machine's parallelism.
pub fn run_seeds(scenario: &Scenario, seeds: &[u64]) -> Vec<RunResult> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    run_seeds_with_threads(scenario, seeds, threads)
}

/// Execute the scenario once per seed across exactly `threads` workers.
///
/// Workers pull seed indices from a shared atomic queue, so uneven
/// per-seed run times never idle a thread (the previous implementation
/// pre-chunked the seed list, which both mis-sliced when
/// `seeds.len() % threads != 0` and pinned slow seeds to one worker).
/// Results come back in seed order — index `i` is always `seeds[i]` —
/// regardless of which worker ran which seed.
pub fn run_seeds_with_threads(
    scenario: &Scenario,
    seeds: &[u64],
    threads: usize,
) -> Vec<RunResult> {
    let threads = threads.clamp(1, seeds.len().max(1));
    if seeds.len() <= 1 || threads == 1 {
        return seeds
            .iter()
            .map(|&s| run_scenario(&scenario.clone().with_seed(s)))
            .collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::OnceLock<RunResult>> = (0..seeds.len())
        .map(|_| std::sync::OnceLock::new())
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else { break };
                let result = run_scenario(&scenario.clone().with_seed(seed));
                slots[i].set(result).expect("seed slot claimed twice");
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("missing run"))
        .collect()
}

/// Mean/stddev summary over a seed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub runs: usize,
    pub delivery_rate_mean: f64,
    pub delivery_rate_std: f64,
    pub delivery_time_mean: f64,
    pub delivery_time_std: f64,
    pub messages_mean: f64,
    pub messages_std: f64,
}

fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() == 1 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

/// Aggregate a seed sweep.
pub fn summarize(results: &[RunResult]) -> Summary {
    let rates: Vec<f64> = results.iter().map(|r| r.delivery_rate()).collect();
    let times: Vec<f64> = results.iter().map(|r| r.delivery_time()).collect();
    let msgs: Vec<f64> = results.iter().map(|r| r.messages() as f64).collect();
    let (delivery_rate_mean, delivery_rate_std) = mean_std(&rates);
    let (delivery_time_mean, delivery_time_std) = mean_std(&times);
    let (messages_mean, messages_std) = mean_std(&msgs);
    Summary {
        runs: results.len(),
        delivery_rate_mean,
        delivery_rate_std,
        delivery_time_mean,
        delivery_time_std,
        messages_mean,
        messages_std,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_core::ProtocolKind;
    use ia_des::SimDuration;

    fn tiny(n: usize) -> Scenario {
        Scenario::paper(ProtocolKind::Gossip, n).with_life_cycle(SimDuration::from_secs(200.0))
    }

    #[test]
    fn run_scenario_produces_consistent_result() {
        let r = run_scenario(&tiny(60));
        assert_eq!(r.ads.len(), 1);
        assert!(r.messages() > 0);
        assert_eq!(r.messages(), r.traffic.messages);
        assert!((0.0..=100.0).contains(&r.delivery_rate()));
        // Distribution agrees with the outcome's mean and sample count.
        let d = &r.delivery_time_dist[0];
        assert_eq!(d.count, r.ads[0].delivered_passages);
        assert!((d.mean - r.ads[0].mean_delivery_time).abs() < 1e-9);
        assert!(d.p50 <= d.p90 && d.p90 <= d.p99 && d.p99 <= d.max);
    }

    #[test]
    fn run_seeds_matches_individual_runs() {
        let s = tiny(40);
        let sweep = run_seeds(&s, &[11, 12, 13]);
        assert_eq!(sweep.len(), 3);
        let solo = run_scenario(&s.clone().with_seed(12));
        assert_eq!(sweep[1], solo, "parallel sweep must equal a solo run");
    }

    #[test]
    fn work_queue_yields_every_seed_in_order_for_any_thread_count() {
        let s = tiny(30);
        let seeds: Vec<u64> = (100..107).collect();
        let baseline: Vec<RunResult> = seeds
            .iter()
            .map(|&seed| run_scenario(&s.clone().with_seed(seed)))
            .collect();
        // 7 seeds across thread counts that divide unevenly (and one
        // larger than the seed count) — the old chunked implementation
        // mis-sliced exactly these shapes.
        for threads in [1, 2, 3, 5, 16] {
            let sweep = run_seeds_with_threads(&s, &seeds, threads);
            assert_eq!(sweep.len(), seeds.len(), "threads={threads}");
            assert_eq!(sweep, baseline, "threads={threads}");
        }
    }

    #[test]
    fn work_queue_handles_empty_seed_list() {
        assert!(run_seeds_with_threads(&tiny(30), &[], 4).is_empty());
    }

    #[test]
    fn summarize_computes_mean_and_std() {
        let s = tiny(40);
        let sweep = run_seeds(&s, &[1, 2, 3, 4]);
        let sum = summarize(&sweep);
        assert_eq!(sum.runs, 4);
        assert!(sum.messages_mean > 0.0);
        assert!(sum.delivery_rate_mean >= 0.0);
        assert!(sum.messages_std >= 0.0);
        // Mean must sit inside the observed range.
        let lo = sweep
            .iter()
            .map(|r| r.messages() as f64)
            .fold(f64::MAX, f64::min);
        let hi = sweep
            .iter()
            .map(|r| r.messages() as f64)
            .fold(0.0, f64::max);
        assert!(sum.messages_mean >= lo && sum.messages_mean <= hi);
    }

    #[test]
    fn mean_std_edge_cases() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]), (5.0, 0.0));
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert!((s - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_result_is_safe() {
        let r = RunResult {
            ads: vec![],
            delivery_time_dist: vec![],
            traffic: TrafficStats::new(),
        };
        assert_eq!(r.delivery_rate(), 0.0);
        assert_eq!(r.delivery_time(), 0.0);
    }
}
