//! Persistent perf baseline: wall-clock, events/sec, and ns/event for the
//! paper-scale fig-7 presets, the ext-6 chaos preset, and (with `--city`)
//! two city-scale presets that stress the flat CSR spatial index.
//!
//! Every run produces a JSON report — printed to stdout, or written to
//! the file `--out` names — so later changes have a trajectory to beat;
//! `--check FILE` turns the binary into a CI regression gate against a
//! checked-in baseline. Without `--out` nothing is written, so a bare run
//! never overwrites a checked-in baseline. Reports carry a
//! `meta` provenance block (rustc version, CPU model, git commit) so
//! checked-in baselines are auditable, per-preset operation counters
//! (queue pushes/pops/cancels/cascades, grid rebuilds/queries — all
//! deterministic), and a wall-clock phase breakdown (queue / grid /
//! protocol / observer nanoseconds) collected from one extra
//! instrumented run per preset so the headline timings stay clean.
//! `--check` and `--reference` parse only the headline fields inside
//! `presets`, so the extra blocks never perturb the gates.
//!
//! Usage:
//!   cargo run --release -p ia-experiments --bin perfstat -- \
//!       [--quick] [--city] [--runs N] [--out FILE] [--check FILE] \
//!       [--reference FILE]
//!
//! * `--quick`      300 s life cycle instead of the paper's 1800 s (CI smoke).
//! * `--city`       add `fig7-opt-3000` (paper field at 3× density) and
//!   `city-10000` (10 000 peers at the paper's 40 /km², a ~15.8 km side) —
//!   off by default so the CI gate stays fast.
//! * `--runs N`     repeat each preset N times, keep the fastest (default 1;
//!   timings are min-of-N, event counts are per run and identical across
//!   repeats by determinism).
//! * `--out FILE`   write the JSON report to FILE instead of printing it.
//! * `--check FILE` read a previous report and fail (exit 1) if any preset
//!   regressed by more than 20 % in ns/event (presets absent from the
//!   baseline are skipped).
//! * `--reference FILE` embed a pre-optimization report and record the
//!   wall-clock speedup against it; presets the reference lacks (e.g. the
//!   city pair vs a pre-city baseline) are excluded from the totals.
//!
//! Presets are single-thread, fixed-seed, release-mode; event counts are
//! deterministic, wall-clock obviously is not — the 20 % gate leaves room
//! for machine noise while catching real hot-path regressions.

use ia_core::ProtocolKind;
use ia_des::{QueueStats, SimDuration};
use ia_experiments::figures::chaos;
use ia_experiments::world::PhaseProfile;
use ia_experiments::{Scenario, World};
use ia_geo::{Point, Rect};
use std::time::Instant;

/// One measured preset.
struct Measurement {
    name: &'static str,
    events: u64,
    wall_s: f64,
    /// Deterministic operation counters from the timed run.
    queue: QueueStats,
    grid_rebuilds: u64,
    grid_queries: u64,
    /// Wall-clock phase breakdown from a separate instrumented run.
    phases: PhaseProfile,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }

    fn ns_per_event(&self) -> f64 {
        self.wall_s * 1e9 / self.events as f64
    }
}

/// Life cycle for the presets (paper scale or `--quick`).
fn life_cycle(quick: bool) -> SimDuration {
    if quick {
        SimDuration::from_secs(300.0)
    } else {
        SimDuration::from_secs(1800.0)
    }
}

/// The fig-7 presets: the three headline protocols at 300 peers plus the
/// paper's densest point (1000 peers, Optimized Gossiping), all at seed 1.
fn fig7_presets(quick: bool) -> Vec<(&'static str, Scenario)> {
    let lc = life_cycle(quick);
    let mut v = vec![
        (
            "fig7-flooding-300",
            Scenario::paper(ProtocolKind::Flooding, 300)
                .with_seed(1)
                .with_life_cycle(lc),
        ),
        (
            "fig7-gossip-300",
            Scenario::paper(ProtocolKind::Gossip, 300)
                .with_seed(1)
                .with_life_cycle(lc),
        ),
        (
            "fig7-opt-300",
            Scenario::paper(ProtocolKind::OptGossip, 300)
                .with_seed(1)
                .with_life_cycle(lc),
        ),
    ];
    if !quick {
        v.push((
            "fig7-opt-1000",
            Scenario::paper(ProtocolKind::OptGossip, 1000)
                .with_seed(1)
                .with_life_cycle(lc),
        ));
    }
    v
}

/// City-scale presets: the paper field at 3× the densest published point
/// (grid-cell occupancy stress) and a 10 000-peer city at the paper's
/// 40 /km² density (offset-table size + rebuild-throughput stress). The
/// ad stays at the field centre so the workload shape matches fig. 7.
fn city_presets(quick: bool) -> Vec<(&'static str, Scenario)> {
    let lc = life_cycle(quick);
    let dense = Scenario::paper(ProtocolKind::OptGossip, 3000)
        .with_seed(1)
        .with_life_cycle(lc);
    // 10 000 peers at 40 /km² => 250 km² => ~15 811 m side.
    let side = (10_000.0 / 40.0 * 1.0e6_f64).sqrt();
    let mut city = Scenario::paper(ProtocolKind::OptGossip, 10_000)
        .with_seed(1)
        .with_life_cycle(lc);
    city.area = Rect::with_size(side, side);
    for ad in &mut city.ads {
        ad.issue_pos = Point::new(side / 2.0, side / 2.0);
    }
    dense.validate();
    city.validate();
    vec![("fig7-opt-3000", dense), ("city-10000", city)]
}

/// The ext-6 chaos preset: the severe rung of the fault ladder under
/// gossiping (the chaos binary's worst-case cell).
fn chaos_preset(quick: bool) -> (&'static str, Scenario) {
    let severe = chaos::levels().pop().expect("severe level exists");
    assert_eq!(severe.label, "severe");
    let mut s = Scenario::paper(ProtocolKind::Gossip, chaos::N_PEERS)
        .with_seed(1)
        .with_life_cycle(life_cycle(quick))
        .with_faults(severe.faults.clone());
    if let Some(after) = severe.issuer_offline_after {
        s = s.with_issuer_offline_after(after);
    }
    ("ext6-chaos-severe", s)
}

/// Run one scenario to the horizon, timed. Returns the events, wall
/// seconds, and the deterministic operation counters.
fn time_run(scenario: &Scenario) -> (u64, f64, QueueStats, u64, u64) {
    let mut world = World::new(scenario.clone());
    let start = Instant::now();
    world.run();
    let wall = start.elapsed().as_secs_f64();
    (
        world.events_processed(),
        wall,
        world.queue_stats(),
        world.medium().grid_rebuilds(),
        world.medium().grid_queries(),
    )
}

/// One extra run with phase profiling on. Its timer-read overhead never
/// touches the headline numbers, which come from `time_run` alone.
fn profile_run(scenario: &Scenario) -> PhaseProfile {
    let mut world = World::new(scenario.clone());
    world.enable_phase_profile();
    world.run();
    *world.phase_profile().expect("profiling enabled")
}

fn measure(name: &'static str, scenario: &Scenario, runs: usize) -> Measurement {
    let mut best_wall = f64::INFINITY;
    let mut events = 0;
    let mut queue = QueueStats::default();
    let mut grid_rebuilds = 0;
    let mut grid_queries = 0;
    for _ in 0..runs.max(1) {
        let (ev, wall, q, gr, gq) = time_run(scenario);
        events = ev;
        best_wall = best_wall.min(wall);
        (queue, grid_rebuilds, grid_queries) = (q, gr, gq);
    }
    let m = Measurement {
        name,
        events,
        wall_s: best_wall,
        queue,
        grid_rebuilds,
        grid_queries,
        phases: profile_run(scenario),
    };
    println!(
        "{:<22} {:>12} events  {:>9.3} s  {:>12.0} ev/s  {:>8.1} ns/event",
        m.name,
        m.events,
        m.wall_s,
        m.events_per_sec(),
        m.ns_per_event()
    );
    println!(
        "{:<22} queue {}/{}/{} push/pop/cancel ({} cascades)  grid {}/{} rebuilds/queries  phases q/g/p/o {}/{}/{}/{} ms",
        "",
        m.queue.pushes,
        m.queue.pops,
        m.queue.cancels,
        m.queue.cascades,
        m.grid_rebuilds,
        m.grid_queries,
        m.phases.queue_ns / 1_000_000,
        m.phases.grid_ns / 1_000_000,
        m.phases.protocol_ns / 1_000_000,
        m.phases.observer_ns / 1_000_000,
    );
    m
}

/// First stdout line of a command, for the provenance block.
fn cmd_line(bin: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(bin).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// The host CPU model, from /proc/cpuinfo (absent on non-Linux hosts).
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
}

/// Escape an arbitrary provenance string for JSON embedding.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance block: toolchain, host, and commit, all best-effort
/// (`unknown` when undeterminable). The gates never parse this block.
fn meta_block() -> String {
    let rustc = cmd_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit =
        cmd_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let cpu = cpu_model().unwrap_or_else(|| "unknown".into());
    format!(
        "  \"meta\": {{\"rustc\": {}, \"git_commit\": {}, \"cpu\": {}}},\n",
        json_string(&rustc),
        json_string(&commit),
        json_string(&cpu)
    )
}

fn json_escape_free(s: &str) -> &str {
    // All emitted strings are fixed-vocabulary identifiers.
    assert!(s
        .chars()
        .all(|c| c.is_ascii_graphic() && c != '"' && c != '\\'));
    s
}

fn render_json(measurements: &[Measurement], quick: bool, reference: Option<&str>) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"ia-perfstat/1\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    out.push_str(&format!("  \"created_unix\": {unix},\n"));
    out.push_str(&meta_block());
    out.push_str("  \"presets\": {\n");
    for (i, m) in measurements.iter().enumerate() {
        // Headline fields first: the `--check`/`--reference` extractor
        // reads the first occurrence after the preset name, so the
        // counter and phase fields after them are invisible to the gates.
        out.push_str(&format!(
            "    \"{}\": {{\"events\": {}, \"wall_s\": {:.6}, \"events_per_sec\": {:.1}, \"ns_per_event\": {:.2}, \
             \"queue_pushes\": {}, \"queue_pops\": {}, \"queue_cancels\": {}, \"queue_cascades\": {}, \
             \"grid_rebuilds\": {}, \"grid_queries\": {}, \
             \"queue_ns\": {}, \"grid_ns\": {}, \"protocol_ns\": {}, \"observer_ns\": {}}}{}\n",
            json_escape_free(m.name),
            m.events,
            m.wall_s,
            m.events_per_sec(),
            m.ns_per_event(),
            m.queue.pushes,
            m.queue.pops,
            m.queue.cancels,
            m.queue.cascades,
            m.grid_rebuilds,
            m.grid_queries,
            m.phases.queue_ns,
            m.phases.grid_ns,
            m.phases.protocol_ns,
            m.phases.observer_ns,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    out.push_str("  }");
    if let Some(ref_block) = reference {
        out.push_str(",\n");
        out.push_str(ref_block);
        out.push('\n');
    } else {
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

/// Minimal extractor for the flat JSON this binary writes: finds
/// `"name": {... "field": X ...}` inside a section.
fn extract_preset(json: &str, section: &str, name: &str, field: &str) -> Option<f64> {
    let tail = &json[json.find(&format!("\"{section}\""))?..];
    let tail = &tail[tail.find(&format!("\"{name}\""))?..];
    let key = format!("\"{field}\":");
    let tail = &tail[tail.find(&key)? + key.len()..];
    let end = tail.find([',', '}'])?;
    tail[..end].trim().parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut city = false;
    let mut runs = 1usize;
    let mut out_path: Option<String> = None;
    let mut check: Option<String> = None;
    let mut reference: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--city" => city = true,
            "--runs" => {
                runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--runs needs a number");
            }
            "--out" => out_path = Some(it.next().expect("--out needs a path").clone()),
            "--check" => check = Some(it.next().expect("--check needs a path").clone()),
            "--reference" => reference = Some(it.next().expect("--reference needs a path").clone()),
            other => panic!("unknown argument: {other}"),
        }
    }

    let mut presets = fig7_presets(quick);
    presets.push(chaos_preset(quick));
    if city {
        presets.extend(city_presets(quick));
    }
    println!(
        "perfstat: {} presets, {} run(s) each, {} life cycle, single thread\n",
        presets.len(),
        runs,
        if quick {
            "quick (300 s)"
        } else {
            "paper (1800 s)"
        }
    );
    let measurements: Vec<Measurement> = presets
        .iter()
        .map(|(name, s)| measure(name, s, runs))
        .collect();

    // Optional pre-optimization reference: embed it and report speedup.
    let ref_block = reference.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read reference {path}: {e}"));
        let mut entries = Vec::new();
        let mut total_ref = 0.0;
        let mut total_cur = 0.0;
        for m in &measurements {
            // Presets the reference never measured (e.g. the city pair
            // vs a pre-city baseline) are excluded from the comparison.
            let Some(wall) = extract_preset(&text, "presets", m.name, "wall_s") else {
                println!("reference: {path} lacks preset {} - skipped", m.name);
                continue;
            };
            let nspe = extract_preset(&text, "presets", m.name, "ns_per_event").unwrap_or(0.0);
            total_ref += wall;
            total_cur += m.wall_s;
            entries.push(format!(
                "    \"{}\": {{\"wall_s\": {:.6}, \"ns_per_event\": {:.2}, \"speedup\": {:.3}}}",
                m.name,
                wall,
                nspe,
                wall / m.wall_s,
            ));
        }
        let mut lines = vec![String::from("  \"reference\": {")];
        lines.push(entries.join(",\n"));
        lines.push(String::from("  },"));
        let speedup = if total_cur > 0.0 { total_ref / total_cur } else { 1.0 };
        println!("\nspeedup vs reference: {speedup:.3}x (total wall {total_ref:.3} s -> {total_cur:.3} s, shared presets only)");
        lines.push(format!("  \"speedup_vs_reference\": {speedup:.3}"));
        lines.join("\n")
    });

    let json = render_json(&measurements, quick, ref_block.as_deref());
    match &out_path {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!("\nwrote {path}");
        }
        None => print!("\n{json}"),
    }

    // Regression gate: >20 % slower (ns/event) than the checked-in
    // baseline on any preset fails the run.
    if let Some(path) = check {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let mut failed = false;
        for m in &measurements {
            let Some(base) = extract_preset(&text, "presets", m.name, "ns_per_event") else {
                println!("check: baseline has no preset {} - skipped", m.name);
                continue;
            };
            let ratio = m.ns_per_event() / base;
            let verdict = if ratio > 1.20 {
                failed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "check {:<22} {:>8.1} ns/event vs baseline {:>8.1} ({:+.1} %) {}",
                m.name,
                m.ns_per_event(),
                base,
                (ratio - 1.0) * 100.0,
                verdict
            );
        }
        if failed {
            eprintln!("perfstat: regression gate failed (>20 % over baseline)");
            std::process::exit(1);
        }
        println!("check: within the 20 % gate");
    }
}
