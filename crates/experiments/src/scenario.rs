//! Declarative scenario descriptions (Tables II/III of the paper).

use ia_core::{GossipParams, ProtocolKind};
use ia_des::{SimDuration, SimTime};
use ia_geo::{Point, Rect};
use ia_mobility::{Manhattan, NoiseRamp, MIN_SPEED};
use ia_radio::{GilbertElliott, JamZone, RadioConfig};

/// Which mobility model drives the mobile peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MobilityKind {
    /// The paper's Random Waypoint model.
    RandomWaypoint,
    /// Street-grid mobility (robustness extension).
    Manhattan,
}

/// One advertisement to issue during the run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdSpec {
    /// Where the ad is issued; a stationary issuer node is placed here.
    pub issue_pos: Point,
    /// When the issuer broadcasts it.
    pub issue_time: SimTime,
    /// Initial advertising radius `R0`, metres.
    pub radius: f64,
    /// Initial duration `D0`.
    pub duration: SimDuration,
    /// Topic keywords.
    pub topics: Vec<u32>,
    /// Content size for traffic accounting, bytes.
    pub payload_bytes: usize,
}

impl AdSpec {
    /// The paper's single advertisement: issued at the field centre
    /// shortly after start, `R = 1000 m`, `D = 1800 s`.
    pub fn paper() -> Self {
        AdSpec {
            issue_pos: Point::new(2500.0, 2500.0),
            issue_time: SimTime::from_secs(10.0),
            radius: 1000.0,
            duration: SimDuration::from_secs(1800.0),
            topics: vec![1],
            payload_bytes: 200,
        }
    }

    /// End of this ad's life cycle (the metric window).
    pub fn window_end(&self) -> SimTime {
        self.issue_time + self.duration
    }
}

/// Device churn: peers alternate between on-line and off-line periods
/// drawn from exponential distributions (memoryless up/down process).
/// The paper motivates gossiping with the "highly vulnerable mobile
/// environment"; churn makes that vulnerability concrete — an off-line
/// device neither relays nor receives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Mean on-line period.
    pub mean_up: SimDuration,
    /// Mean off-line period.
    pub mean_down: SimDuration,
}

impl ChurnSpec {
    pub fn new(mean_up: SimDuration, mean_down: SimDuration) -> Self {
        let churn = ChurnSpec { mean_up, mean_down };
        churn.validate();
        churn
    }

    /// A zero period would never advance a peer's up/down timeline.
    pub fn validate(&self) {
        assert!(
            !self.mean_up.is_zero() && !self.mean_down.is_zero(),
            "zero churn period"
        );
    }
}

/// A windowed Gilbert–Elliott burst-loss channel applied on top of the
/// radio's configured loss model (fault injection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLossSpec {
    pub from: SimTime,
    pub until: SimTime,
    /// Per-sample transition probability good → bad.
    pub p_enter_bad: f64,
    /// Per-sample transition probability bad → good.
    pub p_exit_bad: f64,
    /// Loss probability in the good state.
    pub loss_good: f64,
    /// Loss probability in the bad state.
    pub loss_bad: f64,
}

impl BurstLossSpec {
    /// Build the channel (also validates the parameters).
    pub fn channel(&self) -> GilbertElliott {
        GilbertElliott::new(
            self.p_enter_bad,
            self.p_exit_bad,
            self.loss_good,
            self.loss_bad,
        )
    }

    pub fn validate(&self) {
        assert!(self.until > self.from, "empty burst-loss window");
        let _ = self.channel();
    }
}

/// The most bit flips a [`CorruptionSpec`] may draw per frame. The world
/// collects one frame's flips in a fixed array of this size.
pub const MAX_FLIPS: u32 = 64;

/// Windowed frame corruption: each frame delivered inside the window is
/// bit-flipped with probability `p_corrupt` between encode and decode.
/// The hardened codec's CRC-32 trailer catches the flips and the receiver
/// drops the frame ([`crate::observer::SuppressReason::Corrupted`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionSpec {
    pub from: SimTime,
    pub until: SimTime,
    /// Per-delivery corruption probability.
    pub p_corrupt: f64,
    /// Bit flips per corrupted frame are drawn uniformly from
    /// `1..=max_flips`, at most [`MAX_FLIPS`].
    pub max_flips: u32,
}

impl CorruptionSpec {
    pub fn validate(&self) {
        assert!(self.until > self.from, "empty corruption window");
        assert!(
            (0.0..=1.0).contains(&self.p_corrupt),
            "p_corrupt outside [0, 1]"
        );
        assert!(self.max_flips >= 1, "corruption needs at least one flip");
        assert!(
            self.max_flips <= MAX_FLIPS,
            "max_flips above MAX_FLIPS ({MAX_FLIPS})"
        );
    }

    /// Is the window active at `t`?
    pub fn active(&self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }
}

/// A mass-outage wave: at `at`, each mobile peer independently goes
/// off-line with probability `fraction` and rejoins `down_for` later —
/// the network abruptly partitions and then heals, the failure mode that
/// separates store-&-forward gossip from wave-based flooding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWave {
    pub at: SimTime,
    /// Probability each mobile peer is caught in the wave.
    pub fraction: f64,
    /// Outage length for affected peers.
    pub down_for: SimDuration,
}

impl PartitionWave {
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.fraction),
            "partition fraction outside [0, 1]"
        );
        assert!(!self.down_for.is_zero(), "zero partition outage");
    }
}

/// A deterministic chaos plan: every fault the run injects, scheduled up
/// front and drawn from dedicated `stream::FAULT` RNG streams or keys so
/// an identical scenario always injects identical faults — across runs,
/// worker-thread counts, and observer sets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Circular dead regions (optionally drifting) — receivers inside an
    /// active zone hear nothing.
    pub jam_zones: Vec<JamZone>,
    /// Windowed burst loss on top of the configured loss model.
    pub burst_loss: Option<BurstLossSpec>,
    /// Windowed frame corruption (bit flips between encode and decode).
    pub corruption: Option<CorruptionSpec>,
    /// Mass Depart/Rejoin bursts.
    pub partition_waves: Vec<PartitionWave>,
    /// GPS degradation ramps perturbing the positions protocols observe
    /// (ground truth, and hence delivery metrics, stay exact).
    pub gps_ramps: Vec<NoiseRamp>,
}

impl FaultPlan {
    /// The empty plan (no faults — every baseline scenario).
    pub fn none() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.jam_zones.is_empty()
            && self.burst_loss.is_none()
            && self.corruption.is_none()
            && self.partition_waves.is_empty()
            && self.gps_ramps.is_empty()
    }

    pub fn with_jam_zone(mut self, zone: JamZone) -> Self {
        self.jam_zones.push(zone);
        self
    }

    pub fn with_burst_loss(mut self, spec: BurstLossSpec) -> Self {
        self.burst_loss = Some(spec);
        self
    }

    pub fn with_corruption(mut self, spec: CorruptionSpec) -> Self {
        self.corruption = Some(spec);
        self
    }

    pub fn with_partition_wave(mut self, wave: PartitionWave) -> Self {
        self.partition_waves.push(wave);
        self
    }

    pub fn with_gps_ramp(mut self, ramp: NoiseRamp) -> Self {
        self.gps_ramps.push(ramp);
        self
    }

    pub fn validate(&self) {
        for z in &self.jam_zones {
            z.validate();
        }
        if let Some(b) = &self.burst_loss {
            b.validate();
        }
        if let Some(c) = &self.corruption {
            c.validate();
        }
        for w in &self.partition_waves {
            w.validate();
        }
        // Overlapping ramps add variances, so the sum of the peaks'
        // squares bounds the variance a fix ever draws with.
        let mut peak_variance = 0.0;
        for r in &self.gps_ramps {
            r.validate();
            peak_variance += r.sigma_peak * r.sigma_peak;
        }
        assert!(peak_variance.is_finite(), "GPS ramp variance is not finite");
    }
}

/// Interest-assignment workload for the mobile peers.
#[derive(Debug, Clone, PartialEq)]
pub enum InterestWorkload {
    /// Nobody has interests (the paper's Figures 7–10 setting: interests
    /// play no role in single-ad delivery experiments).
    None,
    /// Each peer is independently interested in topic `t` of `universe`
    /// topics with probability `p_interested` (used by the popularity
    /// experiments).
    Uniform { universe: u32, p_interested: f64 },
}

/// A complete description of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub protocol: ProtocolKind,
    /// Number of mobile peers (issuers are added on top).
    pub n_peers: usize,
    /// Simulation field.
    pub area: Rect,
    /// Mean speed, m/s (the paper sweeps 5–30).
    pub speed_mean: f64,
    /// Half-width of the uniform speed distribution, m/s.
    pub speed_delta: f64,
    pub mobility: MobilityKind,
    pub radio: RadioConfig,
    pub params: GossipParams,
    /// Run until this simulated time.
    pub sim_time: SimDuration,
    /// Advertisements to issue (each gets a stationary issuer node).
    pub ads: Vec<AdSpec>,
    pub interests: InterestWorkload,
    /// If set, every issuer node switches off this long after issuing its
    /// advertisement (radio silent, no timers). The paper's §III-C claim:
    /// gossiping keeps the ad alive cooperatively, "the issuer can simply
    /// broadcast an advertisement to peers nearby and then go off-line",
    /// while Restricted Flooding needs the issuer on-line all along.
    pub issuer_offline_after: Option<SimDuration>,
    /// Optional device churn applied to every *mobile* peer (issuers are
    /// governed by `issuer_offline_after` instead).
    pub churn: Option<ChurnSpec>,
    /// Deterministic fault-injection plan (empty by default).
    pub faults: FaultPlan,
    /// Master seed; every RNG stream and draw key in the run derives from
    /// it.
    pub seed: u64,
}

impl Scenario {
    /// Table II: the paper's base configuration, parameterised by
    /// protocol and network size.
    pub fn paper(protocol: ProtocolKind, n_peers: usize) -> Self {
        let ad = AdSpec::paper();
        let sim_time = ad.window_end() - SimTime::ZERO; // one life cycle
        Scenario {
            protocol,
            n_peers,
            area: Rect::with_size(5000.0, 5000.0),
            speed_mean: 10.0,
            speed_delta: 5.0,
            mobility: MobilityKind::RandomWaypoint,
            radio: RadioConfig::paper(),
            params: GossipParams::paper(),
            sim_time,
            ads: vec![ad],
            interests: InterestWorkload::None,
            issuer_offline_after: None,
            churn: None,
            faults: FaultPlan::none(),
            seed: 42,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_speed(mut self, mean: f64, delta: f64) -> Self {
        self.speed_mean = mean;
        self.speed_delta = delta;
        self
    }

    pub fn with_mobility(mut self, mobility: MobilityKind) -> Self {
        self.mobility = mobility;
        self
    }

    /// Switch issuers off `after` their issue instant (see
    /// [`Scenario::issuer_offline_after`]).
    pub fn with_issuer_offline_after(mut self, after: SimDuration) -> Self {
        self.issuer_offline_after = Some(after);
        self
    }

    /// Apply device churn to all mobile peers.
    pub fn with_churn(mut self, churn: ChurnSpec) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Install a fault-injection plan (see [`FaultPlan`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Rescale the run to a shorter (or longer) advertisement life cycle.
    /// The formula-(2) age unit is absolute (one round time), so the
    /// radius profile keeps its shape: `R_t ≈ R` until the final rounds,
    /// then collapse.
    pub fn with_life_cycle(mut self, duration: SimDuration) -> Self {
        assert!(!duration.is_zero(), "zero life cycle");
        for ad in &mut self.ads {
            ad.duration = duration;
        }
        let last_end = self
            .ads
            .iter()
            .map(|a| a.window_end())
            .max()
            .expect("ads present");
        self.sim_time = last_end - SimTime::ZERO;
        self
    }

    /// Total node count: mobile peers plus one stationary issuer per ad.
    pub fn n_nodes(&self) -> usize {
        self.n_peers + self.ads.len()
    }

    /// Node id of the issuer for ad `i` (issuers follow the mobile peers).
    pub fn issuer_node(&self, ad_index: usize) -> u32 {
        (self.n_peers + ad_index) as u32
    }

    /// Peer density in peers per square kilometre (the paper quotes
    /// 4–40 /km² for 100–1000 peers).
    pub fn density_per_km2(&self) -> f64 {
        self.n_peers as f64 / (self.area.area() / 1.0e6)
    }

    /// Panics, naming the fault, on any scenario [`crate::World::new`]
    /// could not build or run to completion.
    pub fn validate(&self) {
        assert!(self.n_peers >= 1, "need at least one mobile peer");
        assert!(!self.ads.is_empty(), "need at least one advertisement");
        assert!(!self.sim_time.is_zero(), "zero sim time");
        // The mobility models clamp the slowest speed up to `MIN_SPEED`,
        // so the fastest must reach it.
        assert!(
            self.speed_mean > self.speed_delta
                && self.speed_delta >= 0.0
                && self.speed_mean + self.speed_delta >= MIN_SPEED,
            "invalid speed spec"
        );
        assert!(
            self.area.width() > 0.0 && self.area.height() > 0.0,
            "degenerate field"
        );
        if self.mobility == MobilityKind::Manhattan {
            let block = Manhattan::paper(self.area, self.speed_mean, self.speed_delta).block;
            assert!(
                self.area.width() >= block && self.area.height() >= block,
                "field smaller than one Manhattan block"
            );
        }
        self.radio.validate();
        self.params.validate();
        // The gossip protocols compute formula (4) at the radio's range.
        ia_core::postpone::validate_range(self.radio.range);
        self.faults.validate();
        if let Some(churn) = &self.churn {
            churn.validate();
        }
        for ad in &self.ads {
            assert!(
                self.area.contains(ad.issue_pos),
                "issue position outside the field"
            );
            assert!(ad.radius > 0.0, "non-positive advertising radius");
            assert!(!ad.duration.is_zero(), "zero advertising duration");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_radio::LossModel;

    #[test]
    fn paper_scenario_matches_table2() {
        let s = Scenario::paper(ProtocolKind::Gossip, 300);
        s.validate();
        assert_eq!(s.area.width(), 5000.0);
        assert_eq!(s.speed_mean, 10.0);
        assert_eq!(s.speed_delta, 5.0);
        assert_eq!(s.radio.range, 250.0);
        assert_eq!(s.ads[0].radius, 1000.0);
        assert_eq!(s.ads[0].duration, SimDuration::from_secs(1800.0));
        assert_eq!(s.params.round_time, SimDuration::from_secs(5.0));
        assert_eq!(s.params.dis, 250.0);
        assert_eq!(s.n_nodes(), 301);
        assert_eq!(s.issuer_node(0), 300);
    }

    #[test]
    fn density_matches_paper_range() {
        assert!((Scenario::paper(ProtocolKind::Gossip, 100).density_per_km2() - 4.0).abs() < 1e-9);
        assert!(
            (Scenario::paper(ProtocolKind::Gossip, 1000).density_per_km2() - 40.0).abs() < 1e-9
        );
    }

    #[test]
    fn validate_rejects_scenarios_that_would_hang_or_panic() {
        // Each breaker yields a scenario `World::new` would loop on
        // forever (zero churn period) or panic on, at build time or
        // mid-run; `validate` must reject it first, naming the fault.
        type Breaker = fn(&mut Scenario);
        let cases: [(&str, Breaker); 15] = [
            ("zero churn period", |s| {
                s.churn = Some(ChurnSpec {
                    mean_up: SimDuration::ZERO,
                    mean_down: SimDuration::ZERO,
                })
            }),
            ("non-positive advertising radius", |s| s.ads[0].radius = 0.0),
            ("zero advertising duration", |s| {
                s.ads[0].duration = SimDuration::ZERO
            }),
            ("invalid speed spec", |s| {
                s.speed_mean = 0.0;
                s.speed_delta = 0.0;
            }),
            ("invalid speed spec", |s| {
                s.speed_mean = 0.05;
                s.speed_delta = 0.0;
            }),
            ("non-finite range", |s| s.radio.range = f64::INFINITY),
            ("degenerate field", |s| {
                s.area = Rect::with_size(5000.0, 0.0)
            }),
            ("field smaller than one Manhattan block", |s| {
                s.mobility = MobilityKind::Manhattan;
                s.area = Rect::with_size(100.0, 5000.0);
                s.ads[0].issue_pos = s.area.center();
            }),
            ("tx_range too large for formula (4)", |s| {
                s.protocol = ProtocolKind::OptGossip2;
                s.radio.range = f64::MAX / 4.0;
            }),
            ("GPS ramp variance is not finite", |s| {
                let ramp = NoiseRamp::new(SimTime::ZERO, SimTime::from_secs(100.0), 1e200);
                s.faults = FaultPlan::none().with_gps_ramp(ramp);
            }),
            ("invalid sigma_peak", |s| {
                s.faults.gps_ramps.push(NoiseRamp {
                    from: SimTime::ZERO,
                    until: SimTime::from_secs(100.0),
                    sigma_peak: f64::NAN,
                });
            }),
            ("loss probability = 1.5 outside [0, 1]", |s| {
                s.radio.loss = LossModel::Bernoulli(1.5)
            }),
            ("loss probability = NaN outside [0, 1]", |s| {
                s.radio.loss = LossModel::Bernoulli(f64::NAN)
            }),
            ("reliable_frac = -0.5 outside [0, 1]", |s| {
                s.radio.loss = LossModel::DistanceRamp {
                    reliable_frac: -0.5,
                }
            }),
            ("reliable_frac = NaN outside [0, 1]", |s| {
                s.radio.loss = LossModel::DistanceRamp {
                    reliable_frac: f64::NAN,
                }
            }),
        ];
        for (expected, breaker) in cases {
            let mut s = Scenario::paper(ProtocolKind::Gossip, 100);
            breaker(&mut s);
            let err = std::panic::catch_unwind(|| s.validate())
                .expect_err(&format!("{expected}: validate accepted"));
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains(expected), "{expected}: panicked with {msg:?}");
        }
    }

    /// A field far wider than the radio range validates and runs: the
    /// medium's grid coarsens its cells instead of allocating one offset
    /// per range-sized cell (here about 10⁹ of them).
    #[test]
    fn a_field_far_wider_than_the_range_runs() {
        let mut s = Scenario::paper(ProtocolKind::Gossip, 100)
            .with_life_cycle(SimDuration::from_secs(60.0));
        s.area = Rect::with_size(1375.0, 6.4e11);
        s.ads[0].issue_pos = s.area.center();
        s.radio.range = 976.0;
        s.validate();
        let r = crate::run_scenario(&s);
        assert!(r.messages() > 0);
    }

    #[test]
    fn sim_time_covers_one_life_cycle() {
        let s = Scenario::paper(ProtocolKind::Gossip, 100);
        assert_eq!(s.sim_time, SimDuration::from_secs(1810.0));
    }

    #[test]
    #[should_panic(expected = "issue position outside")]
    fn bad_issue_position_rejected() {
        let mut s = Scenario::paper(ProtocolKind::Gossip, 100);
        s.ads[0].issue_pos = Point::new(-10.0, 0.0);
        s.validate();
    }

    #[test]
    fn fault_plan_builders_compose_and_validate() {
        let plan = FaultPlan::none()
            .with_jam_zone(JamZone::stationary(
                Point::new(2500.0, 2500.0),
                400.0,
                SimTime::from_secs(50.0),
                SimTime::from_secs(150.0),
            ))
            .with_burst_loss(BurstLossSpec {
                from: SimTime::from_secs(20.0),
                until: SimTime::from_secs(120.0),
                p_enter_bad: 0.05,
                p_exit_bad: 0.2,
                loss_good: 0.0,
                loss_bad: 0.8,
            })
            .with_corruption(CorruptionSpec {
                from: SimTime::from_secs(10.0),
                until: SimTime::from_secs(60.0),
                p_corrupt: 0.3,
                max_flips: 4,
            })
            .with_partition_wave(PartitionWave {
                at: SimTime::from_secs(100.0),
                fraction: 0.5,
                down_for: SimDuration::from_secs(60.0),
            })
            .with_gps_ramp(NoiseRamp::new(
                SimTime::from_secs(30.0),
                SimTime::from_secs(90.0),
                15.0,
            ));
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
        let s = Scenario::paper(ProtocolKind::Gossip, 100).with_faults(plan.clone());
        s.validate();
        assert_eq!(s.faults, plan);
        // Default scenarios carry the empty plan.
        assert!(Scenario::paper(ProtocolKind::Gossip, 100).faults.is_empty());
    }

    #[test]
    fn corruption_window_activity() {
        let c = CorruptionSpec {
            from: SimTime::from_secs(10.0),
            until: SimTime::from_secs(20.0),
            p_corrupt: 0.5,
            max_flips: 1,
        };
        assert!(!c.active(SimTime::from_secs(9.0)));
        assert!(c.active(SimTime::from_secs(10.0)));
        assert!(c.active(SimTime::from_secs(19.9)));
        assert!(!c.active(SimTime::from_secs(20.0)));
    }

    #[test]
    fn max_flips_is_bounded() {
        let c = CorruptionSpec {
            from: SimTime::from_secs(10.0),
            until: SimTime::from_secs(20.0),
            p_corrupt: 0.5,
            max_flips: MAX_FLIPS,
        };
        c.validate();
        let over = CorruptionSpec {
            max_flips: MAX_FLIPS + 1,
            ..c
        };
        let err = std::panic::catch_unwind(|| over.validate()).expect_err("accepted");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("max_flips above MAX_FLIPS"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "partition fraction outside")]
    fn bad_partition_fraction_rejected() {
        let plan = FaultPlan::none().with_partition_wave(PartitionWave {
            at: SimTime::from_secs(10.0),
            fraction: 1.5,
            down_for: SimDuration::from_secs(10.0),
        });
        plan.validate();
    }

    #[test]
    fn burst_spec_exposes_closed_form_loss() {
        let b = BurstLossSpec {
            from: SimTime::ZERO,
            until: SimTime::from_secs(100.0),
            p_enter_bad: 0.05,
            p_exit_bad: 0.20,
            loss_good: 0.02,
            loss_bad: 0.70,
        };
        b.validate();
        assert!((b.channel().stationary_loss() - 0.156).abs() < 1e-12);
    }
}
