//! Scenario assembly: populations → telemetry → incidents → tickets →
//! [`FailureDataset`].

use crate::config::{EffectToggles, ScenarioConfig};
use crate::incidents::{self, IncidentSpec};
use crate::population::{self, Population};
use crate::telemetry_gen;
use crate::tickets_gen;
use dcfail_model::prelude::*;
use dcfail_stats::dist::{ContinuousDist, LogNormal};
use dcfail_stats::rng::StreamRng;
use std::sync::Arc;

/// Builder for a simulated failure study.
///
/// ```
/// use dcfail_synth::Scenario;
///
/// let output = Scenario::paper().seed(3).scale(0.02).build();
/// assert_eq!(output.dataset().topology().subsystems().len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    config: ScenarioConfig,
}

impl Scenario {
    /// The paper-calibrated scenario at full scale.
    pub fn paper() -> Self {
        Self {
            config: ScenarioConfig::paper(),
        }
    }

    /// A scenario from an explicit configuration.
    pub fn from_config(config: ScenarioConfig) -> Self {
        Self { config }
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the population scale factor in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    #[must_use]
    pub fn scale(mut self, scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "scale must be in (0, 1], got {scale}"
        );
        self.config.scale = scale;
        self
    }

    /// Sets the ground-truth effect toggles (ablations).
    #[must_use]
    pub fn effects(mut self, effects: EffectToggles) -> Self {
        self.config.effects = effects;
        self
    }

    /// The current configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Runs the simulator and assembles the dataset.
    ///
    /// # Panics
    ///
    /// Panics when the configuration has Error-level audit findings (see
    /// [`config_audit::audit_config`](crate::config_audit::audit_config)).
    /// In debug builds the assembled dataset is additionally debug-asserted
    /// to be audit-clean, so generator regressions surface at the source.
    pub fn build(&self) -> SynthOutput {
        let config = &self.config;
        let config_report = crate::config_audit::audit_config(config);
        assert!(
            config_report.is_clean(),
            "scenario configuration failed audit:\n{config_report}"
        );
        let _span = dcfail_obs::span("synth.build");
        let rng = StreamRng::new(config.seed);
        let pop = {
            let _s = dcfail_obs::span("population");
            population::build(config, &rng)
        };
        let telemetry = {
            let _s = dcfail_obs::span("telemetry");
            telemetry_gen::generate(config, &pop, &rng)
        };
        let specs = {
            let _s = dcfail_obs::span("incidents");
            incidents::simulate(config, &pop, &telemetry, &rng)
        };
        let dataset = {
            let _s = dcfail_obs::span("assemble");
            assemble_dataset(config, pop, telemetry, &specs, &rng)
        };
        if dcfail_obs::enabled() {
            dcfail_obs::add("synth.machines", dataset.machines().len() as u64);
            dcfail_obs::add("synth.events", dataset.events().len() as u64);
            dcfail_obs::add("synth.incidents", dataset.incidents().len() as u64);
            dcfail_obs::add("synth.tickets", dataset.tickets().len() as u64);
        }
        #[cfg(debug_assertions)]
        {
            let report = dcfail_audit::audit_dataset(&dataset);
            debug_assert!(
                report.is_clean(),
                "generated dataset failed audit:\n{report}"
            );
        }
        SynthOutput {
            config: config.clone(),
            dataset,
        }
    }
}

/// The result of a simulation run.
#[derive(Debug, Clone)]
pub struct SynthOutput {
    config: ScenarioConfig,
    dataset: FailureDataset,
}

impl SynthOutput {
    /// The assembled dataset.
    pub fn dataset(&self) -> &FailureDataset {
        &self.dataset
    }

    /// Consumes the output, returning the dataset.
    pub fn into_dataset(self) -> FailureDataset {
        self.dataset
    }

    /// The configuration the dataset was generated from.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }
}

/// Turns incident specs into the final [`FailureDataset`]: tickets, events
/// and the non-crash haystack, all on sequential ticket streams forked from
/// `rng`.
///
/// The ticket streams walk the *spec list* (O(events), not O(machines)), so
/// a shard coordinator that has merged per-shard specs into the canonical
/// monolithic order can call this unchanged — with a sparse (even empty)
/// `telemetry` — and get byte-identical tickets and events.
pub fn assemble_dataset(
    config: &ScenarioConfig,
    pop: Population,
    telemetry: Telemetry,
    specs: &[IncidentSpec],
    rng: &StreamRng,
) -> FailureDataset {
    let mut builder = DatasetBuilder::new();
    builder.horizon(config.horizon);

    // Lookup tables needed after the machines move into the builder.
    let num_sys = pop.topology.subsystems().len();
    let mut sys_members: Vec<Vec<MachineId>> = vec![Vec::new(); num_sys];
    let mut kinds: Vec<MachineKind> = Vec::with_capacity(pop.machines.len());
    let mut sys_of: Vec<usize> = Vec::with_capacity(pop.machines.len());
    for m in &pop.machines {
        sys_members[m.subsystem().index()].push(m.id());
        kinds.push(m.kind());
        sys_of.push(m.subsystem().index());
    }
    builder.topology(pop.topology);
    for m in pop.machines {
        builder.add_machine(m);
    }

    // Crash tickets + events from incident specs. Equal ticket texts share
    // one id into the dataset's text table (see `TicketTexts`).
    let tickets_span = dcfail_obs::span("tickets");
    let mut texts = tickets_gen::TicketTexts::new();
    let mut crash_per_sys = vec![0usize; num_sys];
    for m in specs.iter().flat_map(|spec| &spec.machines) {
        crash_per_sys[sys_of[m.index()]] += 1;
    }
    // Reserve for every crash ticket plus the haystack that tops each
    // subsystem with machines up to its Table II target.
    let target = |sys: usize| config.scaled(config.subsystems[sys].all_tickets, 1);
    let haystack: usize = (0..num_sys)
        .filter(|&sys| !sys_members[sys].is_empty())
        .map(|sys| target(sys).saturating_sub(crash_per_sys[sys]))
        .sum();
    let mut tickets: Vec<Ticket> =
        Vec::with_capacity(crash_per_sys.iter().sum::<usize>() + haystack);
    let mut rng_text = rng.fork("tickets.text");
    let mut rng_repair = rng.fork("tickets.repair");
    for (inc_idx, spec) in specs.iter().enumerate() {
        let incident_id = IncidentId::new(inc_idx as u32);
        builder.add_incident(Incident::new(
            incident_id,
            spec.class,
            spec.at,
            spec.machines.clone(),
        ));
        for &machine_id in &spec.machines {
            let ticket_id = TicketId::new(tickets.len() as u32);
            let machine_kind = kinds[machine_id.index()];
            let repair = tickets_gen::sample_repair(&mut rng_repair, spec.class, machine_kind);
            let text = texts.crash_text(&mut rng_text, spec.class, config.degraded_text_fraction);
            tickets.push(Ticket::new(
                ticket_id,
                machine_id,
                TicketKind::Crash,
                Some(incident_id),
                spec.at,
                spec.at + repair,
                text.description,
                text.resolution,
                Some(spec.class),
            ));
            builder.add_event(FailureEvent::new(
                machine_id,
                incident_id,
                ticket_id,
                spec.at,
                spec.class,
                text.reported_class,
                repair,
            ));
        }
    }

    // Non-crash haystack per subsystem, topping tickets up to Table II.
    let haystack_span = dcfail_obs::span("haystack");
    let mut rng_noise = rng.fork("tickets.noncrash");
    let noncrash_repair = LogNormal::new(1.2, 1.0).expect("static params are valid");
    for (sys_idx, members) in sys_members.iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        for _ in crash_per_sys[sys_idx]..target(sys_idx) {
            let ticket_id = TicketId::new(tickets.len() as u32);
            let machine = members[rng_noise.below(members.len())];
            let opened = config.horizon.start()
                + SimDuration::from_minutes(
                    rng_noise.below(config.horizon.len().as_minutes() as usize) as i64,
                );
            let hours = noncrash_repair.sample(&mut rng_noise).min(500.0);
            let (description, resolution) = texts.non_crash_text(&mut rng_noise);
            tickets.push(Ticket::new(
                ticket_id,
                machine,
                TicketKind::NonCrash,
                None,
                opened,
                opened + SimDuration::from_hours_f64(hours),
                description,
                resolution,
                None,
            ));
        }
    }

    drop(haystack_span);
    drop(tickets_span);
    builder.tickets(Arc::new(texts.into_table()), tickets);
    builder.telemetry(telemetry);
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SynthOutput {
        Scenario::paper().seed(1).scale(0.05).build()
    }

    #[test]
    fn build_small_scenario() {
        let out = small();
        let ds = out.dataset();
        assert_eq!(ds.topology().subsystems().len(), 5);
        assert!(!ds.events().is_empty());
        assert!(ds.tickets().len() > ds.events().len());
        assert_eq!(out.config().scale, 0.05);
    }

    #[test]
    fn table2_ticket_volumes_match_scaled_targets() {
        let out = small();
        let stats = out.dataset().subsystem_stats();
        for (row, sys) in stats.iter().zip(&out.config().subsystems) {
            let target = out.config().scaled(sys.all_tickets, 1);
            // Crash tickets can overflow the target slightly; non-crash
            // top-up otherwise hits it exactly.
            assert!(
                row.all_tickets >= target,
                "{}: {} < {}",
                row.name,
                row.all_tickets,
                target
            );
            assert!(row.all_tickets <= target + row.crash_tickets);
            // Crash tickets are a small share of all tickets (paper: 0.85–6.9%).
            assert!(
                row.crash_pct() < 15.0,
                "{}: crash share {}%",
                row.name,
                row.crash_pct()
            );
        }
    }

    #[test]
    fn events_tickets_and_incidents_are_consistent() {
        let out = small();
        let ds = out.dataset();
        // One event per (incident, machine) pair.
        let incident_pairs: usize = ds.incidents().iter().map(Incident::size).sum();
        assert_eq!(ds.events().len(), incident_pairs);
        // Every event's ticket is a crash ticket for the same machine.
        for ev in ds.events() {
            let t = ds.ticket(ev.ticket());
            assert!(t.is_crash());
            assert_eq!(t.machine(), ev.machine());
            assert_eq!(t.incident(), Some(ev.incident()));
            assert_eq!(t.opened_at(), ev.at());
            assert_eq!(t.repair_time(), ev.repair());
            assert_eq!(t.true_class(), Some(ev.true_class()));
        }
    }

    #[test]
    fn sys2_vms_have_no_crash_tickets() {
        let out = small();
        let stats = out.dataset().subsystem_stats();
        assert_eq!(stats[1].crash_tickets_vm, 0, "Sys II VMs must not crash");
    }

    #[test]
    fn reported_other_share_is_roughly_half() {
        let out = small();
        let other = out
            .dataset()
            .events()
            .iter()
            .filter(|e| e.reported_class() == FailureClass::Other)
            .count();
        let frac = other as f64 / out.dataset().events().len() as f64;
        assert!((frac - 0.53).abs() < 0.08, "other share {frac}");
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = Scenario::paper().seed(4).scale(0.03).build();
        let b = Scenario::paper().seed(4).scale(0.03).build();
        assert_eq!(a.dataset(), b.dataset());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::paper().seed(4).scale(0.03).build();
        let b = Scenario::paper().seed(5).scale(0.03).build();
        assert_ne!(a.dataset(), b.dataset());
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn zero_scale_rejected() {
        let _ = Scenario::paper().scale(0.0);
    }

    #[test]
    fn effects_builder_passthrough() {
        let s = Scenario::paper().effects(EffectToggles::none());
        assert_eq!(s.config().effects, EffectToggles::none());
    }
}
