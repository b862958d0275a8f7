//! Property tests for the domain model.

#![allow(clippy::unwrap_used)]

use dcfail_model::dataset::RawDatasetParts;
use dcfail_model::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Fragments ticket texts are glued from: empty, plain, repeated words,
/// non-ASCII, and everything JSON has to escape.
const FRAGMENTS: [&str; 12] = [
    "",
    "disk",
    "disk",
    " ",
    "naïve café",
    "日本語の障害",
    "🚀",
    "\"quoted\"",
    "back\\slash/",
    "tab\tnew\nline\r",
    "\u{1}\u{1f}ctl",
    "\u{7f}\u{2028}",
];

/// One PM and one non-crash ticket per `(description, resolution)` pair of
/// indexes into `texts`, which the table holds as given: equal texts get
/// separate ids.
fn dataset_with_texts(texts: &[String], pairs: &[(usize, usize)]) -> FailureDataset {
    let mut topology = Topology::new();
    topology.add_subsystem(SubsystemMeta::new(SubsystemId::new(0), "Sys I"));
    let mut b = DatasetBuilder::new();
    b.topology(topology);
    b.add_machine(Machine::new_pm(
        MachineId::new(0),
        SubsystemId::new(0),
        PowerDomainId::new(0),
        ResourceCapacity::default(),
        None,
    ));
    let mut table = TextTable::default();
    let ids: Vec<TextId> = texts.iter().map(|t| table.push(t.as_str())).collect();
    let tickets = pairs
        .iter()
        .enumerate()
        .map(|(i, &(d, r))| {
            let at = SimTime::from_days(i as i64);
            Ticket::new(
                TicketId::new(i as u32),
                MachineId::new(0),
                TicketKind::NonCrash,
                None,
                at,
                at + HOUR,
                ids[d % ids.len()],
                ids[r % ids.len()],
                None,
            )
        })
        .collect();
    b.tickets(Arc::new(table), tickets);
    b.build()
}

proptest! {
    /// Ticket text of any shape goes through JSON and back: the reload
    /// equals the source, every ticket reads the same text, and writing the
    /// reload gives the same bytes — for the dataset and its raw parts.
    #[test]
    fn ticket_text_round_trips_through_json(
        glued in prop::collection::vec(prop::collection::vec(0usize..FRAGMENTS.len(), 0..4), 1..12),
        descriptions in prop::collection::vec(0usize..64, 1..40),
        resolutions in prop::collection::vec(0usize..64, 1..40),
    ) {
        let pairs: Vec<(usize, usize)> = descriptions.into_iter().zip(resolutions).collect();
        let texts: Vec<String> = glued
            .iter()
            .map(|parts| parts.iter().map(|&f| FRAGMENTS[f]).collect())
            .collect();
        let ds = dataset_with_texts(&texts, &pairs);
        let json = serde_json::to_string(&ds).unwrap();
        let back: FailureDataset = serde_json::from_str(&json).unwrap();
        prop_assert!(back == ds);
        for (a, b) in ds.tickets().iter().zip(back.tickets()) {
            prop_assert_eq!(ds.texts().get(a.description()), back.texts().get(b.description()));
            prop_assert_eq!(ds.texts().get(a.resolution()), back.texts().get(b.resolution()));
        }
        // The reload interns: no two ids of its table hold equal text.
        let mut distinct: Vec<&str> = (0..back.texts().len())
            .map(|i| back.texts().get(TextId::new(i as u32)).unwrap())
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), back.texts().len());
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json.clone());

        let parts = RawDatasetParts::from(&ds);
        let parts_json = serde_json::to_string(&parts).unwrap();
        prop_assert_eq!(&parts_json, &json);
        let parts_back: RawDatasetParts = serde_json::from_str(&parts_json).unwrap();
        prop_assert!(parts_back == parts);
        prop_assert_eq!(serde_json::to_string(&parts_back).unwrap(), json);
    }

    /// SimTime/SimDuration arithmetic satisfies the group laws.
    #[test]
    fn time_arithmetic_laws(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        let t = SimTime::from_minutes(a);
        let d = SimDuration::from_minutes(b);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!(t - t, SimDuration::ZERO);
        prop_assert_eq!(d + SimDuration::ZERO, d);
        prop_assert_eq!(d - d, SimDuration::ZERO);
        // Unit conversions are consistent.
        prop_assert!((d.as_days() * 24.0 - d.as_hours()).abs() < 1e-9);
        prop_assert!((d.as_weeks() * 7.0 - d.as_days()).abs() < 1e-9);
    }

    /// Horizon bucketing maps instants into dense, ordered buckets.
    #[test]
    fn horizon_bucketing(offset_minutes in 0i64..(364 * 24 * 60 - 1)) {
        let h = Horizon::observation_year();
        let t = h.start() + SimDuration::from_minutes(offset_minutes);
        let day = h.day_of(t).expect("inside window");
        let week = h.week_of(t).expect("inside window");
        let month = h.month_of(t).expect("inside window");
        prop_assert!(day < h.num_days());
        prop_assert!(week < h.num_weeks());
        prop_assert!(month < h.num_months());
        prop_assert_eq!(week, day / 7);
        prop_assert_eq!(month, day / 28);
        // Outside the window: no bucket.
        prop_assert_eq!(h.day_of(h.end()), None);
        prop_assert_eq!(h.day_of(h.start() - SimDuration::from_minutes(1)), None);
    }

    /// An on/off log's sampled transition count never exceeds the true
    /// toggle count, and state queries are consistent with toggles.
    #[test]
    fn onoff_log_invariants(raw_toggles in prop::collection::btree_set(0i64..56 * 24 * 60, 0..25)) {
        let window = Horizon::new(SimTime::ZERO, SimTime::from_days(56));
        let toggles: Vec<SimTime> = raw_toggles
            .iter()
            .map(|&m| SimTime::from_minutes(m))
            .collect();
        let log = OnOffLog::new(window, true, toggles.clone());
        let log = log.view();
        prop_assert_eq!(log.toggles().len(), toggles.len());
        prop_assert!(log.sampled_transitions() <= log.toggles().len());
        // State at window start is the initial state.
        prop_assert!(log.is_on_at(window.start() - SimDuration::from_minutes(1)));
        // State parity at the end matches toggle count parity.
        let end_state = log.is_on_at(window.end());
        prop_assert_eq!(end_state, toggles.len().is_multiple_of(2));
        prop_assert!(log.monthly_transition_rate().unwrap() >= 0.0);
    }

    /// The O(toggles) grid-parity transition count equals the count derived
    /// from the materialized 15-minute sample view (the path it replaced),
    /// over arbitrary windows, offsets and toggle sets.
    #[test]
    fn fast_transition_count_matches_sampled_view(
        start_min in -10_000i64..10_000,
        len_min in 1i64..20_000,
        raw_offsets in prop::collection::btree_set(0i64..20_000, 0..40),
        initial_on in any::<bool>(),
    ) {
        let window = Horizon::new(
            SimTime::from_minutes(start_min),
            SimTime::from_minutes(start_min + len_min),
        );
        let toggles: Vec<SimTime> = raw_offsets
            .iter()
            .filter(|&&o| o < len_min)
            .map(|&o| SimTime::from_minutes(start_min + o))
            .collect();
        let log = OnOffLog::new(window, initial_on, toggles);
        let log = log.view();
        let samples = log.samples_15min();
        let sampled = samples.windows(2).filter(|w| w[0] != w[1]).count();
        prop_assert_eq!(log.sampled_transitions(), sampled);
    }

    /// Resource capacity accessors round-trip construction.
    #[test]
    fn capacity_roundtrip(cpus in 1u32..128, mem in 1u64..1_000_000, disks in 0u32..32, gb in 0u64..100_000) {
        let c = ResourceCapacity::new(cpus, mem, disks, gb);
        prop_assert_eq!(c.cpus(), cpus);
        prop_assert_eq!(c.memory_mb(), mem);
        prop_assert_eq!(c.disks(), disks);
        prop_assert_eq!(c.disk_gb(), gb);
        prop_assert!((c.memory_gb() * 1024.0 - mem as f64).abs() < 1e-6);
    }

    /// Machine serde round-trips preserve everything.
    #[test]
    fn machine_serde_roundtrip(
        id in 0u32..10_000,
        sys in 0u32..5,
        pd in 0u32..100,
        created in prop::option::of(-500_000i64..500_000),
        is_vm in any::<bool>(),
    ) {
        let cap = ResourceCapacity::new(2, 2048, 2, 64);
        let created = created.map(SimTime::from_minutes);
        let m = if is_vm {
            Machine::new_vm(
                MachineId::new(id),
                SubsystemId::new(sys),
                PowerDomainId::new(pd),
                cap,
                created,
                BoxId::new(7),
            )
        } else {
            Machine::new_pm(
                MachineId::new(id),
                SubsystemId::new(sys),
                PowerDomainId::new(pd),
                cap,
                created,
            )
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: Machine = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, m);
    }

    /// Failure-class index mapping is a bijection over the six classes.
    #[test]
    fn class_index_bijection(i in 0usize..6) {
        let class = FailureClass::from_index(i);
        prop_assert_eq!(class.index(), i);
    }

    /// Age is nonnegative and grows linearly after creation.
    #[test]
    fn age_monotone(created_day in -700i64..300, probe_day in 0i64..364) {
        let m = Machine::new_pm(
            MachineId::new(0),
            SubsystemId::new(0),
            PowerDomainId::new(0),
            ResourceCapacity::new(1, 1024, 1, 10),
            Some(SimTime::from_days(created_day)),
        );
        let t = SimTime::from_days(probe_day);
        match m.age_days_at(t) {
            Some(age) => {
                prop_assert!(age >= 0.0);
                prop_assert!((age - (probe_day - created_day) as f64).abs() < 1e-9);
                // One day later, one day older.
                let later = m.age_days_at(t + DAY).unwrap();
                prop_assert!((later - age - 1.0).abs() < 1e-9);
            }
            None => prop_assert!(probe_day < created_day),
        }
    }
}
