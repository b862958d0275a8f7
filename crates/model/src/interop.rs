//! Plain-CSV interop for failure traces.
//!
//! JSON round-trips preserve a full [`FailureDataset`], but real-world
//! failure records (in the spirit of the Failure Trace Archive) usually come
//! as two flat files: a machine inventory and an event log. This module
//! writes and reads that minimal format so external traces can be analyzed
//! with the exact same toolkit — telemetry-dependent analyses simply find no
//! telemetry and bow out.
//!
//! Machine CSV columns:
//! `machine,kind,subsystem,power_domain,cpus,memory_mb,disks,disk_gb,created_minutes,host_box`
//! (the last two may be empty).
//!
//! Event CSV columns:
//! `machine,incident,at_minutes,class,repair_minutes`.

use crate::dataset::{FailureDataset, RawDatasetParts};
use crate::failure::{FailureClass, FailureEvent, Incident};
use crate::ids::{BoxId, IncidentId, MachineId, PowerDomainId, SubsystemId, TicketId};
use crate::machine::{Machine, ResourceCapacity};
use crate::telemetry::Telemetry;
use crate::ticket::{TextTable, Ticket, TicketKind};
use crate::time::{Horizon, SimDuration, SimTime};
use crate::topology::{HostBox, SubsystemMeta, Topology};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// Error produced while parsing trace CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number (0 = structural problem).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseTraceError {}

fn err(line: usize, message: impl Into<String>) -> ParseTraceError {
    ParseTraceError {
        line,
        message: message.into(),
    }
}

/// Serializes the machine inventory as CSV.
pub fn machines_to_csv(dataset: &FailureDataset) -> String {
    let mut out = String::from(
        "machine,kind,subsystem,power_domain,cpus,memory_mb,disks,disk_gb,created_minutes,host_box\n",
    );
    for m in dataset.machines() {
        let cap = m.capacity();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{}",
            m.id().raw(),
            m.kind().label(),
            m.subsystem().raw(),
            m.power_domain().raw(),
            cap.cpus(),
            cap.memory_mb(),
            cap.disks(),
            cap.disk_gb(),
            m.created_at()
                .map(|t| t.as_minutes().to_string())
                .unwrap_or_default(),
            m.host().map(|b| b.raw().to_string()).unwrap_or_default(),
        );
    }
    out
}

/// Serializes the crash-event log as CSV (true classes).
pub fn events_to_csv(dataset: &FailureDataset) -> String {
    let mut out = String::from("machine,incident,at_minutes,class,repair_minutes\n");
    for ev in dataset.events() {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            ev.machine().raw(),
            ev.incident().raw(),
            ev.at().as_minutes(),
            ev.true_class().label(),
            ev.repair().as_minutes(),
        );
    }
    out
}

/// What the lenient CSV parser had to do to salvage a trace.
///
/// Counts are row/field-level: the lenient parser skips rows it cannot parse
/// at all, clamps field values with an unambiguous fix (zero cpus, negative
/// repair durations, event times outside the horizon, PM host links) and
/// re-maps sparse machine/subsystem/host ids onto dense sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CsvRecovery {
    /// Data rows skipped as unsalvageable (either file).
    pub rows_skipped: usize,
    /// Field values clamped into their valid range.
    pub fields_clamped: usize,
    /// Machine / subsystem / host-box ids remapped onto dense sequences.
    pub ids_remapped: usize,
    /// Machine data rows seen in the inventory file.
    pub machine_rows_seen: usize,
    /// Machine records that survived parsing.
    pub machine_rows_kept: usize,
    /// Event data rows seen in the log file.
    pub event_rows_seen: usize,
    /// Event records that survived parsing.
    pub event_rows_kept: usize,
}

impl CsvRecovery {
    /// True when the parser changed nothing (the input was already clean).
    pub const fn is_empty(&self) -> bool {
        self.rows_skipped == 0 && self.fields_clamped == 0 && self.ids_remapped == 0
    }
}

fn parse_class(s: &str, line: usize) -> Result<FailureClass, ParseTraceError> {
    FailureClass::ALL
        .into_iter()
        .find(|c| c.label().eq_ignore_ascii_case(s))
        .ok_or_else(|| err(line, format!("unknown failure class '{s}'")))
}

fn parse_field<T: std::str::FromStr>(
    s: &str,
    what: &str,
    line: usize,
) -> Result<T, ParseTraceError> {
    s.trim()
        .parse()
        .map_err(|_| err(line, format!("bad {what} '{s}'")))
}

/// One parsed event-log row, pre-assembly.
struct Row {
    machine: MachineId,
    incident: u32,
    at: SimTime,
    class: FailureClass,
    repair: SimDuration,
}

/// Assembles parsed machines and event rows into a validated dataset:
/// synthetic topology (subsystem names, one host box per referenced id),
/// densely re-mapped incidents, placeholder crash tickets.
fn assemble(
    machines: Vec<Machine>,
    boxes: &BTreeMap<u32, Vec<MachineId>>,
    rows: &[Row],
    max_sys: u32,
    horizon: Horizon,
) -> Result<FailureDataset, ParseTraceError> {
    let mut topology = Topology::new();
    for sys in 0..=max_sys {
        topology.add_subsystem(SubsystemMeta::new(
            SubsystemId::new(sys),
            format!("Sys {}", sys + 1),
        ));
    }
    let max_box = boxes.keys().next_back().copied();
    if let Some(max_box) = max_box {
        for b in 0..=max_box {
            let sys = boxes
                .get(&b)
                .and_then(|vms| vms.first())
                .map_or(SubsystemId::new(0), |m| machines[m.index()].subsystem());
            let pd = boxes
                .get(&b)
                .and_then(|vms| vms.first())
                .map_or(PowerDomainId::new(0), |m| {
                    machines[m.index()].power_domain()
                });
            topology.add_box(HostBox::new(BoxId::new(b), sys, pd, false));
        }
        for (&b, vms) in boxes {
            for &vm in vms {
                topology.place_vm(BoxId::new(b), vm);
            }
        }
    }
    for m in &machines {
        topology.assign_power_domain(m.power_domain(), m.id());
    }

    // Re-map incident ids densely in first-appearance order.
    let mut incident_map: BTreeMap<u32, u32> = BTreeMap::new();
    for row in rows {
        let next = incident_map.len() as u32;
        incident_map.entry(row.incident).or_insert(next);
    }

    // Incidents: gather members and earliest time.
    let mut incident_members: Vec<(Option<SimTime>, FailureClass, Vec<MachineId>)> =
        vec![(None, FailureClass::Other, Vec::new()); incident_map.len()];
    for row in rows {
        let slot = &mut incident_members[incident_map[&row.incident] as usize];
        slot.0 = Some(slot.0.map_or(row.at, |t: SimTime| t.min(row.at)));
        slot.1 = row.class;
        slot.2.push(row.machine);
    }
    let incidents = incident_members
        .into_iter()
        .enumerate()
        .map(|(i, (at, class, members))| {
            let at = at.unwrap_or(horizon.start());
            Incident::new(IncidentId::new(i as u32), class, at, members)
        })
        .collect();
    // An event log carries no ticket text: every ticket names one empty text.
    let mut texts = TextTable::default();
    let no_text = texts.push("");
    let mut tickets = Vec::with_capacity(rows.len());
    let mut events = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let ticket = TicketId::new(i as u32);
        let incident = IncidentId::new(incident_map[&row.incident]);
        tickets.push(Ticket::new(
            ticket,
            row.machine,
            TicketKind::Crash,
            Some(incident),
            row.at,
            row.at + row.repair,
            no_text,
            no_text,
            Some(row.class),
        ));
        events.push(FailureEvent::new(
            row.machine,
            incident,
            ticket,
            row.at,
            row.class,
            row.class,
            row.repair,
        ));
    }
    let parts = RawDatasetParts {
        horizon,
        machines,
        topology,
        incidents,
        tickets,
        texts: Arc::new(texts),
        events,
        telemetry: Telemetry::new(),
    };
    FailureDataset::try_from(parts).map_err(|e| err(0, e.to_string()))
}

/// One machine-inventory row past its id, with ids as written. `host` is
/// set for a VM and only for one.
struct MachineRow {
    sys: u32,
    pd: PowerDomainId,
    capacity: ResourceCapacity,
    created: Option<SimTime>,
    host: Option<u32>,
}

impl MachineRow {
    fn machine(&self, id: MachineId, sys: SubsystemId, host: Option<BoxId>) -> Machine {
        match host {
            Some(host) => Machine::new_vm(id, sys, self.pd, self.capacity, self.created, host),
            None => Machine::new_pm(id, sys, self.pd, self.capacity, self.created),
        }
    }
}

/// Parses a 10-column machine row's fields after its id. Zero cpus and a
/// PM's host link have an unambiguous fix: given `clamped`, the lenient
/// parser's count, the field is fixed and counted; without it, refused.
fn machine_row(
    cols: &[&str],
    line: usize,
    mut clamped: Option<&mut usize>,
) -> Result<MachineRow, ParseTraceError> {
    let mut clamp = |refusal: &str| match clamped.as_deref_mut() {
        Some(count) => {
            *count += 1;
            Ok(())
        }
        None => Err(err(line, refusal)),
    };
    let vm = match cols[1].trim() {
        k if k.eq_ignore_ascii_case("PM") => false,
        k if k.eq_ignore_ascii_case("VM") => true,
        other => return Err(err(line, format!("unknown kind '{other}'"))),
    };
    let sys = parse_field(cols[2], "subsystem", line)?;
    let pd = PowerDomainId::new(parse_field(cols[3], "power domain", line)?);
    let mut cpus = parse_field(cols[4], "cpus", line)?;
    if cpus == 0 {
        clamp("cpus must be positive")?;
        cpus = 1;
    }
    let capacity = ResourceCapacity::new(
        cpus,
        parse_field(cols[5], "memory_mb", line)?,
        parse_field(cols[6], "disks", line)?,
        parse_field(cols[7], "disk_gb", line)?,
    );
    let created = if cols[8].trim().is_empty() {
        None
    } else {
        Some(SimTime::from_minutes(parse_field(
            cols[8],
            "created_minutes",
            line,
        )?))
    };
    let host = if vm {
        Some(parse_field(cols[9], "host_box", line)?)
    } else {
        if !cols[9].trim().is_empty() {
            // The lenient parser drops a PM's host link, keeping the machine.
            clamp("PM must not have a host box")?;
        }
        None
    };
    Ok(MachineRow {
        sys,
        pd,
        capacity,
        created,
        host,
    })
}

/// Parses one event-log row; `machine` resolves the machine id it names.
/// A `strict` parse refuses a negative repair, which the lenient parser
/// clamps once the row is whole.
fn event_row(
    cols: &[&str],
    line: usize,
    machine: impl FnOnce(u32) -> Option<MachineId>,
    strict: bool,
) -> Result<Row, ParseTraceError> {
    if cols.len() != 5 {
        return Err(err(line, format!("expected 5 columns, got {}", cols.len())));
    }
    let raw: u32 = parse_field(cols[0], "machine id", line)?;
    let machine =
        machine(raw).ok_or_else(|| err(line, format!("event references unknown machine {raw}")))?;
    let repair_minutes: i64 = parse_field(cols[4], "repair_minutes", line)?;
    if strict && repair_minutes < 0 {
        return Err(err(line, "repair_minutes must be nonnegative"));
    }
    Ok(Row {
        machine,
        incident: parse_field(cols[1], "incident id", line)?,
        at: SimTime::from_minutes(parse_field(cols[2], "at_minutes", line)?),
        class: parse_class(cols[3].trim(), line)?,
        repair: SimDuration::from_minutes(repair_minutes),
    })
}

/// The non-blank data rows of a CSV file, split into columns, with their
/// 1-based line numbers.
fn data_rows(csv: &str) -> impl Iterator<Item = (usize, Vec<&str>)> {
    csv.lines()
        .enumerate()
        .skip(1)
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(lineno, line)| (lineno + 1, line.split(',').collect()))
}

/// Builds a dataset from machine-inventory and event-log CSV.
///
/// The resulting dataset has synthetic topology metadata ("Sys N" names, one
/// host box per referenced id), placeholder crash tickets (no text) and no
/// telemetry: every analysis that only needs machines + events runs
/// unchanged; telemetry-dependent ones find nothing to analyze.
///
/// # Errors
///
/// Returns a [`ParseTraceError`] on malformed input, dangling references,
/// invalid field values (zero cpus, negative repair durations) or a dataset
/// that fails validation after assembly (e.g. events outside the horizon).
pub fn dataset_from_csv(
    machines_csv: &str,
    events_csv: &str,
    horizon: Horizon,
) -> Result<FailureDataset, ParseTraceError> {
    let mut machines: Vec<Machine> = Vec::new();
    let mut max_sys = 0u32;
    let mut boxes: BTreeMap<u32, Vec<MachineId>> = BTreeMap::new();
    for (line, cols) in data_rows(machines_csv) {
        if cols.len() != 10 {
            return Err(err(
                line,
                format!("expected 10 columns, got {}", cols.len()),
            ));
        }
        let id: u32 = parse_field(cols[0], "machine id", line)?;
        if id as usize != machines.len() {
            return Err(err(line, "machine ids must be dense and ordered"));
        }
        let row = machine_row(&cols, line, None)?;
        let id = MachineId::new(id);
        max_sys = max_sys.max(row.sys);
        if let Some(host) = row.host {
            boxes.entry(host).or_default().push(id);
        }
        machines.push(row.machine(id, SubsystemId::new(row.sys), row.host.map(BoxId::new)));
    }
    if machines.is_empty() {
        return Err(err(0, "no machines in inventory"));
    }
    let known = |m: u32| ((m as usize) < machines.len()).then(|| MachineId::new(m));
    let rows = data_rows(events_csv)
        .map(|(line, cols)| event_row(&cols, line, known, true))
        .collect::<Result<Vec<_>, _>>()?;
    assemble(machines, &boxes, &rows, max_sys, horizon)
}

/// Builds a best-effort dataset from dirty machine-inventory and event-log
/// CSV, instead of rejecting the pair on the first defect.
///
/// Rows that cannot be parsed (wrong column count, unparseable fields,
/// unknown kinds/classes, duplicate machine ids, events referencing unknown
/// machines) are skipped; field values with an unambiguous fix are clamped
/// (zero cpus → 1, negative repairs → 0, event times clamped into the
/// horizon, PM host links dropped); sparse machine/subsystem/host-box ids are
/// re-mapped onto dense sequences in first-appearance order. The returned
/// [`CsvRecovery`] counts everything that was done.
///
/// # Errors
///
/// Returns a [`ParseTraceError`] only if the salvaged parts still fail
/// dataset validation — the sanitization above is designed to make that
/// unreachable, so callers may treat it as a bug.
pub fn dataset_from_csv_lenient(
    machines_csv: &str,
    events_csv: &str,
    horizon: Horizon,
) -> Result<(FailureDataset, CsvRecovery), ParseTraceError> {
    let mut recovery = CsvRecovery::default();

    // --- machines: parse, then remap ids densely ---------------------------
    let mut parsed: Vec<(u32, MachineRow)> = Vec::new();
    let mut seen_ids: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for (line, cols) in data_rows(machines_csv) {
        recovery.machine_rows_seen += 1;
        // A row's clamps count only once the row is kept.
        let mut clamped = 0;
        let row = match cols[0].trim().parse::<u32>() {
            Ok(id) if cols.len() == 10 => machine_row(&cols, line, Some(&mut clamped))
                .ok()
                .map(|row| (id, row)),
            _ => None,
        };
        // A row repeating an earlier id is skipped too.
        match row {
            Some((id, row)) if seen_ids.insert(id) => {
                recovery.fields_clamped += clamped;
                parsed.push((id, row));
            }
            _ => recovery.rows_skipped += 1,
        }
    }
    recovery.machine_rows_kept = parsed.len();

    let mut machine_map: BTreeMap<u32, MachineId> = BTreeMap::new();
    let mut sys_map: BTreeMap<u32, SubsystemId> = BTreeMap::new();
    let mut box_map: BTreeMap<u32, BoxId> = BTreeMap::new();
    let mut machines: Vec<Machine> = Vec::with_capacity(parsed.len());
    let mut boxes: BTreeMap<u32, Vec<MachineId>> = BTreeMap::new();
    for (raw_id, m) in &parsed {
        let id = MachineId::new(machines.len() as u32);
        if id.raw() != *raw_id {
            recovery.ids_remapped += 1;
        }
        machine_map.insert(*raw_id, id);
        let next_sys = sys_map.len() as u32;
        let sys = *sys_map.entry(m.sys).or_insert(SubsystemId::new(next_sys));
        if sys.raw() != m.sys {
            recovery.ids_remapped += 1;
        }
        let host = m.host.map(|host_raw| {
            let next_box = box_map.len() as u32;
            let host = *box_map.entry(host_raw).or_insert(BoxId::new(next_box));
            if host.raw() != host_raw {
                recovery.ids_remapped += 1;
            }
            boxes.entry(host.raw()).or_default().push(id);
            host
        });
        machines.push(m.machine(id, sys, host));
    }
    let max_sys = sys_map.len().max(1) as u32 - 1;

    // --- events ------------------------------------------------------------
    let last_instant = horizon.end() - crate::time::MINUTE;
    let mut rows: Vec<Row> = Vec::new();
    for (line, cols) in data_rows(events_csv) {
        recovery.event_rows_seen += 1;
        let known = |m: u32| machine_map.get(&m).copied();
        let Ok(mut row) = event_row(&cols, line, known, false) else {
            recovery.rows_skipped += 1;
            continue;
        };
        if row.repair.is_negative() {
            row.repair = SimDuration::ZERO;
            recovery.fields_clamped += 1;
        }
        if !horizon.contains(row.at) {
            row.at = if row.at < horizon.start() {
                horizon.start()
            } else {
                last_instant
            };
            recovery.fields_clamped += 1;
        }
        rows.push(row);
    }
    recovery.event_rows_kept = rows.len();

    let dataset = assemble(machines, &boxes, &rows, max_sys, horizon)?;
    Ok((dataset, recovery))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineKind;

    const MACHINES: &str = "\
machine,kind,subsystem,power_domain,cpus,memory_mb,disks,disk_gb,created_minutes,host_box
0,PM,0,0,4,8192,2,512,,
1,VM,0,0,2,2048,1,64,-1000,0
2,VM,1,1,1,1024,2,32,500,0
";

    const EVENTS: &str = "\
machine,incident,at_minutes,class,repair_minutes
0,100,1440,HW,600
1,100,1440,Reboot,60
2,200,100000,SW,120
";

    #[test]
    fn import_builds_consistent_dataset() {
        let ds = dataset_from_csv(MACHINES, EVENTS, Horizon::observation_year()).unwrap();
        assert_eq!(ds.machines().len(), 3);
        assert_eq!(ds.events().len(), 3);
        assert_eq!(ds.incidents().len(), 2);
        assert_eq!(ds.incidents()[0].size(), 2);
        assert_eq!(ds.topology().subsystems().len(), 2);
        // Analyses run on the imported dataset.
        assert_eq!(ds.population(MachineKind::Pm, None), 1);
        assert_eq!(ds.population(MachineKind::Vm, None), 2);
        let vm = ds.machine(MachineId::new(1));
        assert_eq!(vm.host(), Some(BoxId::new(0)));
        assert_eq!(vm.created_at(), Some(SimTime::from_minutes(-1000)));
        let pm = ds.machine(MachineId::new(0));
        assert_eq!(pm.created_at(), None);
    }

    #[test]
    fn csv_roundtrip_preserves_events_and_machines() {
        let ds = dataset_from_csv(MACHINES, EVENTS, Horizon::observation_year()).unwrap();
        let machines_csv = machines_to_csv(&ds);
        let events_csv = events_to_csv(&ds);
        let back = dataset_from_csv(&machines_csv, &events_csv, ds.horizon()).unwrap();
        assert_eq!(back.machines(), ds.machines());
        assert_eq!(back.events().len(), ds.events().len());
        for (a, b) in back.events().iter().zip(ds.events()) {
            assert_eq!(a.machine(), b.machine());
            assert_eq!(a.at(), b.at());
            assert_eq!(a.true_class(), b.true_class());
            assert_eq!(a.repair(), b.repair());
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad_machines = "header\n0,XX,0,0,1,1,1,1,,\n";
        let e =
            dataset_from_csv(bad_machines, "header\n", Horizon::observation_year()).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("unknown kind"));

        let bad_events = "header\n0,1,100,NotAClass,5\n";
        let e = dataset_from_csv(MACHINES, bad_events, Horizon::observation_year()).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown failure class"));

        let dangling = "header\n9,1,100,HW,5\n";
        let e = dataset_from_csv(MACHINES, dangling, Horizon::observation_year()).unwrap_err();
        assert!(e.message.contains("unknown machine"));
    }

    #[test]
    fn sparse_ids_rejected() {
        let gap = "\
machine,kind,subsystem,power_domain,cpus,memory_mb,disks,disk_gb,created_minutes,host_box
5,PM,0,0,1,1,1,1,,
";
        let e = dataset_from_csv(gap, "header\n", Horizon::observation_year()).unwrap_err();
        assert!(e.message.contains("dense"));
    }

    #[test]
    fn empty_inventory_rejected() {
        let e = dataset_from_csv("header\n", "header\n", Horizon::observation_year()).unwrap_err();
        assert_eq!(e.line, 0);
    }

    #[test]
    fn lenient_counts_a_clamp_only_on_a_kept_row() {
        let header = MACHINES.lines().next().unwrap();
        let count = |rows: &str| {
            let machines = format!("{header}\n{rows}");
            let horizon = Horizon::observation_year();
            let (_, recovery) = dataset_from_csv_lenient(&machines, "header\n", horizon).unwrap();
            (recovery.rows_skipped, recovery.fields_clamped)
        };
        // Zero cpus, then an unparseable memory: the row is skipped, so
        // its clamp is not counted.
        assert_eq!(
            count("0,PM,0,0,0,bad,1,1,,\n1,PM,0,0,4,8192,2,512,,\n"),
            (1, 0)
        );
        // A repeated id is skipped too; a kept row counts its clamp.
        let rows = "1,PM,0,0,4,8192,2,512,,\n1,PM,0,0,0,8192,2,512,,\n2,PM,0,0,0,8192,2,512,,\n";
        assert_eq!(count(rows), (1, 1));
    }
}
