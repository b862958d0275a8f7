//! One differential harness for dcfail's five front doors: batch, sharded,
//! resumed, streamed and served. Each case draws a configuration, runs
//! every door at the drawn thread count and compares its bytes, artifact by
//! artifact, with `run_all` over the monolithic dataset at one thread.
//!
//! The case count is a constant and no draw is skipped. Every assertion,
//! and a panic inside any door, prints the whole [`Draw`] as a struct
//! literal, so a failing case replays from that one value: paste it into
//! `check(&…)`. After the loop
//! the harness asserts that the draws reached each edge of the menus.

#![allow(clippy::unwrap_used)]

use dcfail::chaos::IoFaultPlan;
use dcfail::ckpt::{ChaosFs, CheckpointStore, MemFs};
use dcfail::model::prelude::*;
use dcfail::par;
use dcfail::report::{run_all, Envelope, ExperimentId, Rendered, RunConfig, Toolkit};
use dcfail::serve::conn::{get_request, roundtrip};
use dcfail::serve::http::split_response;
use dcfail::serve::{serve_toolkit, ServeConfig};
use dcfail::shard::{build_sharded, resume_sharded, ShardedOutput};
use dcfail::stats::rng::StreamRng;
use dcfail::stream::{StreamConfig, StreamEngine};
use dcfail::synth::feed::{dataset_feed, reorder_within_slack};
use dcfail::synth::{population, Scenario, ScenarioConfig};
use std::collections::BTreeMap;
use std::panic::catch_unwind;
use std::sync::Arc;

/// Cases per run: at least the 48 of the stream property this replaced,
/// within a 10 s budget for the whole binary in the dev profile on 2 vCPUs.
const DRAWS: u64 = 64;

/// Fleets at most this large may also be split one shard per machine or
/// past it; every shard adds eight checkpoint operations to a resumed run.
const CHEAP_FLEET: usize = 60;

/// Checkpoint directory inside each in-memory filesystem.
const DIR: &str = "ckpt";

/// One configuration every door runs.
#[derive(Debug, Clone)]
struct Draw {
    seed: u64,
    scale: f64,
    threads: usize,
    shards: usize,
    slack_minutes: i64,
    jitter_seed: u64,
    /// At zero slack: shuffle the arrivals that share a timestamp.
    permute_ties: bool,
    /// Kill point in `[0, 1)`, a fraction of a fresh checkpointed run's
    /// operations.
    kill: f64,
    /// A second kill of the killed run's resume, a fraction of the `2 + 2K`
    /// operations every resume performs (the manifest open, then a read or
    /// a four-operation publish per segment), so it always lands.
    second_kill: Option<f64>,
    transient_rate: f64,
    workers: usize,
    clients: usize,
}

impl Draw {
    fn new(rng: &mut StreamRng) -> Self {
        let seed = rng.below(1_000_000) as u64;
        let scale = match rng.below(4) {
            0 => 0.002,
            1 => 0.03,
            2 => rng.uniform_in(0.002, 0.006),
            _ => rng.uniform_in(0.002, 0.03),
        };
        let config = Scenario::paper().seed(seed).scale(scale).config().clone();
        let machines = population::build(&config, &StreamRng::new(seed))
            .machines
            .len();
        let small = 3 + rng.below(6);
        let shards = match rng.below(5) {
            0 => 1,
            1 => 2,
            3 if machines <= CHEAP_FLEET => machines,
            4 if machines <= CHEAP_FLEET => machines + 1 + rng.below(7),
            _ => small,
        };
        let slack_minutes = match rng.below(4) {
            0 => 0,
            1 => 1 + rng.below(360) as i64,
            2 => 20_160,
            _ => rng.below(20_161) as i64,
        };
        Draw {
            seed,
            scale,
            threads: [1, 2, 3, 4, 8][rng.below(5)],
            shards,
            slack_minutes,
            jitter_seed: rng.below(1_000_000) as u64,
            permute_ties: rng.bernoulli(0.5),
            kill: rng.uniform(),
            second_kill: rng.bernoulli(0.5).then(|| rng.uniform()),
            transient_rate: if rng.bernoulli(0.5) {
                0.0
            } else {
                rng.uniform_in(0.0, 0.4)
            },
            workers: 1 + rng.below(4),
            clients: 2 + rng.below(3),
        }
    }
}

#[test]
fn every_front_door_reproduces_the_batch_bytes() {
    let mut rng = StreamRng::new(24).fork("front_doors.draws");
    let mut reached: BTreeMap<&str, bool> = BTreeMap::new();
    for _ in 0..DRAWS {
        let draw = Draw::new(&mut rng);
        let edges = catch_unwind(|| check(&draw)).unwrap_or_else(|_| panic!("{draw:?}"));
        for (edge, hit) in edges {
            *reached.entry(edge).or_default() |= hit;
        }
    }
    let missed: Vec<&str> = reached.into_iter().filter(|e| !e.1).map(|e| e.0).collect();
    assert!(missed.is_empty(), "no draw reached: {missed:?}");
}

/// Runs every door on one draw, compares it with the batch reference and
/// says which edges of the menus the draw reached.
fn check(draw: &Draw) -> [(&'static str, bool); 12] {
    let config = Scenario::paper()
        .seed(draw.seed)
        .scale(draw.scale)
        .config()
        .clone();
    let run = RunConfig::with_seed(draw.seed);
    par::set_thread_override(Some(1));
    let dataset = Scenario::from_config(config.clone()).build().into_dataset();
    let reference = run_all(&dataset, &run).into_iter().collect();
    par::set_thread_override(Some(draw.threads));
    let case = Case {
        draw,
        config,
        run,
        dataset,
        reference,
    };
    case.batch();
    case.sharded("sharded", &build_sharded(&case.config, draw.shards));
    let killed_in_pass2 = case.resumed();
    case.streamed();
    case.served();
    par::set_thread_override(None);

    let dataset = &case.dataset;
    let fails = |kind| {
        let kind_of = |e: &FailureEvent| dataset.machine(e.machine()).kind();
        dataset.events().iter().any(|e| kind_of(e) == kind)
    };
    let missing_group = !fails(MachineKind::Pm) || !fails(MachineKind::Vm);
    let (machines, slack) = (dataset.machines().len(), draw.slack_minutes);
    [
        ("one shard", draw.shards == 1),
        ("more shards than machines", draw.shards > machines),
        ("one thread", draw.threads == 1),
        ("several threads", draw.threads > 1),
        ("zero slack, ties permuted", slack == 0 && draw.permute_ties),
        ("a week of slack", slack >= 10_080),
        ("a kill in pass 1", !killed_in_pass2),
        ("a kill in pass 2", killed_in_pass2),
        ("two kills", draw.second_kill.is_some()),
        ("no PM or no VM failures", missing_group),
        ("one serve worker", draw.workers == 1),
        ("several serve workers", draw.workers > 1),
    ]
}

/// One draw's inputs and the batch reference every door must reproduce.
struct Case<'a> {
    draw: &'a Draw,
    config: ScenarioConfig,
    run: RunConfig,
    /// The monolithic dataset, built at one thread.
    dataset: FailureDataset,
    /// `run_all` over `dataset` at one thread.
    reference: BTreeMap<ExperimentId, Rendered>,
}

impl Case<'_> {
    fn batch(&self) {
        let draw = self.draw;
        let batch = Toolkit::from_dataset(self.dataset.clone(), self.run.clone()).render_all();
        let ids: Vec<ExperimentId> = batch.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, ExperimentId::ALL, "batch: registry order\n{draw:?}");
        for (id, got) in &batch {
            assert_eq!(**got, self.reference[id], "batch: {id}\n{draw:?}");
        }
    }

    /// A sharded or resumed build: its dataset, and every artifact but
    /// `whatif`, with the paper reports in registry order.
    fn sharded(&self, door: &str, out: &ShardedOutput) {
        let (draw, ds, batch) = (self.draw, out.dataset(), &self.dataset);
        for (part, same) in [
            ("machines", ds.machines() == batch.machines()),
            ("topology", ds.topology() == batch.topology()),
            ("incidents", ds.incidents() == batch.incidents()),
            ("events", ds.events() == batch.events()),
            ("tickets", ds.tickets() == batch.tickets()),
        ] {
            assert!(same, "{door}: {part}\n{draw:?}");
        }
        let paper = out.paper_reports(&self.run);
        let ids: Vec<ExperimentId> = paper.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, ExperimentId::PAPER, "{door}: registry order\n{draw:?}");
        let extras = ExperimentId::EXTRAS
            .into_iter()
            .filter(|&id| id != ExperimentId::Whatif)
            .map(|id| (id, out.report(id, &self.run)));
        for (id, got) in paper.into_iter().chain(extras) {
            assert_eq!(got, self.reference[&id], "{door}: {id}\n{draw:?}");
        }
    }

    /// Kills a checkpointed run once or twice, then resumes it quietly and
    /// once more from the complete checkpoint. Returns whether the first
    /// kill struck after pass 1 had published every segment.
    fn resumed(&self) -> bool {
        let (draw, shards) = (self.draw, self.draw.shards);
        let probe = Arc::new(ChaosFs::new(MemFs::new(), IoFaultPlan::quiet(draw.seed)));
        let store = CheckpointStore::new(Box::new(probe.clone()), DIR);
        resume_sharded(&self.config, shards, &store).expect("an unfaulted checkpointed run");
        let bounds = [probe.ops(), 2 + 2 * shards as u64];
        let mem = MemFs::new();
        let mut killed_in_pass2 = false;
        let kills = std::iter::once(draw.kill).chain(draw.second_kill);
        for (n, (frac, ops)) in kills.zip(bounds).enumerate() {
            let plan = IoFaultPlan {
                seed: draw.seed + n as u64,
                transient_rate: draw.transient_rate,
                kill_at_op: Some((frac * ops as f64) as u64),
                torn_writes: true,
            };
            let store = CheckpointStore::new(Box::new(ChaosFs::new(mem.clone(), plan)), DIR);
            let killed = resume_sharded(&self.config, shards, &store);
            assert!(killed.is_err(), "resumed: kill {n} finished\n{draw:?}");
            if n == 0 {
                let last_norms = format!("{DIR}/norms-{:04}.seg", shards - 1);
                killed_in_pass2 = mem.snapshot(&last_norms).is_some();
            }
        }
        for door in ["resumed", "resumed from a complete checkpoint"] {
            let store = CheckpointStore::new(Box::new(mem.clone()), DIR);
            let out = resume_sharded(&self.config, shards, &store)
                .unwrap_or_else(|e| panic!("{door}: {e}\n{draw:?}"));
            self.sharded(door, &out);
        }
        killed_in_pass2
    }

    /// Feeds the dataset's events in a legal arrival order for the drawn
    /// slack; at zero slack, arrivals that share a timestamp may be permuted.
    fn streamed(&self) {
        let (draw, dataset) = (self.draw, &self.dataset);
        let feed = dataset_feed(dataset);
        let slack = SimDuration::from_minutes(draw.slack_minutes);
        let mut jitter = StreamRng::new(draw.jitter_seed);
        let arrivals = if draw.slack_minutes > 0 {
            reorder_within_slack(&feed, slack, &mut jitter)
        } else {
            let mut arrivals = feed.clone();
            if draw.permute_ties {
                jitter.shuffle(&mut arrivals);
                arrivals.sort_by_key(|e| e.at);
            }
            arrivals
        };
        let config = StreamConfig {
            slack,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::new(dataset.horizon(), config);
        for event in arrivals {
            engine
                .ingest(event)
                .unwrap_or_else(|e| panic!("streamed: {e}\n{draw:?}"));
        }
        let out = engine.finish();
        for (key, got) in out.rendered() {
            let want = &self.reference[&key.parse().unwrap()];
            assert_eq!(got, *want, "streamed: {key}\n{draw:?}");
        }
        let s = &out.stats;
        let weeks = dataset.horizon().num_weeks() as u64;
        for (what, got, want) in [
            (
                "ingested",
                s.events_ingested,
                s.events_applied + s.late_events + s.duplicate_seq,
            ),
            ("late", s.late_events, 0),
            ("applied", s.events_applied, feed.len() as u64),
            ("machines", s.machines, dataset.machines().len() as u64),
            ("windows closed", s.windows_closed, weeks),
        ] {
            assert_eq!(got, want, "streamed: {what} in {s:?}\n{draw:?}");
        }
    }

    /// Concurrent clients read every `/reports/:id`, each from its own
    /// starting id, from a daemon with the drawn worker count.
    fn served(&self) {
        let draw = self.draw;
        let config = ServeConfig {
            workers: draw.workers,
            seed: draw.seed,
            scale: draw.scale,
            metrics: false,
            ingest: false,
            ..ServeConfig::default()
        };
        let toolkit = Toolkit::from_dataset(self.dataset.clone(), self.run.clone());
        let server = serve_toolkit(config, toolkit, None).expect("bind an ephemeral port");
        let addr = server.addr();
        let ids = ExperimentId::ALL;
        std::thread::scope(|scope| {
            for client in 0..draw.clients {
                scope.spawn(move || {
                    for i in 0..ids.len() {
                        let id = ids[(i + 7 * client) % ids.len()];
                        let path = format!("/reports/{id}");
                        let raw = roundtrip(addr, &get_request(&path)).unwrap();
                        let (status, body) = split_response(&raw).unwrap();
                        let want = Envelope::new(id, 0, &self.run, self.reference[&id].clone());
                        assert_eq!(status, 200, "served: {path}\n{draw:?}");
                        let same = body == want.to_json().as_bytes();
                        assert!(same, "served: {path}\n{draw:?}");
                    }
                });
            }
        });
        server.shutdown();
    }
}
