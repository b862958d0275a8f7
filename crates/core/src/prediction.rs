//! Week-ahead failure prediction.
//!
//! The paper's related work (BlueGene/L, \[10\]) explores "the correlation
//! between the recurrence and the location of failures through an on-line
//! predictive model"; the paper itself stops at measurement. This module is
//! the natural extension: score every machine's probability of failing next
//! week from its history and attributes, and evaluate the scores against
//! what actually happened — walking forward in time, never peeking ahead.
//!
//! The predictor is deliberately simple and interpretable; its value is in
//! quantifying how much signal the paper's findings carry:
//!
//! * **recency** — failures recur (Table V: 35–42× random),
//! * **frequency** — past failure count marks lemons,
//! * **base rate** — kind × subsystem skews (Fig. 2).
//!
//! [`evaluate`] is one forward sweep over the time-sorted events: the
//! per-machine history advances week by week, and the decile recall and
//! AUC are counted over the few thousand distinct score values instead of
//! sorting every machine-week — O(events + machines × weeks), with the
//! same bits as scoring, sorting and ranking every machine-week.

use dcfail_model::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Scoring weights for the week-ahead predictor.
///
/// [`evaluate`] counts tie groups by `f64::total_cmp`. Scores start at
/// +0.0, so none is −0.0, and that grouping equals a rank statistic's `==`
/// grouping for every score that is not NaN. Non-finite weights, or finite
/// ones whose terms overflow and cancel into a NaN score, are outside that
/// guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictorWeights {
    /// Added when the machine failed within the last week.
    pub recency_1w: f64,
    /// Added when the machine failed within the last month (28 days).
    pub recency_4w: f64,
    /// Per prior failure (capped at 5).
    pub per_prior_failure: f64,
    /// Weight of the group base rate (failures per machine-week so far).
    pub base_rate: f64,
}

impl Default for PredictorWeights {
    fn default() -> Self {
        Self {
            recency_1w: 0.20,
            recency_4w: 0.06,
            per_prior_failure: 0.02,
            base_rate: 1.0,
        }
    }
}

/// Evaluation of the predictor over the observation window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionReport {
    /// Machine-week observations evaluated.
    pub observations: usize,
    /// Machine-weeks that actually failed.
    pub positives: usize,
    /// Fraction of next-week failures captured by the top-decile scores.
    pub recall_at_top_decile: f64,
    /// Lift of the top decile over a random decile.
    pub lift_at_top_decile: f64,
    /// Area under the ROC curve (probability a failing machine-week
    /// outscores a non-failing one).
    pub auc: f64,
}

/// Walk-forward history: every event before the current week's start,
/// applied in event order. [`score_week`] and [`evaluate`] both score
/// through it, so there is one scoring path.
struct Sweep<'a> {
    dataset: &'a FailureDataset,
    /// First event not yet applied.
    next_event: usize,
    /// Per machine (dense by id): time of its latest applied failure.
    last_failure: Vec<Option<SimTime>>,
    /// Per machine: applied failures.
    failures: Vec<usize>,
    /// Per machine: its `(kind, subsystem)` group.
    group_of: Vec<usize>,
    /// Per group: machines in it.
    population: Vec<usize>,
    /// Per group: applied failures.
    group_events: Vec<usize>,
}

impl<'a> Sweep<'a> {
    fn new(dataset: &'a FailureDataset) -> Self {
        let mut groups: BTreeMap<(MachineKind, SubsystemId), usize> = BTreeMap::new();
        let group_of: Vec<usize> = dataset
            .machines()
            .iter()
            .map(|m| {
                let next = groups.len();
                *groups.entry((m.kind(), m.subsystem())).or_insert(next)
            })
            .collect();
        let mut population = vec![0; groups.len()];
        for &g in &group_of {
            population[g] += 1;
        }
        let machines = group_of.len();
        Sweep {
            dataset,
            next_event: 0,
            last_failure: vec![None; machines],
            failures: vec![0; machines],
            group_of,
            population,
            group_events: vec![0; groups.len()],
        }
    }

    /// Applies every event before the start of `week` and returns each
    /// machine's score, in machine order. Weeks must not go backwards.
    fn scores(&mut self, week: usize, weights: PredictorWeights) -> impl Iterator<Item = f64> + '_ {
        let week_start = self.dataset.horizon().start() + WEEK * week as i64;
        let events = self.dataset.events();
        // Events are time-sorted, so the history is a prefix: never peek ahead.
        while let Some(ev) = events
            .get(self.next_event)
            .filter(|ev| ev.at() < week_start)
        {
            let m = ev.machine().index();
            self.last_failure[m] = Some(ev.at());
            self.failures[m] += 1;
            self.group_events[self.group_of[m]] += 1;
            self.next_event += 1;
        }
        // Group base rates per machine-week observed so far.
        let weeks_so_far = week.max(1) as f64;
        let rates: Vec<f64> = self
            .group_events
            .iter()
            .zip(&self.population)
            .map(|(&events, &population)| events as f64 / population.max(1) as f64 / weeks_so_far)
            .collect();
        let this = &*self;
        (0..this.group_of.len()).map(move |m| {
            let mut score = 0.0;
            if let Some(last) = this.last_failure[m] {
                let days = (week_start - last).as_days();
                if days <= 7.0 {
                    score += weights.recency_1w;
                }
                if days <= 28.0 {
                    score += weights.recency_4w;
                }
            }
            score += weights.per_prior_failure * this.failures[m].min(5) as f64;
            score += weights.base_rate * rates[this.group_of[m]];
            score
        })
    }
}

/// `f64::total_cmp`'s order as an integer key, so tie groups can be counted
/// in an ordered map.
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Scores every machine at the start of `week` using only history before
/// that week, returning `(machine, score)`.
pub fn score_week(
    dataset: &FailureDataset,
    week: usize,
    weights: &PredictorWeights,
) -> Vec<(MachineId, f64)> {
    let ids = dataset.machines().iter().map(Machine::id);
    ids.zip(Sweep::new(dataset).scores(week, *weights))
        .collect()
}

/// Walk-forward evaluation: for each week from `start_week` on, score all
/// machines on history and compare against that week's actual failures.
///
/// Returns `None` when no machine-week fails in the evaluation span.
pub fn evaluate(
    dataset: &FailureDataset,
    start_week: usize,
    weights: &PredictorWeights,
) -> Option<PredictionReport> {
    let horizon = dataset.horizon();
    let weeks = horizon.num_weeks();
    // Machines that actually fail in each evaluated week.
    let mut failing: Vec<Vec<usize>> = vec![Vec::new(); weeks.saturating_sub(start_week)];
    for ev in dataset.events() {
        let slot = horizon
            .week_of(ev.at())
            .and_then(|w| w.checked_sub(start_week))
            .and_then(|i| failing.get_mut(i));
        if let Some(slot) = slot {
            slot.push(ev.machine().index());
        }
    }

    // Per distinct score, in total order: its machine-weeks and positives.
    // Per positive: its score and how many machine-weeks with that score
    // precede it in machine-week order, which breaks top-decile ties.
    let mut groups: BTreeMap<i64, (usize, usize)> = BTreeMap::new();
    let mut positive_at: Vec<(i64, usize)> = Vec::new();
    let mut fails = vec![false; dataset.machines().len()];
    let mut sweep = Sweep::new(dataset);
    for (week, failing) in (start_week..weeks).zip(&failing) {
        for &m in failing {
            fails[m] = true;
        }
        for (score, &positive) in sweep.scores(week, *weights).zip(&fails) {
            let key = total_order_key(score);
            let group = groups.entry(key).or_default();
            if positive {
                positive_at.push((key, group.0));
                group.1 += 1;
            }
            group.0 += 1;
        }
        for &m in failing {
            fails[m] = false;
        }
    }
    let observations: usize = groups.values().map(|&(n, _)| n).sum();
    let positives = positive_at.len();
    if positives == 0 {
        return None;
    }

    // Top decile by score; machine-week order is the explicit tie-break, so
    // whole tie groups come from the top and the boundary group contributes
    // the positives among its first `decile - taken` machine-weeks.
    let decile = (observations / 10).max(1);
    let mut taken = 0;
    let mut hits = 0;
    for (&key, &(n, pos)) in groups.iter().rev() {
        if taken + n > decile {
            let first = decile - taken;
            hits += positive_at
                .iter()
                .filter(|&&(k, before)| k == key && before < first)
                .count();
            break;
        }
        taken += n;
        hits += pos;
    }
    let recall = hits as f64 / positives as f64;
    let random_recall = decile as f64 / observations as f64;

    // AUC via rank statistic: a tie group at sorted positions i..=j gets
    // the oracle's mid-rank. Every term and partial sum is
    // a multiple of 0.5 below 2^52 (for fewer than 2^26 machine-weeks), so
    // the sum is exact in any order and equals the machine-week-order sum.
    let mut below = 0;
    let mut pos_rank_sum = 0.0;
    for &(n, pos) in groups.values() {
        let (i, j) = (below, below + n - 1);
        pos_rank_sum += pos as f64 * ((i + j) as f64 / 2.0 + 1.0);
        below += n;
    }
    let n_pos = positives as f64;
    let n_neg = (observations - positives) as f64;
    let auc = (pos_rank_sum - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg);

    Some(PredictionReport {
        observations,
        positives,
        recall_at_top_decile: recall,
        lift_at_top_decile: recall / random_recall,
        auc,
    })
}

/// The per-week rescan predictor, the oracle the sweep is pinned to: each
/// week rescans the history from t=0, then every machine-week is sorted
/// for the top decile and ranked for the AUC.
#[cfg(test)]
mod oracle {
    use super::{PredictionReport, PredictorWeights};
    use dcfail_model::prelude::*;
    use std::collections::BTreeMap;

    pub fn score_week(
        dataset: &FailureDataset,
        week: usize,
        weights: &PredictorWeights,
    ) -> Vec<(MachineId, f64)> {
        let horizon = dataset.horizon();
        let week_start = horizon.start() + WEEK * week as i64;
        let mut last_failure: BTreeMap<MachineId, SimTime> = BTreeMap::new();
        let mut failure_count: BTreeMap<MachineId, usize> = BTreeMap::new();
        let mut group_events: BTreeMap<(MachineKind, SubsystemId), usize> = BTreeMap::new();
        for ev in dataset.events() {
            if ev.at() >= week_start {
                break;
            }
            last_failure.insert(ev.machine(), ev.at());
            *failure_count.entry(ev.machine()).or_insert(0) += 1;
            let m = dataset.machine(ev.machine());
            *group_events.entry((m.kind(), m.subsystem())).or_insert(0) += 1;
        }
        let weeks_so_far = week.max(1) as f64;
        let mut group_rate: BTreeMap<(MachineKind, SubsystemId), f64> = BTreeMap::new();
        for (&key, &events) in &group_events {
            let population = dataset.population(key.0, Some(key.1)).max(1);
            group_rate.insert(key, events as f64 / population as f64 / weeks_so_far);
        }
        dataset
            .machines()
            .iter()
            .map(|m| {
                let mut score = 0.0;
                if let Some(&last) = last_failure.get(&m.id()) {
                    let days = (week_start - last).as_days();
                    if days <= 7.0 {
                        score += weights.recency_1w;
                    }
                    if days <= 28.0 {
                        score += weights.recency_4w;
                    }
                }
                let count = failure_count.get(&m.id()).copied().unwrap_or(0).min(5);
                score += weights.per_prior_failure * count as f64;
                score += weights.base_rate
                    * group_rate
                        .get(&(m.kind(), m.subsystem()))
                        .copied()
                        .unwrap_or(0.0);
                (m.id(), score)
            })
            .collect()
    }

    /// Every evaluated machine-week's `(score, failed)`, in machine-week order.
    pub fn scored(
        dataset: &FailureDataset,
        start_week: usize,
        weights: &PredictorWeights,
    ) -> Vec<(f64, bool)> {
        let weeks = dataset.horizon().num_weeks();
        let mut failed: BTreeMap<(usize, MachineId), bool> = BTreeMap::new();
        for ev in dataset.events() {
            if let Some(w) = dataset.horizon().week_of(ev.at()) {
                failed.insert((w, ev.machine()), true);
            }
        }
        let mut scored = Vec::new();
        for week in start_week..weeks {
            for (machine, score) in score_week(dataset, week, weights) {
                scored.push((score, failed.contains_key(&(week, machine))));
            }
        }
        scored
    }

    pub fn evaluate(
        dataset: &FailureDataset,
        start_week: usize,
        weights: &PredictorWeights,
    ) -> Option<PredictionReport> {
        let scored = scored(dataset, start_week, weights);
        let positives = scored.iter().filter(|&&(_, p)| p).count();
        if positives == 0 {
            return None;
        }
        let mut by_score: Vec<(usize, (f64, bool))> = scored.iter().copied().enumerate().collect();
        by_score.sort_unstable_by(|(i, a), (j, b)| b.0.total_cmp(&a.0).then(i.cmp(j)));
        let decile = (by_score.len() / 10).max(1);
        let hits = by_score[..decile].iter().filter(|&&(_, (_, p))| p).count();
        let recall = hits as f64 / positives as f64;
        let random_recall = decile as f64 / by_score.len() as f64;
        let scores: Vec<f64> = scored.iter().map(|&(s, _)| s).collect();
        let ranks = ranks(&scores);
        let pos_rank_sum: f64 = scored
            .iter()
            .zip(&ranks)
            .filter(|((_, p), _)| *p)
            .map(|(_, &r)| r)
            .sum();
        let n_pos = positives as f64;
        let n_neg = (scored.len() - positives) as f64;
        let auc = (pos_rank_sum - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg);
        Some(PredictionReport {
            observations: scored.len(),
            positives,
            recall_at_top_decile: recall,
            lift_at_top_decile: recall / random_recall,
            auc,
        })
    }

    /// Mid-ranks of a sample (ties receive the average of their rank range).
    pub fn ranks(xs: &[f64]) -> Vec<f64> {
        let n = xs.len();
        let mut idx: Vec<usize> = (0..n).collect();
        // Unstable is fine: exact ties land in the same rank group and are
        // averaged, so the permutation within a tie group cannot leak out.
        idx.sort_unstable_by(|&a, &b| xs[a].total_cmp(&xs[b]));
        let mut out = vec![0.0; n];
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
                j += 1;
            }
            // Ranks i+1 ..= j+1 (1-based), averaged over the tie group.
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &idx[i..=j] {
                out[k] = avg;
            }
            i = j + 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use dcfail_synth::Scenario;
    use proptest::prelude::*;

    /// Default, all-zero, each feature alone, and one negative weight.
    fn weight_sets() -> Vec<PredictorWeights> {
        let d = PredictorWeights::default();
        let zero = PredictorWeights {
            recency_1w: 0.0,
            recency_4w: 0.0,
            per_prior_failure: 0.0,
            base_rate: 0.0,
        };
        vec![
            d,
            zero,
            PredictorWeights {
                recency_1w: d.recency_1w,
                ..zero
            },
            PredictorWeights {
                recency_4w: d.recency_4w,
                ..zero
            },
            PredictorWeights {
                per_prior_failure: d.per_prior_failure,
                ..zero
            },
            PredictorWeights {
                base_rate: d.base_rate,
                ..zero
            },
            PredictorWeights {
                recency_4w: -0.05,
                base_rate: 3.0,
                ..d
            },
        ]
    }

    fn assert_matches_oracle(ds: &FailureDataset, start_week: usize, weights: &PredictorWeights) {
        let case = format!("start week {start_week}, {weights:?}");
        match (
            evaluate(ds, start_week, weights),
            oracle::evaluate(ds, start_week, weights),
        ) {
            (None, None) => {}
            (Some(got), Some(want)) => {
                assert_eq!(got.observations, want.observations, "{case}");
                assert_eq!(got.positives, want.positives, "{case}");
                for (name, g, w) in [
                    ("auc", got.auc, want.auc),
                    (
                        "recall",
                        got.recall_at_top_decile,
                        want.recall_at_top_decile,
                    ),
                    ("lift", got.lift_at_top_decile, want.lift_at_top_decile),
                ] {
                    assert_eq!(g.to_bits(), w.to_bits(), "{name} {g} != {w}: {case}");
                }
            }
            (got, want) => panic!("{got:?} != {want:?}: {case}"),
        }
        let bits = |scores: Vec<(MachineId, f64)>| -> Vec<(MachineId, u64)> {
            scores.into_iter().map(|(m, s)| (m, s.to_bits())).collect()
        };
        assert_eq!(
            bits(score_week(ds, start_week, weights)),
            bits(oracle::score_week(ds, start_week, weights)),
            "score_week: {case}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// The sweep equals the per-week rescan bit for bit, over start
        /// weeks at and past the horizon's ends and every weight shape.
        fn sweep_matches_rescan_oracle(seed in 0u64..10_000) {
            let ds = Scenario::paper().seed(seed).scale(0.05).build().into_dataset();
            let weeks = ds.horizon().num_weeks();
            for start_week in [0, 1, 8, weeks - 1, weeks, weeks + 3] {
                for weights in weight_sets() {
                    assert_matches_oracle(&ds, start_week, &weights);
                }
            }
        }
    }

    /// Ten PMs over ten weeks, with failures on the two cuts the sweep must
    /// place exactly where the rescan does: the top-decile boundary and a
    /// week's first minute.
    #[test]
    fn cuts_match_oracle_on_a_hand_built_trace() {
        let day = 24 * 60;
        let machines: Vec<String> = (0..10)
            .map(|m| format!("{m},PM,0,0,4,8192,1,100,,"))
            .collect();
        // When every score ties, the top decile of the 100 machine-weeks is
        // machine-weeks 0..10: machine-week 9 (machine 9, day 3) is inside
        // it and machine-week 10 (machine 0, day 10) is not. Machine 3 fails
        // at week 1's first minute, which week 1's history excludes.
        let events = format!(
            "machine,incident,at_minutes,class,repair_minutes\n\
             9,0,{},HW,60\n0,1,{},HW,60\n3,2,{},HW,60\n",
            3 * day,
            10 * day,
            7 * day
        );
        let ds = dcfail_model::interop::dataset_from_csv(
            &format!(
                "machine,kind,subsystem,power_domain,cpus,memory_mb,disks,disk_gb,\
                 created_minutes,host_box\n{}\n",
                machines.join("\n")
            ),
            &events,
            Horizon::new(SimTime::ZERO, SimTime::ZERO + WEEK * 10),
        )
        .unwrap();
        for weights in weight_sets() {
            for start_week in [0, 1, 2] {
                assert_matches_oracle(&ds, start_week, &weights);
            }
        }
        let r = evaluate(&ds, 0, &weight_sets()[1]).unwrap();
        assert_eq!((r.observations, r.positives), (100, 3));
        assert_eq!(r.recall_at_top_decile, 1.0 / 3.0);
        let week1 = score_week(&ds, 1, &PredictorWeights::default());
        assert_eq!(week1[3].1, week1[4].1, "no history for machine 3 yet");
    }

    #[test]
    fn boundary_tie_group_split_matches_oracle() {
        let ds = testutil::dataset();
        let weights = PredictorWeights::default();
        // The oracle's order: score descending, machine-week order on ties.
        let mut by_score = oracle::scored(ds, 8, &weights);
        by_score.sort_by(|a, b| b.0.total_cmp(&a.0));
        let decile = by_score.len() / 10;
        let cut = by_score[decile].0;
        let tie_positives =
            |side: &[(f64, bool)]| side.iter().filter(|&&(s, p)| p && s == cut).count();
        // The cut falls inside a tie group with failures on both sides, so
        // the machine-week tie-break decides the recall.
        assert_eq!(by_score[decile - 1].0, cut, "cut between tie groups");
        assert!(tie_positives(&by_score[..decile]) > 0);
        assert!(tie_positives(&by_score[decile..]) > 0);
        assert_matches_oracle(ds, 8, &weights);
    }

    #[test]
    fn predictor_beats_random() {
        let ds = testutil::dataset();
        let report = evaluate(ds, 8, &PredictorWeights::default()).expect("failures exist");
        // Recurrence alone guarantees real lift: a failing machine is
        // ~40-60x more likely to fail next week.
        assert!(report.auc > 0.6, "AUC {}", report.auc);
        assert!(
            report.lift_at_top_decile > 2.0,
            "lift {}",
            report.lift_at_top_decile
        );
        assert!(report.positives > 100);
        assert!(report.observations > 100_000);
        assert!((0.0..=1.0).contains(&report.recall_at_top_decile));
    }

    #[test]
    fn scores_never_peek_ahead() {
        let ds = testutil::dataset();
        // Week-0 scores use no event history: only zero base rates.
        let w0 = score_week(ds, 0, &PredictorWeights::default());
        assert!(w0.iter().all(|&(_, s)| s == 0.0));
        // Later weeks produce nonzero scores.
        let w20 = score_week(ds, 20, &PredictorWeights::default());
        assert!(w20.iter().any(|&(_, s)| s > 0.0));
        assert_eq!(w20.len(), ds.machines().len());
    }

    #[test]
    fn recent_failures_raise_scores() {
        let ds = testutil::dataset();
        let weights = PredictorWeights::default();
        // Find a machine that failed in week 19.
        let failed_machine = ds
            .events()
            .iter()
            .find(|ev| ds.horizon().week_of(ev.at()) == Some(19))
            .map(FailureEvent::machine)
            .expect("some failure in week 19");
        let scores: BTreeMap<MachineId, f64> = score_week(ds, 20, &weights).into_iter().collect();
        let failed_score = scores[&failed_machine];
        // It must outscore a never-failed machine of the same group.
        let m = ds.machine(failed_machine);
        let virgin = ds
            .machines()
            .iter()
            .find(|x| {
                x.kind() == m.kind()
                    && x.subsystem() == m.subsystem()
                    && ds.events_for(x.id()).next().is_none()
            })
            .expect("some never-failed peer");
        assert!(failed_score > scores[&virgin.id()]);
    }

    #[test]
    fn zero_weights_give_chance_auc() {
        let ds = testutil::dataset();
        let weights = PredictorWeights {
            recency_1w: 0.0,
            recency_4w: 0.0,
            per_prior_failure: 0.0,
            base_rate: 0.0,
        };
        let report = evaluate(ds, 8, &weights).unwrap();
        // All scores equal ⇒ AUC = 0.5 by mid-rank convention.
        assert!((report.auc - 0.5).abs() < 1e-9, "AUC {}", report.auc);
    }

    #[test]
    fn ranks_handle_ties() {
        let r = oracle::ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
        let r = oracle::ranks(&[5.0, 5.0, 5.0]);
        assert_eq!(r, vec![2.0, 2.0, 2.0]);
    }
}
