//! Experiment registry: every table and figure of the paper plus the
//! extension reports, addressable by id, with a single dispatch entry point
//! (`run`/`run_all`) used by the `repro` harness and the shard coordinator.

use crate::extras;
use crate::runners::{self, Rendered};
use dcfail_model::dataset::FailureDataset;
use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;

/// Identifier of a reproducible artifact: the paper's tables and figures
/// plus the `extras::*` extension reports.
///
/// Ordered by declaration (paper order, then extras) so ids can key sorted
/// containers such as the [`crate::toolkit::Toolkit`] artifact cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExperimentId {
    /// Table I — related-work scope comparison (static).
    Table1,
    /// Table II — dataset statistics.
    Table2,
    /// Table III — inter-failure times by class.
    Table3,
    /// Table IV — repair times by class.
    Table4,
    /// Table V — random vs recurrent failures.
    Table5,
    /// Table VI — incident footprint census.
    Table6,
    /// Table VII — incident footprint by class.
    Table7,
    /// Fig. 1 — ticket class distribution.
    Fig1,
    /// Fig. 2 — weekly failure rates.
    Fig2,
    /// Fig. 3 — inter-failure CDFs and fits.
    Fig3,
    /// Fig. 4 — repair-time CDFs and fits.
    Fig4,
    /// Fig. 5 — recurrence probabilities.
    Fig5,
    /// Fig. 6 — VM failures vs age.
    Fig6,
    /// Fig. 7 — rate vs capacity.
    Fig7,
    /// Fig. 8 — rate vs usage.
    Fig8,
    /// Fig. 9 — rate vs consolidation.
    Fig9,
    /// Fig. 10 — rate vs on/off frequency.
    Fig10,
    /// Extra — availability and "nines" per machine kind.
    Availability,
    /// Extra — censoring-corrected inter-failure times (Kaplan–Meier).
    CensoredInterfailure,
    /// Extra — bootstrap CIs on the headline weekly rates (seeded).
    RateConfidence,
    /// Extra — week-ahead failure prediction.
    Prediction,
    /// Extra — what-if evaluation of the paper's advice.
    Whatif,
    /// Extra — follow-on failures by triggering root cause.
    Followon,
    /// Extra — temporal dependency (dispersion + post-failure hazard).
    Temporal,
}

impl ExperimentId {
    /// The paper's artifacts in paper order.
    pub const PAPER: [ExperimentId; 17] = [
        ExperimentId::Table1,
        ExperimentId::Table2,
        ExperimentId::Fig1,
        ExperimentId::Fig2,
        ExperimentId::Fig3,
        ExperimentId::Table3,
        ExperimentId::Fig4,
        ExperimentId::Table4,
        ExperimentId::Fig5,
        ExperimentId::Table5,
        ExperimentId::Table6,
        ExperimentId::Table7,
        ExperimentId::Fig6,
        ExperimentId::Fig7,
        ExperimentId::Fig8,
        ExperimentId::Fig9,
        ExperimentId::Fig10,
    ];

    /// The extension reports, in their fixed runner order.
    pub const EXTRAS: [ExperimentId; 7] = [
        ExperimentId::Availability,
        ExperimentId::CensoredInterfailure,
        ExperimentId::RateConfidence,
        ExperimentId::Prediction,
        ExperimentId::Whatif,
        ExperimentId::Followon,
        ExperimentId::Temporal,
    ];

    /// Every artifact: the paper set in paper order, then the extras.
    pub const ALL: [ExperimentId; 24] = [
        ExperimentId::Table1,
        ExperimentId::Table2,
        ExperimentId::Fig1,
        ExperimentId::Fig2,
        ExperimentId::Fig3,
        ExperimentId::Table3,
        ExperimentId::Fig4,
        ExperimentId::Table4,
        ExperimentId::Fig5,
        ExperimentId::Table5,
        ExperimentId::Table6,
        ExperimentId::Table7,
        ExperimentId::Fig6,
        ExperimentId::Fig7,
        ExperimentId::Fig8,
        ExperimentId::Fig9,
        ExperimentId::Fig10,
        ExperimentId::Availability,
        ExperimentId::CensoredInterfailure,
        ExperimentId::RateConfidence,
        ExperimentId::Prediction,
        ExperimentId::Whatif,
        ExperimentId::Followon,
        ExperimentId::Temporal,
    ];

    /// Short id string (`"table5"`, `"fig7"`, `"availability"`).
    pub const fn key(self) -> &'static str {
        match self {
            ExperimentId::Table1 => "table1",
            ExperimentId::Table2 => "table2",
            ExperimentId::Table3 => "table3",
            ExperimentId::Table4 => "table4",
            ExperimentId::Table5 => "table5",
            ExperimentId::Table6 => "table6",
            ExperimentId::Table7 => "table7",
            ExperimentId::Fig1 => "fig1",
            ExperimentId::Fig2 => "fig2",
            ExperimentId::Fig3 => "fig3",
            ExperimentId::Fig4 => "fig4",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Fig6 => "fig6",
            ExperimentId::Fig7 => "fig7",
            ExperimentId::Fig8 => "fig8",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Fig10 => "fig10",
            ExperimentId::Availability => "availability",
            ExperimentId::CensoredInterfailure => "censored_interfailure",
            ExperimentId::RateConfidence => "rate_confidence",
            ExperimentId::Prediction => "prediction",
            ExperimentId::Whatif => "whatif",
            ExperimentId::Followon => "followon",
            ExperimentId::Temporal => "temporal",
        }
    }

    /// Whether this id is an extension report rather than a paper artifact.
    pub const fn is_extra(self) -> bool {
        matches!(
            self,
            ExperimentId::Availability
                | ExperimentId::CensoredInterfailure
                | ExperimentId::RateConfidence
                | ExperimentId::Prediction
                | ExperimentId::Whatif
                | ExperimentId::Followon
                | ExperimentId::Temporal
        )
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

// Serialized as the short id string ("fig2"), matching `Display`/`FromStr`,
// so JSON envelopes stay readable and URL path segments round-trip.
impl serde::Serialize for ExperimentId {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.key().to_string())
    }
}

impl serde::Deserialize for ExperimentId {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Str(s) => s
                .parse()
                .map_err(|e: ParseExperimentError| serde::Error::custom(e.to_string())),
            other => Err(serde::Error::custom(format!(
                "expected experiment id string, found {}",
                other.kind()
            ))),
        }
    }
}

/// The default RNG seed for seeded runners (the bootstrap CIs) — identical
/// to the seed the pre-registry `repro` harness passed by default.
pub const DEFAULT_SEED: u64 = 42;

/// Execution options shared by every registry entry point.
///
/// `..Default::default()` keeps call sites stable as fields are added:
/// seed [`DEFAULT_SEED`], no thread override. Runner spans record whenever a
/// `dcfail-obs` collection window is open, like every other span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// Seed for the randomized runners (only [`ExperimentId::RateConfidence`]
    /// today). Defaults to [`DEFAULT_SEED`].
    pub seed: u64,
    /// When set, installs a `dcfail_par` thread-count override for the
    /// duration of the call (restoring the previous override afterwards).
    /// `None` leaves the ambient `DCFAIL_THREADS`/default resolution alone.
    pub threads: Option<NonZeroUsize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            seed: DEFAULT_SEED,
            threads: None,
        }
    }
}

impl RunConfig {
    /// A config with an explicit seed and defaults elsewhere.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// FNV-1a digest over the *output-affecting* part of the config.
    ///
    /// Two configs with equal digests are guaranteed to render identical
    /// bytes for every experiment: only `seed` feeds any runner. `threads`
    /// is deliberately excluded — the workspace's parallel-determinism suite
    /// pins that it cannot change a byte of output, so including it would
    /// only fragment the [`crate::toolkit::Toolkit`] artifact cache.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf29ce484222325;
        for byte in self.seed.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100000001b3);
        }
        hash
    }
}

/// Scoped `dcfail_par` thread override: installs on construction, restores
/// the previous override on drop.
pub(crate) struct ThreadGuard {
    prev: Option<usize>,
}

impl ThreadGuard {
    pub(crate) fn install(threads: Option<NonZeroUsize>) -> Option<Self> {
        let t = threads?;
        let prev = dcfail_par::thread_override();
        dcfail_par::set_thread_override(Some(t.get()));
        Some(Self { prev })
    }
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        dcfail_par::set_thread_override(self.prev);
    }
}

/// Error returned when parsing an experiment id fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseExperimentError {
    /// The input was empty (after trimming).
    Empty,
    /// The input matched no experiment id.
    Unknown {
        /// The rejected input.
        input: String,
        /// The closest valid id, when one is within a small edit distance.
        suggestion: Option<ExperimentId>,
    },
}

impl ParseExperimentError {
    fn valid_ids() -> String {
        ExperimentId::ALL
            .iter()
            .map(|e| e.key())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl fmt::Display for ParseExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseExperimentError::Empty => {
                write!(
                    f,
                    "empty experiment id (expected one of: {})",
                    Self::valid_ids()
                )
            }
            ParseExperimentError::Unknown { input, suggestion } => {
                write!(f, "unknown experiment '{input}'")?;
                if let Some(s) = suggestion {
                    write!(f, " — did you mean '{s}'?")?;
                }
                write!(f, " (expected one of: {})", Self::valid_ids())
            }
        }
    }
}

impl std::error::Error for ParseExperimentError {}

/// Edit distance between two short ASCII strings (for did-you-mean).
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

impl FromStr for ExperimentId {
    type Err = ParseExperimentError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let needle = s.trim().to_lowercase();
        if needle.is_empty() {
            return Err(ParseExperimentError::Empty);
        }
        if let Some(id) = ExperimentId::ALL.into_iter().find(|e| e.key() == needle) {
            return Ok(id);
        }
        let suggestion = ExperimentId::ALL
            .into_iter()
            .map(|e| (levenshtein(e.key(), &needle), e))
            .min_by_key(|&(d, _)| d)
            .filter(|&(d, _)| d <= 3)
            .map(|(_, e)| e);
        Err(ParseExperimentError::Unknown {
            input: s.to_string(),
            suggestion,
        })
    }
}

fn dispatch(id: ExperimentId, dataset: &FailureDataset, config: &RunConfig) -> Rendered {
    match id {
        ExperimentId::Table1 => runners::table1_impl(),
        ExperimentId::Table2 => runners::table2_impl(dataset),
        ExperimentId::Table3 => runners::table3_impl(dataset),
        ExperimentId::Table4 => runners::table4_impl(dataset),
        ExperimentId::Table5 => runners::table5_impl(dataset),
        ExperimentId::Table6 => runners::table6_impl(dataset),
        ExperimentId::Table7 => runners::table7_impl(dataset),
        ExperimentId::Fig1 => runners::fig1_impl(dataset),
        ExperimentId::Fig2 => runners::fig2_impl(dataset),
        ExperimentId::Fig3 => runners::fig3_impl(dataset),
        ExperimentId::Fig4 => runners::fig4_impl(dataset),
        ExperimentId::Fig5 => runners::fig5_impl(dataset),
        ExperimentId::Fig6 => runners::fig6_impl(dataset),
        ExperimentId::Fig7 => runners::fig7_impl(dataset),
        ExperimentId::Fig8 => runners::fig8_impl(dataset),
        ExperimentId::Fig9 => runners::fig9_impl(dataset),
        ExperimentId::Fig10 => runners::fig10_impl(dataset),
        ExperimentId::Availability => extras::availability_impl(dataset),
        ExperimentId::CensoredInterfailure => extras::censored_interfailure_impl(dataset),
        ExperimentId::RateConfidence => extras::rate_confidence_impl(dataset, config.seed),
        ExperimentId::Prediction => extras::prediction_impl(dataset),
        ExperimentId::Whatif => extras::whatif_impl(dataset),
        ExperimentId::Followon => extras::followon_impl(dataset),
        ExperimentId::Temporal => extras::temporal_impl(dataset),
    }
}

/// Runs one experiment against a dataset.
pub fn run(id: ExperimentId, dataset: &FailureDataset, config: &RunConfig) -> Rendered {
    let _threads = ThreadGuard::install(config.threads);
    let _span = dcfail_obs::span_labeled("report", id.key());
    dispatch(id, dataset, config)
}

/// Runs every experiment (paper artifacts then extras). The runners are
/// independent and read-only over the dataset, so they fan out across
/// threads; the result vector follows [`ExperimentId::ALL`] regardless of
/// schedule.
pub fn run_all(dataset: &FailureDataset, config: &RunConfig) -> Vec<(ExperimentId, Rendered)> {
    let _threads = ThreadGuard::install(config.threads);
    let _span = dcfail_obs::span("report.run_all");
    let inner = RunConfig {
        threads: None,
        ..config.clone()
    };
    dcfail_par::par_map(&ExperimentId::ALL, |_, &id| (id, run(id, dataset, &inner)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcfail_synth::Scenario;

    #[test]
    fn ids_parse_roundtrip() {
        for id in ExperimentId::ALL {
            assert_eq!(id.key().parse::<ExperimentId>().unwrap(), id);
            assert_eq!(id.to_string(), id.key());
        }
        assert!("fig99".parse::<ExperimentId>().is_err());
        let err = "bogus".parse::<ExperimentId>().unwrap_err();
        assert!(err.to_string().contains("unknown experiment"));
    }

    #[test]
    fn parse_error_is_typed_with_suggestion() {
        let err = "figure5".parse::<ExperimentId>().unwrap_err();
        match &err {
            ParseExperimentError::Unknown { input, suggestion } => {
                assert_eq!(input, "figure5");
                assert_eq!(*suggestion, Some(ExperimentId::Fig5));
            }
            ParseExperimentError::Empty => panic!("expected Unknown"),
        }
        assert!(err.to_string().contains("did you mean 'fig5'"));
        assert_eq!(
            "  ".parse::<ExperimentId>().unwrap_err(),
            ParseExperimentError::Empty
        );
        // Far-off garbage gets no suggestion.
        let err = "zzzzzzzzzz".parse::<ExperimentId>().unwrap_err();
        assert!(matches!(
            err,
            ParseExperimentError::Unknown {
                suggestion: None,
                ..
            }
        ));
        fn assert_err<E: std::error::Error>() {}
        assert_err::<ParseExperimentError>();
    }

    #[test]
    fn paper_and_extras_partition_all() {
        assert_eq!(
            ExperimentId::PAPER.len() + ExperimentId::EXTRAS.len(),
            ExperimentId::ALL.len()
        );
        for (i, id) in ExperimentId::PAPER.into_iter().enumerate() {
            assert_eq!(ExperimentId::ALL[i], id);
            assert!(!id.is_extra());
        }
        for (i, id) in ExperimentId::EXTRAS.into_iter().enumerate() {
            assert_eq!(ExperimentId::ALL[ExperimentId::PAPER.len() + i], id);
            assert!(id.is_extra());
        }
    }

    #[test]
    fn run_all_covers_every_artifact() {
        let ds = Scenario::paper().seed(3).scale(0.03).build().into_dataset();
        let reports = run_all(&ds, &RunConfig::default());
        assert_eq!(reports.len(), 24);
        for (id, r) in &reports {
            assert!(!r.text.is_empty(), "{id}: empty report");
        }
    }

    #[test]
    fn thread_override_is_scoped_and_restored() {
        dcfail_par::set_thread_override(Some(3));
        let ds = Scenario::paper().seed(3).scale(0.02).build().into_dataset();
        let config = RunConfig {
            threads: NonZeroUsize::new(2),
            ..RunConfig::default()
        };
        let a = run(ExperimentId::Fig2, &ds, &config);
        assert_eq!(dcfail_par::thread_override(), Some(3));
        dcfail_par::set_thread_override(None);
        let b = run(ExperimentId::Fig2, &ds, &RunConfig::default());
        assert_eq!(a.text, b.text);
    }

    #[test]
    fn config_digest_tracks_seed_only() {
        let threaded = RunConfig {
            seed: 1,
            threads: NonZeroUsize::new(4),
        };
        assert_eq!(RunConfig::with_seed(1).digest(), threaded.digest());
        assert_ne!(
            RunConfig::with_seed(1).digest(),
            RunConfig::with_seed(2).digest()
        );
    }

    #[test]
    fn seed_flows_to_seeded_runners() {
        let ds = Scenario::paper().seed(3).scale(0.03).build().into_dataset();
        let a = run(ExperimentId::RateConfidence, &ds, &RunConfig::with_seed(1));
        let b = run(ExperimentId::RateConfidence, &ds, &RunConfig::with_seed(1));
        let c = run(ExperimentId::RateConfidence, &ds, &RunConfig::with_seed(2));
        assert_eq!(a.text, b.text);
        assert_ne!(a.text, c.text);
    }
}
