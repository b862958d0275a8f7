//! Experiment registry: every table and figure of the paper plus the
//! extension reports, declared once in the `REGISTRY` table and
//! addressable by id, with the entry points (`run`/`run_all`/[`fan_out`])
//! every front door renders through.

use crate::extras;
use crate::runners::{self, Figure, Rendered};
use dcfail_core::panel::{Panel, PanelCurve, PANELS};
use dcfail_model::dataset::FailureDataset;
use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;

/// Identifier of a reproducible artifact: the paper's tables and figures
/// plus the `extras::*` extension reports.
///
/// Declared in paper order, then the extras, so that an id's discriminant
/// is its row in the `REGISTRY` table. The derived `Ord` only keys maps
/// looked up by id, such as the [`crate::toolkit::Toolkit`] artifact cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExperimentId {
    /// Table I — related-work scope comparison (static).
    Table1,
    /// Table II — dataset statistics.
    Table2,
    /// Fig. 1 — ticket class distribution.
    Fig1,
    /// Fig. 2 — weekly failure rates.
    Fig2,
    /// Fig. 3 — inter-failure CDFs and fits.
    Fig3,
    /// Table III — inter-failure times by class.
    Table3,
    /// Fig. 4 — repair-time CDFs and fits.
    Fig4,
    /// Table IV — repair times by class.
    Table4,
    /// Fig. 5 — recurrence probabilities.
    Fig5,
    /// Table V — random vs recurrent failures.
    Table5,
    /// Table VI — incident footprint census.
    Table6,
    /// Table VII — incident footprint by class.
    Table7,
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

/// How an artifact renders.
#[derive(Clone, Copy)]
enum Render {
    /// From the dataset.
    Dataset(fn(&FailureDataset) -> Rendered),
    /// From the dataset and the config's seed.
    Seeded(fn(&FailureDataset, u64) -> Rendered),
    /// A Fig. 7–10 figure, from its finalized panels.
    Panels(Figure),
}

/// One registry row: an artifact's id, its key and its renderer.
struct Artifact {
    id: ExperimentId,
    key: &'static str,
    render: Render,
}

const fn row(id: ExperimentId, key: &'static str, render: Render) -> Artifact {
    Artifact { id, key, render }
}

/// Every artifact, one row per id at its discriminant: the paper's in
/// paper order, then the extras.
const REGISTRY: [Artifact; 24] = {
    use ExperimentId as E;
    use Render::{Dataset, Panels, Seeded};
    [
        row(E::Table1, "table1", Dataset(|_| runners::table1_impl())),
        row(E::Table2, "table2", Dataset(runners::table2_impl)),
        row(E::Fig1, "fig1", Dataset(runners::fig1_impl)),
        row(E::Fig2, "fig2", Dataset(runners::fig2_impl)),
        row(E::Fig3, "fig3", Dataset(runners::fig3_impl)),
        row(E::Table3, "table3", Dataset(runners::table3_impl)),
        row(E::Fig4, "fig4", Dataset(runners::fig4_impl)),
        row(E::Table4, "table4", Dataset(runners::table4_impl)),
        row(E::Fig5, "fig5", Dataset(runners::fig5_impl)),
        row(E::Table5, "table5", Dataset(runners::table5_impl)),
        row(E::Table6, "table6", Dataset(runners::table6_impl)),
        row(E::Table7, "table7", Dataset(runners::table7_impl)),
        row(E::Fig6, "fig6", Dataset(runners::fig6_impl)),
        row(
            E::Fig7,
            "fig7",
            Panels(Figure {
                number: 7,
                title: "Fig. 7 — weekly failure rate vs resource capacity",
                share_label: "",
                reference: "paper reference: PM cpu peaks at 24 (5.5x) then drops at 32/64; \
                            VM cpu 2.5x; memory bathtub; disk count 10x, disk capacity flat >= 32 GB\n",
            }),
        ),
        row(
            E::Fig8,
            "fig8",
            Panels(Figure {
                number: 8,
                title: "Fig. 8 — weekly failure rate vs resource usage",
                share_label: "",
                reference: "paper reference: VM rate rises with cpu util, PM falls (0-30%); \
                            memory inverted bathtub (PM strongest); disk mild rise; network peaks at 64 Kbps\n",
            }),
        ),
        row(
            E::Fig9,
            "fig9",
            Panels(Figure {
                number: 9,
                title: "Fig. 9 — weekly failure rate vs VM consolidation",
                share_label: "VM share per level: ",
                reference: "\npaper reference: rate decreases significantly with consolidation; \
                            population skews to levels 16-32\n",
            }),
        ),
        row(
            E::Fig10,
            "fig10",
            Panels(Figure {
                number: 10,
                title: "Fig. 10 — weekly failure rate vs on/off frequency",
                share_label: "VM share per bucket: ",
                reference: "\npaper reference: rate rises from 0 to ~2 cycles/month, no clear trend beyond; \
                            60% of VMs cycle at most once a month\n",
            }),
        ),
        row(E::Availability, "availability", Dataset(extras::availability_impl)),
        row(
            E::CensoredInterfailure,
            "censored_interfailure",
            Dataset(extras::censored_interfailure_impl),
        ),
        row(E::RateConfidence, "rate_confidence", Seeded(extras::rate_confidence_impl)),
        row(E::Prediction, "prediction", Dataset(extras::prediction_impl)),
        row(E::Whatif, "whatif", Dataset(extras::whatif_impl)),
        row(E::Followon, "followon", Dataset(extras::followon_impl)),
        row(E::Temporal, "temporal", Dataset(extras::temporal_impl)),
    ]
};

/// The ids of `N` registry rows from row `from`, checking at compile time
/// that each row sits at its id's discriminant.
const fn ids<const N: usize>(from: usize) -> [ExperimentId; N] {
    let mut ids = [ExperimentId::Table1; N];
    let mut i = 0;
    while i < N {
        let id = REGISTRY[from + i].id;
        assert!(
            id as usize == from + i,
            "a registry row is out of declaration order"
        );
        ids[i] = id;
        i += 1;
    }
    ids
}

impl ExperimentId {
    /// The paper's artifacts in paper order.
    pub const PAPER: [ExperimentId; 17] = ids(0);

    /// The extension reports, in their fixed runner order.
    pub const EXTRAS: [ExperimentId; 7] = ids(Self::PAPER.len());

    /// Every artifact: the paper set in paper order, then the extras.
    pub const ALL: [ExperimentId; 24] = ids(0);

    /// Short id string (`"table5"`, `"fig7"`, `"availability"`).
    pub const fn key(self) -> &'static str {
        REGISTRY[self as usize].key
    }

    /// Whether this id is an extension report rather than a paper artifact.
    pub const fn is_extra(self) -> bool {
        self as usize >= Self::PAPER.len()
    }

    /// The Fig. 7–10 panels the artifact draws, in table order; none for
    /// any other artifact.
    pub fn panels(self) -> impl Iterator<Item = &'static Panel> {
        let figure = match REGISTRY[self as usize].render {
            Render::Panels(figure) => Some(figure.number),
            Render::Dataset(_) | Render::Seeded(_) => None,
        };
        PANELS.iter().filter(move |p| Some(p.figure) == figure)
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
    /// is deliberately excluded — the workspace's front-door harness pins
    /// that it cannot change a byte of output, so including it would only
    /// fragment the [`crate::toolkit::Toolkit`] artifact cache.
    #[must_use]
    pub fn digest(&self) -> u64 {
        dcfail_stats::digest::fnv1a([self.seed.to_le_bytes()])
    }
}

/// Scoped `dcfail_par` thread override: installs on construction, restores
/// the previous override on drop.
struct ThreadGuard {
    prev: Option<usize>,
}

impl ThreadGuard {
    /// Installs `threads` as the override until the guard drops; `None`
    /// leaves the current override alone and returns no guard.
    fn install(threads: Option<NonZeroUsize>) -> Option<Self> {
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

/// Runs one experiment against a dataset.
pub fn run(id: ExperimentId, dataset: &FailureDataset, config: &RunConfig) -> Rendered {
    run_with_panels(id, dataset, &[], config)
}

/// Runs one experiment like [`run`], except that a Fig. 7–10 figure whose
/// panels `panels` holds renders from them: the merged counts of a sharded
/// build, whose dataset carries no telemetry.
pub fn run_with_panels(
    id: ExperimentId,
    dataset: &FailureDataset,
    panels: &[PanelCurve],
    config: &RunConfig,
) -> Rendered {
    let _threads = ThreadGuard::install(config.threads);
    let _span = dcfail_obs::span_labeled("report", id.key());
    render_panels(id, panels).unwrap_or_else(|| match REGISTRY[id as usize].render {
        Render::Dataset(render) => render(dataset),
        Render::Seeded(render) => render(dataset, config.seed),
        Render::Panels(figure) => runners::render_figure(&figure, &figure.count(dataset)),
    })
}

/// `id` rendered from finalized panels, when it is a Fig. 7–10 figure and
/// `panels` holds its panels (a sharded or streamed run's merged counts);
/// `None` otherwise.
pub fn render_panels(id: ExperimentId, panels: &[PanelCurve]) -> Option<Rendered> {
    let Render::Panels(figure) = REGISTRY[id as usize].render else {
        return None;
    };
    panels
        .iter()
        .any(|c| c.panel.figure == figure.number)
        .then(|| runners::render_figure(&figure, panels))
}

/// Renders each of `ids` with `render`, fanned out across `dcfail-par`
/// workers, in `ids` order whatever the schedule, under one
/// `report.run_all` span. `config`'s thread override holds for the whole
/// call, so each render gets `config` without it: the fan-out's workers
/// must not re-install it. Every front door's fan-out runs through here.
pub fn fan_out<R: Send>(
    ids: &[ExperimentId],
    config: &RunConfig,
    render: impl Fn(ExperimentId, &RunConfig) -> R + Sync,
) -> Vec<(ExperimentId, R)> {
    let _threads = ThreadGuard::install(config.threads);
    let _span = dcfail_obs::span("report.run_all");
    let inner = RunConfig {
        threads: None,
        ..config.clone()
    };
    dcfail_par::par_map(ids, |_, &id| (id, render(id, &inner)))
}

/// Runs every experiment (paper artifacts then extras). The runners are
/// independent and read-only over the dataset, so they fan out across
/// threads; the result vector follows [`ExperimentId::ALL`] regardless of
/// schedule.
pub fn run_all(dataset: &FailureDataset, config: &RunConfig) -> Vec<(ExperimentId, Rendered)> {
    fan_out(&ExperimentId::ALL, config, |id, config| {
        run(id, dataset, config)
    })
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
    fn the_registry_has_one_row_per_id_with_unique_keys() {
        for (i, row) in REGISTRY.iter().enumerate() {
            assert_eq!(row.id as usize, i, "{}", row.key);
            assert_eq!(ExperimentId::ALL[i], row.id);
        }
        let keys: std::collections::BTreeSet<&str> = REGISTRY.iter().map(|r| r.key).collect();
        assert_eq!(keys.len(), REGISTRY.len(), "two rows share a key");
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
