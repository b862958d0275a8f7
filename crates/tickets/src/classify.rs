//! Crash-ticket classification: manual labeling + k-means clustering.
//!
//! The paper: *"we apply manual labeling and k-means clustering on both the
//! description and the resolution field of all tickets in a best-effort
//! manner. After manually checking the classification of all tickets, our
//! k-means classification has an accuracy of 87%."*
//!
//! [`manual_label`] stands in for the human: keyword rules over the
//! resolution (primary, as in the paper) and description text; vague text
//! yields [`FailureClass::Other`]. [`classify`] runs TF-IDF + k-means over
//! all crash tickets and labels each cluster by the majority manual label of
//! a sampled subset, then reports agreement with the full manual labeling.

use dcfail_model::failure::FailureClass;
use dcfail_model::ids::{TextId, TicketId};
use dcfail_model::ticket::{TextTable, Ticket};
use dcfail_stats::kmeans::{KMeans, KMeansConfig};
use dcfail_stats::rng::StreamRng;
use dcfail_stats::text::{tokenize, TfIdf, TokenizedTexts};
use std::collections::BTreeMap;

/// Keyword evidence per class; resolution hits count double because the
/// paper classifies "based on their resolutions".
const HW_WORDS: [&str; 12] = [
    "hardware",
    "dimm",
    "raid",
    "motherboard",
    "disk",
    "psu",
    "vendor",
    "battery",
    "chassis",
    "drive",
    "ecc",
    "replaced",
];
const NET_WORDS: [&str; 12] = [
    "network",
    "switch",
    "vlan",
    "dns",
    "uplink",
    "connectivity",
    "transceiver",
    "routing",
    "nic",
    "cabling",
    "ping",
    "packet",
];
const POWER_WORDS: [&str; 10] = [
    "electrical",
    "outage",
    "pdu",
    "ups",
    "breaker",
    "utility",
    "circuit",
    "powered",
    "feed",
    "electrician",
];
const REBOOT_WORDS: [&str; 8] = [
    "reboot",
    "rebooted",
    "restart",
    "restarted",
    "uptime",
    "watchdog",
    "cycled",
    "spontaneously",
];
// "service" is deliberately absent: routine resolutions ("restored
// service") use it far too often for it to be software evidence.
const SW_WORDS: [&str; 12] = [
    "software",
    "os",
    "kernel",
    "application",
    "hung",
    "agent",
    "patch",
    "filesystem",
    "process",
    "driver",
    "bugcheck",
    "hang",
];

/// The classes with keyword evidence, each with its keywords.
const KEYWORDS: [(FailureClass, &[&str]); 5] = [
    (FailureClass::Hardware, &HW_WORDS),
    (FailureClass::Network, &NET_WORDS),
    (FailureClass::Power, &POWER_WORDS),
    (FailureClass::Reboot, &REBOOT_WORDS),
    (FailureClass::Software, &SW_WORDS),
];

/// Keyword hits of one text, per class of [`KEYWORDS`].
type KeywordCounts = [u32; 5];

/// The keyword hits among `words`, per class of [`KEYWORDS`].
fn keyword_counts<'w>(words: impl IntoIterator<Item = &'w str>) -> KeywordCounts {
    let mut counts = [0; 5];
    for word in words {
        for (count, (_, keywords)) in counts.iter_mut().zip(&KEYWORDS) {
            *count += u32::from(keywords.contains(&word));
        }
    }
    counts
}

/// The manual label of a description and a resolution with `desc` and
/// `res` keyword hits: each class scores `d + 2·r`, and the first class
/// with the highest score wins.
fn label_from_counts(desc: KeywordCounts, res: KeywordCounts) -> FailureClass {
    let mut best = (FailureClass::Other, 0);
    for (&(class, _), (&d, &r)) in KEYWORDS.iter().zip(desc.iter().zip(&res)) {
        let score = d + 2 * r;
        if score > best.1 {
            best = (class, score);
        }
    }
    // Require at least two points of evidence: a single stray keyword (for
    // example "outage" inside an otherwise vague description) is not enough
    // for a human to commit to a class.
    if best.1 < 2 {
        FailureClass::Other
    } else {
        best.0
    }
}

/// Rule-based "manual" label from description and resolution text.
///
/// Scores keyword evidence per class (resolution hits weighted 2×) and
/// returns the argmax; text with no evidence — the paper's 53% — maps to
/// [`FailureClass::Other`].
pub fn manual_label(description: &str, resolution: &str) -> FailureClass {
    let counts = |text| keyword_counts(tokenize(text).iter().map(String::as_str));
    label_from_counts(counts(description), counts(resolution))
}

/// Configuration for the k-means classification pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Number of clusters. The paper does not report k; k = 10 lands the
    /// k-means agreement with the manual check in the paper's ~87% regime
    /// (larger k gives near-pure clusters and unrealistically high
    /// agreement). Rare classes may lose their cluster — the *checked*
    /// labels, which the analyses consume, are unaffected.
    pub k: usize,
    /// Minimum document frequency for a token to become a feature.
    pub min_df: usize,
    /// Fraction of each cluster manually inspected to vote on its label.
    pub seed_fraction: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            k: 10,
            min_df: 3,
            seed_fraction: 0.2,
        }
    }
}

/// Result of running the classification pipeline. Classifying no tickets
/// gives no labels and no accuracies.
#[derive(Debug, Clone, Default)]
pub struct Classification {
    /// Raw k-means cluster label per ticket.
    labels: BTreeMap<TicketId, FailureClass>,
    /// Manually-checked label per ticket — the paper's final labels ("after
    /// manually checking the classification of all tickets"); the k-means
    /// output is scored against these (87% in the paper).
    checked: BTreeMap<TicketId, FailureClass>,
    /// Agreement between the k-means labels and the full manual labeling
    /// (the paper reports 87%); `None` when nothing was classified.
    accuracy_vs_manual: Option<f64>,
    /// Agreement with simulator ground truth, over tickets that carry one
    /// (counting a degraded-text ticket as correctly labelled `Other` is
    /// impossible here, so this is a stricter number).
    accuracy_vs_truth: Option<f64>,
    /// Number of clusters labelled per class (diagnostics).
    clusters_per_class: BTreeMap<FailureClass, usize>,
}

impl Classification {
    /// Raw k-means label of `ticket`, if it was classified.
    pub fn label(&self, ticket: TicketId) -> Option<FailureClass> {
        self.labels.get(&ticket).copied()
    }

    /// All raw k-means labels.
    pub fn labels(&self) -> &BTreeMap<TicketId, FailureClass> {
        &self.labels
    }

    /// All manually-checked labels.
    pub fn checked_labels(&self) -> &BTreeMap<TicketId, FailureClass> {
        &self.checked
    }

    /// Agreement with the manual labeling (paper: 87%); `None` when no
    /// ticket was classified.
    pub fn accuracy_vs_manual(&self) -> Option<f64> {
        self.accuracy_vs_manual
    }

    /// Agreement with ground-truth classes where available.
    pub fn accuracy_vs_truth(&self) -> Option<f64> {
        self.accuracy_vs_truth
    }

    /// How many clusters were assigned to each class.
    // dlint::allow(D17): crates/tickets/tests/golden_classify.rs pins it
    pub fn clusters_per_class(&self) -> &BTreeMap<FailureClass, usize> {
        &self.clusters_per_class
    }

    /// Share of tickets labelled `class`.
    pub fn share(&self, class: FailureClass) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.values().filter(|&&c| c == class).count() as f64 / self.labels.len() as f64
    }
}

/// A ticket's description and resolution in `texts`; an id the table does
/// not hold reads as empty text.
pub(crate) fn text_of<'t>(texts: &'t TextTable, t: &Ticket) -> (&'t str, &'t str) {
    let read = |id| texts.get(id).unwrap_or_default();
    (read(t.description()), read(t.resolution()))
}

/// What the k-means fit and the cluster vote read per ticket.
struct FrontEnd {
    /// The L2-normalized TF-IDF vector of the ticket's description and
    /// resolution.
    vectors: Vec<Vec<f32>>,
    /// The ticket's [`manual_label`].
    manual: Vec<FailureClass>,
}

/// Vectorizes and manually labels `tickets`, working once per distinct
/// text: crash tickets share their templated texts (1,941 tickets name 884
/// distinct texts at seed 7, scale 1.0), so each text is tokenized and its
/// keywords counted once. A ticket's document is its description followed
/// by its resolution, as in `tokenize(&format!("{d} {r}"))`, and its label
/// comes from the two texts' counts, as in [`manual_label`].
fn front_end(tickets: &[&Ticket], texts: &TextTable, min_df: usize) -> FrontEnd {
    let both = |t: &Ticket| [t.description(), t.resolution()];
    let mut ids: Vec<TextId> = tickets.iter().flat_map(|t| both(t)).collect();
    ids.sort_unstable();
    ids.dedup();
    let local = |id| ids.binary_search(&id).expect("every named text is listed");
    let docs: Vec<[usize; 2]> = tickets.iter().map(|t| both(t).map(local)).collect();
    let tokenized = {
        let _s = dcfail_obs::span("tokenize");
        // An id the table does not hold reads as empty text.
        let read: Vec<&str> = ids
            .iter()
            .map(|&id| texts.get(id).unwrap_or_default())
            .collect();
        TokenizedTexts::new(&read)
    };
    if dcfail_obs::enabled() {
        let tokens = docs
            .iter()
            .flatten()
            .map(|&t| tokenized.tokens(t).len() as u64);
        dcfail_obs::add("classify.tickets", tickets.len() as u64);
        dcfail_obs::add("classify.texts", ids.len() as u64);
        dcfail_obs::add("classify.tokens", tokens.sum());
    }
    let tfidf = {
        let _s = dcfail_obs::span("tfidf.fit");
        TfIdf::fit(&tokenized, &docs, min_df)
    };
    let vectors = {
        let _s = dcfail_obs::span("tfidf.transform");
        let mut nonzeros = Vec::new();
        let densify = |doc: &[usize; 2]| {
            tfidf.transform(&tokenized, doc, &mut nonzeros);
            let mut v = vec![0.0f32; tfidf.dim()];
            for &(f, x) in &nonzeros {
                v[f as usize] = x;
            }
            v
        };
        docs.iter().map(densify).collect()
    };
    let manual = {
        let _s = dcfail_obs::span("manual_label");
        let words: Vec<KeywordCounts> = tokenized
            .words()
            .iter()
            .map(|w| keyword_counts([w.as_str()]))
            .collect();
        let text_counts: Vec<KeywordCounts> = (0..ids.len())
            .map(|t| {
                let mut counts = [0; 5];
                for &id in tokenized.tokens(t) {
                    for (c, hits) in counts.iter_mut().zip(words[id as usize]) {
                        *c += hits;
                    }
                }
                counts
            })
            .collect();
        docs.iter()
            .map(|&[d, r]| label_from_counts(text_counts[d], text_counts[r]))
            .collect()
    };
    FrontEnd { vectors, manual }
}

/// Runs the TF-IDF + k-means pipeline over crash tickets whose text lives
/// in `texts`. With no tickets it classifies nothing: no labels and no
/// accuracies, and `rng` is not drawn from.
pub fn classify(
    tickets: &[&Ticket],
    texts: &TextTable,
    config: PipelineConfig,
    rng: &mut StreamRng,
) -> Classification {
    let _span = dcfail_obs::span("classify");
    if tickets.is_empty() {
        return Classification::default();
    }
    // Vectorize description + resolution, and label every ticket by hand
    // (the labels drive the cluster vote and the accuracy).
    let FrontEnd { vectors, manual } = front_end(tickets, texts, config.min_df);

    // Cluster.
    let k = config.k.min(tickets.len());
    let km = {
        let _s = dcfail_obs::span("kmeans");
        KMeans::fit(&vectors, KMeansConfig::new(k), rng).expect("k <= number of tickets")
    };

    // Vote per cluster using a manually-inspected sample.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &cluster) in km.assignments().iter().enumerate() {
        members[cluster].push(i);
    }
    let mut cluster_label = vec![FailureClass::Other; k];
    for (cluster, member_idx) in members.iter().enumerate() {
        if member_idx.is_empty() {
            continue;
        }
        // Inspect at least 8 members (or the whole cluster when smaller):
        // tiny voting samples make small-estate runs unstable.
        let sample_size = ((member_idx.len() as f64 * config.seed_fraction).ceil() as usize)
            .clamp(8.min(member_idx.len()), member_idx.len());
        let picks = rng.sample_indexes(member_idx.len(), sample_size);
        let mut votes = [0usize; 6];
        for p in picks {
            votes[manual[member_idx[p]].index()] += 1;
        }
        let best = (0..6).max_by_key(|&c| votes[c]).expect("six classes");
        cluster_label[cluster] = FailureClass::from_index(best);
    }

    // Emit labels and score accuracy.
    let mut labels = BTreeMap::new();
    let mut checked = BTreeMap::new();
    let mut manual_agree = 0usize;
    let mut truth_total = 0usize;
    let mut truth_agree = 0usize;
    for (i, t) in tickets.iter().enumerate() {
        let label = cluster_label[km.assignments()[i]];
        labels.insert(t.id(), label);
        checked.insert(t.id(), manual[i]);
        if label == manual[i] {
            manual_agree += 1;
        }
        if let Some(truth) = t.true_class() {
            truth_total += 1;
            if label == truth {
                truth_agree += 1;
            }
        }
    }
    let mut clusters_per_class: BTreeMap<FailureClass, usize> = BTreeMap::new();
    for (&label, m) in cluster_label.iter().zip(&members) {
        if !m.is_empty() {
            *clusters_per_class.entry(label).or_insert(0) += 1;
        }
    }

    Classification {
        labels,
        checked,
        accuracy_vs_manual: Some(manual_agree as f64 / tickets.len() as f64),
        accuracy_vs_truth: (truth_total > 0).then(|| truth_agree as f64 / truth_total as f64),
        clusters_per_class,
    }
}

/// Re-labels a dataset's failure events with fresh pipeline output, exactly
/// like re-running the paper's classification over the ticket database.
///
/// The labels applied are the *manually-checked* ones — the paper's analyses
/// run on the labels that survived the manual check, while the raw k-means
/// output is only scored against them (87%). A dataset without crash
/// tickets is left as it is.
pub fn apply_to_dataset(
    dataset: &mut dcfail_model::dataset::FailureDataset,
    config: PipelineConfig,
    rng: &mut StreamRng,
) -> Classification {
    let crash: Vec<&Ticket> = dataset.tickets().iter().filter(|t| t.is_crash()).collect();
    let classification = classify(&crash, dataset.texts(), config, rng);
    let labels = classification.checked_labels();
    if labels.is_empty() {
        return classification;
    }
    dataset.relabel_events(|ev| {
        labels
            .get(&ev.ticket())
            .copied()
            .unwrap_or(FailureClass::Other)
    });
    classification
}

/// The per-ticket front end, the oracle for [`front_end`]: each ticket's
/// description and resolution tokenized together, a vocabulary of token
/// strings, dense TF-IDF vectors and [`manual_label`] per ticket; and
/// keyword scoring over token strings in f64, the oracle for
/// `manual_label`'s counts.
#[cfg(test)]
mod oracle {
    use super::{manual_label, text_of, FrontEnd};
    use super::{HW_WORDS, NET_WORDS, POWER_WORDS, REBOOT_WORDS, SW_WORDS};
    use dcfail_model::failure::FailureClass;
    use dcfail_model::ticket::{TextTable, Ticket};
    use dcfail_stats::text::tokenize;
    use std::collections::BTreeMap;

    /// Tokens kept at `min_df`, in lexicographic order (feature `i` is
    /// `tokens[i]`), with their document frequencies.
    struct Vocabulary {
        tokens: Vec<String>,
        doc_freq: Vec<usize>,
        num_docs: usize,
    }

    impl Vocabulary {
        fn build(docs: &[Vec<String>], min_df: usize) -> Self {
            let mut df: BTreeMap<String, usize> = BTreeMap::new();
            for doc in docs {
                let mut seen: Vec<&String> = doc.iter().collect();
                seen.sort_unstable();
                seen.dedup();
                for token in seen {
                    *df.entry(token.clone()).or_insert(0) += 1;
                }
            }
            let (tokens, doc_freq) = df.into_iter().filter(|&(_, n)| n >= min_df.max(1)).unzip();
            Self {
                tokens,
                doc_freq,
                num_docs: docs.len(),
            }
        }
    }

    /// TF-IDF with smoothed IDF and L2 normalization, on dense vectors.
    struct DenseTfIdf {
        vocab: Vocabulary,
        idf: Vec<f32>,
    }

    impl DenseTfIdf {
        fn fit(docs: &[Vec<String>], min_df: usize) -> Self {
            let vocab = Vocabulary::build(docs, min_df);
            let n = vocab.num_docs as f32;
            let idf = (vocab.doc_freq.iter())
                .map(|&df| ((1.0 + n) / (1.0 + df as f32)).ln() + 1.0)
                .collect();
            Self { vocab, idf }
        }

        fn transform(&self, doc: &[String]) -> Vec<f32> {
            let mut v = vec![0.0f32; self.vocab.tokens.len()];
            for token in doc {
                if let Ok(i) = self.vocab.tokens.binary_search(token) {
                    v[i] += 1.0;
                }
            }
            for (x, &w) in v.iter_mut().zip(&self.idf) {
                *x *= w;
            }
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 0.0 {
                for x in &mut v {
                    *x /= norm;
                }
            }
            v
        }
    }

    pub fn front_end(tickets: &[&Ticket], texts: &TextTable, min_df: usize) -> FrontEnd {
        let docs: Vec<Vec<String>> = (tickets.iter())
            .map(|t| {
                let (description, resolution) = text_of(texts, t);
                tokenize(&format!("{description} {resolution}"))
            })
            .collect();
        let tfidf = DenseTfIdf::fit(&docs, min_df);
        FrontEnd {
            vectors: docs.iter().map(|d| tfidf.transform(d)).collect(),
            manual: (tickets.iter())
                .map(|t| {
                    let (description, resolution) = text_of(texts, t);
                    manual_label(description, resolution)
                })
                .collect(),
        }
    }

    /// Keyword evidence scored over token strings in f64: each class
    /// `d + 2·r` hits, the first highest wins, under 2 is `Other`.
    pub fn manual_label_by_strings(description: &str, resolution: &str) -> FailureClass {
        let desc = tokenize(description);
        let res = tokenize(resolution);
        let score = |words: &[&str]| -> f64 {
            let d = desc.iter().filter(|t| words.contains(&t.as_str())).count() as f64;
            let r = res.iter().filter(|t| words.contains(&t.as_str())).count() as f64;
            d + 2.0 * r
        };
        let scores = [
            (FailureClass::Hardware, score(&HW_WORDS)),
            (FailureClass::Network, score(&NET_WORDS)),
            (FailureClass::Power, score(&POWER_WORDS)),
            (FailureClass::Reboot, score(&REBOOT_WORDS)),
            (FailureClass::Software, score(&SW_WORDS)),
        ];
        let (best, best_score) =
            scores
                .iter()
                .fold((FailureClass::Other, 0.0), |(bc, bs), &(c, s)| {
                    if s > bs {
                        (c, s)
                    } else {
                        (bc, bs)
                    }
                });
        if best_score < 2.0 {
            FailureClass::Other
        } else {
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcfail_model::prelude::*;
    use dcfail_model::time::HOUR;
    use proptest::prelude::*;

    /// Words the front-end property draws texts from: keywords of every
    /// class, filler, one-character and non-ASCII words.
    const WORDS: [&str; 24] = [
        "disk",
        "raid",
        "replaced",
        "switch",
        "network",
        "ping",
        "outage",
        "breaker",
        "reboot",
        "restarted",
        "kernel",
        "patch",
        "server",
        "down",
        "fixed",
        "issue",
        "a",
        "é",
        "Éa",
        "İstanbul",
        "ΣΑΣ",
        "中文",
        "Straße",
        "x1",
    ];

    /// A ticket naming `description` and `resolution`.
    fn crash_ticket(i: usize, description: TextId, resolution: TextId) -> Ticket {
        Ticket::new(
            TicketId::new(i as u32),
            MachineId::new(0),
            TicketKind::Crash,
            None,
            SimTime::ZERO,
            SimTime::ZERO + HOUR,
            description,
            resolution,
            None,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The per-text front end gives the per-ticket oracle's vector bits
        /// and manual labels, on ticket sets with repeated and unique
        /// texts, dangling text ids, empty texts, tokens under `min_df`, an
        /// empty vocabulary and non-ASCII text.
        fn front_end_matches_the_per_ticket_oracle(
            seed in 0u64..1_000_000,
            n_texts in 0usize..=12,
            n_tickets in 1usize..=40,
            min_df in 1usize..=6,
        ) {
            let mut rng = StreamRng::new(seed);
            let mut texts = TextTable::default();
            for _ in 0..n_texts {
                let words: Vec<&str> = (0..rng.below(7)).map(|_| WORDS[rng.below(WORDS.len())]).collect();
                texts.push(words.join([" ", ", ", "-", "/"][rng.below(4)]));
            }
            // Ids past the table dangle, and read as empty text.
            let id = |rng: &mut StreamRng| TextId::new(rng.below(n_texts + 2) as u32);
            let tickets: Vec<Ticket> = (0..n_tickets)
                .map(|i| crash_ticket(i, id(&mut rng), id(&mut rng)))
                .collect();
            let refs: Vec<&Ticket> = tickets.iter().collect();
            let got = front_end(&refs, &texts, min_df);
            let want = oracle::front_end(&refs, &texts, min_df);
            let bits = |vs: &[Vec<f32>]| -> Vec<Vec<u32>> {
                vs.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
            };
            prop_assert_eq!(bits(&got.vectors), bits(&want.vectors));
            prop_assert_eq!(got.manual, want.manual);
            for t in &tickets {
                let (d, r) = text_of(&texts, t);
                prop_assert_eq!(manual_label(d, r), oracle::manual_label_by_strings(d, r));
            }
        }
    }

    #[test]
    fn manual_label_recognizes_each_class() {
        assert_eq!(
            manual_label(
                "server down disk drive fault raid degraded",
                "replaced faulty disk rebuilt raid array"
            ),
            FailureClass::Hardware
        );
        assert_eq!(
            manual_label(
                "server unreachable ping timeout switch port down",
                "switch port reset network fix applied"
            ),
            FailureClass::Network
        );
        assert_eq!(
            manual_label(
                "power outage rack lost utility feed servers down",
                "utility feed restored electrical fix breakers reset"
            ),
            FailureClass::Power
        );
        assert_eq!(
            manual_label(
                "unexpected reboot server restarted without request",
                "server back online after reboot monitoring confirmed"
            ),
            FailureClass::Reboot
        );
        assert_eq!(
            manual_label(
                "operating system hang kernel panic console frozen",
                "kernel patch applied software fix os restarted"
            ),
            FailureClass::Software
        );
    }

    #[test]
    fn vague_text_maps_to_other() {
        assert_eq!(
            manual_label("server issue reported by user", "issue resolved"),
            FailureClass::Other
        );
        assert_eq!(manual_label("", ""), FailureClass::Other);
    }

    #[test]
    fn resolution_outweighs_description() {
        // Description says reboot, resolution clearly hardware (2× weight
        // plus more hits) — resolution should win, as in the paper.
        let label = manual_label(
            "server rebooted",
            "replaced motherboard hardware vendor dispatched dimm",
        );
        assert_eq!(label, FailureClass::Hardware);
    }

    fn synth_tickets(n: usize, seed: u64) -> (TextTable, Vec<Ticket>) {
        // Use the simulator's text generator for realistic input.
        let mut rng = StreamRng::new(seed);
        let mut texts = dcfail_synth::tickets_gen::TicketTexts::new();
        let classes = FailureClass::CLASSIFIED;
        let tickets = (0..n)
            .map(|i| {
                let class = classes[i % classes.len()];
                let text = texts.crash_text(&mut rng, class, 0.5);
                Ticket::new(
                    TicketId::new(i as u32),
                    MachineId::new(0),
                    TicketKind::Crash,
                    Some(IncidentId::new(i as u32)),
                    SimTime::from_days((i % 300) as i64),
                    SimTime::from_days((i % 300) as i64) + HOUR,
                    text.description,
                    text.resolution,
                    Some(class),
                )
            })
            .collect();
        (texts.into_table(), tickets)
    }

    #[test]
    fn pipeline_matches_manual_labels_closely() {
        let (texts, tickets) = synth_tickets(1500, 1);
        let refs: Vec<&Ticket> = tickets.iter().collect();
        let mut rng = StreamRng::new(2);
        let c = classify(&refs, &texts, PipelineConfig::default(), &mut rng);
        // Paper: 87% accuracy against the manual check.
        let accuracy = c.accuracy_vs_manual().unwrap();
        assert!(accuracy > 0.80, "accuracy vs manual {accuracy}");
        assert_eq!(c.labels().len(), 1500);
        // Roughly half the tickets are degraded → labelled Other.
        let other = c.share(FailureClass::Other);
        assert!((other - 0.5).abs() < 0.12, "other share {other}");
    }

    #[test]
    fn pipeline_recovers_true_classes_on_clean_text() {
        let mut rng_text = StreamRng::new(3);
        let mut texts = dcfail_synth::tickets_gen::TicketTexts::new();
        let tickets: Vec<Ticket> = (0..1000)
            .map(|i| {
                let class = FailureClass::CLASSIFIED[i % 5];
                let text = texts.crash_text(&mut rng_text, class, 0.0);
                Ticket::new(
                    TicketId::new(i as u32),
                    MachineId::new(0),
                    TicketKind::Crash,
                    None,
                    SimTime::ZERO,
                    SimTime::ZERO + HOUR,
                    text.description,
                    text.resolution,
                    Some(class),
                )
            })
            .collect();
        let refs: Vec<&Ticket> = tickets.iter().collect();
        let mut rng = StreamRng::new(4);
        let c = classify(
            &refs,
            &texts.into_table(),
            PipelineConfig::default(),
            &mut rng,
        );
        let acc = c.accuracy_vs_truth().expect("ground truth available");
        assert!(acc > 0.85, "accuracy vs truth {acc}");
        // Every real class got at least one cluster.
        for class in FailureClass::CLASSIFIED {
            assert!(
                c.clusters_per_class().contains_key(&class),
                "no cluster labelled {class}"
            );
        }
    }

    #[test]
    fn pipeline_is_deterministic_given_seed() {
        let (texts, tickets) = synth_tickets(400, 5);
        let refs: Vec<&Ticket> = tickets.iter().collect();
        let config = PipelineConfig::default();
        let a = classify(&refs, &texts, config, &mut StreamRng::new(6));
        let b = classify(&refs, &texts, config, &mut StreamRng::new(6));
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.accuracy_vs_manual(), b.accuracy_vs_manual());
    }

    #[test]
    fn empty_input_classifies_nothing() {
        let mut rng = StreamRng::new(1);
        let untouched = rng.clone();
        let c = classify(
            &[],
            &TextTable::default(),
            PipelineConfig::default(),
            &mut rng,
        );
        assert!(c.labels().is_empty() && c.checked_labels().is_empty());
        assert_eq!(
            (c.accuracy_vs_manual(), c.accuracy_vs_truth()),
            (None, None)
        );
        assert!(c.clusters_per_class().is_empty());
        assert_eq!(c.share(FailureClass::Other), 0.0);
        assert_eq!(rng.uniform(), untouched.clone().uniform(), "no draw taken");
    }

    #[test]
    fn a_dataset_without_crash_tickets_is_left_as_it_is() {
        let mut texts = TextTable::default();
        let note = texts.push("backup job failed needs rerun");
        let mut parts = RawDatasetParts::default();
        parts
            .topology
            .add_subsystem(SubsystemMeta::new(SubsystemId::new(0), "Sys I"));
        parts.machines = vec![Machine::new_pm(
            MachineId::new(0),
            SubsystemId::new(0),
            PowerDomainId::new(0),
            ResourceCapacity::default(),
            None,
        )];
        let routine = Ticket::new(
            TicketId::new(0),
            MachineId::new(0),
            TicketKind::NonCrash,
            None,
            SimTime::ZERO,
            SimTime::ZERO + HOUR,
            note,
            note,
            None,
        );
        parts.texts = std::sync::Arc::new(texts);
        parts.tickets = vec![routine];
        let mut dataset = FailureDataset::try_from(parts).unwrap();
        let before = dataset.clone();
        let c = apply_to_dataset(
            &mut dataset,
            PipelineConfig::default(),
            &mut StreamRng::new(2),
        );
        assert!(c.labels().is_empty());
        assert_eq!(c.accuracy_vs_manual(), None);
        assert_eq!(dataset, before);
    }

    #[test]
    fn apply_to_dataset_relabels_events() {
        let mut dataset = dcfail_synth::Scenario::paper()
            .seed(8)
            .scale(0.02)
            .build()
            .into_dataset();
        let mut rng = StreamRng::new(9);
        let c = apply_to_dataset(&mut dataset, PipelineConfig::default(), &mut rng);
        assert!(c.accuracy_vs_manual().unwrap() > 0.75);
        // Every event now carries the checked label of its ticket.
        for ev in dataset.events() {
            assert_eq!(
                Some(ev.reported_class()),
                c.checked_labels().get(&ev.ticket()).copied()
            );
        }
    }
}
