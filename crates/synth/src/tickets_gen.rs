//! Ticket synthesis: free text, repair times and the non-crash haystack.
//!
//! Every affected machine of every incident yields one crash ticket. Ticket
//! text is templated per root cause with shared filler vocabulary, and 53%
//! of crash tickets get *degraded* text — the paper's unclassifiable "other"
//! share. Repair times are log-normal per class, calibrated to Table IV
//! (power fixes are fastest, hardware/network slowest, software the least
//! variable), with PM repairs slower than VM repairs overall.

use dcfail_model::prelude::*;
use dcfail_stats::dist::{ContinuousDist, LogNormal};
use dcfail_stats::rng::StreamRng;

/// Log-normal repair-time parameters (μ, σ) in hours per failure class,
/// matched to Table IV's mean/median pairs. Software keeps the paper's mean
/// but runs σ = 1.0 (median 18.2 h vs the paper's 22.4 h): with the exact
/// Table IV σ = 0.766 the class is so tight in log space that the PM/VM
/// *aggregate* repair mixture loses Fig. 4's log-normal-beats-Gamma property
/// for ~7% of random streams.
const REPAIR_PARAMS: [(f64, f64); 6] = [
    (2.114, 2.13),  // Hardware: mean 80.1 h, median 8.28 h
    (2.194, 2.01),  // Network: mean 67.6 h, median 8.97 h
    (-0.186, 2.32), // Power: mean 12.2 h, median 0.83 h
    (0.820, 2.04),  // Reboot: mean 18.0 h, median 2.27 h
    (2.901, 1.0),   // Software: mean 30.0 h, median 18.2 h (paper 22.4 h)
    (1.609, 1.79),  // Other (true class unknown in real data; unused here)
];

/// PM repairs are slower overall (mean 38.5 h vs 19.6 h in the paper):
/// physical access and part purchases add delay.
const PM_REPAIR_MULT: f64 = 1.20;
/// VM repairs are faster: no physical intervention.
const VM_REPAIR_MULT: f64 = 0.75;

/// Probability that a well-described crash ticket is still mislabelled by
/// the reporting pipeline (the paper's k-means is 87% accurate; some error
/// budget lands on confusions rather than "other").
const CONFUSION_PROB: f64 = 0.05;

/// Samples a repair duration for a crash of `class` on a machine of `kind`.
pub fn sample_repair(rng: &mut StreamRng, class: FailureClass, kind: MachineKind) -> SimDuration {
    let (mu, sigma) = REPAIR_PARAMS[class.index()];
    let kind_mult = match kind {
        MachineKind::Pm => PM_REPAIR_MULT,
        MachineKind::Vm => VM_REPAIR_MULT,
    };
    let dist = LogNormal::new(mu + kind_mult.ln(), sigma).expect("static params are valid");
    // Enforce the 3-minute floor by reflecting sub-floor draws in log space
    // rather than clamping: a clamp piles up to 14% of short-μ classes into
    // an atom at exactly 0.05 h, which distorts the repair-time distribution
    // away from the paper's log-normal shape. Reflection keeps exactly one
    // RNG draw per call and spreads that mass smoothly just above the floor.
    let mut hours = dist.sample(rng);
    if hours < 0.05 {
        hours = 0.05 * 0.05 / hours;
    }
    SimDuration::from_hours_f64(hours.min(2000.0))
}

/// Generated ticket text, as ids into the generator's [`TextTable`], plus the
/// label the reporting pipeline would emit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TicketText {
    /// Problem description (user- or monitoring-generated).
    pub description: TextId,
    /// Resolution entered by support staff.
    pub resolution: TextId,
    /// Label as reported by the (imperfect) classification pipeline.
    pub reported_class: FailureClass,
}

/// One description table and one resolution table of ticket templates.
struct Templates {
    descriptions: &'static [&'static str],
    resolutions: &'static [&'static str],
}

/// Template pairs: the non-crash haystack at [`NON_CRASH`], each failure
/// class at `1 + class.index()` (`Other` included) and the degraded
/// boilerplate at [`DEGRADED`].
const TEMPLATES: [Templates; 8] = [
    // Non-crash
    Templates {
        descriptions: &[
            "disk space threshold warning on filesystem var",
            "cpu utilization alert sustained above threshold",
            "user access request for application account",
            "password reset request for service account",
            "backup job failed needs rerun",
            "certificate expiring renewal needed",
            "monitoring agent heartbeat missed once",
            "scheduled patching window confirmation",
            "capacity request additional storage volume",
            "log rotation misconfigured filling disk",
        ],
        resolutions: &[
            "cleaned old files space reclaimed",
            "threshold adjusted after review workload expected",
            "access granted per approval",
            "password reset completed user notified",
            "backup rerun completed successfully",
            "certificate renewed and deployed",
            "agent restarted heartbeat restored",
            "patching confirmed scheduled",
            "storage volume extended",
            "logrotate configuration fixed",
        ],
    },
    // Hardware
    Templates {
        descriptions: &[
            "server down disk drive fault raid degraded",
            "host unresponsive memory dimm ecc errors",
            "server crashed power supply unit failure detected",
            "machine unreachable raid controller battery fault",
            "server offline motherboard component failure",
            "host down cpu hardware machine check exception",
        ],
        resolutions: &[
            "replaced faulty disk rebuilt raid array",
            "replaced memory dimm module server restored",
            "swapped power supply unit hardware fix",
            "replaced raid controller battery restored",
            "motherboard replaced by field engineer",
            "cpu replaced hardware vendor dispatched",
        ],
    },
    // Network
    Templates {
        descriptions: &[
            "server unreachable ping timeout switch port down",
            "host lost connectivity vlan misconfiguration",
            "network interface card errors server isolated",
            "server unreachable uplink failure on access switch",
            "dns resolution failure host unreachable remotely",
            "packet loss server connectivity degraded port flapping",
        ],
        resolutions: &[
            "switch port reset network fix applied",
            "vlan configuration corrected connectivity restored",
            "replaced network interface card cabling checked",
            "uplink failover network team fixed routing",
            "dns record corrected resolution restored",
            "port stabilized transceiver replaced network fix",
        ],
    },
    // Power
    Templates {
        descriptions: &[
            "power outage rack lost utility feed servers down",
            "pdu breaker tripped multiple servers powered off",
            "ups failure during transfer servers dropped",
            "scheduled electrical maintenance outage powered down",
            "datacenter feed fluctuation servers power cycled",
            "branch circuit overload power lost to rack",
        ],
        resolutions: &[
            "utility feed restored electrical fix breakers reset",
            "pdu breaker reset electrician verified load",
            "ups battery replaced transfer tested",
            "maintenance completed power restored on schedule",
            "power conditioned feed stabilized electrical fix",
            "load rebalanced circuit restored",
        ],
    },
    // Reboot
    Templates {
        descriptions: &[
            "unexpected reboot server restarted without request",
            "host spontaneously rebooted uptime reset detected",
            "server rebooted unexpectedly during business hours",
            "hypervisor restart caused guest reboot unexpected",
            "machine cycled unexpected restart watchdog fired",
            "unexplained reboot server came back by itself",
        ],
        resolutions: &[
            "server back online after reboot monitoring confirmed",
            "no action needed system recovered after restart",
            "reboot traced to host platform restart",
            "guest stabilized after hypervisor restart",
            "watchdog settings reviewed server stable",
            "uptime monitoring confirmed recovery after reboot",
        ],
    },
    // Software
    Templates {
        descriptions: &[
            "operating system hang kernel panic console frozen",
            "critical service agent hung server unresponsive",
            "application memory leak exhausted server resources",
            "os crash blue screen bugcheck recorded",
            "filesystem corruption os unable to boot services down",
            "runaway process cpu pegged server frozen software",
        ],
        resolutions: &[
            "kernel patch applied software fix os restarted",
            "service agent restarted configuration corrected",
            "application fix deployed memory leak patched",
            "os updated driver rollback software fix",
            "filesystem repaired os restored from software issue",
            "process limits configured software remediation applied",
        ],
    },
    // Other
    Templates {
        descriptions: &["server issue"],
        resolutions: &["resolved"],
    },
    // Degraded
    Templates {
        descriptions: &[
            "server issue reported by user",
            "system problem see attached",
            "host alert raised ticket opened",
            "server not working as expected",
            "issue with machine reported",
            "problem on server escalated",
            "server incident logged",
            "user reported outage on system",
        ],
        resolutions: &[
            "issue resolved",
            "problem fixed closed",
            "restored service user confirmed ok",
            "closed after verification",
            "no further information resolved",
            "fixed per standard procedure",
            "resolved duplicate of earlier ticket",
            "service restored details unavailable",
        ],
    },
];

/// [`TEMPLATES`] index of the non-crash haystack.
const NON_CRASH: usize = 0;
/// [`TEMPLATES`] index of the degraded crash boilerplate.
const DEGRADED: usize = 7;

/// Low-information filler appended so documents are not byte-identical.
const FILLER: [&str; 8] = [
    "ticket", "priority", "team", "checked", "updated", "notes", "contact", "queue",
];

/// Most templates in one table (the non-crash tables).
const MAX_TEMPLATES: usize = 10;
/// Filler draws per template: none, one of 8, or an ordered pair of 8.
const FILLER_CODES: usize = 1 + FILLER.len() + FILLER.len() * FILLER.len();

// Every template index must stay inside its table's slots.
const _: () = {
    let mut i = 0;
    while i < TEMPLATES.len() {
        assert!(TEMPLATES[i].descriptions.len() <= MAX_TEMPLATES);
        assert!(TEMPLATES[i].resolutions.len() <= MAX_TEMPLATES);
        i += 1;
    }
};

/// Ticket text generator that builds each distinct text once.
///
/// A decorated text is a pure function of its template table (16: a
/// description and a resolution table for the non-crash haystack, each
/// failure class and the degraded boilerplate), its template index and its
/// filler draw, so every one has a fixed slot in a flat table.
/// A slot is filled on its first draw with the next id of the dataset's
/// [`TextTable`] and hands that id out afterwards: each distinct text is
/// stored once however many tickets carry it, and ids follow first use.
/// The RNG calls are exactly those of building every text afresh, in the
/// same order, so the streams — and every later draw — do not depend on the
/// sharing.
#[derive(Debug)]
pub struct TicketTexts {
    slots: Vec<Option<TextId>>,
    table: TextTable,
}

impl Default for TicketTexts {
    fn default() -> Self {
        Self::new()
    }
}

impl TicketTexts {
    /// An empty slot table.
    pub fn new() -> Self {
        Self {
            slots: vec![None; 2 * TEMPLATES.len() * MAX_TEMPLATES * FILLER_CODES],
            table: TextTable::default(),
        }
    }

    /// The texts handed out so far, each id resolving to its text.
    pub fn into_table(self) -> TextTable {
        self.table
    }

    /// Synthesizes crash-ticket text for a failure of `class`.
    ///
    /// With probability `degraded_fraction` the text is vague boilerplate
    /// that no classifier can place, and the reported label is
    /// [`FailureClass::Other`]; otherwise class-specific templates are used
    /// and the reported label is correct up to a small confusion probability.
    pub fn crash_text(
        &mut self,
        rng: &mut StreamRng,
        class: FailureClass,
        degraded_fraction: f64,
    ) -> TicketText {
        if rng.bernoulli(degraded_fraction) {
            let picks = pick(rng, DEGRADED);
            // Forked from the text stream's seed, not its position: every
            // degraded ticket of a run draws the same filler (DESIGN §4.3).
            let mut filler_rng = rng.fork("degraded-decorate");
            let (description, resolution) = self.decorate(&mut filler_rng, DEGRADED, picks);
            return TicketText {
                description,
                resolution,
                reported_class: FailureClass::Other,
            };
        }
        let pair = 1 + class.index();
        let picks = pick(rng, pair);
        let (description, resolution) = self.decorate(rng, pair, picks);
        let reported_class = if rng.bernoulli(CONFUSION_PROB) {
            // Confuse with a random *other* classified class.
            let others: Vec<FailureClass> = FailureClass::CLASSIFIED
                .into_iter()
                .filter(|&c| c != class)
                .collect();
            others[rng.below(others.len())]
        } else {
            class
        };
        TicketText {
            description,
            resolution,
            reported_class,
        }
    }

    /// Synthesizes a non-crash ticket's text (requests, alerts, routine work).
    pub fn non_crash_text(&mut self, rng: &mut StreamRng) -> (TextId, TextId) {
        let picks = pick(rng, NON_CRASH);
        self.decorate(rng, NON_CRASH, picks)
    }

    /// The decorated description `d` and resolution `r` of template pair
    /// `pair`, in that order.
    fn decorate(
        &mut self,
        rng: &mut StreamRng,
        pair: usize,
        (d, r): (usize, usize),
    ) -> (TextId, TextId) {
        let templates = &TEMPLATES[pair];
        let description = self.decorated(rng, 2 * pair, d, templates.descriptions[d]);
        let resolution = self.decorated(rng, 2 * pair + 1, r, templates.resolutions[r]);
        (description, resolution)
    }

    /// `base` (template `template` of table `table`) plus zero to two filler
    /// words: one `below(3)` for the count, one `below(8)` per word.
    fn decorated(
        &mut self,
        rng: &mut StreamRng,
        table: usize,
        template: usize,
        base: &str,
    ) -> TextId {
        let mut fillers = [0usize; 2];
        let count = rng.below(3);
        for filler in &mut fillers[..count] {
            *filler = rng.below(FILLER.len());
        }
        let code = match count {
            0 => 0,
            1 => 1 + fillers[0],
            _ => 1 + FILLER.len() * (1 + fillers[0]) + fillers[1],
        };
        let slot = &mut self.slots[(table * MAX_TEMPLATES + template) * FILLER_CODES + code];
        *slot.get_or_insert_with(|| {
            let mut text = String::from(base);
            for &filler in &fillers[..count] {
                text.push(' ');
                text.push_str(FILLER[filler]);
            }
            self.table.push(text)
        })
    }
}

/// Draws a description and a resolution template index from pair `pair`.
fn pick(rng: &mut StreamRng, pair: usize) -> (usize, usize) {
    let templates = &TEMPLATES[pair];
    let description = rng.below(templates.descriptions.len());
    (description, rng.below(templates.resolutions.len()))
}

/// The allocate-per-call text generator the slot table replaced: every call
/// builds fresh `String`s. The interning tests hold [`TicketTexts`] to it.
#[cfg(test)]
mod oracle {
    use super::{CONFUSION_PROB, DEGRADED, FILLER, NON_CRASH, TEMPLATES};
    use dcfail_model::prelude::FailureClass;
    use dcfail_stats::rng::StreamRng;

    /// Crash text as (description, resolution, reported class).
    pub fn crash_text(
        rng: &mut StreamRng,
        class: FailureClass,
        degraded_fraction: f64,
    ) -> (String, String, FailureClass) {
        if rng.bernoulli(degraded_fraction) {
            let t = &TEMPLATES[DEGRADED];
            let d = t.descriptions[rng.below(t.descriptions.len())];
            let r = t.resolutions[rng.below(t.resolutions.len())];
            let mut rng2 = rng.fork("degraded-decorate");
            return (
                decorate(&mut rng2, d),
                decorate(&mut rng2, r),
                FailureClass::Other,
            );
        }
        let t = &TEMPLATES[1 + class.index()];
        let d = t.descriptions[rng.below(t.descriptions.len())];
        let r = t.resolutions[rng.below(t.resolutions.len())];
        let (d, r) = (decorate(rng, d), decorate(rng, r));
        let reported = if rng.bernoulli(CONFUSION_PROB) {
            let others: Vec<FailureClass> = FailureClass::CLASSIFIED
                .into_iter()
                .filter(|&c| c != class)
                .collect();
            others[rng.below(others.len())]
        } else {
            class
        };
        (d, r, reported)
    }

    pub fn non_crash_text(rng: &mut StreamRng) -> (String, String) {
        let t = &TEMPLATES[NON_CRASH];
        let d = t.descriptions[rng.below(t.descriptions.len())];
        let r = t.resolutions[rng.below(t.resolutions.len())];
        (decorate(rng, d), decorate(rng, r))
    }

    fn decorate(rng: &mut StreamRng, base: &str) -> String {
        let mut s = String::from(base);
        for _ in 0..rng.below(3) {
            s.push(' ');
            s.push_str(FILLER[rng.below(FILLER.len())]);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcfail_stats::empirical::Summary;
    use proptest::prelude::*;
    use rand::RngCore;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Interned text equals the per-call oracle's text and label, call
        /// for call, and leaves the stream where the oracle leaves it; each
        /// distinct text is one id, handed out in first-use order.
        fn interning_matches_oracle(
            seed in any::<u64>(),
            fraction in 0usize..3,
            // 0..6: crash text of that class index; 6: non-crash text.
            calls in prop::collection::vec(0usize..7, 1..160),
        ) {
            let degraded_fraction = [0.0, 0.53, 1.0][fraction];
            let mut texts = TicketTexts::new();
            let mut rng = StreamRng::new(seed);
            let mut reference = StreamRng::new(seed);
            let mut seen: Vec<String> = Vec::new();
            for &call in &calls {
                let (got, want) = if call < 6 {
                    let class = FailureClass::ALL[call];
                    let got = texts.crash_text(&mut rng, class, degraded_fraction);
                    let want = oracle::crash_text(&mut reference, class, degraded_fraction);
                    prop_assert_eq!(got.reported_class, want.2);
                    ((got.description, got.resolution), (want.0, want.1))
                } else {
                    let got = texts.non_crash_text(&mut rng);
                    (got, oracle::non_crash_text(&mut reference))
                };
                prop_assert_eq!(rng.clone().next_u64(), reference.clone().next_u64());
                for (id, text) in [(got.0, want.0), (got.1, want.1)] {
                    prop_assert_eq!(texts.table.get(id), Some(text.as_str()));
                    // A new text takes the next id; a seen one, its first.
                    let first = seen.iter().position(|s| *s == text).unwrap_or(seen.len());
                    prop_assert_eq!(id.index(), first, "{}", text);
                    if first == seen.len() {
                        seen.push(text);
                    }
                }
            }
            prop_assert_eq!(texts.into_table().len(), seen.len());
        }
    }

    #[test]
    fn same_draw_shares_one_allocation() {
        let mut texts = TicketTexts::new();
        let mut a = StreamRng::new(11);
        let mut b = a.clone();
        let first = texts.non_crash_text(&mut a);
        let second = texts.non_crash_text(&mut b);
        assert_eq!(first, second);
        assert_eq!(texts.into_table().len(), 2);
    }

    #[test]
    fn repair_times_match_table4_shape() {
        let mut rng = StreamRng::new(1);
        let mut sample = |class: FailureClass| {
            let xs: Vec<f64> = (0..20_000)
                .map(|_| sample_repair(&mut rng, class, MachineKind::Pm).as_hours())
                .collect();
            Summary::of(&xs).unwrap()
        };
        let hw = sample(FailureClass::Hardware);
        let net = sample(FailureClass::Network);
        let power = sample(FailureClass::Power);
        let reboot = sample(FailureClass::Reboot);
        let sw = sample(FailureClass::Software);

        // Ordering of means: HW > Net > SW > Reboot > Power.
        assert!(hw.mean > net.mean);
        assert!(net.mean > sw.mean);
        assert!(sw.mean > reboot.mean);
        assert!(reboot.mean > power.mean);
        // Power has the shortest median (paper: 0.83 h).
        assert!(power.median < reboot.median);
        assert!(power.median < 2.0);
        // Software mean ≈ median (low variability).
        assert!(sw.mean / sw.median < 2.0);
        // Hardware is wildly variable (mean ≫ median).
        assert!(hw.mean / hw.median > 4.0);
    }

    #[test]
    fn pm_repairs_slower_than_vm() {
        let mut rng = StreamRng::new(2);
        let mut mean = |kind: MachineKind| {
            let xs: Vec<f64> = (0..20_000)
                .map(|_| sample_repair(&mut rng, FailureClass::Reboot, kind).as_hours())
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(mean(MachineKind::Pm) > 1.3 * mean(MachineKind::Vm));
    }

    #[test]
    fn repairs_are_positive_and_bounded() {
        let mut rng = StreamRng::new(3);
        for class in FailureClass::ALL {
            for _ in 0..1000 {
                let r = sample_repair(&mut rng, class, MachineKind::Vm);
                assert!(!r.is_negative());
                assert!(r.as_hours() <= 2000.0);
                assert!(r.as_hours() >= 0.05);
            }
        }
    }

    #[test]
    fn degraded_fraction_drives_other_labels() {
        let mut rng = StreamRng::new(4);
        let n = 10_000;
        let mut texts = TicketTexts::new();
        let other = (0..n)
            .filter(|_| {
                texts
                    .crash_text(&mut rng, FailureClass::Software, 0.53)
                    .reported_class
                    == FailureClass::Other
            })
            .count();
        let frac = other as f64 / n as f64;
        assert!((frac - 0.53).abs() < 0.03, "other fraction {frac}");
    }

    #[test]
    fn clean_text_is_mostly_correctly_labelled() {
        let mut rng = StreamRng::new(5);
        let n = 10_000;
        let mut texts = TicketTexts::new();
        let correct = (0..n)
            .filter(|_| {
                texts
                    .crash_text(&mut rng, FailureClass::Network, 0.0)
                    .reported_class
                    == FailureClass::Network
            })
            .count();
        let acc = correct as f64 / n as f64;
        assert!((acc - 0.95).abs() < 0.02, "accuracy {acc}");
    }

    #[test]
    fn class_texts_use_distinct_vocabulary() {
        let mut rng = StreamRng::new(6);
        let mut texts = TicketTexts::new();
        let hw = texts.crash_text(&mut rng, FailureClass::Hardware, 0.0);
        let sw = texts.crash_text(&mut rng, FailureClass::Software, 0.0);
        let table = texts.into_table();
        let text = |id| table.get(id).unwrap();
        assert_ne!(text(hw.description), text(sw.description));
        assert!(!text(hw.description).is_empty() && !text(hw.resolution).is_empty());
    }

    #[test]
    fn non_crash_text_is_nonempty() {
        let mut rng = StreamRng::new(7);
        let mut texts = TicketTexts::new();
        let ids: Vec<(TextId, TextId)> = (0..100).map(|_| texts.non_crash_text(&mut rng)).collect();
        let table = texts.into_table();
        for (d, r) in ids {
            assert!(!table.get(d).unwrap().is_empty());
            assert!(!table.get(r).unwrap().is_empty());
        }
    }
}
