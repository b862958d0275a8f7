//! # dcfail-findings
//!
//! The shared finding/severity/report machinery behind the workspace's two
//! static lint passes: `dcfail-audit` (rules over failure *datasets*) and
//! `dcfail-dlint` (rules over the workspace's own *source*). Both passes
//! share one report shape — a catalog of typed rules, each finding carrying
//! a rule id, a severity, offending subjects and a message, the whole run
//! renderable as text or JSON — so the machinery lives here once and each
//! pass contributes only its catalog.
//!
//! A catalog is an enum implementing [`Rule`], most conveniently generated
//! by the [`rule_catalog!`] macro; [`Diagnostic`] and [`Report`] are generic
//! over it.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::fmt;
use std::fmt::Write as _;

// Re-exported for `rule_catalog!` expansions, which must name the serde
// traits by absolute path from the invoking crate.
#[doc(hidden)]
pub use serde;

use serde::{Deserialize, Serialize};

/// How bad a finding is.
///
/// Ordered: `Info < Warn < Error`, so the most severe finding is a `max()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Advisory observation; the subject is usable as-is.
    Info,
    /// Suspicious but tolerable; results may be skewed.
    Warn,
    /// Contract violation; the subject is not trustworthy.
    Error,
}

impl Severity {
    /// Lowercase display label ("error", "warn", "info").
    pub const fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One rule of a lint catalog: a stable code, a fixed severity and a
/// one-line description of the invariant it checks.
///
/// The associated [`Rule::DOMAIN`] labels the pass in rendered summaries
/// (`"audit"`, `"dlint"`) and serde error messages.
pub trait Rule: Copy + Ord + fmt::Debug + 'static {
    /// Short name of the pass this catalog belongs to.
    const DOMAIN: &'static str;

    /// Every rule in the catalog, in declaration order.
    fn all() -> &'static [Self];

    /// Stable code of this rule (kebab-case for audit, `D01`-style for
    /// dlint) — the serialized form.
    fn code(self) -> &'static str;

    /// Severity a finding of this rule carries.
    fn severity(self) -> Severity;

    /// One-line description of the invariant the rule checks.
    fn description(self) -> &'static str;

    /// Looks a rule up by its stable code.
    fn from_code(code: &str) -> Option<Self> {
        Self::all().iter().copied().find(|r| r.code() == code)
    }
}

/// Generates a rule-catalog enum implementing [`Rule`], with inherent
/// `ALL`/`code`/`severity`/`description`/`from_code` mirrors (so callers
/// need not import the trait), `Display` as the code, and serde as the code
/// string.
///
/// ```
/// dcfail_findings::rule_catalog! {
///     /// Demo catalog.
///     DemoRule, domain = "demo" {
///         /// Something is off.
///         SomethingOff = ("something-off", Warn, "something should not be off");
///     }
/// }
/// assert_eq!(DemoRule::SomethingOff.code(), "something-off");
/// ```
#[macro_export]
macro_rules! rule_catalog {
    (
        $(#[$enum_meta:meta])*
        $name:ident, domain = $domain:literal {
            $( $(#[$meta:meta])* $variant:ident = ($code:literal, $sev:ident, $desc:literal); )+
        }
    ) => {
        $(#[$enum_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $name {
            $( $(#[$meta])* $variant, )+
        }

        impl $name {
            /// Every rule in the catalog, in declaration order.
            pub const ALL: &'static [$name] = &[ $($name::$variant),+ ];

            /// Stable code of this rule.
            pub const fn code(self) -> &'static str {
                match self { $($name::$variant => $code),+ }
            }

            /// Severity a finding of this rule carries.
            pub const fn severity(self) -> $crate::Severity {
                match self { $($name::$variant => $crate::Severity::$sev),+ }
            }

            /// One-line description of the invariant the rule checks.
            pub const fn description(self) -> &'static str {
                match self { $($name::$variant => $desc),+ }
            }

            /// Looks a rule up by its stable code.
            pub fn from_code(code: &str) -> Option<$name> {
                $name::ALL.iter().copied().find(|r| r.code() == code)
            }
        }

        impl $crate::Rule for $name {
            const DOMAIN: &'static str = $domain;

            fn all() -> &'static [Self] {
                $name::ALL
            }

            fn code(self) -> &'static str {
                $name::code(self)
            }

            fn severity(self) -> $crate::Severity {
                $name::severity(self)
            }

            fn description(self) -> &'static str {
                $name::description(self)
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.code())
            }
        }

        impl $crate::serde::Serialize for $name {
            fn to_value(&self) -> $crate::serde::Value {
                $crate::serde::Value::Str(self.code().to_string())
            }
        }

        impl $crate::serde::Deserialize for $name {
            fn from_value(
                value: &$crate::serde::Value,
            ) -> ::std::result::Result<Self, $crate::serde::Error> {
                match value {
                    $crate::serde::Value::Str(code) => {
                        $name::from_code(code).ok_or_else(|| {
                            $crate::serde::Error::custom(::std::format!(
                                "unknown {} rule '{code}'",
                                $domain
                            ))
                        })
                    }
                    _ => Err($crate::serde::Error::custom(::std::concat!(
                        "expected ", $domain, " rule code string"
                    ))),
                }
            }
        }
    };
}

/// Maximum offending subjects retained per diagnostic; the message carries
/// the total so truncation loses no information, only bulk.
pub const MAX_SUBJECTS: usize = 12;

/// One finding: a violated rule plus the subjects that violate it.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic<R> {
    /// The violated rule.
    pub rule: R,
    /// Severity (redundant with `rule.severity()`, kept explicit so JSON
    /// consumers need no rule table).
    pub severity: Severity,
    /// Offending subjects (entity ids, `file:line` locations), capped at
    /// [`MAX_SUBJECTS`].
    pub subjects: Vec<String>,
    /// Human-readable description including the total offender count.
    pub message: String,
}

impl<R: Rule> Diagnostic<R> {
    /// Creates a diagnostic for `rule`, capping `subjects` and deriving the
    /// severity from the rule.
    pub fn new(rule: R, mut subjects: Vec<String>, message: impl Into<String>) -> Self {
        subjects.truncate(MAX_SUBJECTS);
        Self {
            rule,
            severity: rule.severity(),
            subjects,
            message: message.into(),
        }
    }
}

impl<R: Rule + fmt::Display> fmt::Display for Diagnostic<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.rule, self.message)?;
        if !self.subjects.is_empty() {
            write!(f, " ({})", self.subjects.join(", "))?;
        }
        Ok(())
    }
}

impl<R: Rule> Serialize for Diagnostic<R> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "rule".to_string(),
                serde::Value::Str(self.rule.code().to_string()),
            ),
            ("severity".to_string(), self.severity.to_value()),
            ("subjects".to_string(), self.subjects.to_value()),
            (
                "message".to_string(),
                serde::Value::Str(self.message.clone()),
            ),
        ])
    }
}

impl<R: Rule> Deserialize for Diagnostic<R> {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde::Error::custom(format!("diagnostic missing field '{name}'")))
        };
        let rule = match field("rule")? {
            serde::Value::Str(code) => R::from_code(code).ok_or_else(|| {
                serde::Error::custom(format!("unknown {} rule '{code}'", R::DOMAIN))
            })?,
            other => {
                return Err(serde::Error::custom(format!(
                    "expected rule code string, got {}",
                    other.kind()
                )))
            }
        };
        Ok(Self {
            rule,
            severity: Severity::from_value(field("severity")?)?,
            subjects: Vec::<String>::from_value(field("subjects")?)?,
            message: String::from_value(field("message")?)?,
        })
    }
}

/// The result of one lint pass: every finding, renderable as text or JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Report<R> {
    /// All findings, in catalog order.
    pub diagnostics: Vec<Diagnostic<R>>,
}

impl<R> Default for Report<R> {
    fn default() -> Self {
        Self {
            diagnostics: Vec::new(),
        }
    }
}

impl<R: Rule> Report<R> {
    /// Wraps a list of findings into a report.
    pub fn from_diagnostics(diagnostics: Vec<Diagnostic<R>>) -> Self {
        Self { diagnostics }
    }

    /// True when no Error-level finding exists (Warn/Info are tolerated).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// True when there are no findings at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of Error-level findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of Warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Number of Info-level findings.
    pub fn info_count(&self) -> usize {
        self.count(Severity::Info)
    }

    /// The first finding for `rule`, if present.
    pub fn find(&self, rule: R) -> Option<&Diagnostic<R>> {
        self.diagnostics.iter().find(|d| d.rule == rule)
    }

    /// Renders the report as human-readable text, one line per finding plus
    /// a summary line labeled with the pass's [`Rule::DOMAIN`].
    pub fn render_text(&self) -> String
    where
        R: fmt::Display,
    {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{}: {} error(s), {} warning(s), {} info, {} rule(s) evaluated",
            R::DOMAIN,
            self.error_count(),
            self.warn_count(),
            self.info_count(),
            R::all().len(),
        );
        out
    }
}

impl<R: Rule + fmt::Display> fmt::Display for Report<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

impl<R: Rule> Serialize for Report<R> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![(
            "diagnostics".to_string(),
            self.diagnostics.to_value(),
        )])
    }
}

impl<R: Rule> Deserialize for Report<R> {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let diagnostics = value
            .get("diagnostics")
            .ok_or_else(|| serde::Error::custom("report missing field 'diagnostics'"))?;
        Ok(Self {
            diagnostics: Vec::<Diagnostic<R>>::from_value(diagnostics)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    rule_catalog! {
        /// A tiny catalog exercising every severity.
        TestRule, domain = "testpass" {
            /// An error-level rule.
            Broken = ("broken", Error, "must not be broken");
            /// A warn-level rule.
            Odd = ("odd", Warn, "should not be odd");
            /// An info-level rule.
            Note = ("note", Info, "worth noting");
        }
    }

    #[test]
    fn severity_is_ordered() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::Error.label(), "error");
    }

    #[test]
    fn catalog_codes_round_trip() {
        assert_eq!(TestRule::ALL.len(), 3);
        for &rule in TestRule::ALL {
            assert_eq!(TestRule::from_code(rule.code()), Some(rule));
            assert!(!rule.description().is_empty());
        }
        assert_eq!(TestRule::from_code("nope"), None);
        assert_eq!(TestRule::Broken.severity(), Severity::Error);
        assert_eq!(TestRule::Broken.to_string(), "broken");
    }

    #[test]
    fn diagnostic_caps_subjects_and_derives_severity() {
        let subjects: Vec<String> = (0..40).map(|i| format!("s{i}")).collect();
        let d = Diagnostic::new(TestRule::Broken, subjects, "40 offender(s)");
        assert_eq!(d.subjects.len(), MAX_SUBJECTS);
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn report_counts_worst_and_renders_domain() {
        let report = Report::from_diagnostics(vec![
            Diagnostic::new(TestRule::Note, vec![], "a note"),
            Diagnostic::new(TestRule::Odd, vec!["x".into()], "1 oddity"),
        ]);
        assert!(report.is_clean());
        assert!(!report.is_empty());
        assert_eq!(report.warn_count(), 1);
        assert_eq!(report.info_count(), 1);
        assert_eq!(
            report.diagnostics.iter().map(|d| d.severity).max(),
            Some(Severity::Warn)
        );
        assert!(report.find(TestRule::Note).is_some());
        assert!(report.find(TestRule::Odd).is_some());
        let text = report.render_text();
        assert!(text.contains("warn[odd]"));
        assert!(text.contains("testpass: 0 error(s), 1 warning(s), 1 info, 3 rule(s) evaluated"));
    }

    #[test]
    fn report_json_round_trips() {
        let report = Report::from_diagnostics(vec![Diagnostic::new(
            TestRule::Broken,
            vec!["a".into(), "b".into()],
            "2 offender(s)",
        )]);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"broken\""));
        let back: Report<TestRule> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn unknown_rule_code_is_rejected_with_domain() {
        let err = serde_json::from_str::<Report<TestRule>>(
            "{\"diagnostics\":[{\"rule\":\"zzz\",\"severity\":\"Info\",\"subjects\":[],\"message\":\"\"}]}",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown testpass rule"), "{err}");
    }

    #[test]
    fn diagnostic_display_lists_subjects_only_when_present() {
        let bare = Diagnostic::new(TestRule::Note, vec![], "a note");
        assert_eq!(bare.to_string(), "info[note]: a note");
        let two = Diagnostic::new(TestRule::Odd, vec!["a".into(), "b".into()], "2 odd");
        assert_eq!(two.to_string(), "warn[odd]: 2 odd (a, b)");
    }

    #[test]
    fn one_error_makes_a_report_unclean() {
        let empty = Report::<TestRule>::default();
        assert!(empty.is_clean() && empty.is_empty());
        assert_eq!(
            empty.render_text(),
            "testpass: 0 error(s), 0 warning(s), 0 info, 3 rule(s) evaluated\n"
        );
        let report = Report::from_diagnostics(vec![
            Diagnostic::new(TestRule::Odd, vec![], "odd"),
            Diagnostic::new(TestRule::Broken, vec![], "broken"),
        ]);
        assert!(!report.is_clean());
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.to_string(), report.render_text());
        assert!(report
            .render_text()
            .starts_with("warn[odd]: odd\nerror[broken]: broken\n"));
    }

    #[test]
    fn find_returns_the_first_finding_of_a_rule() {
        let report = Report::from_diagnostics(vec![
            Diagnostic::new(TestRule::Odd, vec![], "first"),
            Diagnostic::new(TestRule::Odd, vec![], "second"),
        ]);
        assert_eq!(report.find(TestRule::Odd).unwrap().message, "first");
        assert!(report.find(TestRule::Broken).is_none());
    }

    #[test]
    fn a_rule_code_must_be_a_string() {
        let catalog = TestRule::from_value(&serde::Value::Bool(true)).unwrap_err();
        assert!(catalog
            .to_string()
            .contains("expected testpass rule code string"));
        let diagnostic = serde_json::from_str::<Diagnostic<TestRule>>(
            "{\"rule\":7,\"severity\":\"Info\",\"subjects\":[],\"message\":\"\"}",
        )
        .unwrap_err();
        assert!(
            diagnostic.to_string().contains("expected rule code string"),
            "{diagnostic}"
        );
    }

    #[test]
    fn missing_fields_are_named() {
        let err = serde_json::from_str::<Diagnostic<TestRule>>(
            "{\"rule\":\"odd\",\"severity\":\"Warn\",\"subjects\":[]}",
        )
        .unwrap_err();
        assert!(
            err.to_string()
                .contains("diagnostic missing field 'message'"),
            "{err}"
        );
        let err = serde_json::from_str::<Report<TestRule>>("{}").unwrap_err();
        assert!(
            err.to_string()
                .contains("report missing field 'diagnostics'"),
            "{err}"
        );
    }
}
