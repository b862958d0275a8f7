//! Text-level corruption of CSV traces.
//!
//! The dataset-level injector in [`crate::inject`] produces defects the audit
//! catalog can name; this module produces the rawer kind — rows cut off
//! mid-write, fields lost or overwritten by export bugs — that a lenient CSV
//! parser has to skip before the dataset even exists.

use crate::plan::InjectionPlan;
use dcfail_stats::rng::StreamRng;

/// Garbles data rows of a CSV trace according to `plan.rates.garble_csv_row`.
///
/// The header line and blank lines are never touched. Each data row is hit
/// independently with the configured probability; a hit row is truncated at a
/// random point, loses a random field, gets one field overwritten with junk,
/// or gains a stray trailing field. Returns the corrupted text and the number
/// of garbled rows. Deterministic in `plan.seed`.
// dlint::allow(D17): CSV fuzzer for the chaos robustness suite, an integration test
pub fn garble_csv(csv: &str, plan: &InjectionPlan) -> (String, usize) {
    let rate = plan.rates.garble_csv_row;
    let mut rng = StreamRng::new(plan.seed).fork("chaos").fork("garble-csv");
    let mut garbled = 0usize;
    let mut out = String::with_capacity(csv.len());
    for (i, line) in csv.lines().enumerate() {
        let mangled = if i == 0 || line.trim().is_empty() || rate <= 0.0 || !rng.bernoulli(rate) {
            line.to_string()
        } else {
            garbled += 1;
            mangle_line(line, &mut rng)
        };
        out.push_str(&mangled);
        out.push('\n');
    }
    if !csv.ends_with('\n') && out.ends_with('\n') {
        out.pop();
    }
    (out, garbled)
}

/// Applies one of the four row-level mutilations.
fn mangle_line(line: &str, rng: &mut StreamRng) -> String {
    let chars: Vec<char> = line.chars().collect();
    match rng.below(4) {
        // Truncated mid-write: keep a strict prefix.
        0 => chars[..rng.below(chars.len().max(1))].iter().collect(),
        // A field is lost.
        1 => {
            let mut fields: Vec<&str> = line.split(',').collect();
            if fields.len() > 1 {
                let victim = rng.below(fields.len());
                fields.remove(victim);
            }
            fields.join(",")
        }
        // A field is overwritten with junk.
        2 => {
            let mut fields: Vec<String> = line.split(',').map(str::to_string).collect();
            let victim = rng.below(fields.len());
            fields[victim] = "??".to_string();
            fields.join(",")
        }
        // A stray trailing field appears.
        _ => format!("{line},###"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Corruption, InjectionPlan};

    const TRACE: &str = "machine,incident,at_minutes,class,repair_minutes\n\
                         0,0,1440,HW,60\n\
                         1,1,2880,SW,120\n\
                         0,2,4320,Net,30\n";

    #[test]
    fn zero_rate_is_identity() {
        let (out, n) = garble_csv(TRACE, &InjectionPlan::new(1));
        assert_eq!(out, TRACE);
        assert_eq!(n, 0);
    }

    #[test]
    fn header_survives_full_rate() {
        let plan = InjectionPlan::new(3).with(Corruption::GarbleCsvRow, 1.0);
        let (out, n) = garble_csv(TRACE, &plan);
        assert_eq!(n, 3);
        assert!(out.starts_with("machine,incident,at_minutes,class,repair_minutes\n"));
        assert_ne!(out, TRACE);
    }

    #[test]
    fn garbling_is_deterministic() {
        let plan = InjectionPlan::new(9).with(Corruption::GarbleCsvRow, 0.7);
        let a = garble_csv(TRACE, &plan);
        let b = garble_csv(TRACE, &plan);
        assert_eq!(a, b);
        let c = garble_csv(
            TRACE,
            &InjectionPlan::new(10).with(Corruption::GarbleCsvRow, 0.7),
        );
        // A different seed garbles different rows (or the same rows
        // differently); counts may coincide but the text should not.
        assert!(c.0 != a.0 || c.1 != a.1);
    }

    #[test]
    fn missing_trailing_newline_preserved() {
        let no_newline = TRACE.trim_end();
        let (out, _) = garble_csv(no_newline, &InjectionPlan::new(1));
        assert!(!out.ends_with('\n'));
        assert_eq!(out, no_newline);
    }
}
