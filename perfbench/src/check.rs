//! Output checks and failure accounting.
//!
//! For the default seed every estimate is checked against the bits committed
//! in `reference/seed1.txt` (and the view report against
//! `reference/views-panel.seed1.txt`).  For any other seed the first result
//! of each kind becomes the run's expectation, so passes must agree with
//! each other, and the bits are printed for comparison across commits.

use std::collections::BTreeMap;

/// The seed whose outputs are committed.
pub const DEFAULT_SEED: u64 = 1;

const COMMITTED_BITS: &str = include_str!("../reference/seed1.txt");
const COMMITTED_VIEWS_REPORT: &str = include_str!("../reference/views-panel.seed1.txt");

/// Committed expectations of one workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reference {
    /// Estimate bits per result kind (`abacus`, `par2`, `par1`, `resume`,
    /// `durable`).
    pub bits: BTreeMap<String, u64>,
    /// View report lines, for circuit workloads.
    pub report: Option<Vec<String>>,
}

impl Reference {
    /// The committed reference of `workload` for `seed`, if one exists.
    pub fn committed(workload: &str, views: bool, seed: u64) -> Option<Reference> {
        if seed != DEFAULT_SEED {
            return None;
        }
        let bits = parse_bits(COMMITTED_BITS, workload);
        let report = views.then(|| COMMITTED_VIEWS_REPORT.lines().map(str::to_string).collect());
        Some(Reference { bits, report })
    }
}

/// Parses `workload kind 0xbits` lines (`#` starts a comment).
pub fn parse_bits(text: &str, workload: &str) -> BTreeMap<String, u64> {
    let mut bits = BTreeMap::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let mut fields = line.split_whitespace();
        let (Some(name), Some(kind), Some(value)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if name != workload {
            continue;
        }
        if let Ok(value) = u64::from_str_radix(value.trim_start_matches("0x"), 16) {
            bits.insert(kind.to_string(), value);
        }
    }
    bits
}

/// Checks results against the committed reference, or against the first
/// result of the same kind when there is none.
#[derive(Debug, Default)]
pub struct Expect {
    reference: Option<Reference>,
    seen: BTreeMap<String, u64>,
    report: Option<Vec<String>>,
}

impl Expect {
    /// Checks against `reference` when given.
    pub fn new(reference: Option<Reference>) -> Self {
        Expect {
            reference,
            ..Expect::default()
        }
    }

    /// Checks the estimate bits of a result of `kind`.
    pub fn bits(&mut self, kind: &str, bits: u64) -> Result<(), String> {
        let expected = match &self.reference {
            Some(reference) => Some(
                *reference
                    .bits
                    .get(kind)
                    .ok_or_else(|| format!("no committed `{kind}` estimate"))?,
            ),
            None => self.seen.get(kind).copied(),
        };
        self.seen.entry(kind.to_string()).or_insert(bits);
        match expected {
            Some(expected) if expected != bits => Err(format!(
                "{kind} estimate bits {bits:#018x}, expected {expected:#018x}"
            )),
            _ => Ok(()),
        }
    }

    /// Checks view report lines.
    pub fn report(&mut self, lines: &[String]) -> Result<(), String> {
        let expected = match &self.reference {
            Some(reference) => reference.report.clone(),
            None => self.report.clone(),
        };
        if self.report.is_none() {
            self.report = Some(lines.to_vec());
        }
        match expected {
            Some(expected) if expected != lines => {
                Err("view report differs from the expected lines".to_string())
            }
            _ => Ok(()),
        }
    }

    /// Every estimate seen, by kind.
    pub fn seen(&self) -> &BTreeMap<String, u64> {
        &self.seen
    }

    /// The view report seen first, if any.
    pub fn seen_report(&self) -> Option<&[String]> {
        self.report.as_deref()
    }
}

/// Checks that two results that must be bit-identical are.
pub fn same(what: &str, a: u64, b: u64) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:#018x} != {b:#018x}"))
    }
}

/// Relative tolerance between ABACUS and PARABACUS estimates: the
/// repository's own parity contract (`tests/parity.rs`).  PARABACUS sums
/// per-thread partial counts, so its estimate may differ from sequential
/// ABACUS in the last bits; each engine's own bits are checked exactly
/// against the committed reference.
pub const PARITY_TOLERANCE: f64 = 1e-9;

/// Checks that two estimates agree within [`PARITY_TOLERANCE`].
pub fn close(what: &str, a: f64, b: f64) -> Result<(), String> {
    let scale = a.abs().max(1.0);
    if (a - b).abs() <= PARITY_TOLERANCE * scale {
        Ok(())
    } else {
        Err(format!(
            "{what}: {a} vs {b} differ by more than {PARITY_TOLERANCE} relative"
        ))
    }
}

/// Passes attempted and failed in one run.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Passes attempted.
    pub attempted: u64,
    /// Passes that returned an error or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Ledger {
    /// Records one pass.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = outcome {
            self.failed += 1;
            self.notes.push(format!("{what}: {error}"));
        }
    }

    /// Failed passes over attempted passes.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_lines_parse_per_workload() {
        let text = "# comment\nw1 abacus 0x10\nw2 abacus 0x20 # trailing\nw1 par2 0x11\n";
        let bits = parse_bits(text, "w1");
        assert_eq!(bits.len(), 2);
        assert_eq!(bits["abacus"], 0x10);
        assert_eq!(parse_bits(text, "w2")["abacus"], 0x20);
    }

    #[test]
    fn without_a_reference_the_first_result_is_expected() {
        let mut expect = Expect::new(None);
        assert!(expect.bits("abacus", 7).is_ok());
        assert!(expect.bits("abacus", 7).is_ok());
        assert!(expect.bits("abacus", 8).is_err());
        let mut committed = Expect::new(Some(Reference::default()));
        assert!(committed.bits("abacus", 7).is_err(), "missing entries fail");
    }

    #[test]
    fn every_workload_has_committed_bits() {
        for workload in crate::workloads::WORKLOADS {
            let reference = Reference::committed(workload.name, workload.views, DEFAULT_SEED)
                .expect("default seed has a reference");
            for kind in ["abacus", "par2", "par1", "resume", "durable"] {
                assert!(
                    reference.bits.contains_key(kind),
                    "{} {kind}",
                    workload.name
                );
            }
        }
    }
}
