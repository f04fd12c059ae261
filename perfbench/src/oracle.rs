//! The reference every output is checked against: each input briefed on
//! its own with `Briefer::brief_html`, plus the outcome tally that
//! `ok_frac` is computed from.

use std::panic::{catch_unwind, AssertUnwindSafe};
use wb_core::{Brief, BriefError, Briefer};

/// What the reference made of one input.
#[derive(Debug, Clone)]
pub enum Expected {
    /// The page briefs; both JSON renderings are kept for byte comparison.
    Brief {
        /// Compact JSON, as the crawl sink embeds it.
        compact: String,
        /// Pretty JSON, as `/brief` returns it.
        pretty: String,
    },
    /// `brief_html` returned an error or panicked: quarantine or a 4xx
    /// reply is the correct outcome.
    Reject,
}

impl Expected {
    /// The reference outcome for an already-computed brief result.
    pub fn of(result: &Result<Brief, BriefError>) -> Expected {
        match result {
            Ok(brief) => Expected::Brief {
                compact: serde_json::to_string(brief).expect("a Brief serialises"),
                pretty: serde_json::to_string_pretty(brief).expect("a Brief serialises"),
            },
            Err(_) => Expected::Reject,
        }
    }

    /// Whether `got` is what the reference says the page briefs to.
    pub fn matches(&self, got: &Result<Brief, BriefError>) -> bool {
        match (self, got) {
            (Expected::Brief { compact, .. }, Ok(brief)) => {
                serde_json::to_string(brief).is_ok_and(|s| &s == compact)
            }
            (Expected::Reject, Err(_)) => true,
            _ => false,
        }
    }

    /// Whether a `/brief` reply is what the reference says.
    pub fn matches_reply(&self, status: u16, body: &[u8]) -> bool {
        match self {
            Expected::Brief { pretty, .. } => status == 200 && body == pretty.as_bytes(),
            Expected::Reject => status == 422,
        }
    }
}

/// Briefs every input sequentially on the calling thread; a panic counts
/// as a rejection.
pub fn reference(briefer: &Briefer, htmls: &[String]) -> Vec<Expected> {
    htmls
        .iter()
        .map(|html| match catch_unwind(AssertUnwindSafe(|| briefer.brief_html(html))) {
            Ok(result) => Expected::of(&result),
            Err(_) => Expected::Reject,
        })
        .collect()
}

/// FNV-1a over every reference outcome in input order, so reviewers can
/// compare output identity across commits for one seed.
pub fn digest(expected: &[Expected]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in expected {
        let bytes = match e {
            Expected::Brief { compact, .. } => compact.as_bytes(),
            Expected::Reject => b"reject".as_slice(),
        };
        for &b in bytes.iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Outcomes counted against the reference.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Outcomes checked.
    pub attempted: u64,
    /// Outcomes that did not match the reference.
    pub failed: u64,
}

impl Tally {
    /// Counts one outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts `n` outcomes that never arrived.
    pub fn missing(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Share of outcomes that matched.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_core::BriefAttribute;

    fn brief() -> Brief {
        Brief {
            topic: "laptop store".to_string(),
            category: Some("computers".to_string()),
            attributes: vec![BriefAttribute { name: "price".into(), value: "12".into() }],
            informative_sentences: vec![0, 2],
        }
    }

    #[test]
    fn a_corrupted_brief_drives_ok_frac_below_one() {
        let want = Expected::of(&Ok(brief()));
        let mut tally = Tally::default();
        tally.record(want.matches(&Ok(brief())));
        assert_eq!(tally.ok_frac(), 1.0);
        let mut bad = brief();
        bad.attributes[0].value = "13".to_string();
        tally.record(want.matches(&Ok(bad)));
        assert!(tally.ok_frac() < 1.0);
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn replies_must_match_byte_for_byte() {
        let want = Expected::of(&Ok(brief()));
        let Expected::Brief { pretty, .. } = &want else { panic!("expected a brief") };
        assert!(want.matches_reply(200, pretty.as_bytes()));
        let mut corrupted = pretty.clone().into_bytes();
        corrupted[3] ^= 1;
        assert!(!want.matches_reply(200, &corrupted));
        assert!(!want.matches_reply(500, pretty.as_bytes()));
    }

    #[test]
    fn a_quarantine_is_correct_only_when_the_reference_rejects() {
        assert!(Expected::Reject.matches(&Err(BriefError::EmptyPage)));
        assert!(!Expected::Reject.matches(&Ok(brief())));
        assert!(!Expected::of(&Ok(brief())).matches(&Err(BriefError::EmptyPage)));
        assert!(Expected::Reject.matches_reply(422, b"{}"));
    }

    #[test]
    fn missing_outcomes_count_as_failed() {
        let mut tally = Tally::default();
        tally.record(true);
        tally.missing(3);
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.ok_frac(), 0.25);
    }
}
