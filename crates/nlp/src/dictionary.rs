//! The failure dictionary: phrase banks per fault tag.
//!
//! The paper constructs this dictionary by making "several passes over
//! the dataset" and verifying the entries manually. The default bank
//! shipped here is reconstructed from the phrases the paper quotes
//! (Tables II and III, the case studies, and Fig. 6's tag set). The
//! mining tooling that learns a dictionary from a labeled corpus is test
//! support (`tests/learn/`), used by the dictionary-learning ablation.

use crate::normalize::{normalize, stem};
use crate::ontology::FaultTag;
use crate::token::tokenize;
use std::collections::{BTreeMap, BTreeSet};

/// A phrase bank mapping each fault tag to its indicative phrases.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureDictionary {
    entries: BTreeMap<FaultTag, Vec<String>>,
}

impl FailureDictionary {
    /// An empty dictionary.
    pub fn new() -> FailureDictionary {
        FailureDictionary {
            entries: BTreeMap::new(),
        }
    }

    /// The paper-derived default dictionary.
    pub fn default_bank() -> FailureDictionary {
        let mut d = FailureDictionary::new();
        let add = |d: &mut FailureDictionary, tag, phrases: &[&str]| {
            for p in phrases {
                d.add_phrase(tag, p);
            }
        };
        add(
            &mut d,
            FaultTag::Environment,
            &[
                "recklessly behaving road user",
                "construction zone",
                "emergency vehicle",
                "debris on the road",
                "sun glare",
                "heavy rain",
                "weather conditions deteriorated",
                "cyclist swerved suddenly",
                "jaywalking pedestrian",
                "lane closure ahead",
                "erratic road user",
            ],
        );
        add(
            &mut d,
            FaultTag::RecognitionSystem,
            &[
                "didn't see the lead vehicle",
                "failed to detect",
                "perception missed",
                "recognition failure",
                "misclassified object",
                "traffic light not recognized",
                "lane markings not recognized",
                "false obstacle detection",
                "failed to recognize",
                "perception system",
                "missed detection of pothole",
                "bump not detected",
            ],
        );
        add(
            &mut d,
            FaultTag::Planner,
            &[
                "planner failed to anticipate",
                "improper motion planning",
                "motion plan infeasible",
                "path planning error",
                "unwanted maneuver planned",
                "late braking decision",
                "trajectory generation failed",
                "planner",
            ],
        );
        add(
            &mut d,
            FaultTag::IncorrectBehaviorPrediction,
            &[
                "incorrect behavior prediction",
                "behavior prediction wrong",
                "mispredicted other vehicle",
                "predicted the cyclist incorrectly",
            ],
        );
        add(
            &mut d,
            FaultTag::ComputerSystem,
            &[
                "processor overload",
                "compute unit fault",
                "memory exhausted",
                "hardware fault",
                "computer system problem",
                "onboard computer overheated",
            ],
        );
        add(
            &mut d,
            FaultTag::Sensor,
            &[
                "sensor failed to localize in time",
                "gps signal lost",
                "lidar dropout",
                "radar misread",
                "camera blinded",
                "sensor malfunction",
                "calibration drift",
                "localization lost",
            ],
        );
        add(
            &mut d,
            FaultTag::Network,
            &[
                "data rate too high",
                "network congestion",
                "can bus errors",
                "messages dropped on the network",
                "bandwidth exceeded",
                "communication timeout",
            ],
        );
        add(
            &mut d,
            FaultTag::DesignBug,
            &[
                "not designed to handle",
                "unforeseen situation",
                "unsupported scenario",
                "design limitation",
                "outside the operational design domain",
                "unhandled edge case",
            ],
        );
        add(
            &mut d,
            FaultTag::Software,
            &[
                "software module froze",
                "software crash",
                "software bug",
                "software hang",
                "process crashed",
                "null pointer dereference",
                "software fault",
                "software discrepancy",
            ],
        );
        add(
            &mut d,
            FaultTag::AvControllerUnresponsive,
            &[
                "controller did not respond",
                "did not respond to commands",
                "unresponsive controller",
                "steering command ignored",
                "actuator command not executed",
                "controller stopped responding",
            ],
        );
        add(
            &mut d,
            FaultTag::AvControllerDecision,
            &[
                "controller made a wrong decision",
                "incorrect control action",
                "controller chose an incorrect maneuver",
                "bad control decision",
            ],
        );
        add(
            &mut d,
            FaultTag::HangCrash,
            &[
                "watchdog error",
                "watchdog timer expired",
                "system hang",
                "system froze and rebooted",
                "unexpected reboot",
            ],
        );
        d
    }

    /// Adds a phrase under a tag (no-op if already present).
    ///
    /// `UnknownT` accepts no phrases — it is the fallback, not a class —
    /// so phrases added under it are ignored.
    pub fn add_phrase(&mut self, tag: FaultTag, phrase: &str) {
        if tag == FaultTag::UnknownT {
            return;
        }
        let list = self.entries.entry(tag).or_default();
        let phrase = phrase.trim().to_ascii_lowercase();
        if !list.contains(&phrase) {
            list.push(phrase);
        }
    }

    /// The phrases registered under a tag.
    pub fn phrases(&self, tag: FaultTag) -> &[String] {
        self.entries.get(&tag).map_or(&[], Vec::as_slice)
    }

    /// The normalized (stop-word-free, stemmed) keyword set for a tag.
    pub fn keyword_set(&self, tag: FaultTag) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        for phrase in self.phrases(tag) {
            for token in normalize(&tokenize(phrase)) {
                set.insert(token);
            }
        }
        set
    }

    /// The normalized phrase token sequences for a tag (for contiguous
    /// phrase matching).
    pub fn phrase_tokens(&self, tag: FaultTag) -> Vec<Vec<String>> {
        self.phrases(tag)
            .iter()
            .map(|p| tokenize(p).iter().map(|t| stem(t)).collect())
            .collect()
    }
}

impl Default for FailureDictionary {
    /// The paper-derived default bank (same as
    /// [`FailureDictionary::default_bank`]).
    fn default() -> FailureDictionary {
        FailureDictionary::default_bank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bank_covers_all_classifiable_tags() {
        let d = FailureDictionary::default_bank();
        for tag in FaultTag::ALL {
            if tag == FaultTag::UnknownT {
                assert!(d.phrases(tag).is_empty());
            } else {
                assert!(
                    !d.phrases(tag).is_empty(),
                    "tag {tag} has no dictionary phrases"
                );
            }
        }
        let phrases: usize = FaultTag::ALL.iter().map(|&t| d.phrases(t).len()).sum();
        assert!(phrases > 50);
    }

    #[test]
    fn add_phrase_dedups_and_lowercases() {
        let mut d = FailureDictionary::new();
        d.add_phrase(FaultTag::Software, "Kernel Panic");
        d.add_phrase(FaultTag::Software, "kernel panic");
        assert_eq!(d.phrases(FaultTag::Software), ["kernel panic"]);
    }

    #[test]
    fn unknown_t_accepts_nothing() {
        let mut d = FailureDictionary::new();
        d.add_phrase(FaultTag::UnknownT, "anything");
        assert_eq!(d, FailureDictionary::new());
    }

    #[test]
    fn keyword_sets_are_normalized() {
        let d = FailureDictionary::default_bank();
        let kw = d.keyword_set(FaultTag::Software);
        // "software module froze" → stems present; stop words absent.
        assert!(kw.contains("software"));
        assert!(kw.contains("froze"));
        assert!(!kw.contains("the"));
    }

    #[test]
    fn phrase_tokens_keep_order() {
        let d = FailureDictionary::default_bank();
        let phrases = d.phrase_tokens(FaultTag::HangCrash);
        assert!(phrases
            .iter()
            .any(|p| p.windows(2).any(|w| w[0] == "watchdog" && w[1] == "error")));
    }

    #[test]
    fn keyword_sets_mostly_disjoint() {
        // Sanity: the Recognition and Network vocabularies must not
        // collapse into each other.
        let d = FailureDictionary::default_bank();
        let a = d.keyword_set(FaultTag::RecognitionSystem);
        let b = d.keyword_set(FaultTag::Network);
        let overlap: Vec<_> = a.intersection(&b).collect();
        assert!(overlap.len() <= 2, "overlap too large: {overlap:?}");
    }
}
