//! The keyword-voting classifier (step 3 of the pipeline).
//!
//! Each tag votes with the number of its dictionary keywords found in the
//! normalized description; contiguous full-phrase matches vote with
//! double weight. The highest score wins; a zero score falls back to
//! `Unknown-T`, exactly as the paper describes.
//!
//! [`Classifier::new`] compiles the dictionary once. Every stem a keyword
//! or phrase uses is interned to a `u32` id, assigned in lexicographic
//! order so that ascending ids list matched keywords the way a sorted set
//! would; each id carries a bitmask of the tags it is a keyword of; and
//! every phrase of two or more tokens is indexed under its first stem,
//! one entry per phrase, so phrases that stem alike or sit under two tags
//! each still vote. Classifying then reads the description once into
//! per-thread scratch, with one hash lookup per token, and sums integer
//! votes. A verdict names its matched keywords by stem id
//! ([`Classifier::stem`] resolves one), so it allocates one `Vec<u32>`;
//! only the [`TagVote`] ballot carries strings.

use crate::dictionary::FailureDictionary;
use crate::normalize::{is_stop_word, stem_slice};
use crate::ontology::{FailureCategory, FaultTag};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// The classifier's verdict for one description.
#[derive(Debug, Clone, PartialEq)]
pub struct TagAssignment {
    /// Winning fault tag (`Unknown-T` when nothing matched).
    pub tag: FaultTag,
    /// Root category implied by the tag.
    pub category: FailureCategory,
    /// The winning score (keyword votes; 0 for `Unknown-T`).
    pub score: f64,
    /// Vote margin: winning score minus the best losing score (0 when
    /// nothing matched or another tag tied). Low margins flag verdicts
    /// that one extra keyword could have flipped.
    pub margin: f64,
    /// Ids of the normalized keywords that matched the winning tag, in
    /// the producing classifier's stem table, ascending (so they list
    /// the stems in lexicographic order). [`Classifier::stem`] resolves
    /// an id; an id means nothing to a classifier compiled from another
    /// dictionary.
    pub matched_keywords: Vec<u32>,
    /// Whether another tag tied the winning score (diagnostic for the
    /// manual-verification pass the paper describes).
    pub ambiguous: bool,
}

/// One tag's vote tally for a description — the per-candidate
/// breakdown behind a [`TagAssignment`]. Only tags that scored are
/// reported, in [`FaultTag::ALL`] order (so the list is deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct TagVote {
    /// The candidate tag.
    pub tag: FaultTag,
    /// Its keyword + phrase score.
    pub score: f64,
    /// Normalized keywords that hit for this tag.
    pub matched_keywords: Vec<String>,
}

// Keyword tag sets are `u16` bitmasks over `FaultTag::ALL` positions.
const _: () = assert!(FaultTag::ALL.len() <= 16);

/// Id of a description stem that no keyword or phrase uses.
const NO_STEM: u32 = u32::MAX;

/// A dictionary phrase of two or more tokens.
#[derive(Debug, Clone)]
struct Phrase {
    /// Position of its tag in [`FaultTag::ALL`].
    tag: usize,
    /// Its tokens' stem ids, in order.
    stems: Vec<u32>,
}

/// Per-thread classification scratch, reused across calls.
#[derive(Debug, Default)]
struct Scratch {
    /// The description, ASCII-lowercased.
    text: String,
    /// Stem id of every token ([`NO_STEM`] when unused by the dictionary).
    ids: Vec<u32>,
    /// Keyword ids hit by non-stop-word tokens.
    keyword_hits: Vec<u32>,
    /// Indices of the phrases that matched.
    phrase_hits: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Keyword-voting classifier over a [`FailureDictionary`], compiled
/// into interned-stem indexes.
#[derive(Debug, Clone)]
pub struct Classifier {
    dictionary: FailureDictionary,
    /// Every stem a keyword or phrase uses, ascending; an id indexes it.
    stems: Vec<String>,
    /// Stem → id.
    ids: HashMap<String, u32>,
    /// Per stem id: bit `t` set when the stem is a keyword of
    /// `FaultTag::ALL[t]`.
    keyword_tags: Vec<u16>,
    /// Phrases of two or more tokens, grouped by first stem id.
    phrases: Vec<Phrase>,
    /// `phrases[phrase_start[id]..phrase_start[id + 1]]` start with stem `id`.
    phrase_start: Vec<usize>,
}

impl Classifier {
    /// Builds a classifier from a dictionary, compiling its keyword sets
    /// and phrases into interned-stem indexes.
    pub fn new(dictionary: FailureDictionary) -> Classifier {
        let mut keywords: Vec<(usize, BTreeSet<String>)> = Vec::new();
        let mut phrase_tokens: Vec<(usize, Vec<String>)> = Vec::new();
        for (t, &tag) in FaultTag::ALL.iter().enumerate() {
            if tag == FaultTag::UnknownT {
                continue;
            }
            keywords.push((t, dictionary.keyword_set(tag)));
            phrase_tokens.extend(
                dictionary
                    .phrase_tokens(tag)
                    .into_iter()
                    .filter(|p| p.len() >= 2)
                    .map(|p| (t, p)),
            );
        }
        let stems: Vec<String> = keywords
            .iter()
            .flat_map(|(_, set)| set.iter())
            .chain(phrase_tokens.iter().flat_map(|(_, p)| p.iter()))
            .cloned()
            .collect::<BTreeSet<String>>()
            .into_iter()
            .collect();
        let ids: HashMap<String, u32> = stems
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), u32::try_from(i).expect("fewer than 2^32 stems")))
            .collect();
        let mut keyword_tags = vec![0u16; stems.len()];
        for (t, set) in &keywords {
            for k in set {
                keyword_tags[ids[k] as usize] |= 1 << t;
            }
        }
        let mut phrases: Vec<Phrase> = phrase_tokens
            .iter()
            .map(|(t, p)| Phrase {
                tag: *t,
                stems: p.iter().map(|s| ids[s]).collect(),
            })
            .collect();
        phrases.sort_by_key(|p| p.stems[0]);
        let mut phrase_start = vec![0usize; stems.len() + 1];
        for p in &phrases {
            phrase_start[p.stems[0] as usize + 1] += 1;
        }
        for i in 1..phrase_start.len() {
            phrase_start[i] += phrase_start[i - 1];
        }
        Classifier {
            dictionary,
            stems,
            ids,
            keyword_tags,
            phrases,
            phrase_start,
        }
    }

    /// Builds a classifier over the paper-derived default dictionary.
    pub fn with_default_dictionary() -> Classifier {
        Classifier::new(FailureDictionary::default_bank())
    }

    /// The dictionary backing this classifier.
    pub fn dictionary(&self) -> &FailureDictionary {
        &self.dictionary
    }

    /// The normalized stem with id `id`, as listed in a
    /// [`TagAssignment::matched_keywords`] this classifier returned.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not one of this classifier's stem ids.
    ///
    /// # Examples
    ///
    /// ```
    /// # use disengage_nlp::vote::Classifier;
    /// let c = Classifier::with_default_dictionary();
    /// let a = c.classify("watchdog error");
    /// let stems: Vec<&str> = a.matched_keywords.iter().map(|&id| c.stem(id)).collect();
    /// assert_eq!(stems, ["error", "watchdog"]);
    /// ```
    pub fn stem(&self, id: u32) -> &str {
        &self.stems[id as usize]
    }

    /// Classifies one free-text cause description.
    ///
    /// # Examples
    ///
    /// ```
    /// # use disengage_nlp::vote::Classifier;
    /// # use disengage_nlp::ontology::FaultTag;
    /// let c = Classifier::with_default_dictionary();
    /// assert_eq!(c.classify("watchdog error").tag, FaultTag::HangCrash);
    /// assert_eq!(c.classify("odd noise").tag, FaultTag::UnknownT);
    /// ```
    pub fn classify(&self, description: &str) -> TagAssignment {
        self.vote(description, None)
    }

    /// [`Classifier::classify`], also returning every scoring tag's
    /// [`TagVote`] — the full ballot the verdict was decided from. The
    /// verdict is computed by the same single pass, so the detailed and
    /// plain forms can never disagree.
    pub fn classify_detailed(&self, description: &str) -> (TagAssignment, Vec<TagVote>) {
        let mut votes = Vec::new();
        let assignment = self.vote(description, Some(&mut votes));
        (assignment, votes)
    }

    /// The single classification pass; pushes each scoring tag's
    /// [`TagVote`] onto `ballot` when one is given.
    fn vote(&self, description: &str, mut ballot: Option<&mut Vec<TagVote>>) -> TagAssignment {
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let Scratch {
                text,
                ids,
                keyword_hits,
                phrase_hits,
            } = &mut *scratch;
            // Reset on entry, not exit: the worker pool quarantines a
            // panicking task and reuses its thread, so a call may find
            // whatever an unwound call left behind.
            text.clear();
            ids.clear();
            keyword_hits.clear();
            phrase_hits.clear();
            text.push_str(description);
            text.make_ascii_lowercase();

            // Tokens are maximal ASCII-alphanumeric runs (as `tokenize`
            // splits them). Phrases match on every token's stem; keywords
            // only on the stems of tokens that are not stop words.
            for token in text
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|t| !t.is_empty())
            {
                let id = self.ids.get(stem_slice(token)).copied().unwrap_or(NO_STEM);
                if id != NO_STEM && self.keyword_tags[id as usize] != 0 && !is_stop_word(token) {
                    keyword_hits.push(id);
                }
                ids.push(id);
            }

            let mut scores = [0usize; FaultTag::ALL.len()];
            // A phrase found anywhere votes its length, once.
            for (at, &id) in ids.iter().enumerate() {
                if id == NO_STEM {
                    continue;
                }
                let candidates = self.phrase_start[id as usize]..self.phrase_start[id as usize + 1];
                for p in candidates {
                    let phrase = &self.phrases[p];
                    if ids[at..].starts_with(&phrase.stems) && !phrase_hits.contains(&p) {
                        phrase_hits.push(p);
                        scores[phrase.tag] += phrase.stems.len();
                    }
                }
            }
            // A keyword found anywhere votes once for each of its tags.
            keyword_hits.sort_unstable();
            keyword_hits.dedup();
            for &id in keyword_hits.iter() {
                let mut tags = self.keyword_tags[id as usize];
                while tags != 0 {
                    scores[tags.trailing_zeros() as usize] += 1;
                    tags &= tags - 1;
                }
            }
            let matched = |t: usize| {
                keyword_hits
                    .iter()
                    .copied()
                    .filter(move |&id| self.keyword_tags[id as usize] & (1 << t) != 0)
            };

            let mut best: Option<usize> = None;
            let mut second = 0usize;
            let mut ambiguous = false;
            for (t, &score) in scores.iter().enumerate() {
                if score == 0 {
                    continue;
                }
                if let Some(votes) = ballot.as_mut() {
                    votes.push(TagVote {
                        tag: FaultTag::ALL[t],
                        score: score as f64,
                        matched_keywords: matched(t).map(|id| self.stem(id).to_owned()).collect(),
                    });
                }
                match best {
                    Some(b) if score < scores[b] => second = second.max(score),
                    Some(b) if score == scores[b] => {
                        ambiguous = true;
                        second = scores[b];
                    }
                    _ => {
                        if let Some(b) = best {
                            second = second.max(scores[b]);
                        }
                        ambiguous = false;
                        best = Some(t);
                    }
                }
            }

            match best {
                // Integer votes convert exactly, so `score` and `margin`
                // carry the same bits as float accumulation would.
                Some(t) => TagAssignment {
                    tag: FaultTag::ALL[t],
                    category: FaultTag::ALL[t].category(),
                    score: scores[t] as f64,
                    margin: (scores[t] - second) as f64,
                    matched_keywords: matched(t).collect(),
                    ambiguous,
                },
                None => TagAssignment {
                    tag: FaultTag::UnknownT,
                    category: FailureCategory::UnknownC,
                    score: 0.0,
                    margin: 0.0,
                    matched_keywords: Vec::new(),
                    ambiguous: false,
                },
            }
        })
    }
}

#[cfg(test)]
mod margin_tests {
    use super::*;

    #[test]
    fn margin_zero_when_unknown_or_tied() {
        let c = Classifier::with_default_dictionary();
        let unknown = c.classify("odd noise");
        assert_eq!(unknown.tag, FaultTag::UnknownT);
        assert_eq!(unknown.margin, 0.0);
        // A clear single-tag winner has a positive margin no larger than
        // its score.
        let clear = c.classify("watchdog error");
        assert!(clear.margin > 0.0);
        assert!(clear.margin <= clear.score);
        // An ambiguous verdict (tie) reports zero margin.
        for text in [
            "software module froze",
            "the AV didn't see the lead vehicle",
        ] {
            let a = c.classify(text);
            if a.ambiguous {
                assert_eq!(a.margin, 0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c() -> Classifier {
        Classifier::with_default_dictionary()
    }

    #[test]
    fn paper_table_two_samples() {
        // Table II's four raw logs and their expected tags.
        let cases = [
            (
                "Software module froze. As a result driver safely disengaged and resumed manual control.",
                FaultTag::Software,
                FailureCategory::System,
            ),
            (
                "The AV didn't see the lead vehicle, driver safely disengaged and resumed manual control.",
                FaultTag::RecognitionSystem,
                FailureCategory::MlDesign,
            ),
            (
                "Disengage for a recklessly behaving road user",
                FaultTag::Environment,
                FailureCategory::MlDesign,
            ),
            ("watchdog error", FaultTag::HangCrash, FailureCategory::System),
        ];
        let cl = c();
        for (text, tag, cat) in cases {
            let a = cl.classify(text);
            assert_eq!(a.tag, tag, "text: {text}");
            assert_eq!(a.category, cat, "text: {text}");
            assert!(a.score > 0.0);
        }
    }

    #[test]
    fn case_study_phrases() {
        let cl = c();
        // The second text is the disengagement filed for the paper's
        // Case Study I (§II).
        for text in [
            "incorrect behavior prediction",
            "incorrect behavior prediction for the approaching car",
        ] {
            let a = cl.classify(text);
            assert_eq!(a.tag, FaultTag::IncorrectBehaviorPrediction, "text: {text}");
            assert_eq!(a.category, FailureCategory::MlDesign, "text: {text}");
        }
    }

    #[test]
    fn av_controller_split_by_context() {
        let cl = c();
        let sys = cl.classify("the AV controller did not respond to commands from the planner");
        assert_eq!(sys.tag, FaultTag::AvControllerUnresponsive);
        assert_eq!(sys.category, FailureCategory::System);
        let ml = cl.classify("the controller made a wrong decision at the intersection");
        assert_eq!(ml.tag, FaultTag::AvControllerDecision);
        assert_eq!(ml.category, FailureCategory::MlDesign);
    }

    #[test]
    fn unmatched_falls_back_to_unknown() {
        let a = c().classify("operator ended the session early");
        assert_eq!(a.tag, FaultTag::UnknownT);
        assert_eq!(a.category, FailureCategory::UnknownC);
        assert_eq!(a.score, 0.0);
        assert!(a.matched_keywords.is_empty());
    }

    #[test]
    fn empty_description_unknown() {
        assert_eq!(c().classify("").tag, FaultTag::UnknownT);
    }

    #[test]
    fn phrase_match_outvotes_stray_keyword() {
        // "planner" appears, but the full recognition phrase should win.
        let a = c().classify(
            "perception missed the pedestrian; planner was fine, recognition failure confirmed",
        );
        assert_eq!(a.tag, FaultTag::RecognitionSystem);
    }

    #[test]
    fn inflected_forms_match_via_stemming() {
        let cl = c();
        // Dictionary has "failed to detect"; log says "detection failures".
        let a = cl.classify("repeated detection failures near the crosswalk");
        assert_eq!(a.tag, FaultTag::RecognitionSystem, "{a:?}");
    }

    #[test]
    fn matched_keywords_reported() {
        let cl = c();
        let a = cl.classify("gps signal lost in the tunnel");
        assert_eq!(a.tag, FaultTag::Sensor);
        let stems: Vec<&str> = a.matched_keywords.iter().map(|&id| cl.stem(id)).collect();
        assert!(stems.contains(&"gps"));
        assert!(stems.contains(&"signal"));
        assert!(a.matched_keywords.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn independent_calls_share_no_state() {
        let cl = c();
        assert_eq!(cl.classify("watchdog error").tag, FaultTag::HangCrash);
        assert_eq!(cl.classify("gps signal lost").tag, FaultTag::Sensor);
        assert_eq!(cl.classify("watchdog error").tag, FaultTag::HangCrash);
    }

    #[test]
    fn detailed_ballot_contains_the_winner_and_only_scorers() {
        let cl = c();
        let (assignment, votes) = cl.classify_detailed(
            "perception missed the pedestrian; planner was fine, recognition failure confirmed",
        );
        assert_eq!(
            assignment,
            cl.classify(
                "perception missed the pedestrian; planner was fine, recognition failure confirmed",
            )
        );
        assert!(!votes.is_empty());
        let winner = votes
            .iter()
            .find(|v| v.tag == assignment.tag)
            .expect("winner is on the ballot");
        assert_eq!(winner.score, assignment.score);
        let stems: Vec<&str> = assignment
            .matched_keywords
            .iter()
            .map(|&id| cl.stem(id))
            .collect();
        assert_eq!(winner.matched_keywords, stems);
        for v in &votes {
            assert!(v.score > 0.0, "only scoring tags are reported: {v:?}");
            assert!(v.score <= assignment.score);
        }
        // Unknown text yields an empty ballot.
        let (unknown, no_votes) = cl.classify_detailed("odd noise");
        assert_eq!(unknown.tag, FaultTag::UnknownT);
        assert!(no_votes.is_empty());
    }

    #[test]
    fn custom_dictionary() {
        let mut d = FailureDictionary::new();
        d.add_phrase(FaultTag::Software, "blue screen");
        let cl = Classifier::new(d);
        assert_eq!(cl.classify("blue screen of death").tag, FaultTag::Software);
        assert_eq!(cl.classify("watchdog error").tag, FaultTag::UnknownT);
    }
}
