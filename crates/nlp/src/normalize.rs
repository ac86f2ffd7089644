//! Token normalization: stop-word removal and light stemming.

/// English stop words that carry no signal in disengagement logs.
const STOP_WORDS: &[&str] = &[
    "a", "an", "the", "and", "or", "of", "to", "in", "on", "at", "for", "as", "is", "was", "were",
    "be", "been", "by", "with", "from", "that", "this", "it", "its", "had", "has", "have", "did",
    "do", "does", "not", "no", "so", "then", "than", "but", "into", "onto", "out", "up", "down",
    "over", "under", "result", "resumed", "safely",
];

/// Whether a token is a stop word.
pub fn is_stop_word(token: &str) -> bool {
    STOP_WORDS.contains(&token)
}

/// Removes stop words from a token stream.
///
/// # Examples
///
/// ```
/// # use disengage_nlp::normalize::remove_stop_words;
/// let tokens: Vec<String> = ["the", "planner", "was", "confused"]
///     .iter().map(|s| s.to_string()).collect();
/// assert_eq!(remove_stop_words(&tokens), vec!["planner", "confused"]);
/// ```
pub fn remove_stop_words(tokens: &[String]) -> Vec<String> {
    tokens
        .iter()
        .filter(|t| !is_stop_word(t))
        .cloned()
        .collect()
}

/// A light suffix stemmer tuned for failure-log vocabulary.
///
/// Handles the inflections that actually occur in the reports —
/// `disengaged`/`disengagement(s)` → `disengag`, `braking`/`braked` →
/// `brak`, `predictions` → `predict` — without the full Porter machinery.
/// Words of four characters or fewer are returned unchanged.
///
/// # Examples
///
/// ```
/// # use disengage_nlp::normalize::stem;
/// assert_eq!(stem("disengagements"), "disengag");
/// assert_eq!(stem("disengaged"), "disengag");
/// assert_eq!(stem("braking"), "brak");
/// assert_eq!(stem("car"), "car");
/// ```
pub fn stem(token: &str) -> String {
    stem_slice(token).to_owned()
}

/// [`stem`] without the allocation: the stem is always a prefix of the
/// token, so it is returned borrowed.
pub(crate) fn stem_slice(token: &str) -> &str {
    let t = token;
    if t.len() <= 4 {
        return t;
    }
    // Ordered longest-suffix-first.
    const SUFFIXES: &[&str] = &[
        "ements", "ement", "ications", "ication", "ations", "ation", "nesses", "ness", "ingly",
        "edly", "ings", "ing", "ions", "ion", "ies", "ers", "er", "ed", "es", "s", "ly",
    ];
    for suf in SUFFIXES {
        if let Some(stripped) = t.strip_suffix(suf) {
            if stripped.len() >= 3 {
                return stripped;
            }
        }
    }
    t
}

/// Full normalization: stop-word removal then stemming.
pub fn normalize(tokens: &[String]) -> Vec<String> {
    remove_stop_words(tokens).iter().map(|t| stem(t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;

    #[test]
    fn stop_words_removed() {
        let t = tokenize("the driver of the AV did not react");
        let n = remove_stop_words(&t);
        assert_eq!(n, vec!["driver", "av", "react"]);
    }

    #[test]
    fn stemming_aligns_inflections() {
        assert_eq!(stem("disengagement"), stem("disengaged"));
        assert_eq!(stem("prediction"), stem("predicted"));
        assert_eq!(stem("recognition"), "recognit");
        assert_eq!(stem("planning"), "plann");
    }

    #[test]
    fn short_words_untouched() {
        assert_eq!(stem("av"), "av");
        assert_eq!(stem("gps"), "gps");
        assert_eq!(stem("lane"), "lane");
    }

    #[test]
    fn stem_keeps_minimum_stem_length() {
        // "using" -> "us" would be too short; kept as "us"? No: stripped
        // len 2 < 3, so unchanged.
        assert_eq!(stem("using"), "using");
    }

    #[test]
    fn normalize_pipeline() {
        let t = tokenize("The planner failed to anticipate the other driver's behavior");
        let n = normalize(&t);
        assert!(n.contains(&"plann".to_owned()));
        assert!(n.contains(&"fail".to_owned()));
        assert!(n.contains(&"behavior".to_owned()));
        assert!(!n.iter().any(|w| w == "the"));
    }
}
