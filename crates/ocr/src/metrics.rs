//! OCR quality metric: the character error rate.

use crate::correct::edit_distance;

/// Character error rate: `edit_distance(reference, hypothesis) /
/// len(reference)`.
///
/// Returns 0 for two empty strings; for an empty reference with a
/// non-empty hypothesis the rate is the hypothesis length over 1 (every
/// inserted character is an error).
pub fn cer(reference: &str, hypothesis: &str) -> f64 {
    let ref_len = reference.chars().count();
    if ref_len == 0 {
        return hypothesis.chars().count() as f64;
    }
    edit_distance(reference, hypothesis) as f64 / ref_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_recognition() {
        assert_eq!(cer("abc def", "abc def"), 0.0);
    }

    #[test]
    fn single_char_error() {
        let c = cer("watchdog", "watchd0g");
        assert!((c - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_reference() {
        assert_eq!(cer("", ""), 0.0);
        assert_eq!(cer("", "xy"), 2.0);
    }

    #[test]
    fn cer_monotone_in_damage() {
        let reference = "the quick brown fox";
        assert!(cer(reference, "the quick brown f0x") < cer(reference, "th3 qu1ck br0wn f0x"));
    }
}
