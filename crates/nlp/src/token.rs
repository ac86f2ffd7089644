//! Tokenization of log text.

/// Splits text into lowercase word tokens.
///
/// A token is a maximal run of ASCII alphanumerics; hyphens and slashes
/// inside words split them (`hang/crash` → `hang`, `crash`), matching how
/// the dictionary phrases are stored. Everything is lowercased.
///
/// # Examples
///
/// ```
/// # use disengage_nlp::token::tokenize;
/// assert_eq!(
///     tokenize("Software module froze!"),
///     vec!["software", "module", "froze"]
/// );
/// assert_eq!(tokenize("hang/crash"), vec!["hang", "crash"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            current.push(c.to_ascii_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_split_and_lowercase() {
        assert_eq!(tokenize("The AV Failed"), vec!["the", "av", "failed"]);
    }

    #[test]
    fn punctuation_splits() {
        assert_eq!(
            tokenize("froze. As a result, driver..."),
            vec!["froze", "as", "a", "result", "driver"]
        );
    }

    #[test]
    fn numbers_kept() {
        assert_eq!(
            tokenize("error 42 at 1:25pm"),
            vec!["error", "42", "at", "1", "25pm"]
        );
    }

    #[test]
    fn empty_and_symbol_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("@#$%^").is_empty());
    }

    #[test]
    fn unicode_dashes_split() {
        assert_eq!(tokenize("takeover—request"), vec!["takeover", "request"]);
    }
}
