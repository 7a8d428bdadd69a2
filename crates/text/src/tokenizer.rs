//! A small, deterministic tokenizer for forum post text.

use crate::stopwords::is_stopword;

/// Splits text into lowercase alphanumeric tokens.
///
/// Rules: Unicode-aware lowercasing; any run of alphanumeric
/// characters (plus `_`, `+`, `#` inside programming-language names
/// like `c++`/`c#`) forms a token; everything else separates tokens;
/// purely numeric tokens are kept (version numbers carry topical
/// signal); single-character alphabetic tokens are dropped.
///
/// # Example
///
/// ```
/// use forumcast_text::tokenize;
/// assert_eq!(
///     tokenize("Sorting C++ vectors, in-place!"),
///     vec!["sorting", "c++", "vectors", "in", "place"]
/// );
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, |tok| tokens.push(tok.to_owned()));
    tokens
}

/// Calls `f` on each token of `text`, in order, by the rules of
/// [`tokenize`], reusing one buffer instead of allocating a `String`
/// per token.
fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    let mut cur = String::new();
    for ch in text.chars() {
        let is_word_char = ch.is_alphanumeric() || ch == '_' || ch == '+' || ch == '#';
        if is_word_char {
            for lc in ch.to_lowercase() {
                cur.push(lc);
            }
        } else if !cur.is_empty() {
            emit_token(&cur, &mut f);
            cur.clear();
        }
    }
    if !cur.is_empty() {
        emit_token(&cur, &mut f);
    }
}

fn emit_token(tok: &str, f: &mut impl FnMut(&str)) {
    // Drop stray '+'/'#' only tokens and 1-char alphabetic noise.
    let has_alnum = tok.chars().any(|c| c.is_alphanumeric());
    if !has_alnum {
        return;
    }
    if tok.chars().count() == 1 && tok.chars().all(|c| c.is_alphabetic()) {
        return;
    }
    f(tok);
}

/// Calls `f` on each token [`tokenize_filtered`] would return, in
/// order, without allocating the tokens.
pub(crate) fn for_each_filtered_token(text: &str, mut f: impl FnMut(&str)) {
    for_each_token(text, |tok| {
        if !is_stopword(tok) {
            f(tok);
        }
    });
}

/// Tokenizes and removes English stop words.
///
/// # Example
///
/// ```
/// use forumcast_text::tokenize_filtered;
/// assert_eq!(tokenize_filtered("how do I sort the list"), vec!["sort", "list"]);
/// ```
pub fn tokenize_filtered(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_filtered_token(text, |tok| tokens.push(tok.to_owned()));
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_splits_on_punctuation() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
    }

    #[test]
    fn keeps_language_names_with_symbols() {
        assert_eq!(
            tokenize("C# vs C++ vs F#"),
            vec!["c#", "vs", "c++", "vs", "f#"]
        );
    }

    #[test]
    fn keeps_underscores_and_numbers() {
        assert_eq!(
            tokenize("python_3 v2.7 my_var"),
            vec!["python_3", "v2", "7", "my_var"]
        );
    }

    #[test]
    fn drops_single_letters_but_keeps_single_digits() {
        assert_eq!(tokenize("a b 1 xy"), vec!["1", "xy"]);
    }

    #[test]
    fn drops_symbol_only_runs() {
        assert_eq!(tokenize("++ ## + #"), Vec::<String>::new());
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n ").is_empty());
    }

    #[test]
    fn unicode_text_tokenizes() {
        assert_eq!(tokenize("Größe café"), vec!["größe", "café"]);
    }

    #[test]
    fn filtered_removes_stopwords() {
        let toks = tokenize_filtered("this is the best answer of all time");
        assert_eq!(toks, vec!["best", "answer", "time"]);
    }
}
