//! Property-based tests for tokenization and bag-of-words invariants.

use proptest::prelude::*;

use forumcast_text::{tokenize, tokenize_filtered, BagOfWords, Corpus, InternedDocs, Vocabulary};

proptest! {
    /// Tokens never contain separators and are all lowercase.
    #[test]
    fn tokens_are_clean(text in ".{0,200}") {
        for tok in tokenize(&text) {
            prop_assert!(!tok.is_empty());
            prop_assert!(tok.chars().any(|c| c.is_alphanumeric()));
            prop_assert!(!tok.chars().any(char::is_whitespace));
            prop_assert_eq!(tok.to_lowercase(), tok.clone());
        }
    }

    /// Filtering only removes tokens; it never invents them.
    #[test]
    fn filtered_is_subsequence(text in "[a-zA-Z ]{0,200}") {
        let all = tokenize(&text);
        let filtered = tokenize_filtered(&text);
        prop_assert!(filtered.len() <= all.len());
        let mut it = all.iter();
        for f in &filtered {
            prop_assert!(it.any(|t| t == f), "token {f} out of order");
        }
    }

    /// Tokenization is deterministic.
    #[test]
    fn tokenize_deterministic(text in ".{0,120}") {
        prop_assert_eq!(tokenize(&text), tokenize(&text));
    }

    /// A bag-of-words always preserves the multiset of ids.
    #[test]
    fn bow_preserves_counts(ids in proptest::collection::vec(0usize..50, 0..80)) {
        let bow = BagOfWords::from_ids(&ids);
        prop_assert_eq!(bow.total() as usize, ids.len());
        let mut expanded = bow.to_token_ids();
        expanded.sort_unstable();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        prop_assert_eq!(expanded, sorted);
        // Entries are strictly increasing in id.
        let entries: Vec<_> = bow.iter().collect();
        for w in entries.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    /// Vocabulary ids stay dense and consistent under observation.
    #[test]
    fn vocab_ids_dense(words in proptest::collection::vec("[a-z]{1,6}", 1..60)) {
        let mut v = Vocabulary::new();
        v.observe(&words);
        prop_assert!(v.len() <= words.len());
        for w in &words {
            let id = v.id_of(w).expect("observed word is present");
            prop_assert!(id < v.len());
            prop_assert_eq!(v.token_of(id), w.as_str());
        }
    }

    /// Pruning never increases the vocabulary and keeps ids dense.
    #[test]
    fn prune_shrinks(words in proptest::collection::vec("[a-c]{1,2}", 1..40),
                     min_docs in 1usize..4) {
        let mut v = Vocabulary::new();
        for w in &words {
            v.observe(std::slice::from_ref(w));
        }
        let before = v.len();
        let removed = v.prune(min_docs, 1.0);
        prop_assert_eq!(v.len() + removed, before);
        for id in 0..v.len() {
            let tok = v.token_of(id).to_owned();
            prop_assert_eq!(v.id_of(&tok), Some(id));
        }
    }

    /// The vocabulary and corpus of any prefix of interned documents
    /// equal observing, pruning and encoding that prefix directly.
    #[test]
    fn interned_prefix_matches_observe_and_prune(
        docs in proptest::collection::vec(proptest::collection::vec("[a-e]{2}", 0..8), 0..16),
        cut in 0usize..17,
        min_docs in 1usize..4,
        max_doc_frac in 0.1f64..1.0,
    ) {
        let texts: Vec<String> = docs.iter().map(|d| d.join(" ")).collect();
        let n = cut.min(texts.len());
        let mut interned = InternedDocs::new();
        for t in &texts {
            interned.push_text(t);
        }
        let tokenized: Vec<Vec<String>> = texts[..n].iter().map(|t| tokenize_filtered(t)).collect();
        let mut vocab = Vocabulary::new();
        for d in &tokenized {
            vocab.observe(d);
        }
        vocab.prune(min_docs, max_doc_frac);
        let corpus = Corpus::from_token_docs(&tokenized, &vocab).to_tokens();
        prop_assert_eq!(interned.prefix_corpus(n, min_docs, max_doc_frac), (vocab, corpus));
    }
}
