//! Documents tokenized once, as ids of one interning vocabulary.

use std::collections::HashMap;

use crate::bow::TokenCorpus;
use crate::tokenizer::for_each_filtered_token;
use crate::vocab::{kept_ids, Vocabulary};

/// A sequence of documents tokenized once into `u32` ids of one
/// interning vocabulary, from which the pruned vocabulary and corpus
/// of any **prefix** of the sequence derive without tokenizing again.
///
/// Ids are handed out in order of first appearance, so the ids seen in
/// the first `n` documents are exactly `0 .. m` for some `m`, in the
/// order a [`Vocabulary`] observing those documents would intern them.
/// That is what makes [`InternedDocs::prefix_corpus`] equal, id for id,
/// to observing and pruning the prefix directly.
///
/// # Example
///
/// ```
/// use forumcast_text::InternedDocs;
///
/// let mut docs = InternedDocs::new();
/// for text in ["rust vectors", "rust slices", "python lists"] {
///     docs.push_text(text);
/// }
/// // The first two documents, keeping words seen in at least 2 of them.
/// let (vocab, corpus) = docs.prefix_corpus(2, 2, 1.0);
/// assert_eq!(vocab.len(), 1);
/// assert_eq!(vocab.id_of("rust"), Some(0));
/// assert_eq!(corpus.num_docs(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InternedDocs {
    ids: HashMap<String, u32>,
    tokens: Vec<String>,
    /// Every document's token ids, concatenated in document order.
    flat: Vec<u32>,
    /// `offsets[i] .. offsets[i + 1]` is document `i` within `flat`.
    offsets: Vec<usize>,
}

impl InternedDocs {
    /// An empty sequence.
    pub fn new() -> Self {
        InternedDocs {
            offsets: vec![0],
            ..InternedDocs::default()
        }
    }

    /// Number of documents pushed.
    pub fn num_docs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Appends `text` as one document, tokenized as
    /// [`tokenize_filtered`](crate::tokenize_filtered) does.
    pub fn push_text(&mut self, text: &str) {
        let InternedDocs {
            ids, tokens, flat, ..
        } = self;
        for_each_filtered_token(text, |tok| {
            let id = match ids.get(tok) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(tokens.len()).expect("fewer than 2^32 distinct tokens");
                    ids.insert(tok.to_owned(), id);
                    tokens.push(tok.to_owned());
                    id
                }
            };
            flat.push(id);
        });
        self.offsets.push(self.flat.len());
    }

    /// The vocabulary and token corpus of the first `n` documents: the
    /// same, bit for bit, as [`Vocabulary::observe`] on each of them,
    /// then [`Vocabulary::prune`]`(min_docs, max_doc_frac)`, then
    /// [`Corpus::from_token_docs`](crate::Corpus::from_token_docs) and
    /// [`Corpus::to_tokens`](crate::Corpus::to_tokens). Kept words are
    /// numbered in interning order.
    ///
    /// # Panics
    ///
    /// Panics when `n > num_docs()`.
    pub fn prefix_corpus(
        &self,
        n: usize,
        min_docs: usize,
        max_doc_frac: f64,
    ) -> (Vocabulary, TokenCorpus) {
        assert!(
            n <= self.num_docs(),
            "prefix of {n} documents out of {}",
            self.num_docs()
        );
        let prefix = &self.flat[..self.offsets[n]];
        let seen = prefix.iter().max().map_or(0, |&m| m as usize + 1);
        let mut counts = vec![0usize; seen];
        let mut doc_counts = vec![0usize; seen];
        // The last document each id was counted in, so a word repeated
        // within one document adds to its document count once.
        let mut last_doc = vec![usize::MAX; seen];
        for d in 0..n {
            for &w in self.doc(d) {
                let w = w as usize;
                counts[w] += 1;
                if last_doc[w] != d {
                    last_doc[w] = d;
                    doc_counts[w] += 1;
                }
            }
        }

        let keep = kept_ids(&doc_counts, n, min_docs, max_doc_frac);
        let mut local = vec![u32::MAX; seen];
        for (new_id, &old_id) in keep.iter().enumerate() {
            local[old_id] = new_id as u32;
        }
        let vocab = Vocabulary::from_kept(
            keep.iter().map(|&id| self.tokens[id].clone()).collect(),
            keep.iter().map(|&id| counts[id]).collect(),
            keep.iter().map(|&id| doc_counts[id]).collect(),
            n,
        );

        let docs = (0..n).map(|d| {
            self.doc(d)
                .iter()
                .map(|&w| local[w as usize])
                .filter(|&w| w != u32::MAX)
        });
        let corpus = TokenCorpus::from_docs(docs, vocab.len());
        (vocab, corpus)
    }

    fn doc(&self, d: usize) -> &[u32] {
        &self.flat[self.offsets[d]..self.offsets[d + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tokenize_filtered, Corpus};

    /// The path `prefix_corpus` replaces: observe, prune, encode.
    fn observed(texts: &[&str], n: usize, min_docs: usize, frac: f64) -> (Vocabulary, TokenCorpus) {
        let docs: Vec<Vec<String>> = texts[..n].iter().map(|t| tokenize_filtered(t)).collect();
        let mut vocab = Vocabulary::new();
        for d in &docs {
            vocab.observe(d);
        }
        vocab.prune(min_docs, frac);
        let corpus = Corpus::from_token_docs(&docs, &vocab).to_tokens();
        (vocab, corpus)
    }

    #[test]
    fn every_prefix_matches_observe_and_prune() {
        let texts = [
            "alpha beta beta gamma",
            "",
            "beta delta alpha",
            "gamma gamma epsilon",
            "zeta alpha delta",
            "the of and",
            "epsilon zeta beta",
        ];
        let mut docs = InternedDocs::new();
        for t in texts {
            docs.push_text(t);
        }
        assert_eq!(docs.num_docs(), texts.len());
        for n in 0..=texts.len() {
            for (min_docs, frac) in [(2, 0.6), (1, 1.0), (1, 0.5), (3, 0.9)] {
                assert_eq!(
                    docs.prefix_corpus(n, min_docs, frac),
                    observed(&texts, n, min_docs, frac),
                    "prefix {n}, prune({min_docs}, {frac})"
                );
            }
        }
    }

    #[test]
    fn words_first_seen_after_the_prefix_are_absent() {
        let mut docs = InternedDocs::new();
        for t in ["shared words", "shared words", "latecomer shared"] {
            docs.push_text(t);
        }
        let (vocab, _) = docs.prefix_corpus(2, 1, 1.0);
        assert_eq!(vocab.id_of("latecomer"), None);
        assert_eq!(vocab.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn prefix_longer_than_the_sequence_panics() {
        InternedDocs::new().prefix_corpus(1, 1, 1.0);
    }
}
