//! Topic distributions `d(p)` for all posts of a history partition.

use std::collections::HashMap;

use forumcast_data::{PostBody, QuestionId, Thread, UserId};
use forumcast_text::{tokenize_filtered, BagOfWords, InternedDocs, Vocabulary};
use forumcast_topics::{LdaConfig, LdaModel};

/// An LDA model fitted on the posts of a history partition, plus the
/// inferred topic distribution of every post in it.
///
/// Mirrors the paper's pipeline: "each post `p` … is treated as a
/// separate document" (Section II-B), trained per partition `Ω` so
/// that no text from evaluation questions leaks into training.
#[derive(Debug, Clone)]
pub struct PostTopics {
    lda: LdaModel,
    vocab: Vocabulary,
    question_topics: HashMap<QuestionId, Vec<f64>>,
    answer_topics: HashMap<(QuestionId, UserId), Vec<f64>>,
}

impl PostTopics {
    /// Tokenizes every post in `history`, builds a pruned vocabulary,
    /// trains LDA with `config`, and records `d(p)` for each post.
    pub fn fit(history: &[Thread], config: &LdaConfig) -> Self {
        Self::fit_shared(history, &HistoryTokens::new(history), config)
    }

    /// [`PostTopics::fit`] on `history`, a prefix of the threads
    /// `tokens` was built from, without tokenizing again. The result
    /// is bit for bit that of `fit(history, config)`: the prefix's
    /// vocabulary keeps the words in `[2, ⌊0.6 · posts⌋]` of its posts,
    /// in first-appearance order.
    ///
    /// # Panics
    ///
    /// Panics when `history` is not a prefix of the tokenized threads.
    pub fn fit_shared(history: &[Thread], tokens: &HistoryTokens, config: &LdaConfig) -> Self {
        assert!(
            history.len() <= tokens.thread_ids.len()
                && history
                    .iter()
                    .zip(&tokens.thread_ids)
                    .all(|(t, &id)| t.id == id),
            "history is not a prefix of the tokenized threads"
        );
        let (vocab, corpus) = tokens
            .posts
            .prefix_corpus(tokens.thread_ends[history.len()], 2, 0.6);
        let lda = LdaModel::train_tokens(&corpus, config);

        // One document per post, question first within each thread.
        let mut question_topics = HashMap::new();
        let mut answer_topics = HashMap::new();
        let mut doc = 0;
        for t in history {
            question_topics.insert(t.id, lda.doc_topics(doc).to_vec());
            doc += 1;
            for a in &t.answers {
                // A user's duplicate answers (rare, pre-cleaning)
                // keep the last distribution; preprocessing
                // removes duplicates anyway.
                answer_topics.insert((t.id, a.author), lda.doc_topics(doc).to_vec());
                doc += 1;
            }
        }
        PostTopics {
            lda,
            vocab,
            question_topics,
            answer_topics,
        }
    }

    /// Number of topics `K`.
    pub fn num_topics(&self) -> usize {
        self.lda.num_topics()
    }

    /// The underlying LDA model.
    pub fn model(&self) -> &LdaModel {
        &self.lda
    }

    /// The pruned vocabulary the model was trained against.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Topic distribution of a history question.
    pub fn question(&self, q: QuestionId) -> Option<&[f64]> {
        self.question_topics.get(&q).map(Vec::as_slice)
    }

    /// Topic distribution of `u`'s answer to history question `q`.
    pub fn answer(&self, q: QuestionId, u: UserId) -> Option<&[f64]> {
        self.answer_topics.get(&(q, u)).map(Vec::as_slice)
    }

    /// Folds new threads into the distribution cache **without
    /// retraining** the topic–word distributions — the online
    /// deployment mode: `φ` stays frozen, new posts get fold-in `θ`s.
    pub fn extend(&mut self, threads: &[Thread]) {
        self.extend_with_threads(threads, forumcast_par::configured_threads());
    }

    /// [`PostTopics::extend`] with an explicit worker-thread count
    /// (`0` = auto). New posts are collected in thread order (first
    /// occurrence wins for duplicates, matching serial behavior),
    /// fold-in inference runs in parallel with per-post
    /// content-derived seeds, and results are inserted in collection
    /// order — bitwise-identical for any thread count.
    pub fn extend_with_threads(&mut self, threads: &[Thread], worker_threads: usize) {
        let mut keys: Vec<PostKey> = Vec::new();
        let mut docs: Vec<(BagOfWords, u64)> = Vec::new();
        let mut pending_q: std::collections::HashSet<QuestionId> = std::collections::HashSet::new();
        let mut pending_a: std::collections::HashSet<(QuestionId, UserId)> =
            std::collections::HashSet::new();
        for t in threads {
            if !self.question_topics.contains_key(&t.id) && pending_q.insert(t.id) {
                keys.push(PostKey::Question(t.id));
                docs.push(self.encode_with_seed(&t.question.body));
            }
            for a in &t.answers {
                let key = (t.id, a.author);
                if !self.answer_topics.contains_key(&key) && pending_a.insert(key) {
                    keys.push(PostKey::Answer(t.id, a.author));
                    docs.push(self.encode_with_seed(&a.body));
                }
            }
        }
        let thetas = self.lda.infer_batch(&docs, worker_threads);
        for (key, theta) in keys.into_iter().zip(thetas) {
            match key {
                PostKey::Question(q) => {
                    self.question_topics.insert(q, theta);
                }
                PostKey::Answer(q, u) => {
                    self.answer_topics.insert((q, u), theta);
                }
            }
        }
    }

    /// Encodes a post body and derives its deterministic fold-in seed
    /// from the token content.
    fn encode_with_seed(&self, body: &PostBody) -> (BagOfWords, u64) {
        let tokens = tokenize_filtered(&body.text);
        let bow = BagOfWords::encode(&tokens, &self.vocab);
        // Content-derived seed keeps inference deterministic without
        // threading an RNG through every feature computation.
        let seed = bow.iter().fold(0xBADC0FFEu64, |acc, (id, c)| {
            acc.wrapping_mul(31).wrapping_add(id as u64 * 7 + c as u64)
        });
        (bow, seed)
    }

    /// Infers `d(p)` for an arbitrary (held-out) post body via fold-in
    /// Gibbs with the trained topic–word distributions fixed.
    /// Deterministic: the seed is derived from the token content.
    pub fn infer(&self, body: &PostBody) -> Vec<f64> {
        let (bow, seed) = self.encode_with_seed(body);
        self.lda.infer(&bow, seed)
    }
}

#[derive(Debug, Clone, Copy)]
enum PostKey {
    Question(QuestionId),
    Answer(QuestionId, UserId),
}

/// Every post of a thread sequence tokenized once into one interning
/// vocabulary — question first within each thread — so that topics
/// fitted on several prefixes of the sequence share one tokenization.
#[derive(Debug, Clone)]
pub struct HistoryTokens {
    posts: InternedDocs,
    thread_ids: Vec<QuestionId>,
    /// `thread_ends[i]`: the posts of the first `i` threads.
    thread_ends: Vec<usize>,
}

impl HistoryTokens {
    /// Tokenizes the posts of `threads`, in order.
    pub fn new(threads: &[Thread]) -> Self {
        let mut posts = InternedDocs::new();
        let mut thread_ends = Vec::with_capacity(threads.len() + 1);
        thread_ends.push(0);
        for t in threads {
            posts.push_text(&t.question.body.text);
            for a in &t.answers {
                posts.push_text(&a.body.text);
            }
            thread_ends.push(posts.num_docs());
        }
        HistoryTokens {
            posts,
            thread_ids: threads.iter().map(|t| t.id).collect(),
            thread_ends,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forumcast_synth::SynthConfig;

    fn topics_over_small() -> (Vec<Thread>, PostTopics) {
        let ds = SynthConfig::small().with_seed(11).generate();
        let (clean, _) = ds.preprocess();
        let history: Vec<Thread> = clean.threads()[..120].to_vec();
        let pt = PostTopics::fit(&history, &LdaConfig::new(4).with_iterations(40));
        (history, pt)
    }

    #[test]
    fn every_history_post_has_a_distribution() {
        let (history, pt) = topics_over_small();
        for t in &history {
            let dq = pt.question(t.id).expect("question distribution");
            assert_eq!(dq.len(), 4);
            assert!((dq.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for a in &t.answers {
                assert!(pt.answer(t.id, a.author).is_some());
            }
        }
    }

    #[test]
    fn unknown_question_returns_none() {
        let (_, pt) = topics_over_small();
        assert!(pt.question(QuestionId(9_999_999)).is_none());
        assert!(pt.answer(QuestionId(9_999_999), UserId(0)).is_none());
    }

    #[test]
    fn inference_is_deterministic_per_content() {
        let (_, pt) = topics_over_small();
        let body = PostBody::words("t0w1 t0w2 t0w3 question error t0w4");
        assert_eq!(pt.infer(&body), pt.infer(&body));
    }

    #[test]
    fn inference_of_empty_body_is_uniform() {
        let (_, pt) = topics_over_small();
        let theta = pt.infer(&PostBody::default());
        assert_eq!(theta, vec![0.25; 4]);
    }

    #[test]
    fn extend_bitwise_identical_across_thread_counts() {
        let ds = SynthConfig::small().with_seed(11).generate();
        let (clean, _) = ds.preprocess();
        let history: Vec<Thread> = clean.threads()[..80].to_vec();
        let new_threads: Vec<Thread> = clean.threads()[80..120].to_vec();
        let base = PostTopics::fit(&history, &LdaConfig::new(4).with_iterations(20));

        let mut serial = base.clone();
        serial.extend_with_threads(&new_threads, 1);
        for threads in [2, 7] {
            let mut par = base.clone();
            par.extend_with_threads(&new_threads, threads);
            for t in &new_threads {
                let a = serial.question(t.id).unwrap();
                let b = par.question(t.id).unwrap();
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "question {:?}", t.id);
                }
                for ans in &t.answers {
                    let a = serial.answer(t.id, ans.author).unwrap();
                    let b = par.answer(t.id, ans.author).unwrap();
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn topical_posts_get_nonuniform_distributions() {
        let (_, pt) = topics_over_small();
        // A post hammering one synthetic topic's vocabulary.
        let text = (0..30)
            .map(|i| format!("t2w{}", i % 10))
            .collect::<Vec<_>>()
            .join(" ");
        let theta = pt.infer(&PostBody::words(text));
        let max = theta.iter().cloned().fold(0.0, f64::max);
        // The fitted LDA may split one synthetic theme across two of
        // its topics; "non-uniform" means clearly above the uniform
        // 1/K = 0.25 mass, not necessarily a single dominant topic.
        assert!(max > 0.4, "expected concentration, got {theta:?}");
    }
}
