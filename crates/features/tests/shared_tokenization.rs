//! Oracle test: topics fitted from the shared tokenization equal, bit
//! for bit, topics fitted by tokenizing each post into strings,
//! observing and pruning a vocabulary, and encoding the corpus.

use forumcast_data::{Post, PostBody, QuestionId, Thread, UserId};
use forumcast_features::{HistoryTokens, PostTopics};
use forumcast_synth::SynthConfig;
use forumcast_text::{tokenize_filtered, BagOfWords, Corpus, Vocabulary};
use forumcast_topics::{LdaConfig, LdaModel};

/// The string-document path: one `Vec<String>` per post, question
/// first within each thread.
struct Oracle {
    vocab: Vocabulary,
    lda: LdaModel,
}

impl Oracle {
    fn fit(history: &[Thread], config: &LdaConfig) -> Self {
        let mut docs: Vec<Vec<String>> = Vec::new();
        for t in history {
            docs.push(tokenize_filtered(&t.question.body.text));
            for a in &t.answers {
                docs.push(tokenize_filtered(&a.body.text));
            }
        }
        let mut vocab = Vocabulary::new();
        for d in &docs {
            vocab.observe(d);
        }
        vocab.prune(2, 0.6);
        let corpus = Corpus::from_token_docs(&docs, &vocab);
        let lda = LdaModel::train(&corpus, config);
        Oracle { vocab, lda }
    }

    fn infer(&self, body: &PostBody) -> Vec<f64> {
        let bow = BagOfWords::encode(&tokenize_filtered(&body.text), &self.vocab);
        let seed = bow.iter().fold(0xBADC0FFEu64, |acc, (id, c)| {
            acc.wrapping_mul(31).wrapping_add(id as u64 * 7 + c as u64)
        });
        self.lda.infer(&bow, seed)
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Fits `history` from `tokens` and checks θ, φ, the vocabulary, the
/// post lookups and held-out inference against the oracle.
fn assert_matches_oracle(
    history: &[Thread],
    tokens: &HistoryTokens,
    config: &LdaConfig,
    held_out: &[PostBody],
) -> PostTopics {
    let label = format!("prefix of {} threads", history.len());
    let shared = PostTopics::fit_shared(history, tokens, config);
    let oracle = Oracle::fit(history, config);
    assert_eq!(shared.vocabulary(), &oracle.vocab, "{label}: vocabulary");
    let (m, o) = (shared.model(), &oracle.lda);
    assert_eq!(m.num_words(), o.num_words(), "{label}");
    assert_eq!(m.num_docs(), o.num_docs(), "{label}");
    for k in 0..o.num_topics() {
        assert_eq!(
            bits(m.topic_words(k)),
            bits(o.topic_words(k)),
            "{label}: φ_{k}"
        );
    }
    for d in 0..o.num_docs() {
        assert_eq!(
            bits(m.doc_topics(d)),
            bits(o.doc_topics(d)),
            "{label}: θ_{d}"
        );
    }
    let mut doc = 0;
    for t in history {
        let q = shared.question(t.id).expect("every history question");
        assert_eq!(bits(q), bits(o.doc_topics(doc)), "{label}: {:?}", t.id);
        doc += 1;
        for a in &t.answers {
            let d_a = shared.answer(t.id, a.author).expect("every answer");
            assert_eq!(bits(d_a), bits(o.doc_topics(doc)), "{label}: answer");
            doc += 1;
        }
    }
    for body in held_out {
        assert_eq!(
            bits(&shared.infer(body)),
            bits(&oracle.infer(body)),
            "{label}: infer {:?}",
            body.text
        );
    }
    // The one-call form tokenizes on its own and agrees too.
    let alone = PostTopics::fit(history, config);
    assert_eq!(alone.vocabulary(), shared.vocabulary(), "{label}");
    for d in 0..o.num_docs() {
        assert_eq!(bits(alone.model().doc_topics(d)), bits(m.doc_topics(d)));
    }
    shared
}

fn thread(id: u32, question: &str, answers: &[&str]) -> Thread {
    let post = |author: u32, at: f64, text: &str| {
        Post::new(UserId(author), at, 0, PostBody::words(text.to_string()))
    };
    let base = f64::from(id) * 10.0;
    Thread::new(
        QuestionId(id),
        post(id, base, question),
        answers
            .iter()
            .enumerate()
            .map(|(i, text)| post(100 + i as u32, base + 1.0 + i as f64, text))
            .collect(),
    )
}

/// Ten posts in the first five threads, so the vocabulary keeps words
/// in 2 ..= ⌊0.6 · 10⌋ = 6 of them.
fn edge_forum() -> Vec<Thread> {
    vec![
        thread(
            0,
            "six seven pair echo echo echo alpha",
            &["six seven alpha beta"],
        ),
        thread(1, "six seven pair", &[""]),
        thread(2, "six seven echo solo", &["the of and"]),
        thread(3, "six seven beta gamma", &["alpha gamma beta"]),
        thread(4, "six seven delta", &["seven delta beta gamma"]),
        thread(5, "late six pair", &["late novel six gamma"]),
        thread(6, "alpha late", &[]),
    ]
}

fn held_out() -> Vec<PostBody> {
    vec![
        PostBody::default(),
        PostBody::words("six pair echo echo delta"),
        PostBody::words("late novel unknown words"),
        PostBody::words("alpha beta gamma delta seven solo"),
    ]
}

#[test]
fn edge_cases_match_the_string_path_at_every_prefix() {
    let forum = edge_forum();
    let tokens = HistoryTokens::new(&forum);
    let config = LdaConfig::new(3).with_iterations(25);
    for n in 0..=forum.len() {
        let fitted = assert_matches_oracle(&forum[..n], &tokens, &config, &held_out());
        let vocab = fitted.vocabulary();
        if n == 5 {
            // Exactly ⌊0.6 · 10⌋ documents: kept; one more: pruned.
            assert!(vocab.id_of("six").is_some());
            assert!(vocab.id_of("seven").is_none());
            // Exactly 2 documents: kept; one: pruned.
            assert!(vocab.id_of("pair").is_some());
            assert!(vocab.id_of("solo").is_none());
            // Repeated within one post, so 2 documents and 4 uses.
            assert_eq!(vocab.count_of("echo"), 4);
            // First seen after the prefix.
            assert!(vocab.id_of("late").is_none());
            assert_eq!(vocab.num_docs(), 10);
        }
        if n == forum.len() {
            assert!(vocab.id_of("late").is_some());
        }
    }
}

#[test]
fn every_bucket_prefix_of_a_small_forum_matches_the_string_path() {
    let ds = SynthConfig::small().with_seed(11).generate();
    let (clean, _) = ds.preprocess();
    let threads = clean.threads();
    // The bucket starts of the evaluation protocol (30% warmup) for
    // 1 to 4 buckets, all fitted from one tokenization.
    let warmup = (threads.len() as f64 * 0.3) as usize;
    let targets = threads.len() - warmup;
    let mut starts: Vec<usize> = (1..=4)
        .flat_map(|buckets: usize| {
            let size = targets.div_ceil(buckets);
            (0..buckets).map(move |b| warmup + b * size)
        })
        .filter(|&s| s < threads.len())
        .collect();
    starts.sort_unstable();
    starts.dedup();
    let tokens = HistoryTokens::new(&threads[..*starts.last().unwrap()]);
    let config = LdaConfig::new(4).with_iterations(15);
    let held_out: Vec<PostBody> = threads[threads.len() - 5..]
        .iter()
        .map(|t| t.question.body.clone())
        .chain(held_out())
        .collect();
    for start in starts {
        assert_matches_oracle(&threads[..start], &tokens, &config, &held_out);
    }
}

#[test]
#[should_panic(expected = "not a prefix")]
fn history_outside_the_tokenized_threads_is_refused() {
    let forum = edge_forum();
    let tokens = HistoryTokens::new(&forum[..3]);
    PostTopics::fit_shared(&forum[1..4], &tokens, &LdaConfig::new(2));
}
