//! Synthetic "pre-trained" word embeddings.
//!
//! The paper initializes its models from GloVe vectors and relies on one
//! property throughout: *semantically related words are close in embedding
//! space* (semantic distance for mention matching, column statistics `s_c`
//! for value detection, seq2seq input initialization). We cannot ship
//! GloVe, so [`EmbeddingSpace`] constructs vectors that have that property
//! **by design**: every concept cluster from the [`crate::lexicon::Lexicon`]
//! gets a deterministic base vector, and each surface form in the cluster
//! is the base plus small word-specific noise. Unclustered words get their
//! own base vector (far from everything), and numeric tokens share a
//! number concept with magnitude-dependent perturbation so years cluster
//! near years. Everything is a pure function of `(seed, word)`.

use std::collections::HashMap;

use nlidb_tensor::Rng;

use crate::lexicon::Lexicon;

/// Deterministic synthetic pre-trained embedding space.
#[derive(Debug, Clone)]
pub struct EmbeddingSpace {
    dim: usize,
    seed: u64,
    lexicon: Lexicon,
    /// `base_vector(fnv1a("<number-concept>"))`, shared by every number.
    number_concept: Vec<f32>,
    /// `base_vector(fnv1a("<number-direction>"))`, scaled by magnitude.
    number_direction: Vec<f32>,
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A seeded unit vector of width `dim` for `key`.
fn base_vector(seed: u64, dim: usize, key: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from_u64(seed ^ key.wrapping_mul(0x9e3779b97f4a7c15));
    let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
    for x in &mut v {
        *x /= norm;
    }
    v
}

/// The mean of `tokens`' word vectors: `add` adds each token's vector
/// into the accumulator in token order, then the sum is divided by the
/// count. Every phrase vector goes through this one summation, so a
/// memoized lookup ([`WordVectors`]) gives the same bits as a fresh one.
fn mean_vector<T>(
    dim: usize,
    tokens: impl ExactSizeIterator<Item = T>,
    mut add: impl FnMut(T, &mut [f32]),
) -> Vec<f32> {
    let mut acc = vec![0.0f32; dim];
    let n = tokens.len();
    if n == 0 {
        return acc;
    }
    for t in tokens {
        add(t, &mut acc);
    }
    let n = n as f32;
    for a in &mut acc {
        *a /= n;
    }
    acc
}

fn add_into(acc: &mut [f32], v: &[f32]) {
    for (a, b) in acc.iter_mut().zip(v) {
        *a += b;
    }
}

impl EmbeddingSpace {
    /// Creates the space. `dim` is the vector width (the paper uses 300;
    /// the reproduction defaults to something much smaller).
    pub fn new(dim: usize, seed: u64, lexicon: Lexicon) -> Self {
        assert!(dim >= 4, "embedding dim too small to carry structure");
        EmbeddingSpace {
            dim,
            seed,
            lexicon,
            number_concept: base_vector(seed, dim, fnv1a("<number-concept>")),
            number_direction: base_vector(seed, dim, fnv1a("<number-direction>")),
        }
    }

    /// With the built-in lexicon.
    pub fn with_builtin_lexicon(dim: usize, seed: u64) -> Self {
        Self::new(dim, seed, Lexicon::builtin())
    }

    /// Vector width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The seed the space was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The lexicon backing the concept clusters.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Numeric-token detection: integers, decimals, 4-digit years, ranges.
    fn parse_numeric(word: &str) -> Option<f32> {
        let core = word.split('-').next().unwrap_or(word);
        core.parse::<f32>().ok()
    }

    /// The embedding vector for a word (unit-ish norm, deterministic).
    pub fn vector(&self, word: &str) -> Vec<f32> {
        let word = word.to_lowercase();
        if let Some(mag) = Self::parse_numeric(&word) {
            // Numbers share a concept; magnitude perturbs a fixed direction
            // so nearby magnitudes are nearby vectors.
            let mut v = self.number_concept.clone();
            let scale = (mag.abs().max(1.0)).ln() / 20.0;
            for (a, b) in v.iter_mut().zip(&self.number_direction) {
                *a += scale * b;
            }
            return v;
        }
        match self.lexicon.group_of(&word) {
            Some(group) => {
                let mut v = base_vector(self.seed, self.dim, fnv1a(&format!("<group-{group}>")));
                let noise = base_vector(self.seed, self.dim, fnv1a(&word) ^ 0xabcd);
                for (a, b) in v.iter_mut().zip(&noise) {
                    *a += 0.18 * b;
                }
                v
            }
            None => base_vector(self.seed, self.dim, fnv1a(&word)),
        }
    }

    /// Mean vector of a token span (the paper's `s_{q[i,j]}` and cell
    /// statistics both average word embeddings).
    pub fn phrase_vector(&self, tokens: &[String]) -> Vec<f32> {
        mean_vector(self.dim, tokens.iter(), |t, acc| add_into(acc, &self.vector(t)))
    }

    /// Cosine similarity between two vectors.
    pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        dot / (na * nb)
    }

    /// Cosine similarity between two words.
    pub fn word_similarity(&self, a: &str, b: &str) -> f32 {
        Self::cosine(&self.vector(a), &self.vector(b))
    }

    /// Euclidean (semantic) distance between two words — the footnote-1
    /// "semantic distance" of the paper.
    pub fn word_distance(&self, a: &str, b: &str) -> f32 {
        self.vector(a)
            .iter()
            .zip(self.vector(b))
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt()
    }

    /// Builds a full table (row per vocab id) for model initialization.
    /// Special tokens (ids below `first_word_id`) get zero rows.
    pub fn table_for(&self, words: &[String], first_word_id: usize) -> Vec<Vec<f32>> {
        words
            .iter()
            .enumerate()
            .map(|(i, w)| {
                if i < first_word_id {
                    vec![0.0; self.dim]
                } else {
                    self.vector(w)
                }
            })
            .collect()
    }
}

/// [`EmbeddingSpace::vector`] memoized per distinct word, for work that
/// embeds many phrases sharing words (a table's cells). Its phrase
/// vectors are bit-identical to [`EmbeddingSpace::phrase_vector`]'s.
pub struct WordVectors<'s> {
    space: &'s EmbeddingSpace,
    vectors: HashMap<String, Vec<f32>>,
}

impl<'s> WordVectors<'s> {
    /// An empty memo over `space`.
    pub fn new(space: &'s EmbeddingSpace) -> Self {
        WordVectors { space, vectors: HashMap::new() }
    }

    /// [`EmbeddingSpace::phrase_vector`] of `tokens`, computing each
    /// word's vector only the first time this memo sees the word. Takes
    /// the tokens by value so a new word's string moves into the memo.
    pub fn phrase_vector(&mut self, tokens: Vec<String>) -> Vec<f32> {
        let (space, vectors) = (self.space, &mut self.vectors);
        mean_vector(space.dim, tokens.into_iter(), |t, acc| {
            add_into(acc, vectors.entry(t).or_insert_with_key(|w| space.vector(w)));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> EmbeddingSpace {
        EmbeddingSpace::with_builtin_lexicon(24, 99)
    }

    #[test]
    fn deterministic_across_instances() {
        let a = space().vector("film");
        let b = space().vector("film");
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_changes_vectors() {
        let a = EmbeddingSpace::with_builtin_lexicon(24, 1).vector("film");
        let b = EmbeddingSpace::with_builtin_lexicon(24, 2).vector("film");
        assert_ne!(a, b);
    }

    #[test]
    fn synonyms_are_closer_than_unrelated_words() {
        let s = space();
        assert!(s.word_similarity("actor", "actress") > 0.8);
        assert!(s.word_similarity("population", "people") > 0.8);
        assert!(s.word_similarity("actor", "population") < 0.5);
        assert!(s.word_distance("actor", "actress") < s.word_distance("actor", "venue"));
    }

    #[test]
    fn cluster_members_are_distinct() {
        let s = space();
        // Same concept but not identical vectors (surface-form noise).
        assert_ne!(s.vector("actor"), s.vector("actress"));
    }

    #[test]
    fn numbers_cluster_and_order_by_magnitude() {
        let s = space();
        let near = s.word_similarity("2006", "2007");
        let far = s.word_similarity("2006", "3");
        assert!(near > far, "nearby years should be more similar: {near} vs {far}");
        assert!(s.word_similarity("1225", "356") > s.word_similarity("1225", "venue"));
    }

    #[test]
    fn year_ranges_parse_as_numeric() {
        let s = space();
        assert!(s.word_similarity("2006-07", "2006") > 0.95);
    }

    #[test]
    fn oov_words_are_far_from_everything() {
        let s = space();
        let sim = s.word_similarity("qzxjv", "film");
        assert!(sim.abs() < 0.5, "random OOV too similar: {sim}");
    }

    #[test]
    fn phrase_vector_is_mean() {
        let s = space();
        let t: Vec<String> = ["film", "director"].iter().map(|x| x.to_string()).collect();
        let p = s.phrase_vector(&t);
        let f = s.vector("film");
        let d = s.vector("director");
        for i in 0..s.dim() {
            assert!((p[i] - (f[i] + d[i]) / 2.0).abs() < 1e-6);
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn numeric_vectors_equal_the_from_scratch_base_vectors() {
        // The number concept and direction are built once, at
        // construction; every numeric word must still get the bits of
        // computing both from the seed on the spot.
        for s in [space(), EmbeddingSpace::with_builtin_lexicon(7, 12345)] {
            for word in ["0", "3", "17.25", "2006", "2006-07", "1e3", "99999999999"] {
                let mag = EmbeddingSpace::parse_numeric(word).expect("numeric");
                let mut want = base_vector(s.seed, s.dim, fnv1a("<number-concept>"));
                let dir = base_vector(s.seed, s.dim, fnv1a("<number-direction>"));
                let scale = (mag.abs().max(1.0)).ln() / 20.0;
                for (a, b) in want.iter_mut().zip(&dir) {
                    *a += scale * b;
                }
                assert_eq!(bits(&s.vector(word)), bits(&want), "{word}");
            }
        }
    }

    #[test]
    fn memoized_phrase_vectors_are_bit_identical() {
        let s = space();
        let mut memo = WordVectors::new(&s);
        let phrases = ["film director", "2006 film", "film", "", "qzxjv 2006 film director", "2006"];
        // Twice over, so the second pass reads every word from the memo.
        for text in phrases.iter().chain(&phrases) {
            let tokens = crate::tokenize(text);
            let want = bits(&s.phrase_vector(&tokens));
            assert_eq!(bits(&memo.phrase_vector(tokens)), want, "{text}");
        }
    }

    #[test]
    fn empty_phrase_is_zero() {
        let s = space();
        assert!(s.phrase_vector(&[]).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn table_zeroes_specials() {
        let s = space();
        let words: Vec<String> =
            ["<pad>", "<unk>", "film"].iter().map(|x| x.to_string()).collect();
        let table = s.table_for(&words, 2);
        assert!(table[0].iter().all(|&x| x == 0.0));
        assert!(table[1].iter().all(|&x| x == 0.0));
        assert!(table[2].iter().any(|&x| x != 0.0));
    }

    #[test]
    fn cosine_bounds() {
        let s = space();
        for (a, b) in [("a", "b"), ("film", "movie"), ("x", "x")] {
            let c = s.word_similarity(a, b);
            assert!((-1.01..=1.01).contains(&c));
        }
        assert!((space().word_similarity("film", "film") - 1.0).abs() < 1e-5);
    }
}
