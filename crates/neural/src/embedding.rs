//! Embedding tables and the character-level CNN word embedder of §IV-B(i).

use nlidb_tensor::{Graph, NodeId, ParamId, ParamStore, Tensor};
use nlidb_tensor::Rng;

/// A trainable embedding table; row `i` is the vector for id `i`.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Creates a randomly initialized table of `vocab` rows.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        vocab: usize,
        dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let table = store.add(format!("{prefix}.table"), Tensor::xavier(vocab, dim, rng));
        Embedding { table, vocab, dim }
    }

    /// Creates a table initialized from pre-trained rows (the paper
    /// initializes with GloVe; the reproduction passes its synthetic
    /// pre-trained space here).
    pub fn from_pretrained(store: &mut ParamStore, prefix: &str, table: Tensor) -> Self {
        let (vocab, dim) = table.shape();
        let table = store.add(format!("{prefix}.table"), table);
        Embedding { table, vocab, dim }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying parameter id (for weight tying).
    pub fn param(&self) -> ParamId {
        self.table
    }

    /// Looks up a sequence of ids, producing `[ids.len(), dim]`.
    ///
    /// The returned node is differentiable both into the table (training)
    /// and *at* the node itself, which is what the adversarial text method
    /// reads as `dL/dE_word(w)`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, ids: &[usize]) -> NodeId {
        for &id in ids {
            assert!(id < self.vocab, "embedding id {id} out of vocab {}", self.vocab);
        }
        let table = g.param(store, self.table);
        g.gather_rows(table, ids.to_vec())
    }
}

/// Character-level convolutional word embedder (§IV-B(i), Figure 4).
///
/// For a word as a character sequence, each configured convolution width
/// `k` embeds the characters, pads with zero rows so at least one slice
/// exists, flattens sliding windows (`unfold`), applies a shared linear
/// projection per width, and averages the resulting window features. The
/// per-width outputs are concatenated into `E_char(w)`. The character
/// embedding table is shared across widths, exactly as the paper specifies.
#[derive(Debug, Clone)]
pub struct CharCnn {
    char_table: ParamId,
    projections: Vec<(usize, ParamId)>,
    char_dim: usize,
    out_per_width: usize,
    n_chars: usize,
}

impl CharCnn {
    /// Creates the embedder.
    ///
    /// * `n_chars` — size of the character alphabet.
    /// * `char_dim` — character embedding width.
    /// * `widths` — convolution widths (the paper uses `{3, 4, 5, 6, 7}`).
    /// * `out_per_width` — feature width produced by each convolution.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        n_chars: usize,
        char_dim: usize,
        widths: &[usize],
        out_per_width: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(!widths.is_empty(), "char cnn needs at least one width");
        let char_table =
            store.add(format!("{prefix}.chars"), Tensor::xavier(n_chars, char_dim, rng));
        let projections = widths
            .iter()
            .map(|&k| {
                let w = store.add(
                    format!("{prefix}.conv{k}"),
                    Tensor::xavier(k * char_dim, out_per_width, rng),
                );
                (k, w)
            })
            .collect();
        CharCnn { char_table, projections, char_dim, out_per_width, n_chars }
    }

    /// Total output width: `widths.len() * out_per_width`.
    pub fn out_dim(&self) -> usize {
        self.projections.len() * self.out_per_width
    }

    /// Number of characters in the alphabet.
    pub fn n_chars(&self) -> usize {
        self.n_chars
    }

    /// Embeds one word given its character ids, producing `[1, out_dim]`.
    pub fn forward_word(&self, g: &mut Graph, store: &ParamStore, char_ids: &[usize]) -> NodeId {
        let table = g.param(store, self.char_table);
        // Zero-pad so every configured width has at least one slice.
        let max_k = self.projections.iter().map(|&(k, _)| k).fold(0, usize::max);
        let chars = if char_ids.is_empty() {
            g.leaf(Tensor::zeros(max_k, self.char_dim))
        } else {
            let gathered = g.gather_rows(table, char_ids.to_vec());
            if char_ids.len() < max_k {
                let pad = g.leaf(Tensor::zeros(max_k - char_ids.len(), self.char_dim));
                g.vcat(gathered, pad)
            } else {
                gathered
            }
        };
        let pooled = |g: &mut Graph, &(k, proj): &(usize, ParamId)| {
            let windows = g.unfold(chars, k);
            let w = g.param(store, proj);
            let feats = g.matmul(windows, w);
            g.mean_rows(feats)
        };
        // `new` asserts at least one width.
        let mut parts = pooled(g, &self.projections[0]);
        for width in &self.projections[1..] {
            let next = pooled(g, width);
            parts = g.hcat(parts, next);
        }
        parts
    }

    /// Embeds a sequence of words (each as char ids) into `[n, out_dim]`.
    pub fn forward_words(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        words: &[Vec<usize>],
    ) -> NodeId {
        assert!(!words.is_empty(), "char cnn needs at least one word");
        let mut rows = self.forward_word(g, store, &words[0]);
        for w in &words[1..] {
            let row = self.forward_word(g, store, w);
            rows = g.vcat(rows, row);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(7)
    }

    #[test]
    fn embedding_lookup_shapes_and_rows() {
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut rng());
        let mut g = Graph::new();
        let out = emb.forward(&mut g, &store, &[3, 3, 7]);
        assert_eq!(g.value(out).shape(), (3, 4));
        // Duplicate ids produce identical rows.
        assert_eq!(g.value(out).row(0), g.value(out).row(1));
        assert_ne!(g.value(out).row(0), g.value(out).row(2));
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn embedding_oov_panics() {
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 4, 2, &mut rng());
        let mut g = Graph::new();
        emb.forward(&mut g, &store, &[4]);
    }

    #[test]
    fn pretrained_rows_are_preserved() {
        let mut store = ParamStore::new();
        let table = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let emb = Embedding::from_pretrained(&mut store, "e", table);
        let mut g = Graph::new();
        let out = emb.forward(&mut g, &store, &[1]);
        assert_eq!(g.value(out).data(), &[3.0, 4.0]);
        assert_eq!(emb.dim(), 2);
    }

    #[test]
    fn charcnn_output_shape() {
        let mut store = ParamStore::new();
        let cnn = CharCnn::new(&mut store, "c", 30, 5, &[3, 4, 5], 6, &mut rng());
        assert_eq!(cnn.out_dim(), 18);
        let mut g = Graph::new();
        let out = cnn.forward_word(&mut g, &store, &[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(g.value(out).shape(), (1, 18));
    }

    #[test]
    fn charcnn_short_word_is_padded() {
        let mut store = ParamStore::new();
        let cnn = CharCnn::new(&mut store, "c", 30, 5, &[3, 7], 4, &mut rng());
        let mut g = Graph::new();
        // Word shorter than the widest convolution still works.
        let out = cnn.forward_word(&mut g, &store, &[2, 9]);
        assert_eq!(g.value(out).shape(), (1, 8));
        assert!(g.value(out).all_finite());
    }

    #[test]
    fn charcnn_empty_word_yields_finite_output() {
        let mut store = ParamStore::new();
        let cnn = CharCnn::new(&mut store, "c", 30, 5, &[3], 4, &mut rng());
        let mut g = Graph::new();
        let out = cnn.forward_word(&mut g, &store, &[]);
        assert_eq!(g.value(out).shape(), (1, 4));
        assert!(g.value(out).all_finite());
    }

    #[test]
    fn charcnn_sequence_stacks_words() {
        let mut store = ParamStore::new();
        let cnn = CharCnn::new(&mut store, "c", 30, 4, &[3, 4], 5, &mut rng());
        let mut g = Graph::new();
        let out =
            cnn.forward_words(&mut g, &store, &[vec![1, 2, 3], vec![4, 5, 6, 7], vec![8]]);
        assert_eq!(g.value(out).shape(), (3, 10));
    }

    #[test]
    fn charcnn_is_differentiable_to_char_table() {
        let mut store = ParamStore::new();
        let cnn = CharCnn::new(&mut store, "c", 10, 3, &[3], 2, &mut rng());
        let mut g = Graph::new();
        let out = cnn.forward_word(&mut g, &store, &[1, 2, 3, 4]);
        let loss = g.sum_all(out);
        g.backward(loss);
        let grads = g.param_grads();
        // Both the char table and the projection should receive gradients.
        assert_eq!(grads.len(), 2);
        assert!(grads.iter().all(|(_, t)| t.norm() > 0.0));
    }

    #[test]
    fn similar_words_have_similar_char_embeddings() {
        // Words sharing most characters should be closer in E_char space
        // than unrelated words — the lexical-similarity property §IV-B
        // relies on for non-exact matching.
        let mut store = ParamStore::new();
        let cnn = CharCnn::new(&mut store, "c", 30, 6, &[3, 4], 8, &mut rng());
        let mut g = Graph::new();
        let a = cnn.forward_word(&mut g, &store, &[1, 2, 3, 4, 5, 6]);
        let b = cnn.forward_word(&mut g, &store, &[1, 2, 3, 4, 5, 7]); // one char differs
        let c = cnn.forward_word(&mut g, &store, &[20, 21, 22, 23, 24, 25]);
        let dist = |x: &Tensor, y: &Tensor| {
            x.data().iter().zip(y.data()).map(|(&p, &q)| (p - q) * (p - q)).sum::<f32>()
        };
        let dab = dist(g.value(a), g.value(b));
        let dac = dist(g.value(a), g.value(c));
        assert!(dab < dac, "near-identical words not closer: {dab} vs {dac}");
    }
}
