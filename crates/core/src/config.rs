//! Model and training hyper-parameters.
//!
//! The paper trains GRUs with hidden size 400 on GPUs over 80k+ examples;
//! this CPU-scale reproduction defaults to the same *architecture* at
//! smaller widths. Every experiment binary exposes these knobs, and the
//! "half hidden size" ablation of Table II is expressed through
//! [`ModelConfig::half_hidden`].

use nlidb_json::{FromJson, Json, JsonError, ToJson};

/// Hyper-parameters shared by the mention models and the seq2seq model.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Word-embedding width (paper: 300 via GloVe).
    pub word_dim: usize,
    /// Character-embedding width.
    pub char_dim: usize,
    /// Char-CNN convolution widths (paper: 3..=7).
    pub char_widths: Vec<usize>,
    /// Char-CNN output width per convolution width.
    pub char_out: usize,
    /// Recurrent hidden width (paper: 400 for the encoder).
    pub hidden: usize,
    /// Additive-attention projection width.
    pub attn_dim: usize,
    /// Encoder GRU layers.
    pub enc_layers: usize,
    /// Maximum mention slots representable (`c_i`/`v_i`).
    pub max_slots: usize,
    /// Maximum table headers representable (`g_k`).
    pub max_headers: usize,
    /// Maximum mention span length in tokens (§IV-C search bound).
    pub max_mention_len: usize,
    /// Word-gradient weight α in the influence score (§IV-C; paper uses 1).
    pub alpha: f32,
    /// Char-gradient weight β in the influence score (paper uses 0).
    pub beta: f32,
    /// Norm p for influence (paper evaluates with ℓ2).
    pub norm_p: f32,
    /// Beam width for decoding (paper: 5).
    pub beam_width: usize,
    /// Gradient-clipping threshold (paper: 5.0).
    pub clip: f32,
    /// Learning rate.
    pub lr: f32,
    /// Training epochs for the seq2seq model.
    pub epochs: usize,
    /// Training epochs for the mention classifiers.
    pub mention_epochs: usize,
    /// Minibatch size for the mention-classifier and seq2seq training
    /// loops. Per-example gradients within a batch are computed
    /// independently (and in parallel across the `nlidb_tensor::pool`
    /// workers when `NLIDB_THREADS > 1`), then summed in example-index
    /// order before one clipped optimizer step — so the result is
    /// bitwise-independent of the thread count. `1` reproduces the
    /// classic per-example SGD walk exactly.
    pub batch_size: usize,
    /// Master seed for parameter initialization and shuffling.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            word_dim: 24,
            char_dim: 8,
            char_widths: vec![3, 4, 5],
            char_out: 6,
            hidden: 48,
            attn_dim: 32,
            enc_layers: 1,
            max_slots: 8,
            max_headers: 10,
            max_mention_len: 5,
            alpha: 1.0,
            beta: 0.0,
            norm_p: 2.0,
            beam_width: 5,
            clip: 5.0,
            lr: 2e-3,
            epochs: 4,
            mention_epochs: 2,
            batch_size: 1,
            seed: 1234,
        }
    }
}

impl ToJson for ModelConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("word_dim", self.word_dim.to_json()),
            ("char_dim", self.char_dim.to_json()),
            ("char_widths", self.char_widths.to_json()),
            ("char_out", self.char_out.to_json()),
            ("hidden", self.hidden.to_json()),
            ("attn_dim", self.attn_dim.to_json()),
            ("enc_layers", self.enc_layers.to_json()),
            ("max_slots", self.max_slots.to_json()),
            ("max_headers", self.max_headers.to_json()),
            ("max_mention_len", self.max_mention_len.to_json()),
            ("alpha", self.alpha.to_json()),
            ("beta", self.beta.to_json()),
            ("norm_p", self.norm_p.to_json()),
            ("beam_width", self.beam_width.to_json()),
            ("clip", self.clip.to_json()),
            ("lr", self.lr.to_json()),
            ("epochs", self.epochs.to_json()),
            ("mention_epochs", self.mention_epochs.to_json()),
            ("batch_size", self.batch_size.to_json()),
            ("seed", self.seed.to_json()),
        ])
    }
}

impl FromJson for ModelConfig {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(ModelConfig {
            word_dim: j.req("word_dim")?,
            char_dim: j.req("char_dim")?,
            char_widths: j.req("char_widths")?,
            char_out: j.req("char_out")?,
            hidden: j.req("hidden")?,
            attn_dim: j.req("attn_dim")?,
            enc_layers: j.req("enc_layers")?,
            max_slots: j.req("max_slots")?,
            max_headers: j.req("max_headers")?,
            max_mention_len: j.req("max_mention_len")?,
            alpha: j.req("alpha")?,
            beta: j.req("beta")?,
            norm_p: j.req("norm_p")?,
            beam_width: j.req("beam_width")?,
            clip: j.req("clip")?,
            lr: j.req("lr")?,
            epochs: j.req("epochs")?,
            mention_epochs: j.req("mention_epochs")?,
            // Absent in checkpoints written before minibatch support.
            batch_size: j.opt("batch_size")?.unwrap_or(1),
            seed: j.req("seed")?,
        })
    }
}

impl ModelConfig {
    /// Rejects the values a model constructor or the decoder asserts on:
    /// a zero beam width or encoder depth, and char-CNN widths that are
    /// missing, zero or repeated. [`crate::Nlidb::load`] runs this before
    /// it builds a model, so a hand-edited manifest fails the load
    /// instead of panicking later. Values that change a parameter's shape
    /// fail the checkpoint's layout check.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let mut widths = self.char_widths.clone();
        widths.sort_unstable();
        widths.dedup();
        if self.beam_width == 0 {
            Err("beam_width must be at least 1".into())
        } else if self.enc_layers == 0 {
            Err("enc_layers must be at least 1".into())
        } else if widths.is_empty() || widths.first() == Some(&0) {
            Err(format!("char_widths must be non-empty and positive, got {:?}", self.char_widths))
        } else if widths.len() != self.char_widths.len() {
            Err(format!("char_widths must be distinct, got {:?}", self.char_widths))
        } else {
            Ok(())
        }
    }

    /// The Table II "− Half Hidden Size" ablation.
    pub fn half_hidden(mut self) -> Self {
        self.hidden /= 2;
        self
    }

    /// Char-CNN total output width.
    pub fn char_total(&self) -> usize {
        self.char_widths.len() * self.char_out
    }

    /// Full word-embedder width (word ⊕ char features).
    pub fn emb_dim(&self) -> usize {
        self.word_dim + self.char_total()
    }

    /// A very small configuration for unit tests.
    pub fn tiny() -> Self {
        ModelConfig {
            word_dim: 12,
            char_dim: 5,
            char_widths: vec![3],
            char_out: 4,
            hidden: 16,
            attn_dim: 12,
            enc_layers: 1,
            max_slots: 6,
            max_headers: 8,
            max_mention_len: 4,
            epochs: 2,
            mention_epochs: 1,
            ..ModelConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_dims() {
        let c = ModelConfig::default();
        assert_eq!(c.char_total(), 3 * 6);
        assert_eq!(c.emb_dim(), 24 + 18);
    }

    #[test]
    fn half_hidden_halves() {
        let c = ModelConfig::default();
        let h = c.hidden;
        assert_eq!(c.half_hidden().hidden, h / 2);
    }

    #[test]
    fn batch_size_roundtrips_and_defaults_for_old_checkpoints() {
        assert_eq!(ModelConfig::default().batch_size, 1);
        let mut c = ModelConfig::tiny();
        c.batch_size = 8;
        let restored = ModelConfig::from_json(&c.to_json()).unwrap();
        assert_eq!(restored.batch_size, 8);
        // Checkpoints written before minibatch support lack the field.
        let old = ModelConfig::default().to_json().to_string().replace("\"batch_size\":1,", "");
        let parsed = ModelConfig::from_json(&nlidb_json::Json::parse(&old).unwrap()).unwrap();
        assert_eq!(parsed.batch_size, 1);
    }

    #[test]
    fn validate_rejects_what_the_models_assert_on() {
        assert_eq!(ModelConfig::default().validate(), Ok(()));
        assert_eq!(ModelConfig::tiny().validate(), Ok(()));
        let broken: [fn(&mut ModelConfig); 5] = [
            |c| c.beam_width = 0,
            |c| c.enc_layers = 0,
            |c| c.char_widths.clear(),
            |c| c.char_widths = vec![3, 0],
            |c| c.char_widths = vec![3, 4, 3],
        ];
        for edit in broken {
            let mut c = ModelConfig::tiny();
            edit(&mut c);
            assert!(c.validate().is_err(), "{c:?}");
        }
    }

    #[test]
    fn paper_hyperparameters_recorded() {
        let c = ModelConfig::default();
        assert_eq!(c.beam_width, 5, "paper uses beam width 5");
        assert_eq!(c.clip, 5.0, "paper clips at 5.0");
        assert_eq!(c.alpha, 1.0);
        assert_eq!(c.beta, 0.0);
        assert_eq!(c.norm_p, 2.0);
    }
}
