//! Checkpointing: save and restore a trained [`crate::Nlidb`].
//!
//! Layout (one directory per checkpoint):
//!
//! ```text
//! manifest.json            options + embedding-space spec
//! lexicon.json             §II metadata lexicon
//! vocab.json               input vocabulary
//! classifier.params.json   §IV-B classifier weights
//! value.params.json        §IV-D value-detector weights
//! translator.params.json   §V-B seq2seq (or transformer) weights
//! ```
//!
//! Restoration rebuilds each model with the saved configuration (parameter
//! registration is deterministic, so names and shapes line up) and then
//! swaps in the stored weights, verifying the layout first.

use std::path::Path;

use nlidb_json::{FromJson, Json, JsonError, ToJson};
use nlidb_tensor::ParamStore;
use nlidb_text::{EmbeddingSpace, Lexicon, Vocab};

use crate::mention::MentionDetector;
use crate::pipeline::{Nlidb, NlidbOptions, Translator};
use crate::seq2seq::Seq2Seq;
use crate::transformer::TransformerSeq2Seq;
use crate::vocab::OutVocab;

/// Checkpoint errors.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(JsonError),
    /// Stored weights do not match the reconstructed model's layout.
    LayoutMismatch(String),
    /// The manifest's model configuration cannot build or run a model
    /// (a zero beam width or encoder depth, or unusable char-CNN widths).
    InvalidConfig(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Json(e) => write!(f, "checkpoint json error: {e}"),
            CheckpointError::LayoutMismatch(m) => write!(f, "checkpoint layout mismatch: {m}"),
            CheckpointError::InvalidConfig(m) => write!(f, "checkpoint model config invalid: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        CheckpointError::Json(e)
    }
}

struct Manifest {
    options: NlidbOptions,
    space_dim: usize,
    space_seed: u64,
    format_version: u32,
}

impl ToJson for Manifest {
    fn to_json(&self) -> Json {
        Json::obj([
            ("options", self.options.to_json()),
            ("space_dim", self.space_dim.to_json()),
            ("space_seed", self.space_seed.to_json()),
            ("format_version", self.format_version.to_json()),
        ])
    }
}

impl FromJson for Manifest {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Manifest {
            options: j.req("options")?,
            space_dim: j.req("space_dim")?,
            space_seed: j.req("space_seed")?,
            format_version: j.req("format_version")?,
        })
    }
}

/// Replaces `target`'s values with `loaded`'s after verifying that both
/// stores register the same parameters in the same order.
fn replace_params(target: &mut ParamStore, loaded: ParamStore) -> Result<(), CheckpointError> {
    if target.len() != loaded.len() {
        return Err(CheckpointError::LayoutMismatch(format!(
            "parameter count {} != {}",
            target.len(),
            loaded.len()
        )));
    }
    for ((id, name, value), (_, lname, lvalue)) in target.iter().zip(loaded.iter()) {
        if name != lname {
            return Err(CheckpointError::LayoutMismatch(format!("{name} != {lname}")));
        }
        if value.shape() != lvalue.shape() {
            return Err(CheckpointError::LayoutMismatch(format!(
                "{name}: shape {:?} != {:?}",
                value.shape(),
                lvalue.shape()
            )));
        }
        let _ = id;
    }
    // Layout verified: copy values across.
    let ids: Vec<_> = loaded.iter().map(|(i, _, v)| (i, v.clone())).collect();
    for (id, v) in ids {
        *target.get_mut(id) = v;
    }
    Ok(())
}

fn write_json<T: ToJson>(dir: &Path, name: &str, value: &T) -> Result<(), CheckpointError> {
    std::fs::write(dir.join(name), value.to_json().to_string())?;
    Ok(())
}

fn read_string(dir: &Path, name: &str) -> Result<String, CheckpointError> {
    Ok(std::fs::read_to_string(dir.join(name))?)
}

impl Nlidb {
    /// Saves the trained system into a directory (created if absent).
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let space = self.detector.space();
        let manifest = Manifest {
            options: self.options().clone(),
            space_dim: space.dim(),
            space_seed: space.seed(),
            format_version: 1,
        };
        write_json(dir, "manifest.json", &manifest)?;
        write_json(dir, "lexicon.json", self.detector.lexicon())?;
        write_json(dir, "vocab.json", self.in_vocab())?;
        std::fs::write(
            dir.join("classifier.params.json"),
            self.detector.classifier.store.to_json_string(),
        )?;
        std::fs::write(
            dir.join("value.params.json"),
            self.detector.value_detector.store.to_json_string(),
        )?;
        let translator_json = match self.translator() {
            Translator::Gru(m) => m.store.to_json_string(),
            Translator::Transformer(m) => m.store.to_json_string(),
        };
        std::fs::write(dir.join("translator.params.json"), translator_json)?;
        Ok(())
    }

    /// Restores a system saved with [`Nlidb::save`].
    pub fn load(dir: impl AsRef<Path>) -> Result<Nlidb, CheckpointError> {
        let dir = dir.as_ref();
        let manifest = Manifest::from_json(&Json::parse(&read_string(dir, "manifest.json")?)?)?;
        let lexicon = Lexicon::from_json(&Json::parse(&read_string(dir, "lexicon.json")?)?)?;
        let vocab = Vocab::from_json(&Json::parse(&read_string(dir, "vocab.json")?)?)?;
        let space = EmbeddingSpace::new(manifest.space_dim, manifest.space_seed, lexicon.clone());
        let opts = manifest.options;
        let cfg = &opts.model;
        cfg.validate().map_err(CheckpointError::InvalidConfig)?;

        let mut detector = MentionDetector::untrained(cfg, vocab.clone(), &space, lexicon);
        let clf_store = ParamStore::from_json_str(&read_string(dir, "classifier.params.json")?)?;
        replace_params(&mut detector.classifier.store, clf_store)?;
        let val_store = ParamStore::from_json_str(&read_string(dir, "value.params.json")?)?;
        replace_params(&mut detector.value_detector.store, val_store)?;

        let out_vocab = OutVocab::new(cfg);
        let translator_store =
            ParamStore::from_json_str(&read_string(dir, "translator.params.json")?)?;
        let translator = if opts.use_transformer {
            let mut m = TransformerSeq2Seq::new(cfg, &vocab, out_vocab.clone(), &space);
            replace_params(&mut m.store, translator_store)?;
            Translator::Transformer(m)
        } else {
            let mut m = Seq2Seq::new(cfg, &vocab, out_vocab.clone(), &space, opts.copy);
            replace_params(&mut m.store, translator_store)?;
            Translator::Gru(m)
        };
        Ok(Nlidb::from_parts(detector, translator, vocab, out_vocab, opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use nlidb_data::wikisql::{generate, WikiSqlConfig};

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let mut gen_cfg = WikiSqlConfig::tiny(2024);
        gen_cfg.train_tables = 6;
        gen_cfg.questions_per_table = 6;
        let ds = generate(&gen_cfg);
        let opts = NlidbOptions { model: ModelConfig::tiny(), ..NlidbOptions::default() };
        let nlidb = Nlidb::train(&ds, opts);

        let dir = std::env::temp_dir().join(format!("nlidb-ckpt-{}", std::process::id()));
        nlidb.save(&dir).expect("save");
        let restored = Nlidb::load(&dir).expect("load");
        let _ = std::fs::remove_dir_all(&dir);

        for e in ds.dev.iter().take(8) {
            let a = nlidb.predict(&e.question, &e.table);
            let b = restored.predict(&e.question, &e.table);
            assert_eq!(a, b, "prediction drift after reload for {:?}", e.question_text());
        }
    }

    /// The kernel knob is a performance choice, not a semantic one: a
    /// trained model checkpointed under the scalar `Reference` kernel must
    /// reload and predict byte-identically under the blocked/fused `Auto`
    /// kernels (and vice versa), at any thread count. This is the
    /// end-to-end pin for the reduction-order invariant (DESIGN.md
    /// "Kernel fast paths").
    #[test]
    fn kernel_swap_roundtrip_preserves_predictions() {
        use nlidb_tensor::{pool, set_matmul_kernel, MatmulKernel};

        let mut gen_cfg = WikiSqlConfig::tiny(77);
        gen_cfg.train_tables = 5;
        gen_cfg.questions_per_table = 5;
        let ds = generate(&gen_cfg);
        let opts = NlidbOptions { model: ModelConfig::tiny(), ..NlidbOptions::default() };

        // Train and predict entirely on the scalar reference kernel.
        set_matmul_kernel(MatmulKernel::Reference);
        let nlidb = Nlidb::train(&ds, opts);
        let reference: Vec<_> =
            ds.dev.iter().take(8).map(|e| nlidb.predict(&e.question, &e.table)).collect();

        let dir = std::env::temp_dir().join(format!("nlidb-kswap-{}", std::process::id()));
        nlidb.save(&dir).expect("save");
        let restored = Nlidb::load(&dir).expect("load");
        let _ = std::fs::remove_dir_all(&dir);

        // Reload and predict on the blocked/fused fast path, serial and
        // with the pool fanned out: every prediction must be identical.
        set_matmul_kernel(MatmulKernel::Auto);
        for threads in [1, pool::default_threads().max(2)] {
            pool::set_threads(threads);
            for (e, want) in ds.dev.iter().take(8).zip(&reference) {
                let got = restored.predict(&e.question, &e.table);
                assert_eq!(
                    &got,
                    want,
                    "prediction drift after kernel swap ({threads} threads) for {:?}",
                    e.question_text()
                );
            }
        }
        pool::set_threads(pool::default_threads());
    }

    #[test]
    fn load_from_missing_directory_errors() {
        match Nlidb::load("/nonexistent/nlidb-checkpoint") {
            Err(CheckpointError::Io(_)) => {}
            Err(other) => panic!("expected Io error, got {other}"),
            Ok(_) => panic!("load from missing directory succeeded"),
        }
    }

    #[test]
    fn a_manifest_whose_config_cannot_serve_fails_to_load() {
        // An untrained system is enough: loading never reads the weights'
        // values before it has checked the manifest.
        let ds = generate(&WikiSqlConfig::tiny(2025));
        let opts = NlidbOptions { model: ModelConfig::tiny(), ..NlidbOptions::default() };
        let vocab = crate::vocab::build_input_vocab(&ds, &opts.model);
        let space = EmbeddingSpace::with_builtin_lexicon(opts.model.word_dim, 3);
        let detector =
            MentionDetector::untrained(&opts.model, vocab.clone(), &space, Lexicon::builtin());
        let out_vocab = OutVocab::new(&opts.model);
        let translator = Translator::Gru(Seq2Seq::new(
            &opts.model,
            &vocab,
            out_vocab.clone(),
            &space,
            opts.copy,
        ));
        let nlidb = Nlidb::from_parts(detector, translator, vocab, out_vocab, opts);
        let dir = std::env::temp_dir().join(format!("nlidb-ckpt-cfg-{}", std::process::id()));
        nlidb.save(&dir).expect("save");
        Nlidb::load(&dir).expect("the unedited checkpoint loads");
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
        for (from, to) in [
            ("\"beam_width\":5", "\"beam_width\":0"),
            ("\"char_widths\":[3]", "\"char_widths\":[]"),
        ] {
            assert!(manifest.contains(from), "{manifest}");
            std::fs::write(dir.join("manifest.json"), manifest.replace(from, to)).expect("edit");
            match Nlidb::load(&dir) {
                Err(CheckpointError::InvalidConfig(_)) => {}
                Err(other) => panic!("{to}: expected InvalidConfig, got {other}"),
                Ok(_) => panic!("{to}: a checkpoint that cannot serve loaded"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn layout_mismatch_is_detected() {
        let mut a = ParamStore::new();
        a.add("x", nlidb_tensor::Tensor::zeros(1, 2));
        let mut b = ParamStore::new();
        b.add("y", nlidb_tensor::Tensor::zeros(1, 2));
        let err = replace_params(&mut a, b).unwrap_err();
        assert!(matches!(err, CheckpointError::LayoutMismatch(_)));
        let mut c = ParamStore::new();
        c.add("x", nlidb_tensor::Tensor::zeros(2, 2));
        let err = replace_params(&mut a, c).unwrap_err();
        assert!(matches!(err, CheckpointError::LayoutMismatch(_)));
    }
}
