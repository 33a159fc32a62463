//! Property tests for the neural layers: shape contracts, determinism,
//! and gradient flow hold for arbitrary (small) dimensions and inputs.
//!
//! Cases are drawn from the workspace PRNG with a fixed per-test seed, so
//! every failure reproduces from the case index alone.

use nlidb_neural::{
    Activation, BahdanauAttention, CharCnn, Embedding, GruCell, Linear, LstmCell, Mlp, Rnn,
};
use nlidb_tensor::{Graph, ParamStore, Rng, Tensor};

const CASES: u64 = 24;

fn case_rng(test_seed: u64, case: u64) -> Rng {
    Rng::seed_from_u64(test_seed.wrapping_mul(0x100000001b3) ^ case)
}

#[test]
fn linear_shape_contract() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let n = rng.gen_range(1usize..5);
        let d_in = rng.gen_range(1usize..6);
        let d_out = rng.gen_range(1usize..6);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", d_in, d_out, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::uniform(n, d_in, 1.0, &mut rng));
        let y = lin.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (n, d_out), "case {case}");
        assert!(g.value(y).all_finite(), "case {case}");
    }
}

#[test]
fn lstm_and_gru_shapes() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let n = rng.gen_range(1usize..6);
        let d_in = rng.gen_range(1usize..5);
        let hidden = rng.gen_range(1usize..5);
        let mut store = ParamStore::new();
        let lstm = Rnn::<LstmCell>::new(&mut store, "lstm", d_in, hidden, 1, true, &mut rng);
        let enc = Rnn::<GruCell>::new(&mut store, "gru", d_in, hidden, 1, true, &mut rng);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::uniform(n, d_in, 1.0, &mut rng));
        let h1 = lstm.forward(&mut g, &store, x);
        assert_eq!(g.value(h1).shape(), (n, 2 * hidden), "case {case}");
        let h2 = enc.forward(&mut g, &store, x);
        assert_eq!(g.value(h2).shape(), (n, 2 * hidden), "case {case}");
        assert!(g.value(h1).all_finite() && g.value(h2).all_finite(), "case {case}");
    }
}

#[test]
fn charcnn_handles_any_word_length() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let word_len = rng.gen_range(0usize..15);
        let mut store = ParamStore::new();
        let cnn = CharCnn::new(&mut store, "c", 30, 4, &[3, 5], 6, &mut rng);
        let chars: Vec<usize> = (0..word_len).map(|i| i % 30).collect();
        let mut g = Graph::new();
        let out = cnn.forward_word(&mut g, &store, &chars);
        assert_eq!(g.value(out).shape(), (1, 12), "case {case}");
        assert!(g.value(out).all_finite(), "case {case}");
    }
}

#[test]
fn attention_weights_always_normalize() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let n = rng.gen_range(1usize..8);
        let mut store = ParamStore::new();
        let attn = BahdanauAttention::new(&mut store, "a", 4, 3, 5, &mut rng);
        let mut g = Graph::new();
        let mem = g.leaf(Tensor::uniform(n, 4, 2.0, &mut rng));
        let query = g.leaf(Tensor::uniform(1, 3, 2.0, &mut rng));
        let out = attn.forward(&mut g, &store, mem, query);
        let sum: f32 = g.value(out.weights).row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "case {case}");
    }
}

#[test]
fn forward_is_deterministic_given_params() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let n = rng.gen_range(1usize..5);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[3, 5, 2], Activation::Relu, &mut rng);
        let x = Tensor::uniform(n, 3, 1.0, &mut rng);
        let run = |store: &ParamStore| {
            let mut g = Graph::new();
            let xn = g.leaf(x.clone());
            let y = mlp.forward(&mut g, store, xn);
            g.value(y).clone()
        };
        assert_eq!(run(&store), run(&store), "case {case}");
    }
}

#[test]
fn embedding_rows_are_consistent() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let vocab = rng.gen_range(2usize..10);
        let dim = rng.gen_range(1usize..6);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", vocab, dim, &mut rng);
        let mut g = Graph::new();
        let ids: Vec<usize> = (0..vocab).chain(0..vocab).collect();
        let out = emb.forward(&mut g, &store, &ids);
        // Same id twice -> identical rows.
        for i in 0..vocab {
            assert_eq!(g.value(out).row(i), g.value(out).row(i + vocab), "case {case}");
        }
    }
}
