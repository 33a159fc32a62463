//! The one training loop, `fit`, and the example-level data parallelism
//! under it.
//!
//! Every trained model in this crate (the §IV-B mention classifier, the
//! §IV-D value detector, the §V-B seq2seq, the transformer ablation and
//! the SQLNet/TypeSQL/Seq2SQL baselines) implements the crate-internal
//! `Fit` trait: it builds one item's loss from `&self` and names its
//! optimizer settings in a `FitSpec`. `fit` owns the rest: the epoch
//! loop, Adam, global-norm clipping, loss averaging and the
//! `train.<model>.{epoch_ms,examples_per_sec,loss}` trace series. Its
//! only variable is the `EpochOrder`; a `Corpus` pairs each order with
//! the item-deriving RNG scheme that belongs to it (DESIGN.md §5 "One
//! training loop").
//!
//! Within a minibatch, `fit` builds an independent [`Graph`] per item
//! and fans the forward/backward passes out across the
//! `nlidb_tensor::pool` workers with *fixed sharding* (item `i` of the
//! batch is always task `i`), then performs an **ordered, index-ranked
//! reduction**: gradients are merged strictly in ascending item index on
//! the calling thread, and each parameter's slot in the merged list is
//! the batch position where it first appeared. Floating-point addition
//! order is therefore a function of the batch alone — never of the
//! thread count or scheduling — which makes training results (and the
//! experiment/checkpoint records derived from them) byte-identical
//! between `NLIDB_THREADS=1` and any parallel run with the same seed.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::convert::Infallible;
use std::time::Instant;

use nlidb_data::stream::{ExampleSource, StreamError};
use nlidb_data::Example;
use nlidb_tensor::optim::{clip_global_norm, Adam};
use nlidb_tensor::rng::derive_stream;
use nlidb_tensor::{pool, Graph, NodeId, ParamId, ParamStore, Rng, Tensor};

use crate::config::ModelConfig;

/// A model [`fit`] can train.
pub(crate) trait Fit: Sync {
    /// One training item.
    type Item: Sync;
    /// The model's optimizer and epoch-order settings.
    fn fit_spec(&self) -> FitSpec;
    /// The parameters the optimizer updates.
    fn fit_store(&mut self) -> &mut ParamStore;
    /// Builds `item`'s scalar loss on `g`, or `None` for an item the
    /// model skips: it adds nothing to the epoch loss, and a batch of
    /// skipped items takes no optimizer step.
    fn item_loss(&self, g: &mut Graph, item: &Self::Item) -> Option<NodeId>;
}

/// What [`fit`] needs to know about a model besides its loss.
pub(crate) struct FitSpec {
    /// Adam learning rate.
    pub lr: f32,
    /// Global-norm clipping threshold.
    pub clip: f32,
    /// The model seed XOR a per-model salt: seeds the
    /// [`EpochOrder::Reshuffle`] RNG, or keys the [`sharded_epoch`] order.
    pub order_seed: u64,
    /// Items per optimizer step.
    pub batch_size: usize,
    /// The `train.<model>.{epoch_ms, examples_per_sec, loss}` trace
    /// series, built by the crate's `train_series!` macro.
    pub series: [&'static str; 3],
}

impl FitSpec {
    /// One optimizer step per item, with `cfg`'s learning rate and clip
    /// and the epoch order keyed by `cfg.seed ^ salt`.
    pub(crate) fn per_example(cfg: &ModelConfig, salt: u64, series: [&'static str; 3]) -> Self {
        FitSpec { lr: cfg.lr, clip: cfg.clip, order_seed: cfg.seed ^ salt, batch_size: 1, series }
    }

    /// [`Self::per_example`] with `cfg.batch_size` items per step.
    pub(crate) fn minibatched(cfg: &ModelConfig, salt: u64, series: [&'static str; 3]) -> Self {
        FitSpec { batch_size: cfg.batch_size, ..Self::per_example(cfg, salt, series) }
    }
}

/// The `train.<model>.*` trace series names for [`FitSpec::series`]
/// (`nlidb_trace::series` takes `&'static str` names).
macro_rules! train_series {
    ($model:literal) => {
        [
            concat!("train.", $model, ".epoch_ms"),
            concat!("train.", $model, ".examples_per_sec"),
            concat!("train.", $model, ".loss"),
        ]
    };
}
pub(crate) use train_series;

/// The order one epoch visits the training items in: the only thing
/// that differs between in-memory and out-of-core training.
pub(crate) enum EpochOrder<'a, T, E> {
    /// The historic in-memory walk over a materialized slice: one RNG
    /// seeded with [`FitSpec::order_seed`] Fisher–Yates-reshuffles a
    /// single permutation at the start of every epoch, so each epoch's
    /// order compounds on the previous one's.
    Reshuffle(&'a [T]),
    /// The out-of-core walk: [`sharded_epoch`] over shards whose items
    /// `load` derives on demand.
    Sharded {
        /// Number of shards.
        num_shards: usize,
        /// Loads (and derives the items of) one shard.
        load: &'a mut dyn FnMut(usize) -> Result<Vec<T>, E>,
    },
}

/// Trains `model` for `epochs` epochs over the items `order` walks: one
/// clipped Adam step per batch of [`FitSpec::batch_size`] items, the
/// batch's per-item passes fanned out and reduced in item order. With
/// tracing on, records one point per epoch on each of the model's
/// [`FitSpec::series`]. Returns the final epoch's mean item loss
/// (`f32::INFINITY` after zero epochs).
pub(crate) fn fit<M: Fit, E>(
    model: &mut M,
    mut order: EpochOrder<'_, M::Item, E>,
    epochs: usize,
) -> Result<f32, E> {
    let spec = model.fit_spec();
    let batch_size = spec.batch_size.max(1);
    let mut opt = Adam::new(spec.lr);
    let mut rng = Rng::seed_from_u64(spec.order_seed);
    let mut perm: Vec<usize> = match &order {
        EpochOrder::Reshuffle(items) => (0..items.len()).collect(),
        EpochOrder::Sharded { .. } => Vec::new(),
    };
    let mut last = f32::INFINITY;
    for epoch in 0..epochs {
        let epoch_start = nlidb_trace::enabled().then(Instant::now);
        let (mut total, mut count) = (0.0f32, 0usize);
        let mut step = |batch: &[&M::Item]| {
            let (loss, n, mut grads) = batch_grads(batch.len(), |i| {
                let mut g = Graph::new();
                let loss = model.item_loss(&mut g, batch.get(i)?)?;
                let value = g.value(loss).scalar();
                g.backward(loss);
                Some((value, g.param_grads()))
            });
            if n > 0 {
                clip_global_norm(&mut grads, spec.clip);
                opt.step(model.fit_store(), &grads);
                total += loss;
                count += n;
            }
        };
        match &mut order {
            EpochOrder::Reshuffle(items) => {
                rng.shuffle(&mut perm);
                for chunk in perm.chunks(batch_size) {
                    step(&chunk.iter().filter_map(|&i| items.get(i)).collect::<Vec<_>>());
                }
            }
            EpochOrder::Sharded { num_shards, load } => {
                sharded_epoch(*num_shards, spec.order_seed, epoch, batch_size, *load, &mut |b| {
                    step(&b.iter().collect::<Vec<_>>())
                })?;
            }
        }
        last = total / count.max(1) as f32;
        if let Some(t0) = epoch_start {
            let secs = t0.elapsed().as_secs_f64();
            let [epoch_ms, examples_per_sec, loss] = spec.series;
            nlidb_trace::series(epoch_ms, secs * 1e3);
            nlidb_trace::series(examples_per_sec, count as f64 / secs.max(1e-9));
            nlidb_trace::series(loss, f64::from(last));
        }
    }
    Ok(last)
}

/// [`fit`] over a materialized slice in the [`EpochOrder::Reshuffle`]
/// order — the body of every model's `train(&[Item], epochs) -> f32`.
pub(crate) fn fit_slice<M: Fit>(model: &mut M, items: &[M::Item], epochs: usize) -> f32 {
    let Ok(loss) = fit::<M, Infallible>(model, EpochOrder::Reshuffle(items), epochs);
    loss
}

/// Where a training run's examples live, together with the two choices
/// that follow from it: how the item-deriving RNG is seeded and which
/// [`EpochOrder`] walks the derived items.
///
/// - A materialized split (`&[Example]`) derives every item with one RNG
///   seeded from the item seed, walking the examples in order, and
///   trains in the [`EpochOrder::Reshuffle`] order.
/// - An out-of-core [`ExampleSource`] (`&mut S`) derives each shard's
///   items with its own `Rng::for_stream(item seed, shard)`, so a shard's
///   items are reproducible alone, and trains in the
///   [`EpochOrder::Sharded`] order.
pub(crate) trait Corpus {
    /// Loading error (`Infallible` for a materialized split).
    type Error;

    /// Feeds every example to `f`: the whole split in one call, or shard
    /// by shard in index order.
    fn visit(&mut self, f: &mut dyn FnMut(&[Example])) -> Result<(), Self::Error>;

    /// Trains `model` with [`fit`] for `epochs` epochs on the items
    /// `derive` builds from the examples, its RNG seeded from
    /// `item_seed`. Returns the final epoch's mean item loss.
    fn train<M: Fit>(
        &mut self,
        model: &mut M,
        epochs: usize,
        item_seed: u64,
        derive: Derive<'_, M::Item>,
    ) -> Result<f32, Self::Error>;
}

/// Builds a model's training items from a run of examples, drawing from
/// the corpus's item RNG.
pub(crate) type Derive<'a, T> = &'a dyn Fn(&[Example], &mut Rng) -> Vec<T>;

impl Corpus for &[Example] {
    type Error = Infallible;

    fn visit(&mut self, f: &mut dyn FnMut(&[Example])) -> Result<(), Infallible> {
        f(self);
        Ok(())
    }

    fn train<M: Fit>(
        &mut self,
        model: &mut M,
        epochs: usize,
        item_seed: u64,
        derive: Derive<'_, M::Item>,
    ) -> Result<f32, Infallible> {
        let items = derive(self, &mut Rng::seed_from_u64(item_seed));
        Ok(fit_slice(model, &items, epochs))
    }
}

impl<S: ExampleSource + ?Sized> Corpus for &mut S {
    type Error = StreamError;

    fn visit(&mut self, f: &mut dyn FnMut(&[Example])) -> Result<(), StreamError> {
        for s in 0..self.num_shards() {
            f(&self.load_shard(s)?);
        }
        Ok(())
    }

    fn train<M: Fit>(
        &mut self,
        model: &mut M,
        epochs: usize,
        item_seed: u64,
        derive: Derive<'_, M::Item>,
    ) -> Result<f32, StreamError> {
        let num_shards = self.num_shards();
        let mut load = |s: usize| -> Result<Vec<M::Item>, StreamError> {
            let shard = self.load_shard(s)?;
            Ok(derive(&shard, &mut Rng::for_stream(item_seed, s as u64)))
        };
        fit(model, EpochOrder::Sharded { num_shards, load: &mut load }, epochs)
    }
}

/// Per-item result of a forward/backward pass: the scalar loss and the
/// parameter gradients from [`nlidb_tensor::Graph::param_grads`].
type ItemGrads = (f32, Vec<(ParamId, Tensor)>);

/// Computes `compute(0), ..., compute(batch_len - 1)` — one independent
/// forward/backward per batch index, in parallel across the pool — and
/// reduces the results in ascending index order, passing over the
/// `None`s of skipped items.
///
/// Returns the summed loss, the number of items that contributed, and
/// the summed gradients. The merged gradient list preserves the order in
/// which parameters first appear (scanning items in index order),
/// matching the single-item order of `Graph::param_grads` when every
/// item binds the same parameters.
fn batch_grads<F>(batch_len: usize, compute: F) -> (f32, usize, Vec<(ParamId, Tensor)>)
where
    F: Fn(usize) -> Option<ItemGrads> + Sync,
{
    let mut results: Vec<Option<ItemGrads>> = (0..batch_len).map(|_| None).collect();
    // Fixed sharding: slot i always holds item i's result, no matter
    // which worker produced it.
    pool::parallel_for_chunks(&mut results, 1, |i, slot| {
        slot[0] = compute(i);
    });
    let mut total_loss = 0.0;
    let mut count = 0;
    let mut merged: Vec<(ParamId, Tensor)> = Vec::new();
    let mut slot_of: HashMap<ParamId, usize> = HashMap::new();
    for (loss, grads) in results.into_iter().flatten() {
        total_loss += loss;
        count += 1;
        for (pid, g) in grads {
            match slot_of.entry(pid) {
                Entry::Occupied(e) => merged[*e.get()].1.add_scaled(&g, 1.0),
                Entry::Vacant(e) => {
                    e.insert(merged.len());
                    merged.push((pid, g));
                }
            }
        }
    }
    (total_loss, count, merged)
}

fn fisher_yates(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// The order shards are visited in `epoch` — a Fisher–Yates permutation
/// drawn from the stream `(derive_stream(salted_seed, epoch), u64::MAX)`.
/// The `u64::MAX` stream index cannot collide with any shard's
/// within-shard stream (shard indices are small), so the shard-order
/// draws and the item-order draws are independent.
pub fn epoch_shard_order(salted_seed: u64, epoch: usize, num_shards: usize) -> Vec<usize> {
    let epoch_key = derive_stream(salted_seed, epoch as u64);
    fisher_yates(num_shards, &mut Rng::for_stream(epoch_key, u64::MAX))
}

/// The within-shard item permutation for `(epoch, shard)` — drawn from
/// the stream `(derive_stream(salted_seed, epoch), shard)`, so it
/// depends only on the shard's identity, never on the order shards
/// happen to be visited in.
pub fn shard_item_order(salted_seed: u64, epoch: usize, shard: usize, n: usize) -> Vec<usize> {
    let epoch_key = derive_stream(salted_seed, epoch as u64);
    fisher_yates(n, &mut Rng::for_stream(epoch_key, shard as u64))
}

/// Runs one out-of-core training epoch: visits the shards in the
/// [`epoch_shard_order`] permutation, loads each shard's items through
/// `load` (at most one shard's items resident at a time, plus one
/// in-flight batch), permutes them by [`shard_item_order`], and feeds
/// batches of `batch_size` to `step`. Batches may straddle shard
/// boundaries; the final short batch is flushed at the end.
///
/// The item sequence — and therefore every batch and every optimizer
/// step — is a pure function of `(salted_seed, epoch, shard layout,
/// shard contents)`. Two sources that serve the same shards (e.g. the
/// disk reader and the in-memory generator) drive byte-identical
/// training.
pub fn sharded_epoch<T, E>(
    num_shards: usize,
    salted_seed: u64,
    epoch: usize,
    batch_size: usize,
    load: &mut dyn FnMut(usize) -> Result<Vec<T>, E>,
    step: &mut dyn FnMut(&[T]),
) -> Result<(), E> {
    let batch_size = batch_size.max(1);
    let mut buf: Vec<T> = Vec::new();
    for &s in &epoch_shard_order(salted_seed, epoch, num_shards) {
        let mut items: Vec<Option<T>> = load(s)?.into_iter().map(Some).collect();
        let order = shard_item_order(salted_seed, epoch, s, items.len());
        buf.extend(order.into_iter().filter_map(|i| items.get_mut(i)?.take()));
        while buf.len() >= batch_size {
            let batch: Vec<T> = buf.drain(..batch_size).collect();
            step(&batch);
        }
    }
    if !buf.is_empty() {
        step(&buf);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mint_pids(n: usize) -> Vec<ParamId> {
        let mut store = ParamStore::new();
        (0..n).map(|i| store.add(format!("p{i}"), Tensor::zeros(1, 1))).collect()
    }

    #[test]
    fn single_example_batch_is_passthrough() {
        let pids = mint_pids(1);
        let (loss, n, grads) =
            batch_grads(1, |_| Some((0.5, vec![(pids[0], Tensor::row_vector(&[1.0, 2.0]))])));
        assert_eq!(loss, 0.5);
        assert_eq!(n, 1);
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].1.data(), &[1.0, 2.0]);
    }

    #[test]
    fn reduction_is_index_ordered_and_thread_count_independent() {
        let pids = mint_pids(8);
        // Example i contributes to params (i % 3) and 7, with i-dependent
        // values so any ordering difference changes the f32 sums.
        let compute = |i: usize| {
            let v = 0.1_f32 + i as f32 * 0.317;
            Some((
                v,
                vec![
                    (pids[i % 3], Tensor::row_vector(&[v, -v])),
                    (pids[7], Tensor::row_vector(&[v * 0.5])),
                ],
            ))
        };
        pool::set_threads(1);
        let (loss_s, _, grads_s) = batch_grads(16, compute);
        pool::set_threads(4);
        let (loss_p, _, grads_p) = batch_grads(16, compute);
        pool::set_threads(pool::default_threads());
        assert_eq!(loss_s.to_bits(), loss_p.to_bits());
        assert_eq!(grads_s.len(), grads_p.len());
        // First-appearance order: pid 0 (example 0), pid 7 (example 0),
        // pid 1 (example 1), pid 2 (example 2).
        let order: Vec<usize> = grads_s.iter().map(|(p, _)| p.index()).collect();
        assert_eq!(order, vec![0, 7, 1, 2]);
        for ((pa, ga), (pb, gb)) in grads_s.iter().zip(&grads_p) {
            assert_eq!(pa, pb);
            assert!(ga
                .data()
                .iter()
                .map(|x| x.to_bits())
                .eq(gb.data().iter().map(|x| x.to_bits())));
        }
    }

    /// One parameter pulled toward each item's target; `None` items are
    /// skipped.
    struct Toy {
        store: ParamStore,
        w: ParamId,
    }

    impl Toy {
        fn new() -> Self {
            let mut store = ParamStore::new();
            let w = store.add("w", Tensor::zeros(1, 1));
            Toy { store, w }
        }
    }

    impl Fit for Toy {
        type Item = Option<f32>;
        fn fit_spec(&self) -> FitSpec {
            let cfg = ModelConfig::tiny();
            FitSpec { lr: 0.1, ..FitSpec::per_example(&cfg, 1, train_series!("toy")) }
        }
        fn fit_store(&mut self) -> &mut ParamStore {
            &mut self.store
        }
        fn item_loss(&self, g: &mut Graph, item: &Option<f32>) -> Option<NodeId> {
            let target = (*item)?;
            let w = g.param(&self.store, self.w);
            let d = g.add_scalar(w, -target);
            let sq = g.mul(d, d);
            Some(g.sum_all(sq))
        }
    }

    #[test]
    fn skipped_items_take_no_optimizer_step() {
        // Adam's bias correction depends on the step count, so a skipped
        // item that stepped (even with no gradients) would change how far
        // the second real step moves `w`.
        let mut plain = Toy::new();
        let loss_plain = fit_slice(&mut plain, &[Some(1.0), Some(1.0)], 1);
        let mut skipping = Toy::new();
        let loss_skipping = fit_slice(&mut skipping, &[None, Some(1.0), None, Some(1.0)], 1);
        assert_eq!(loss_plain.to_bits(), loss_skipping.to_bits());
        assert_eq!(plain.store.get(plain.w).data(), skipping.store.get(skipping.w).data());

        let mut idle = Toy::new();
        assert_eq!(fit_slice(&mut idle, &[None, None], 2), 0.0);
        assert_eq!(idle.store.get(idle.w).data(), &[0.0]);
    }

    /// Four shards of unequal sizes; items are (shard, index) pairs.
    fn toy_shards() -> Vec<Vec<(usize, usize)>> {
        [3usize, 5, 1, 4]
            .iter()
            .enumerate()
            .map(|(s, &n)| (0..n).map(|i| (s, i)).collect())
            .collect()
    }

    fn run_epoch(epoch: usize, batch_size: usize) -> Vec<Vec<(usize, usize)>> {
        let shards = toy_shards();
        let mut batches = Vec::new();
        let mut load = |s: usize| Ok::<_, Infallible>(shards[s].clone());
        let mut step = |b: &[(usize, usize)]| batches.push(b.to_vec());
        let Ok(()) = sharded_epoch(shards.len(), 99, epoch, batch_size, &mut load, &mut step);
        batches
    }

    #[test]
    fn sharded_epoch_covers_every_item_once_and_is_deterministic() {
        let a = run_epoch(0, 4);
        let b = run_epoch(0, 4);
        assert_eq!(a, b, "same epoch twice must replay the same batches");
        let mut seen: Vec<(usize, usize)> = a.iter().flatten().copied().collect();
        assert_eq!(seen.len(), 13);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 13, "every item exactly once");
        // 13 items in batches of 4: three full batches + a short flush.
        let sizes: Vec<usize> = a.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 4, 4, 1]);
    }

    #[test]
    fn sharded_epoch_orders_differ_across_epochs() {
        let a: Vec<_> = run_epoch(0, 4).into_iter().flatten().collect();
        let b: Vec<_> = run_epoch(1, 4).into_iter().flatten().collect();
        assert_ne!(a, b, "epochs should reshuffle");
    }

    #[test]
    fn item_order_is_independent_of_shard_visit_order() {
        // The same shard's permutation must not change across epochs'
        // *shard* orders — it only depends on (seed, epoch, shard, n).
        let p1 = shard_item_order(7, 2, 3, 10);
        let p2 = shard_item_order(7, 2, 3, 10);
        assert_eq!(p1, p2);
        assert_ne!(shard_item_order(7, 2, 4, 10), p1, "different shards differ");
        assert_ne!(shard_item_order(7, 3, 3, 10), p1, "different epochs differ");
    }
}
