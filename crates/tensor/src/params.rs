//! Named parameter storage shared by all models.
//!
//! Parameters live outside the per-example [`crate::graph::Graph`]: a graph
//! is rebuilt for every forward pass (define-by-run), while the
//! [`ParamStore`] persists across passes and is updated by an optimizer in
//! [`crate::optim`]. Binding a parameter into a graph with
//! [`crate::graph::Graph::param`] records the (node, param) association so
//! gradients can be routed back after `backward`.
//!
//! Every store carries a process-unique version: fresh when the store is
//! built or deserialized, renewed by `add` and `get_mut`, and
//! kept by a clone (equal values until one side mutates). A frozen tape
//! keys its bindings on `(version, ParamId)`, so it never reuses one
//! across stores or across a mutation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use nlidb_json::{FromJson, Json, JsonError, ToJson};

use crate::tensor::Tensor;

/// Opaque handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

impl ToJson for ParamId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for ParamId {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(ParamId(usize::from_json(j)?))
    }
}

impl ParamId {
    /// Raw index (stable for the lifetime of the store).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A collection of named, trainable tensors.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
    // Derived from `names`; rebuilt after deserialization, never serialized.
    index: HashMap<String, ParamId>,
    version: Version,
}

/// A store version; each `default()` is one no store has carried before.
#[derive(Debug, Clone, Copy)]
struct Version(u64);

impl Default for Version {
    fn default() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Version(NEXT.fetch_add(1, Ordering::SeqCst))
    }
}

impl ToJson for ParamStore {
    fn to_json(&self) -> Json {
        Json::obj([("names", self.names.to_json()), ("values", self.values.to_json())])
    }
}

impl FromJson for ParamStore {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let mut store = ParamStore {
            names: j.req("names")?,
            values: j.req("values")?,
            index: HashMap::new(),
            version: Version::default(),
        };
        if store.names.len() != store.values.len() {
            return Err(JsonError::new(format!(
                "param store has {} names but {} values",
                store.names.len(),
                store.values.len()
            )));
        }
        store.rebuild_index();
        Ok(store)
    }
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter under a unique name.
    ///
    /// # Panics
    /// Panics if the name is already registered.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(!self.index.contains_key(&name), "duplicate parameter name: {name}");
        let id = ParamId(self.values.len());
        self.version = Version::default();
        self.index.insert(name.clone(), id);
        self.names.push(name);
        self.values.push(value);
        id
    }

    /// Looks up a parameter id by name.
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.index.get(name).copied()
    }

    /// Parameter value.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable parameter value (used by optimizers). Renews the store's
    /// version, so no frozen tape reuses a binding made before the write.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.version = Version::default();
        &mut self.values[id.0]
    }

    /// The store's current version (see the module docs).
    pub(crate) fn version(&self) -> u64 {
        self.version.0
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters across all tensors.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Iterates over `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.names
            .iter()
            .zip(&self.values)
            .enumerate()
            .map(|(i, (n, v))| (ParamId(i), n.as_str(), v))
    }

    /// Serializes the store to a JSON string (checkpointing).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Restores a store from JSON produced by [`ParamStore::to_json_string`].
    pub fn from_json_str(json: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(json)?)
    }

    fn rebuild_index(&mut self) {
        self.index = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), ParamId(i)))
            .collect();
    }

    /// True if every parameter value is finite (training-sanity check).
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(Tensor::all_finite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros(2, 3));
        assert_eq!(store.id_of("w"), Some(id));
        assert_eq!(store.get(id).shape(), (2, 3));
        assert_eq!(store.name(id), "w");
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_scalars(), 6);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(1, 1));
        store.add("w", Tensor::zeros(1, 1));
    }

    #[test]
    fn json_roundtrip_preserves_values_and_names() {
        let mut store = ParamStore::new();
        store.add("a", Tensor::row_vector(&[1.5, -2.0]));
        store.add("b", Tensor::zeros(2, 2));
        let json = store.to_json_string();
        let restored = ParamStore::from_json_str(&json).unwrap();
        assert_eq!(restored.len(), 2);
        let a = restored.id_of("a").unwrap();
        assert_eq!(restored.get(a).data(), &[1.5, -2.0]);
    }

    #[test]
    fn iter_yields_in_insertion_order() {
        let mut store = ParamStore::new();
        store.add("x", Tensor::zeros(1, 1));
        store.add("y", Tensor::zeros(1, 2));
        let names: Vec<&str> = store.iter().map(|(_, n, _)| n).collect();
        assert_eq!(names, vec!["x", "y"]);
    }
}
