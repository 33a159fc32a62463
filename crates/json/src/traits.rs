//! [`ToJson`] / [`FromJson`]: the explicit replacements for `serde`
//! derives. Each workspace crate implements these for its own types; the
//! impls here cover primitives and containers.

use std::collections::{BTreeMap, HashMap};

use crate::value::{Json, JsonError};

/// Converts a value into a [`Json`] tree.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Reconstructs a value from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Decodes `j`, reporting a descriptive [`JsonError`] on shape or
    /// type mismatch.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Decodes a required object field.
    pub fn req<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        match self.get(key) {
            Some(v) => T::from_json(v)
                .map_err(|e| JsonError::new(format!("field '{key}': {}", e.message()))),
            None => Err(JsonError::new(format!("missing field '{key}' in {}", self.kind()))),
        }
    }

    /// Decodes an optional object field (`None` when absent or `null`).
    pub fn opt<T: FromJson>(&self, key: &str) -> Result<Option<T>, JsonError> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => T::from_json(v)
                .map(Some)
                .map_err(|e| JsonError::new(format!("field '{key}': {}", e.message()))),
        }
    }

    fn type_err<T>(&self, want: &str) -> Result<T, JsonError> {
        Err(JsonError::new(format!("expected {want}, found {}", self.kind())))
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(j.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_bool().ok_or(()).or_else(|_| j.type_err("bool"))
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                let i = j.as_i64().ok_or(()).or_else(|_| j.type_err("integer"))?;
                <$t>::try_from(i)
                    .map_err(|_| JsonError::new(format!("integer {i} out of range")))
            }
        }
    )*};
}

impl_int!(i64, i32, u32, usize, u16, u8);

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::from(*self)
    }
}

impl FromJson for u64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let i = j.as_i64().ok_or(()).or_else(|_| j.type_err("integer"))?;
        u64::try_from(i).map_err(|_| JsonError::new(format!("integer {i} out of range")))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_f64().ok_or(()).or_else(|_| j.type_err("number"))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::from(*self)
    }
}

impl FromJson for f32 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(f64::from_json(j)? as f32)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_str().map(str::to_string).ok_or(()).or_else(|_| j.type_err("string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// Decodes into exactly `items.len()` slots. Collecting through `Result`
/// cannot size the vector up front, so it grows by doubling and leaves up
/// to twice the length in capacity; a decoded table would keep that slack
/// in every column for as long as it is registered.
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let items = j.as_arr().ok_or(()).or_else(|_| j.type_err("array"))?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(T::from_json(item)?);
        }
        Ok(out)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => j.type_err("2-element array"),
        }
    }
}

/// Maps serialize with keys in sorted order so output stays deterministic
/// regardless of `HashMap` iteration order.
impl<V: ToJson> ToJson for HashMap<String, V> {
    fn to_json(&self) -> Json {
        // lint:allow(hashmap-iteration): the drawn keys are sorted on the
        // next line before any order can reach the encoded output.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Json::Obj(keys.into_iter().map(|k| (k.clone(), self[k].to_json())).collect())
    }
}

impl<V: FromJson> FromJson for HashMap<String, V> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let pairs = j.as_obj().ok_or(()).or_else(|_| j.type_err("object"))?;
        pairs.iter().map(|(k, v)| Ok((k.clone(), V::from_json(v)?))).collect()
    }
}

/// `BTreeMap` is the preferred map in the deterministic crates: its
/// iteration order is the key order, so encoding needs no sorting step.
impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let pairs = j.as_obj().ok_or(()).or_else(|_| j.type_err("object"))?;
        pairs.iter().map(|(k, v)| Ok((k.clone(), V::from_json(v)?))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(usize::from_json(&42usize.to_json()).unwrap(), 42);
        assert_eq!(u64::from_json(&7u64.to_json()).unwrap(), 7);
        assert_eq!(f32::from_json(&0.1f32.to_json()).unwrap(), 0.1f32);
        assert_eq!(String::from_json(&"x".to_json()).unwrap(), "x");
        assert!(usize::from_json(&Json::Int(-1)).is_err());
        assert!(bool::from_json(&Json::Int(0)).is_err());
    }

    #[test]
    fn decoded_vectors_sit_at_exact_capacity() {
        let items: Vec<i64> = (0..1500).collect();
        let decoded = Vec::<i64>::from_json(&items.to_json()).unwrap();
        assert_eq!(decoded, items);
        assert_eq!(decoded.capacity(), 1500);
        assert_eq!(Vec::<i64>::from_json(&Json::Arr(Vec::new())).unwrap().capacity(), 0);
    }

    #[test]
    fn container_roundtrips() {
        let v: Vec<usize> = vec![1, 2, 3];
        assert_eq!(Vec::<usize>::from_json(&v.to_json()).unwrap(), v);
        let o: Option<(usize, usize)> = Some((3, 5));
        assert_eq!(Option::<(usize, usize)>::from_json(&o.to_json()).unwrap(), o);
        let n: Option<String> = None;
        assert_eq!(Option::<String>::from_json(&n.to_json()).unwrap(), n);
    }

    #[test]
    fn hashmap_serializes_sorted() {
        let mut m: HashMap<String, usize> = HashMap::new();
        m.insert("zz".into(), 1);
        m.insert("aa".into(), 2);
        assert_eq!(m.to_json().to_string(), r#"{"aa":2,"zz":1}"#);
        assert_eq!(HashMap::<String, usize>::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn btreemap_roundtrips_and_matches_hashmap_encoding() {
        let mut b: BTreeMap<String, usize> = BTreeMap::new();
        b.insert("zz".into(), 1);
        b.insert("aa".into(), 2);
        assert_eq!(b.to_json().to_string(), r#"{"aa":2,"zz":1}"#);
        assert_eq!(BTreeMap::<String, usize>::from_json(&b.to_json()).unwrap(), b);
        // Same keys/values encode identically through either map type, so
        // switching a field from HashMap to BTreeMap is serialization-stable.
        let h: HashMap<String, usize> = b.clone().into_iter().collect();
        assert_eq!(h.to_json().to_string(), b.to_json().to_string());
    }

    #[test]
    fn field_helpers_report_paths() {
        let v = Json::obj([("a", Json::Int(1))]);
        assert_eq!(v.req::<usize>("a").unwrap(), 1);
        let err = v.req::<usize>("b").unwrap_err();
        assert!(err.message().contains("missing field 'b'"));
        assert_eq!(v.opt::<usize>("b").unwrap(), None);
    }
}
