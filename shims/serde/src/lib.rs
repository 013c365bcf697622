//! Offline shim for `serde`: a value-tree serialization framework.
//!
//! Instead of serde's visitor architecture, types convert to and from a
//! self-describing [`Value`] tree; `serde_json` (the sibling shim) renders
//! and parses that tree with serde_json's conventions (externally tagged
//! enums, `null` for `None`, objects for named fields). The `Serialize` /
//! `Deserialize` derive macros come from the `serde_derive` shim and target
//! exactly this trait pair, so `#[derive(Serialize, Deserialize)]` code
//! compiles unchanged.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing serialized value (the JSON data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    UInt(u64),
    /// Negative integer (stored with its sign).
    Int(i64),
    /// Floating point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object, in insertion order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The entries if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// The string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(v) => Some(v),
            Value::Int(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as a signed integer, if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(v) => Some(v),
            Value::UInt(v) if v <= i64::MAX as u64 => Some(v as i64),
            _ => None,
        }
    }

    /// The value as a float (integers widen losslessly where possible).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Float(v) => Some(v),
            Value::UInt(v) => Some(v as f64),
            Value::Int(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The boolean if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// A short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "array",
            Value::Map(_) => "object",
        }
    }
}

/// Deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// "expected X while deserializing Y, found Z"-style error.
    pub fn expected(what: &str, context: &str, found: &Value) -> Self {
        DeError(format!(
            "expected {what} while deserializing {context}, found {}",
            found.kind()
        ))
    }

    /// Free-form error.
    pub fn msg(m: impl Into<String>) -> Self {
        DeError(m.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// A type convertible to a [`Value`] tree.
pub trait Serialize {
    /// Converts to the value tree.
    fn to_value(&self) -> Value;
}

/// A type reconstructible from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs from the value tree.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when the tree does not match the type's shape.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Compatibility module mirroring `serde::de`.
pub mod de {
    pub use crate::DeError;

    /// Owned deserialization marker (the shim has no borrowed variant, so
    /// every `Deserialize` type qualifies).
    pub trait DeserializeOwned: crate::Deserialize {}
    impl<T: crate::Deserialize> DeserializeOwned for T {}
}

/// Looks up a struct field by name, treating a missing entry as `null`
/// (so `Option` fields default to `None`, as with serde_json).
///
/// # Errors
///
/// Propagates the field type's own [`DeError`].
pub fn de_field<T: Deserialize>(
    entries: &[(String, Value)],
    name: &str,
    context: &str,
) -> Result<T, DeError> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v).map_err(|e| DeError(format!("{context}.{name}: {}", e.0))),
        None => T::from_value(&Value::Null)
            .map_err(|_| DeError(format!("missing field `{name}` in {context}"))),
    }
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw = v
                    .as_u64()
                    .ok_or_else(|| DeError::expected("unsigned integer", stringify!($t), v))?;
                <$t>::try_from(raw)
                    .map_err(|_| DeError::msg(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v < 0 { Value::Int(v) } else { Value::UInt(v as u64) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw = v
                    .as_i64()
                    .ok_or_else(|| DeError::expected("integer", stringify!($t), v))?;
                <$t>::try_from(raw)
                    .map_err(|_| DeError::msg(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64()
            .ok_or_else(|| DeError::expected("number", "f64", v))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.as_f64()
            .ok_or_else(|| DeError::expected("number", "f32", v))? as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool()
            .ok_or_else(|| DeError::expected("bool", "bool", v))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| DeError::expected("string", "String", v))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v
            .as_str()
            .ok_or_else(|| DeError::expected("string", "char", v))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::msg(format!("expected one-char string, got {s:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

// Like upstream serde's `rc` feature: an `Arc<T>` serializes as its `T`, and
// deserializing allocates a fresh, unshared `T`.
impl<T: Serialize> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_seq()
            .ok_or_else(|| DeError::expected("array", "Vec", v))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = v
            .as_seq()
            .ok_or_else(|| DeError::expected("array", "fixed array", v))?;
        if items.len() != N {
            return Err(DeError::msg(format!(
                "expected {N} elements, got {}",
                items.len()
            )));
        }
        let parsed: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
        parsed
            .try_into()
            .map_err(|_| DeError::msg("array length mismatch".to_string()))
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = v
            .as_seq()
            .ok_or_else(|| DeError::expected("array", "tuple", v))?;
        if items.len() != 2 {
            return Err(DeError::msg(format!(
                "expected 2-tuple, got {} items",
                items.len()
            )));
        }
        Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = v
            .as_seq()
            .ok_or_else(|| DeError::expected("array", "tuple", v))?;
        if items.len() != 3 {
            return Err(DeError::msg(format!(
                "expected 3-tuple, got {} items",
                items.len()
            )));
        }
        Ok((
            A::from_value(&items[0])?,
            B::from_value(&items[1])?,
            C::from_value(&items[2])?,
        ))
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_map()
            .ok_or_else(|| DeError::expected("object", "BTreeMap", v))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Deterministic order for stable output.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_map()
            .ok_or_else(|| DeError::expected("object", "HashMap", v))?
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(()),
            other => Err(DeError::expected("null", "()", other)),
        }
    }
}

impl Serialize for std::time::Duration {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("secs".into(), Value::UInt(self.as_secs())),
            ("nanos".into(), Value::UInt(u64::from(self.subsec_nanos()))),
        ])
    }
}

impl Deserialize for std::time::Duration {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_map()
            .ok_or_else(|| DeError::expected("object", "Duration", v))?;
        let secs: u64 = de_field(entries, "secs", "Duration")?;
        let nanos: u32 = de_field(entries, "nanos", "Duration")?;
        Ok(std::time::Duration::new(secs, nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()), Ok(42));
        assert_eq!(i32::from_value(&(-7i32).to_value()), Ok(-7));
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()),
            Ok("hi".to_string())
        );
        assert_eq!(f64::from_value(&1.5f64.to_value()), Ok(1.5));
    }

    #[test]
    fn option_null_mapping() {
        let none: Option<u32> = None;
        assert_eq!(none.to_value(), Value::Null);
        assert_eq!(Option::<u32>::from_value(&Value::Null), Ok(None));
        assert_eq!(Option::<u32>::from_value(&Value::UInt(3)), Ok(Some(3)));
    }

    #[test]
    fn missing_option_field_defaults() {
        let entries: Vec<(String, Value)> = vec![];
        let missing: Option<u32> = de_field(&entries, "gone", "T").unwrap();
        assert_eq!(missing, None);
        assert!(de_field::<u32>(&entries, "gone", "T").is_err());
    }

    #[test]
    fn nested_collections() {
        let v = vec![Some(1u32), None, Some(3)];
        let tree = v.to_value();
        assert_eq!(Vec::<Option<u32>>::from_value(&tree), Ok(v));
    }

    #[test]
    fn signed_positive_becomes_uint() {
        // serde_json prints positive i64 without sign; mirror that so
        // u64 fields can read values written from i64 and vice versa.
        assert_eq!(5i64.to_value(), Value::UInt(5));
        assert_eq!(i64::from_value(&Value::UInt(5)), Ok(5));
    }
}
