//! The JSON-shaped value tree all (de)serialization goes through.

/// A JSON-shaped dynamic value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer (covers u128).
    UInt(u128),
    /// Negative (or explicitly signed) integer.
    Int(i128),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object, as ordered key/value pairs (insertion order preserved).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Unsigned integer view (accepts non-negative `Int` too).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => u64::try_from(*u).ok(),
            Value::Int(i) if *i >= 0 => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Float view (accepts integers too, like `serde_json::Value::as_f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Object field lookup by key (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}
