//! Offline stand-in for `serde`.
//!
//! The build environment has no crates.io access, so this crate provides a
//! simplified serialization framework with the same *spelling* as serde —
//! `#[derive(Serialize, Deserialize)]`, `use serde::{Serialize, Deserialize}`
//! — but a much smaller core. Serialization renders an owned JSON-like
//! [`value::Value`] tree. Deserialization is written once per type against
//! [`de::Read`], a pull reader of JSON tokens: `serde_json` runs it directly
//! over the input bytes, and [`Deserialize::from_value`] runs the same code
//! over a [`Value`] through [`de::ValueReader`].
//!
//! Supported derive shapes (everything this workspace uses):
//! * structs with named fields → JSON object;
//! * `#[serde(transparent)]` newtype structs → the inner value;
//! * tuple structs → JSON array;
//! * enums with unit / newtype / struct variants → externally tagged,
//!   exactly like real serde (`"Unit"`, `{"Newtype": v}`, `{"Struct": {..}}`).
//!
//! Objects accept their keys in any order, skip unknown keys, and keep the
//! first of duplicate keys.

pub use serde_derive::{Deserialize, Serialize};

pub mod de;
pub mod value;

use de::{mismatch, Kind, Number, Read};
pub use value::Value;

/// Serialization/deserialization error: a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Build an error from a message.
    pub fn custom(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A type that can render itself as a [`Value`] tree.
pub trait Serialize {
    /// Convert to a value tree.
    fn to_value(&self) -> Value;
}

/// A type that can rebuild itself from a token stream.
pub trait Deserialize: Sized {
    /// Read one value from `r`.
    fn deserialize<'de, R: Read<'de>>(r: &mut R) -> Result<Self, Error>;

    /// Convert from a value tree: [`deserialize`](Deserialize::deserialize)
    /// over a [`de::ValueReader`].
    fn from_value(v: &Value) -> Result<Self, Error> {
        Self::deserialize(&mut de::ValueReader::new(v))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize<'de, R: Read<'de>>(r: &mut R) -> Result<Value, Error> {
        Ok(match r.peek()? {
            Kind::Null => {
                r.null()?;
                Value::Null
            }
            Kind::Bool => Value::Bool(r.bool()?),
            Kind::Number => match r.number()? {
                Number::UInt(u) => Value::UInt(u),
                Number::Int(i) => Value::Int(i),
                Number::Float(x) => Value::Float(x),
            },
            Kind::Str => Value::Str(r.str()?.into_owned()),
            Kind::Seq => {
                r.seq_begin()?;
                let mut items = Vec::new();
                while r.seq_next()? {
                    items.push(Value::deserialize(r)?);
                }
                Value::Seq(items)
            }
            Kind::Map => {
                r.map_begin()?;
                let mut entries = Vec::new();
                while let Some(key) = r.map_next_key()? {
                    let key = key.into_owned();
                    entries.push((key, Value::deserialize(r)?));
                }
                Value::Map(entries)
            }
        })
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize<'de, R: Read<'de>>(r: &mut R) -> Result<bool, Error> {
        r.bool()
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u128)
            }
        }
        impl Deserialize for $t {
            fn deserialize<'de, R: Read<'de>>(r: &mut R) -> Result<$t, Error> {
                let raw: u128 = match r.number()? {
                    Number::UInt(u) => u,
                    Number::Int(i) if i >= 0 => i as u128,
                    Number::Int(_) => {
                        return Err(Error::custom("expected unsigned integer, got negative integer"))
                    }
                    Number::Float(_) => {
                        return Err(Error::custom("expected unsigned integer, got number"))
                    }
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, u128, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn deserialize<'de, R: Read<'de>>(r: &mut R) -> Result<$t, Error> {
                let raw: i128 = match r.number()? {
                    Number::Int(i) => i,
                    Number::UInt(u) => i128::try_from(u)
                        .map_err(|_| Error::custom("unsigned integer out of i128 range"))?,
                    Number::Float(_) => return Err(Error::custom("expected integer, got number")),
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_int!(i8, i16, i32, i64, i128, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize<'de, R: Read<'de>>(r: &mut R) -> Result<f64, Error> {
        Ok(match r.number()? {
            Number::Float(x) => x,
            Number::UInt(u) => u as f64,
            Number::Int(i) => i as f64,
        })
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn deserialize<'de, R: Read<'de>>(r: &mut R) -> Result<f32, Error> {
        f64::deserialize(r).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize<'de, R: Read<'de>>(r: &mut R) -> Result<String, Error> {
        r.str().map(|s| s.into_owned())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<'de, R: Read<'de>>(r: &mut R) -> Result<Vec<T>, Error> {
        r.seq_begin()?;
        let mut items = Vec::new();
        while r.seq_next()? {
            items.push(T::deserialize(r)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize<'de, R: Read<'de>>(r: &mut R) -> Result<Option<T>, Error> {
        if r.peek()? == Kind::Null {
            r.null()?;
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize<'de, R: Read<'de>>(r: &mut R) -> Result<Box<T>, Error> {
        T::deserialize(r).map(Box::new)
    }
}

/// Read an array of exactly `len` elements, one `element(i)` call each —
/// the body of every tuple-shaped `Deserialize` (derived tuple structs and
/// variants included). `what` names the type in the length error.
pub fn read_tuple<'de, R: Read<'de>>(
    r: &mut R,
    len: usize,
    what: &str,
    mut element: impl FnMut(&mut R, usize) -> Result<(), Error>,
) -> Result<(), Error> {
    let kind = r.peek()?;
    if kind != Kind::Seq {
        return Err(mismatch(&format!("array of length {len} for {what}"), kind));
    }
    r.seq_begin()?;
    let mut n = 0;
    while r.seq_next()? {
        if n >= len {
            return Err(Error::custom(format!(
                "expected array of length {len} for {what}, got a longer one"
            )));
        }
        element(r, n)?;
        n += 1;
    }
    if n != len {
        return Err(Error::custom(format!(
            "expected array of length {len} for {what}, got length {n}"
        )));
    }
    Ok(())
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize<'de, RD: Read<'de>>(r: &mut RD) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                #[allow(non_snake_case)]
                let ($(mut $name,)+) = ($(Option::<$name>::None,)+);
                read_tuple(r, LEN, "tuple", |r, i| {
                    $(if i == $idx {
                        $name = Some($name::deserialize(r)?);
                    })+
                    Ok(())
                })?;
                Ok(($($name.expect("read_tuple reads every element"),)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(
            Vec::<u32>::from_value(&vec![1u32, 2].to_value()).unwrap(),
            vec![1, 2]
        );
        let pair = (3u64, "x".to_string());
        assert_eq!(<(u64, String)>::from_value(&pair.to_value()).unwrap(), pair);
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u8>::from_value(&5u8.to_value()).unwrap(), Some(5));
    }

    #[test]
    fn out_of_range_integers_error() {
        assert!(u8::from_value(&300u64.to_value()).is_err());
        assert!(u64::from_value(&(-1i64).to_value()).is_err());
    }

    #[test]
    fn tuples_check_their_length() {
        let short = Value::Seq(vec![Value::UInt(1)]);
        assert!(<(u64, u64)>::from_value(&short).is_err());
        let long = Value::Seq(vec![Value::UInt(1), Value::UInt(2), Value::UInt(3)]);
        assert!(<(u64, u64)>::from_value(&long).is_err());
    }

    #[test]
    fn value_round_trips_through_its_own_reader() {
        let v = Value::Map(vec![
            ("a".into(), Value::Seq(vec![Value::Int(-1), Value::Null])),
            ("a".into(), Value::Bool(true)),
        ]);
        assert_eq!(Value::from_value(&v).unwrap(), v);
    }
}
