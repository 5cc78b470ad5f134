//! The token-stream side of deserialization.
//!
//! Every [`Deserialize`](crate::Deserialize) implementation is written once,
//! against [`Read`]: a pull reader of JSON-shaped tokens that hands out
//! keys and strings borrowed from its source where it can. `serde_json`
//! implements it directly over the input bytes, so loading a document
//! builds no intermediate tree; [`ValueReader`] implements it over a
//! [`Value`], which is how [`Deserialize::from_value`](crate::Deserialize::from_value)
//! runs the same implementation on a tree.

use crate::{Error, Value};
use std::borrow::Cow;

/// Owned deserialization. Every shim [`Deserialize`](crate::Deserialize)
/// type produces owned values, so this is a blanket-satisfied marker trait
/// with the same spelling as real serde's `de::DeserializeOwned`.
pub trait DeserializeOwned: crate::Deserialize {}

impl<T: crate::Deserialize> DeserializeOwned for T {}

/// What the next value in a token stream is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool,
    /// Any number, integer or float.
    Number,
    /// A string.
    Str,
    /// An array.
    Seq,
    /// An object.
    Map,
}

impl Kind {
    /// Human name, for error messages.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Number => "number",
            Kind::Str => "string",
            Kind::Seq => "array",
            Kind::Map => "object",
        }
    }
}

/// A number token, in the representation the JSON text implies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    UInt(u128),
    /// A negative integer.
    Int(i128),
    /// A number written with a fraction or exponent.
    Float(f64),
}

/// A pull reader of JSON-shaped tokens.
///
/// Each scalar method consumes one value of its kind and fails on any
/// other. Containers are walked with a begin call followed by `*_next`
/// calls until they return `false`/`None`; after `seq_next` returns
/// `true`, or `map_next_key` returns a key, exactly one value must be
/// consumed (read or [`skip`](Read::skip)ped) before the next call.
pub trait Read<'de> {
    /// The kind of the next value, without consuming it.
    fn peek(&mut self) -> Result<Kind, Error>;
    /// Consume a `null`.
    fn null(&mut self) -> Result<(), Error>;
    /// Consume a boolean.
    fn bool(&mut self) -> Result<bool, Error>;
    /// Consume a number.
    fn number(&mut self) -> Result<Number, Error>;
    /// Consume a string, borrowed from the source when it needs no
    /// unescaping.
    fn str(&mut self) -> Result<Cow<'de, str>, Error>;
    /// Enter an array.
    fn seq_begin(&mut self) -> Result<(), Error>;
    /// Whether another element follows; `false` leaves the array.
    fn seq_next(&mut self) -> Result<bool, Error>;
    /// Enter an object.
    fn map_begin(&mut self) -> Result<(), Error>;
    /// The next key, positioned at its value; `None` leaves the object.
    fn map_next_key(&mut self) -> Result<Option<Cow<'de, str>>, Error>;

    /// Consume one value of any shape, checking it is well formed.
    fn skip(&mut self) -> Result<(), Error> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::Str => self.str().map(drop),
            Kind::Seq => {
                self.seq_begin()?;
                while self.seq_next()? {
                    self.skip()?;
                }
                Ok(())
            }
            Kind::Map => {
                self.map_begin()?;
                while self.map_next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }
}

/// "expected `what`, got `kind`".
pub fn mismatch(what: &str, got: Kind) -> Error {
    Error::custom(format!("expected {what}, got {}", got.name()))
}

fn kind_of(v: &Value) -> Kind {
    match v {
        Value::Null => Kind::Null,
        Value::Bool(_) => Kind::Bool,
        Value::UInt(_) | Value::Int(_) | Value::Float(_) => Kind::Number,
        Value::Str(_) => Kind::Str,
        Value::Seq(_) => Kind::Seq,
        Value::Map(_) => Kind::Map,
    }
}

enum Frame<'v> {
    Seq(std::slice::Iter<'v, Value>),
    Map(std::slice::Iter<'v, (String, Value)>),
}

/// [`Read`] over a [`Value`] tree: strings and keys borrow from the tree.
pub struct ValueReader<'v> {
    /// The value the next read consumes.
    next: Option<&'v Value>,
    /// Containers entered and not yet left.
    stack: Vec<Frame<'v>>,
}

impl<'v> ValueReader<'v> {
    /// A reader positioned at `root`.
    pub fn new(root: &'v Value) -> ValueReader<'v> {
        ValueReader {
            next: Some(root),
            stack: Vec::new(),
        }
    }

    fn take(&mut self) -> Result<&'v Value, Error> {
        self.next
            .take()
            .ok_or_else(|| Error::custom("no value to read"))
    }
}

impl<'v> Read<'v> for ValueReader<'v> {
    fn peek(&mut self) -> Result<Kind, Error> {
        self.next
            .map(kind_of)
            .ok_or_else(|| Error::custom("no value to read"))
    }

    fn null(&mut self) -> Result<(), Error> {
        match self.take()? {
            Value::Null => Ok(()),
            other => Err(mismatch("null", kind_of(other))),
        }
    }

    fn bool(&mut self) -> Result<bool, Error> {
        match self.take()? {
            Value::Bool(b) => Ok(*b),
            other => Err(mismatch("bool", kind_of(other))),
        }
    }

    fn number(&mut self) -> Result<Number, Error> {
        match self.take()? {
            Value::UInt(u) => Ok(Number::UInt(*u)),
            Value::Int(i) => Ok(Number::Int(*i)),
            Value::Float(x) => Ok(Number::Float(*x)),
            other => Err(mismatch("number", kind_of(other))),
        }
    }

    fn str(&mut self) -> Result<Cow<'v, str>, Error> {
        match self.take()? {
            Value::Str(s) => Ok(Cow::Borrowed(s)),
            other => Err(mismatch("string", kind_of(other))),
        }
    }

    fn seq_begin(&mut self) -> Result<(), Error> {
        match self.take()? {
            Value::Seq(items) => {
                self.stack.push(Frame::Seq(items.iter()));
                Ok(())
            }
            other => Err(mismatch("array", kind_of(other))),
        }
    }

    fn seq_next(&mut self) -> Result<bool, Error> {
        match self.stack.last_mut() {
            Some(Frame::Seq(items)) => match items.next() {
                Some(v) => {
                    self.next = Some(v);
                    Ok(true)
                }
                None => {
                    self.stack.pop();
                    Ok(false)
                }
            },
            _ => Err(Error::custom("seq_next outside an array")),
        }
    }

    fn map_begin(&mut self) -> Result<(), Error> {
        match self.take()? {
            Value::Map(entries) => {
                self.stack.push(Frame::Map(entries.iter()));
                Ok(())
            }
            other => Err(mismatch("object", kind_of(other))),
        }
    }

    fn map_next_key(&mut self) -> Result<Option<Cow<'v, str>>, Error> {
        match self.stack.last_mut() {
            Some(Frame::Map(entries)) => match entries.next() {
                Some((k, v)) => {
                    self.next = Some(v);
                    Ok(Some(Cow::Borrowed(k)))
                }
                None => {
                    self.stack.pop();
                    Ok(None)
                }
            },
            _ => Err(Error::custom("map_next_key outside an object")),
        }
    }

    fn skip(&mut self) -> Result<(), Error> {
        self.take().map(drop)
    }
}
