//! Minimal `--key value` / `--switch` / positional argument parsing.

use std::collections::BTreeMap;

pub struct Flags {
    pub positional: Vec<String>,
    named: BTreeMap<String, Option<String>>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &["hetero", "quick"];

impl Flags {
    pub fn parse(argv: &[String]) -> Result<Flags, String> {
        let mut positional = Vec::new();
        let mut named = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) if SWITCHES.contains(&key) => {
                    named.insert(key.to_string(), None);
                }
                Some(key) => {
                    let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    named.insert(key.to_string(), Some(v.clone()));
                }
                None => positional.push(a.clone()),
            }
        }
        Ok(Flags { positional, named })
    }

    pub fn has(&self, key: &str) -> bool {
        self.named.contains_key(key)
    }

    pub fn str(&self, key: &str) -> Result<&str, String> {
        match self.named.get(key) {
            Some(Some(v)) => Ok(v),
            _ => Err(format!("missing --{key}")),
        }
    }

    pub fn u64(&self, key: &str) -> Result<u64, String> {
        let v = self.str(key)?;
        v.parse()
            .map_err(|_| format!("--{key} expects an integer, got '{v}'"))
    }

    pub fn file(&self) -> Result<&str, String> {
        self.positional
            .first()
            .map(|s| s.as_str())
            .ok_or_else(|| "missing FILE argument".to_string())
    }
}
