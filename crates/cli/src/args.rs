//! A small, dependency-free `--key value` argument parser.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use crate::CliError;

/// Parsed `--key value` pairs, remembering which keys a command read
/// so it can refuse the ones it did not ([`ArgMap::refuse_unread`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArgMap {
    values: BTreeMap<String, String>,
    read: RefCell<BTreeSet<String>>,
}

impl ArgMap {
    /// Parse a flat list of `--key value` tokens.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] for tokens not starting with `--`, a
    /// key with no value, or a repeated key.
    pub fn parse(tokens: &[String]) -> Result<Self, CliError> {
        let mut values = BTreeMap::new();
        let mut iter = tokens.iter();
        while let Some(token) = iter.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(CliError::Usage(format!(
                    "expected `--key`, found `{token}`"
                )));
            };
            if key.is_empty() {
                return Err(CliError::Usage("empty flag `--`".to_string()));
            }
            let Some(value) = iter.next() else {
                return Err(CliError::Usage(format!("flag `--{key}` needs a value")));
            };
            if values.insert(key.to_string(), value.clone()).is_some() {
                return Err(CliError::Usage(format!("flag `--{key}` given twice")));
            }
        }
        Ok(Self {
            values,
            read: RefCell::default(),
        })
    }

    /// Raw string value for `key`, if present. Every typed accessor
    /// reads through here, so this is where a key is marked read.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.values.get(key).map(String::as_str)
    }

    /// Refuse every given key that nothing has read so far — a typo or
    /// a retired flag must not silently run a different configuration.
    /// Call it once the command has resolved all of its flags.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] naming the first unread flag.
    pub fn refuse_unread(&self) -> Result<(), CliError> {
        let read = self.read.borrow();
        match self.values.keys().find(|key| !read.contains(*key)) {
            None => Ok(()),
            Some(key) => Err(CliError::Usage(format!("unknown flag `--{key}`"))),
        }
    }

    /// String value with a default.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// `f64` value with a default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] if present but unparseable.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                CliError::Usage(format!("flag `--{key}` expects a number, got `{raw}`"))
            }),
        }
    }

    /// Optional `f64` value (no default).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] if present but unparseable.
    pub fn f64_opt(&self, key: &str) -> Result<Option<f64>, CliError> {
        self.get(key)
            .map(|raw| {
                raw.parse().map_err(|_| {
                    CliError::Usage(format!("flag `--{key}` expects a number, got `{raw}`"))
                })
            })
            .transpose()
    }

    /// `usize` value with a default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] if present but unparseable.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                CliError::Usage(format!("flag `--{key}` expects an integer, got `{raw}`"))
            }),
        }
    }

    /// `u64` value with a default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] if present but unparseable.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                CliError::Usage(format!("flag `--{key}` expects an integer, got `{raw}`"))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs() {
        let m = ArgMap::parse(&toks(&["--epsilon", "1.5", "--users", "100"])).unwrap();
        assert_eq!(m.f64_or("epsilon", 0.0).unwrap(), 1.5);
        assert_eq!(m.usize_or("users", 0).unwrap(), 100);
        assert_eq!(m.get("missing"), None);
    }

    #[test]
    fn defaults_apply() {
        let m = ArgMap::parse(&[]).unwrap();
        assert_eq!(m.f64_or("epsilon", 2.0).unwrap(), 2.0);
        assert_eq!(m.str_or("dataset", "synthetic"), "synthetic");
        assert_eq!(m.f64_opt("lambda2").unwrap(), None);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(ArgMap::parse(&toks(&["epsilon", "1"])).is_err());
        assert!(ArgMap::parse(&toks(&["--epsilon"])).is_err());
        assert!(ArgMap::parse(&toks(&["--"])).is_err());
        assert!(ArgMap::parse(&toks(&["--a", "1", "--a", "2"])).is_err());
    }

    #[test]
    fn unread_keys_are_refused_by_name() {
        let m = ArgMap::parse(&toks(&["--users", "5", "--usres", "6"])).unwrap();
        assert_eq!(m.usize_or("users", 1).unwrap(), 5);
        // Asking for an absent key marks nothing given as read.
        assert_eq!(m.get("seed"), None);
        let err = m.refuse_unread().unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("`--usres`")),
            "{err}"
        );
        assert_eq!(m.str_or("usres", ""), "6");
        m.refuse_unread().unwrap();
    }

    #[test]
    fn rejects_unparseable_numbers() {
        let m = ArgMap::parse(&toks(&["--epsilon", "abc"])).unwrap();
        assert!(m.f64_or("epsilon", 1.0).is_err());
        assert!(m.f64_opt("epsilon").is_err());
        let m = ArgMap::parse(&toks(&["--users", "1.5"])).unwrap();
        assert!(m.usize_or("users", 1).is_err());
        assert!(m.u64_or("users", 1).is_err());
    }
}
