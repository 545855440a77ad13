//! The flag parser of both binaries, `uots` and `uots-serve`: each root
//! includes this file with `mod flags;`. It sits in a directory without a
//! `main.rs`, so Cargo builds no binary from it.
//!
//! Flags are `--name value` pairs, any of them repeatable. A flag followed
//! by another `--flag` (or by nothing) is a boolean switch and parses as
//! `true` — e.g. `--verify`. A flag outside the caller's list is refused,
//! so a typo cannot run a command in a configuration nobody asked for.

use std::str::FromStr;

/// The parsed flags of one command line.
pub struct Flags {
    accepted: &'static [&'static str],
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `args`, refusing a flag that `accepted` does not list.
    pub fn parse(args: &[String], accepted: &'static [&'static str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got `{}`", args[i]))?;
            if !accepted.contains(&key) {
                return Err(format!("unknown flag --{key}"));
            }
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    pairs.push((key.to_string(), v.clone()));
                    i += 2;
                }
                _ => {
                    pairs.push((key.to_string(), "true".to_string()));
                    i += 1;
                }
            }
        }
        Ok(Flags { accepted, pairs })
    }

    /// Every value given for `--key`, in command-line order.
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        debug_assert!(self.accepted.contains(&key), "--{key} is not in the list");
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// The value of `--key`; the last one wins when it is given twice.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.get_all(key).pop()
    }

    /// The value of `--key`, which must be given.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// The value of `--key` parsed as a `T`, `default` when it is absent.
    pub fn parse_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value `{v}`")),
        }
    }
}
