//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed `--key value` pairs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// [`Args::parse_with_flags`] with no boolean flags.
    #[cfg(test)]
    pub(crate) fn parse(argv: &[String]) -> Result<Self, String> {
        Self::parse_with_flags(argv, &[])
    }

    /// Parse a flat `--key value --key2 value2 ...` list. Every flag must
    /// start with `--` and take exactly one value, except those named in
    /// `bool_flags`, whose presence stores `"true"` (query with
    /// [`Args::flag`]); duplicates are rejected.
    pub(crate) fn parse_with_flags(argv: &[String], bool_flags: &[&str]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let Some(key) = flag.strip_prefix("--") else {
                return Err(format!("expected a --flag, got '{flag}'"));
            };
            if key.is_empty() {
                return Err("empty flag name".into());
            }
            let value = if bool_flags.contains(&key) {
                "true".to_string()
            } else {
                let Some(value) = it.next() else {
                    return Err(format!("flag --{key} is missing its value"));
                };
                value.clone()
            };
            if values.insert(key.to_string(), value).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        }
        Ok(Args { values })
    }

    /// A required string flag.
    pub(crate) fn required(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag.
    pub(crate) fn optional(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// A boolean flag (parsed via `parse_with_flags`): present or not.
    pub(crate) fn flag(&self, key: &str) -> bool {
        self.values.get(key).map(|v| v == "true").unwrap_or(false)
    }

    /// An optional parsed flag with a default.
    pub(crate) fn parsed_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{key}: cannot parse '{v}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs() {
        let a = Args::parse(&s(&["--x", "1", "--name", "hi"])).unwrap();
        assert_eq!(a.required("x").unwrap(), "1");
        assert_eq!(a.optional("name"), Some("hi"));
        assert_eq!(a.optional("missing"), None);
        assert_eq!(a.parsed_or::<u64>("x", 9).unwrap(), 1);
        assert_eq!(a.parsed_or::<u64>("y", 9).unwrap(), 9);
    }

    #[test]
    fn rejects_bare_values() {
        assert!(Args::parse(&s(&["x", "1"])).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(Args::parse(&s(&["--x"])).is_err());
    }

    #[test]
    fn rejects_duplicates() {
        assert!(Args::parse(&s(&["--x", "1", "--x", "2"])).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = Args::parse_with_flags(&s(&["--profile", "--x", "1"]), &["profile"]).unwrap();
        assert!(a.flag("profile"));
        assert!(!a.flag("x"), "value flags are not boolean");
        assert!(!a.flag("absent"));
        assert_eq!(a.required("x").unwrap(), "1");
        // A boolean flag at the end must not consume a value.
        let a = Args::parse_with_flags(&s(&["--x", "1", "--profile"]), &["profile"]).unwrap();
        assert!(a.flag("profile"));
        // Without registration, --profile still demands a value.
        assert!(Args::parse(&s(&["--profile"])).is_err());
    }

    #[test]
    fn bad_parse_reports_flag() {
        let a = Args::parse(&s(&["--n", "abc"])).unwrap();
        let err = a.parsed_or::<u64>("n", 0).unwrap_err();
        assert!(err.contains("--n"));
    }
}
