//! Shared environment-variable parsing with a warn-once contract.
//!
//! Every SNIP runtime knob (`SNIP_SIMD`, `SNIP_THREADS`, `SNIP_TRACE`)
//! follows the same idiom: the variable is read **once** per process from
//! inside a `OnceLock` initializer, an unrecognized value emits **one**
//! warning to stderr listing the accepted values, and the process then
//! proceeds with the documented default instead of silently ignoring the
//! typo. Before this module each crate hand-rolled that loop; now they all
//! call [`read`] (or [`parse`] when the raw value comes from somewhere other
//! than the real environment, e.g. a unit test).

/// Outcome of parsing one environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnvValue<T> {
    /// Variable absent, empty, or whitespace-only: use the default quietly.
    Unset,
    /// Variable present and recognized.
    Parsed(T),
    /// Variable present but not recognized; a warning was (or must be)
    /// emitted and the default applies.
    Unrecognized,
}

impl<T> EnvValue<T> {
    /// The parsed value, or `default` for both `Unset` and `Unrecognized`.
    pub fn unwrap_or(self, default: T) -> T {
        match self {
            EnvValue::Parsed(v) => v,
            _ => default,
        }
    }
}

/// Pure half of the idiom: classifies `raw` (as read from the environment)
/// with `parse`, without touching the process environment or stderr.
/// `parse` returns `None` for values it does not recognize.
pub fn parse<T>(raw: Option<&str>, parse: impl FnOnce(&str) -> Option<T>) -> EnvValue<T> {
    match raw.map(str::trim) {
        None | Some("") => EnvValue::Unset,
        Some(v) => match parse(v) {
            Some(t) => EnvValue::Parsed(t),
            None => EnvValue::Unrecognized,
        },
    }
}

/// Reads `name` from the process environment, parses it with `parse_fn`,
/// and on an unrecognized value emits one stderr warning listing
/// `accepted` (a short human-readable table of accepted values). Returns
/// `None` for unset *and* unrecognized values, so callers substitute their
/// default either way.
///
/// Call this from a `OnceLock`/`LazyLock` initializer: the once-per-process
/// warning guarantee is structural (the initializer runs once), exactly as
/// `SNIP_SIMD` always behaved.
pub fn read<T>(name: &str, accepted: &str, parse_fn: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let raw = std::env::var(name).ok();
    match parse(raw.as_deref(), parse_fn) {
        EnvValue::Parsed(v) => Some(v),
        EnvValue::Unset => None,
        EnvValue::Unrecognized => {
            warn_unrecognized(name, raw.as_deref().unwrap_or(""), accepted);
            None
        }
    }
}

/// The shared warning line: one per unrecognized variable per process (the
/// caller guarantees once-ness by warning from a `OnceLock` initializer).
fn warn_unrecognized(name: &str, raw: &str, accepted: &str) {
    eprintln!("snip: ignoring unrecognized {name}={raw:?}; accepted values: {accepted}");
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> EnvValue<T> {
        /// True only for `Unrecognized`.
        fn is_unrecognized(&self) -> bool {
            matches!(self, EnvValue::Unrecognized)
        }
    }

    #[test]
    fn unset_and_blank_are_unset() {
        assert_eq!(parse(None, |_| Some(1)), EnvValue::Unset);
        assert_eq!(parse(Some(""), |_| Some(1)), EnvValue::Unset);
        assert_eq!(parse(Some("   "), |_| Some(1)), EnvValue::Unset);
    }

    #[test]
    fn recognized_values_parse_and_trim() {
        let v = parse(Some(" 4 "), |s| s.parse::<usize>().ok());
        assert_eq!(v, EnvValue::Parsed(4));
    }

    #[test]
    fn unrecognized_values_fall_back() {
        let v = parse(Some("banana"), |s| s.parse::<usize>().ok());
        assert!(v.is_unrecognized());
        assert_eq!(v.unwrap_or(7), 7);
    }
}
