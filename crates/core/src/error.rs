//! Error type shared by the LoPRAM crates.

use std::fmt;

/// Errors produced while configuring or driving the LoPRAM runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A pool or machine was requested with zero processors.
    ZeroProcessors,
    /// An input did not satisfy a documented precondition.
    InvalidInput(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ZeroProcessors => write!(f, "a LoPRAM must have at least one processor"),
            Error::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias used throughout the LoPRAM crates.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_zero_processors() {
        assert_eq!(
            Error::ZeroProcessors.to_string(),
            "a LoPRAM must have at least one processor"
        );
    }

    #[test]
    fn display_invalid_input() {
        let e = Error::InvalidInput("n must be a power of two".into());
        assert!(e.to_string().contains("power of two"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<Error>();
    }
}
