//! Trajectory file I/O.
//!
//! The paper's pipelines read trajectory files from a parallel filesystem
//! (Lustre); each PSA task "reads its respective input files in parallel"
//! (§4.2) and RADICAL-Pilot exchanges *all* data through files (§3.3).
//! This crate provides that code path on a local filesystem:
//!
//! * [`mdt`] — a compact binary trajectory format (magic, atom/frame
//!   counts, little-endian `f32` coordinates);
//! * [`xyz`] — the ubiquitous text XYZ format, for interoperability and
//!   debugging;
//! * [`staging`] — numbered per-task partition files, used by the pilot
//!   engine's stage-in/stage-out;
//! * [`ByteReader`] — the bounds-checked little-endian cursor every
//!   binary decoder reads through (here and in `core::codec`), so a short
//!   input is an [`IoError::Format`] by construction, never a panic.
//!   Writers append `to_le_bytes()` to a `Vec<u8>`.

pub mod mdt;
pub mod staging;
pub mod stream;
pub mod xtcq;
pub mod xyz;

pub use mdt::{read_mdt, write_mdt};
pub use staging::StagingArea;
pub use stream::StreamSource;
pub use xtcq::{read_xtcq, write_xtcq};
pub use xyz::{read_xyz, write_xyz};

/// Errors from trajectory I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file exists but is not a valid trajectory of the expected format.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

pub type Result<T> = std::result::Result<T, IoError>;

/// A little-endian cursor over a byte slice. Every read checks its
/// bounds: one past the end is `Err(IoError::Format)` and consumes
/// nothing.
#[derive(Debug)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { rest: data }
    }

    /// The unread bytes.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(IoError::Format(format!(
                "truncated: {n} B wanted, {} B left",
                self.rest.len()
            )));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn f32(&mut self) -> Result<f32> {
        self.array().map(f32::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = vec![7];
        buf.extend_from_slice(&0xdead_beef_u32.to_le_bytes());
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        buf.extend_from_slice(b"xyz");

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.rest(), b"xyz");
        assert_eq!(r.take(3).unwrap(), b"xyz");
        assert!(r.rest().is_empty());
        assert_eq!(r.take(0).unwrap(), b"");
    }

    #[test]
    fn short_read_is_a_format_error() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.u32(), Err(IoError::Format(_))));
        assert!(matches!(r.f32(), Err(IoError::Format(_))));
        assert!(matches!(r.take(3), Err(IoError::Format(_))));
        // A refused read consumes nothing.
        assert_eq!(r.rest(), [1, 2]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u8().unwrap(), 2);
        assert!(matches!(r.u8(), Err(IoError::Format(_))));
    }
}
