//! Text XYZ trajectory format (multi-frame).
//!
//! Per frame:
//! ```text
//! <n_atoms>
//! <comment line>
//! EL x y z        (n_atoms lines)
//! ```
//! Element symbols are written as `C` and ignored on read (positions are
//! all the analysis algorithms consume).

use crate::{IoError, Result};
use linalg::{Frame, Vec3};
use std::fmt::Write as _;
use std::path::Path;

/// Serialize frames as multi-frame XYZ text.
pub fn encode_xyz(frames: &[Frame]) -> String {
    let mut out = String::new();
    for (k, f) in frames.iter().enumerate() {
        let _ = writeln!(out, "{}", f.n_atoms());
        let _ = writeln!(out, "frame {k}");
        for p in f.positions() {
            let _ = writeln!(out, "C {} {} {}", p.x, p.y, p.z);
        }
    }
    out
}

/// Parse multi-frame XYZ text.
pub fn decode_xyz(text: &str) -> Result<Vec<Frame>> {
    let mut lines = text.lines().enumerate().peekable();
    let mut frames = Vec::new();
    while let Some((lno, header)) = lines.next() {
        let header = header.trim();
        if header.is_empty() {
            continue;
        }
        let n: usize = header
            .parse()
            .map_err(|_| IoError::Format(format!("line {}: expected atom count", lno + 1)))?;
        let _comment = lines
            .next()
            .ok_or_else(|| IoError::Format("missing comment line".into()))?;
        // An atom line takes at least 8 bytes ("C 0 0 0\n"), so the text
        // bounds what a lying count may reserve.
        let mut pos = Vec::with_capacity(n.min(text.len() / 8));
        for _ in 0..n {
            let (lno, line) = lines
                .next()
                .ok_or_else(|| IoError::Format("truncated frame".into()))?;
            let mut parts = line.split_whitespace();
            let _el = parts
                .next()
                .ok_or_else(|| IoError::Format(format!("line {}: empty atom line", lno + 1)))?;
            let mut coord = |what: &str| -> Result<f32> {
                parts
                    .next()
                    .ok_or_else(|| IoError::Format(format!("line {}: missing {what}", lno + 1)))?
                    .parse()
                    .map_err(|_| IoError::Format(format!("line {}: bad {what}", lno + 1)))
            };
            let (x, y, z) = (coord("x")?, coord("y")?, coord("z")?);
            pos.push(Vec3::new(x, y, z));
        }
        frames.push(Frame::new(pos));
    }
    Ok(frames)
}

/// Write frames to an XYZ file.
pub fn write_xyz(path: &Path, frames: &[Frame]) -> Result<()> {
    std::fs::write(path, encode_xyz(frames))?;
    Ok(())
}

/// Read an XYZ file.
pub fn read_xyz(path: &Path) -> Result<Vec<Frame>> {
    decode_xyz(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(coords: &[(f32, f32, f32)]) -> Frame {
        Frame::new(coords.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect())
    }

    #[test]
    fn roundtrip_two_frames() {
        let frames = vec![
            frame(&[(0.0, 1.0, 2.0), (3.25, -4.5, 5.0)]),
            frame(&[(9.0, 8.0, 7.0), (1.0, 1.0, 1.0)]),
        ];
        let text = encode_xyz(&frames);
        assert_eq!(decode_xyz(&text).unwrap(), frames);
    }

    #[test]
    fn empty_input_gives_no_frames() {
        assert!(decode_xyz("").unwrap().is_empty());
        assert!(decode_xyz("\n\n").unwrap().is_empty());
    }

    #[test]
    fn garbage_header_rejected() {
        assert!(decode_xyz("notanumber\ncomment\n").is_err());
    }

    #[test]
    fn truncated_frame_rejected() {
        assert!(decode_xyz("2\ncomment\nC 0 0 0\n").is_err());
    }

    #[test]
    fn bad_coordinate_rejected() {
        assert!(decode_xyz("1\nc\nC 0 zero 0\n").is_err());
        assert!(decode_xyz("1\nc\nC 0 0\n").is_err());
    }

    #[test]
    fn interoperates_with_mdt() {
        let frames = vec![frame(&[(1.0, 2.0, 3.0)])];
        let bytes = crate::mdt::encode_mdt(&frames).unwrap();
        let back = crate::mdt::decode_mdt(&bytes).unwrap();
        assert_eq!(decode_xyz(&encode_xyz(&back)).unwrap(), frames);
    }
}
