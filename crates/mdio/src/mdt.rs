//! MDT: a minimal binary trajectory format.
//!
//! Layout (all little-endian):
//! ```text
//! magic   b"MDT1"           4 bytes
//! n_atoms u32               4 bytes
//! n_frames u32              4 bytes
//! frames  n_frames × n_atoms × 3 × f32
//! ```
//! Dense, seekable (frame k starts at `12 + k * n_atoms * 12`), and the
//! per-atom payload (12 bytes) matches what a real single-precision DCD
//! stores, so file sizes — and therefore simulated read times — are
//! realistic.

use crate::{ByteReader, IoError, Result};
use linalg::{Frame, Vec3};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"MDT1";

/// Serialize frames to the MDT byte layout.
pub fn encode_mdt(frames: &[Frame]) -> Result<Vec<u8>> {
    let n_atoms = frames.first().map_or(0, Frame::n_atoms);
    for (k, f) in frames.iter().enumerate() {
        if f.n_atoms() != n_atoms {
            return Err(IoError::Format(format!(
                "frame {k} has {} atoms, expected {n_atoms}",
                f.n_atoms()
            )));
        }
    }
    // The decoder refuses what a flood of empty frames would look like.
    if n_atoms == 0 && !frames.is_empty() {
        return Err(IoError::Format("zero-atom frames".into()));
    }
    let mut buf = Vec::with_capacity(12 + frames.len() * n_atoms * 12);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(n_atoms as u32).to_le_bytes());
    buf.extend_from_slice(&(frames.len() as u32).to_le_bytes());
    for f in frames {
        for p in f.positions() {
            buf.extend_from_slice(&p.x.to_le_bytes());
            buf.extend_from_slice(&p.y.to_le_bytes());
            buf.extend_from_slice(&p.z.to_le_bytes());
        }
    }
    Ok(buf)
}

/// Parse MDT bytes into frames.
pub fn decode_mdt(data: &[u8]) -> Result<Vec<Frame>> {
    let mut r = ByteReader::new(data);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(IoError::Format(format!("bad magic {magic:?}")));
    }
    let n_atoms = r.u32()? as usize;
    let n_frames = r.u32()? as usize;
    // Zero-atom frames would need no payload: 12 header bytes could ask
    // for 2³² frames.
    if n_atoms == 0 && n_frames > 0 {
        return Err(IoError::Format(format!("{n_frames} frames of zero atoms")));
    }
    let need = n_frames
        .checked_mul(n_atoms)
        .and_then(|x| x.checked_mul(12))
        .ok_or_else(|| IoError::Format("size overflow".into()))?;
    if r.rest().len() != need {
        return Err(IoError::Format(format!(
            "payload is {} bytes, header implies {need}",
            r.rest().len()
        )));
    }
    let mut frames = Vec::with_capacity(n_frames);
    for _ in 0..n_frames {
        let mut pos = Vec::with_capacity(n_atoms);
        for _ in 0..n_atoms {
            pos.push(Vec3::new(r.f32()?, r.f32()?, r.f32()?));
        }
        frames.push(Frame::new(pos));
    }
    Ok(frames)
}

/// Write frames to an MDT file.
pub fn write_mdt(path: &Path, frames: &[Frame]) -> Result<()> {
    let bytes = encode_mdt(frames)?;
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)?;
    Ok(())
}

/// Read an MDT file.
pub fn read_mdt(path: &Path) -> Result<Vec<Frame>> {
    let mut f = std::fs::File::open(path)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    decode_mdt(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn frames_of(data: &[Vec<(f32, f32, f32)>]) -> Vec<Frame> {
        data.iter()
            .map(|f| Frame::new(f.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect()))
            .collect()
    }

    #[test]
    fn roundtrip_in_memory() {
        let frames = frames_of(&[
            vec![(0.0, 1.0, 2.0), (3.0, 4.0, 5.0)],
            vec![(-1.0, 0.5, 9.0), (0.0, 0.0, 0.0)],
        ]);
        let bytes = encode_mdt(&frames).unwrap();
        assert_eq!(bytes.len(), 12 + 2 * 2 * 12);
        assert_eq!(decode_mdt(&bytes).unwrap(), frames);
    }

    #[test]
    fn roundtrip_on_disk() {
        let dir = std::env::temp_dir().join("mdio_test_mdt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.mdt");
        let frames = frames_of(&[vec![(1.5, 2.5, 3.5)]]);
        write_mdt(&path, &frames).unwrap();
        assert_eq!(read_mdt(&path).unwrap(), frames);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_trajectory_roundtrips() {
        let bytes = encode_mdt(&[]).unwrap();
        assert_eq!(decode_mdt(&bytes).unwrap(), Vec::<Frame>::new());
    }

    #[test]
    fn mismatched_frames_rejected() {
        let frames = frames_of(&[
            vec![(0.0, 0.0, 0.0)],
            vec![(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)],
        ]);
        assert!(encode_mdt(&frames).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_mdt(&frames_of(&[vec![(0.0, 0.0, 0.0)]])).unwrap();
        bytes[0] = b'X';
        assert!(decode_mdt(&bytes).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let bytes = encode_mdt(&frames_of(&[vec![(0.0, 0.0, 0.0)]])).unwrap();
        assert!(decode_mdt(&bytes[..bytes.len() - 4]).is_err());
        assert!(decode_mdt(&bytes[..8]).is_err());
    }

    proptest! {
        #[test]
        fn roundtrip_any_trajectory(
            n_atoms in 1usize..20,
            n_frames in 0usize..8,
            seed_vals in prop::collection::vec(-1e6f32..1e6, 0..480),
        ) {
            let mut vals = seed_vals.iter().cycle();
            let frames: Vec<Frame> = (0..n_frames).map(|_| {
                Frame::new((0..n_atoms).map(|_| Vec3::new(
                    *vals.next().unwrap_or(&0.0),
                    *vals.next().unwrap_or(&0.0),
                    *vals.next().unwrap_or(&0.0),
                )).collect())
            }).collect();
            let bytes = encode_mdt(&frames).unwrap();
            prop_assert_eq!(decode_mdt(&bytes).unwrap(), frames);
        }
    }
}
