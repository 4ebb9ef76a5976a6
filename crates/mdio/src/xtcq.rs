//! XTCQ: a quantized, delta-compressed trajectory format in the spirit of
//! GROMACS' XTC.
//!
//! Coordinates are quantized to a fixed-point grid (default 10⁻³ Å, XTC's
//! precision), then encoded as zig-zag varints of per-atom deltas within a
//! frame and per-frame deltas across time. MD coordinates are spatially
//! and temporally correlated, so this typically compresses 2–4× against
//! raw `f32` — which matters when a µs simulation emits hundreds of GB
//! (§1: "a typical µsec MD simulation … can produce from O(10) to O(1000)
//! GBs of data").
//!
//! Layout:
//! ```text
//! magic    b"XTQ1"          4 bytes
//! n_atoms  u32
//! n_frames u32
//! inv_prec f32              (quantization steps per Å, e.g. 1000)
//! frame 0  varint stream    (delta within frame, from previous atom)
//! frame k  varint stream    (delta from the same atom in frame k-1)
//! ```

use crate::{ByteReader, IoError, Result};
use linalg::{Frame, Vec3};
use std::path::Path;

const MAGIC: &[u8; 4] = b"XTQ1";

/// Default precision: 1000 steps per Å (XTC's `prec=1000`).
pub const DEFAULT_PRECISION: f32 = 1000.0;

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(r: &mut ByteReader) -> Result<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = r.u8()?;
        out |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
        if shift >= 64 {
            return Err(IoError::Format("varint overflow".into()));
        }
    }
}

fn quantize(frames: &[Frame], inv_prec: f32) -> Vec<Vec<[i64; 3]>> {
    frames
        .iter()
        .map(|f| {
            f.positions()
                .iter()
                .map(|p| {
                    [
                        (p.x * inv_prec).round() as i64,
                        (p.y * inv_prec).round() as i64,
                        (p.z * inv_prec).round() as i64,
                    ]
                })
                .collect()
        })
        .collect()
}

/// Encode frames with the given quantization (`inv_prec` steps per Å).
pub fn encode_xtcq(frames: &[Frame], inv_prec: f32) -> Result<Vec<u8>> {
    assert!(inv_prec > 0.0, "precision must be positive");
    let n_atoms = frames.first().map_or(0, Frame::n_atoms);
    for (k, f) in frames.iter().enumerate() {
        if f.n_atoms() != n_atoms {
            return Err(IoError::Format(format!("frame {k} atom count mismatch")));
        }
    }
    // The decoder refuses what a flood of empty frames would look like.
    if n_atoms == 0 && !frames.is_empty() {
        return Err(IoError::Format("zero-atom frames".into()));
    }
    let q = quantize(frames, inv_prec);
    let mut buf = Vec::with_capacity(16 + frames.len() * n_atoms * 4);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(n_atoms as u32).to_le_bytes());
    buf.extend_from_slice(&(frames.len() as u32).to_le_bytes());
    buf.extend_from_slice(&inv_prec.to_le_bytes());
    for (k, frame) in q.iter().enumerate() {
        let mut prev = [0i64; 3];
        for (a, atom) in frame.iter().enumerate() {
            let reference = if k == 0 {
                // Within-frame delta from the previous atom (chain
                // topology keeps neighbours close).
                prev
            } else {
                // Across-frame delta from the same atom one frame ago
                // (thermal motion is small per step).
                q[k - 1][a]
            };
            for d in 0..3 {
                let delta = atom[d].checked_sub(reference[d]).ok_or_else(|| {
                    IoError::Format(format!("frame {k} atom {a}: delta overflow"))
                })?;
                put_varint(&mut buf, zigzag(delta));
            }
            prev = *atom;
        }
    }
    Ok(buf)
}

/// Decode an XTCQ byte stream. Coordinates are exact multiples of the
/// stored precision (lossy by at most `0.5 / inv_prec` per axis relative
/// to the original).
pub fn decode_xtcq(data: &[u8]) -> Result<Vec<Frame>> {
    let mut r = ByteReader::new(data);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(IoError::Format(format!("bad magic {magic:?}")));
    }
    let n_atoms = r.u32()? as usize;
    let n_frames = r.u32()? as usize;
    let inv_prec = r.f32()?;
    if inv_prec.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(IoError::Format("non-positive precision".into()));
    }
    // Every coordinate is at least a one-byte varint, so the header may
    // not promise more atoms than the payload can hold, nor frames of
    // zero atoms, which need no payload at all.
    let fits = n_frames
        .checked_mul(n_atoms)
        .and_then(|x| x.checked_mul(3))
        .is_some_and(|min| min <= r.rest().len());
    if !fits || (n_atoms == 0 && n_frames > 0) {
        return Err(IoError::Format(format!(
            "{n_frames} frames of {n_atoms} atoms cannot fit in {} bytes",
            r.rest().len()
        )));
    }
    let mut frames: Vec<Vec<[i64; 3]>> = Vec::with_capacity(n_frames);
    for _ in 0..n_frames {
        let mut frame = Vec::with_capacity(n_atoms);
        let mut prev = [0i64; 3];
        for a in 0..n_atoms {
            let reference = frames.last().map_or(prev, |pf| pf[a]);
            let mut atom = [0i64; 3];
            for (d, slot) in atom.iter_mut().enumerate() {
                *slot = reference[d]
                    .checked_add(unzigzag(get_varint(&mut r)?))
                    .ok_or_else(|| IoError::Format("coordinate overflow".into()))?;
            }
            prev = atom;
            frame.push(atom);
        }
        frames.push(frame);
    }
    if !r.rest().is_empty() {
        return Err(IoError::Format("trailing bytes".into()));
    }
    let prec = 1.0 / inv_prec;
    Ok(frames
        .into_iter()
        .map(|frame| {
            Frame::new(
                frame
                    .into_iter()
                    .map(|[x, y, z]| Vec3::new(x as f32 * prec, y as f32 * prec, z as f32 * prec))
                    .collect(),
            )
        })
        .collect())
}

/// Write frames to an XTCQ file with the default precision.
pub fn write_xtcq(path: &Path, frames: &[Frame]) -> Result<()> {
    std::fs::write(path, encode_xtcq(frames, DEFAULT_PRECISION)?)?;
    Ok(())
}

/// Read an XTCQ file.
pub fn read_xtcq(path: &Path) -> Result<Vec<Frame>> {
    decode_xtcq(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: &Frame, b: &Frame, tol: f32) -> bool {
        a.n_atoms() == b.n_atoms()
            && a.positions().iter().zip(b.positions()).all(|(p, q)| {
                (p.x - q.x).abs() <= tol && (p.y - q.y).abs() <= tol && (p.z - q.z).abs() <= tol
            })
    }

    #[test]
    fn roundtrip_within_precision() {
        let spec = mdsim_fixture(40, 12);
        let bytes = encode_xtcq(&spec, DEFAULT_PRECISION).unwrap();
        let back = decode_xtcq(&bytes).unwrap();
        assert_eq!(back.len(), spec.len());
        for (a, b) in spec.iter().zip(&back) {
            assert!(close(a, b, 0.5 / DEFAULT_PRECISION + 1e-4));
        }
    }

    /// A correlated random walk standing in for an MD trajectory (mdsim is
    /// a dev-dependency; generate inline to keep the fixture local).
    fn mdsim_fixture(n_atoms: usize, n_frames: usize) -> Vec<Frame> {
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) as f32 - 0.5
        };
        let mut pos: Vec<Vec3> = (0..n_atoms)
            .map(|i| Vec3::new(i as f32 * 3.8 + next(), next() * 5.0, next() * 5.0))
            .collect();
        (0..n_frames)
            .map(|_| {
                for p in &mut pos {
                    *p += Vec3::new(next() * 0.3, next() * 0.3, next() * 0.3);
                }
                Frame::new(pos.clone())
            })
            .collect()
    }

    #[test]
    fn compresses_correlated_trajectories() {
        let frames = mdsim_fixture(200, 50);
        let raw = crate::mdt::encode_mdt(&frames).unwrap();
        let packed = encode_xtcq(&frames, DEFAULT_PRECISION).unwrap();
        assert!(
            (packed.len() as f64) < 0.6 * raw.len() as f64,
            "expected >40% compression: raw {} packed {}",
            raw.len(),
            packed.len()
        );
    }

    #[test]
    fn empty_and_single_frame() {
        assert!(decode_xtcq(&encode_xtcq(&[], 1000.0).unwrap())
            .unwrap()
            .is_empty());
        let one = vec![Frame::new(vec![Vec3::new(1.2345, -2.5, 0.0)])];
        let back = decode_xtcq(&encode_xtcq(&one, 1000.0).unwrap()).unwrap();
        assert!(close(&one[0], &back[0], 6e-4));
    }

    #[test]
    fn corrupted_input_rejected() {
        let mut bytes = encode_xtcq(&mdsim_fixture(3, 2), 1000.0).unwrap();
        bytes[0] = b'Z';
        assert!(decode_xtcq(&bytes).is_err());
        let bytes = encode_xtcq(&mdsim_fixture(3, 2), 1000.0).unwrap();
        assert!(decode_xtcq(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_xtcq(&bytes[..10]).is_err());
    }

    #[test]
    fn on_disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mdio-xtcq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.xtcq");
        let frames = mdsim_fixture(10, 4);
        write_xtcq(&path, &frames).unwrap();
        let back = read_xtcq(&path).unwrap();
        assert_eq!(back.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        /// Lossy round trip: every coordinate within half a quantum.
        #[test]
        fn quantization_error_bounded(
            coords in prop::collection::vec(
                (-500.0f32..500.0, -500.0f32..500.0, -500.0f32..500.0), 1..40),
            frames in 1usize..5,
            prec in prop::sample::select(vec![100.0f32, 1000.0, 10000.0]),
        ) {
            let base: Vec<Vec3> = coords.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
            let traj: Vec<Frame> = (0..frames)
                .map(|k| Frame::new(base.iter().map(|p| *p + Vec3::new(k as f32 * 0.1, 0.0, 0.0)).collect()))
                .collect();
            let back = decode_xtcq(&encode_xtcq(&traj, prec).unwrap()).unwrap();
            let tol = 0.5 / prec + 500.0 * f32::EPSILON * 8.0;
            for (a, b) in traj.iter().zip(&back) {
                prop_assert!(close(a, b, tol));
            }
        }

        /// Varint zig-zag primitives round-trip any i64.
        #[test]
        fn varint_roundtrip(v in any::<i64>()) {
            let mut buf = Vec::new();
            put_varint(&mut buf, zigzag(v));
            let mut r = ByteReader::new(&buf);
            prop_assert_eq!(unzigzag(get_varint(&mut r).unwrap()), v);
            prop_assert!(r.rest().is_empty());
        }
    }
}
