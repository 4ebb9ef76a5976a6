//! Byte framing for pilot staging: trajectory groups and coordinate
//! slices are *really* serialized, written to the staging filesystem, and
//! decoded inside the Compute-Unit — RADICAL-Pilot's only data path.

use linalg::Vec3;
use mdio::ByteReader;
use mdsim::Trajectory;

/// Encode a list of trajectories: `u32` count, then per trajectory an
/// `u32` length prefix and its MDT bytes.
pub fn encode_trajectories(trajs: &[&Trajectory]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(trajs.len() as u32).to_le_bytes());
    for t in trajs {
        let body = mdio::mdt::encode_mdt(&t.frames).expect("uniform trajectory encodes");
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
    }
    buf
}

/// Decode [`encode_trajectories`] output.
///
/// # Panics
/// Panics on malformed input (staging is engine-internal; corruption is a
/// bug, not an input error).
pub fn decode_trajectories(data: &[u8]) -> Vec<Trajectory> {
    let mut r = ByteReader::new(data);
    let n = r.u32().expect("trajectory count") as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.u32().expect("trajectory length") as usize;
        let body = r.take(len).expect("trajectory bytes");
        out.push(Trajectory {
            frames: mdio::mdt::decode_mdt(body).expect("valid MDT"),
        });
    }
    assert!(r.rest().is_empty(), "trailing bytes after trajectories");
    out
}

/// Encode a coordinate slice: `u32` count then 12 bytes per point.
pub fn encode_points(points: &[Vec3]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + points.len() * 12);
    buf.extend_from_slice(&(points.len() as u32).to_le_bytes());
    for p in points {
        buf.extend_from_slice(&p.x.to_le_bytes());
        buf.extend_from_slice(&p.y.to_le_bytes());
        buf.extend_from_slice(&p.z.to_le_bytes());
    }
    buf
}

/// Decode [`encode_points`] output, returning any remaining bytes.
///
/// # Panics
/// Panics on malformed input, as [`decode_trajectories`] does.
pub fn decode_points(data: &[u8]) -> (Vec<Vec3>, &[u8]) {
    let mut r = ByteReader::new(data);
    let n = r.u32().expect("point count") as usize;
    let mut coord = || r.f32().expect("point coordinate");
    let out = (0..n)
        .map(|_| Vec3::new(coord(), coord(), coord()))
        .collect();
    (out, r.rest())
}

/// Encode two coordinate slices back to back (a 2-D block's row and
/// column atoms).
pub fn encode_point_pair(rows: &[Vec3], cols: &[Vec3]) -> Vec<u8> {
    let mut buf = encode_points(rows);
    buf.extend_from_slice(&encode_points(cols));
    buf
}

/// Decode [`encode_point_pair`] output.
pub fn decode_point_pair(data: &[u8]) -> (Vec<Vec3>, Vec<Vec3>) {
    let (rows, rest) = decode_points(data);
    let (cols, rest) = decode_points(rest);
    assert!(rest.is_empty(), "trailing bytes after point pair");
    (rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::ChainSpec;

    #[test]
    fn trajectories_roundtrip() {
        let spec = ChainSpec {
            n_atoms: 9,
            n_frames: 4,
            stride: 1,
            ..ChainSpec::default()
        };
        let e = mdsim::chain::generate_ensemble(&spec, 3, 11);
        let refs: Vec<&Trajectory> = e.iter().collect();
        let bytes = encode_trajectories(&refs);
        let back = decode_trajectories(&bytes);
        assert_eq!(back, e);
    }

    #[test]
    fn empty_trajectory_list_roundtrips() {
        let bytes = encode_trajectories(&[]);
        assert!(decode_trajectories(&bytes).is_empty());
    }

    #[test]
    fn points_roundtrip() {
        let pts = vec![Vec3::new(1.0, -2.0, 3.5), Vec3::ZERO];
        let bytes = encode_points(&pts);
        let (back, rest) = decode_points(&bytes);
        assert_eq!(back, pts);
        assert!(rest.is_empty());
    }

    #[test]
    fn point_pair_roundtrip() {
        let rows = vec![Vec3::new(1.0, 0.0, 0.0)];
        let cols = vec![Vec3::new(0.0, 2.0, 0.0), Vec3::new(0.0, 0.0, 3.0)];
        let bytes = encode_point_pair(&rows, &cols);
        let (r, c) = decode_point_pair(&bytes);
        assert_eq!(r, rows);
        assert_eq!(c, cols);
    }
}
