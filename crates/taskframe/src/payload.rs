//! Wire-size accounting for task inputs and outputs.
//!
//! Every value an engine moves between simulated nodes implements
//! [`Payload`]: `wire_bytes` drives the network-model charge and the
//! shuffle/broadcast byte counters; `item_count` drives Dask's list-wise
//! broadcast tax (per logical element, see
//! `netsim::BroadcastAlgo::ListWise`).
//!
//! Sizes follow a simple length-prefixed binary encoding: scalars are their
//! memory width, sequences add a 4-byte length prefix. They deliberately
//! match what `mdio`'s formats and a compact pickle would produce, so the
//! paper's shuffle-volume observations (e.g. "~100 MB edge list for 524k
//! atoms, reduced >50% by shuffling partial components") reproduce.

use linalg::{Frame, Vec3};

/// A value whose serialized size (and logical element count) is known.
pub trait Payload {
    /// Serialized size in bytes.
    fn wire_bytes(&self) -> u64;

    /// Number of logical elements (1 for scalars; length for sequences).
    fn item_count(&self) -> u64 {
        1
    }
}

macro_rules! scalar_payload {
    ($($t:ty),*) => {$(
        impl Payload for $t {
            fn wire_bytes(&self) -> u64 {
                std::mem::size_of::<$t>() as u64
            }
        }
    )*};
}

scalar_payload!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool);

impl Payload for () {
    fn wire_bytes(&self) -> u64 {
        0
    }
    fn item_count(&self) -> u64 {
        0
    }
}

impl Payload for String {
    fn wire_bytes(&self) -> u64 {
        4 + self.len() as u64
    }
}

impl Payload for Vec3 {
    fn wire_bytes(&self) -> u64 {
        12
    }
}

impl Payload for Frame {
    fn wire_bytes(&self) -> u64 {
        4 + 12 * self.n_atoms() as u64
    }
    fn item_count(&self) -> u64 {
        self.n_atoms() as u64
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn wire_bytes(&self) -> u64 {
        self.0.wire_bytes() + self.1.wire_bytes()
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    fn wire_bytes(&self) -> u64 {
        self.0.wire_bytes() + self.1.wire_bytes() + self.2.wire_bytes()
    }
}

impl<T: Payload> Payload for Option<T> {
    fn wire_bytes(&self) -> u64 {
        1 + self.as_ref().map_or(0, Payload::wire_bytes)
    }
    fn item_count(&self) -> u64 {
        self.as_ref().map_or(0, Payload::item_count)
    }
}

impl<T: Payload> Payload for Vec<T> {
    fn wire_bytes(&self) -> u64 {
        4 + self.iter().map(Payload::wire_bytes).sum::<u64>()
    }
    fn item_count(&self) -> u64 {
        self.len() as u64
    }
}

impl<T: Payload> Payload for &T {
    fn wire_bytes(&self) -> u64 {
        (**self).wire_bytes()
    }
    fn item_count(&self) -> u64 {
        (**self).item_count()
    }
}

/// A shared value costs what its contents cost: engines broadcast an
/// `Arc` of the input without copying it on the host, and every byte
/// count, transfer charge and memory check sees the pointee.
impl<T: Payload> Payload for std::sync::Arc<T> {
    fn wire_bytes(&self) -> u64 {
        (**self).wire_bytes()
    }
    fn item_count(&self) -> u64 {
        (**self).item_count()
    }
}

impl<T: Payload> Payload for &[T] {
    fn wire_bytes(&self) -> u64 {
        4 + self.iter().map(Payload::wire_bytes).sum::<u64>()
    }
    fn item_count(&self) -> u64 {
        self.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(3u32.wire_bytes(), 4);
        assert_eq!(3.0f64.wire_bytes(), 8);
        assert_eq!(true.wire_bytes(), 1);
        assert_eq!(().wire_bytes(), 0);
        assert_eq!(7u32.item_count(), 1);
    }

    #[test]
    fn sequences_add_prefix() {
        let v = vec![1u32, 2, 3];
        assert_eq!(v.wire_bytes(), 4 + 12);
        assert_eq!(v.item_count(), 3);
        assert_eq!(Vec::<u32>::new().wire_bytes(), 4);
    }

    #[test]
    fn edge_lists_are_8_bytes_per_edge() {
        // The paper's ~100 MB edge list for 3.52M edges implies ~28 B/edge
        // in pickled Python; our compact encoding is 8 B/edge + prefix,
        // preserving the *relative* shuffle-volume comparison.
        let edges: Vec<(u32, u32)> = vec![(0, 1); 1000];
        assert_eq!(edges.wire_bytes(), 4 + 8 * 1000);
    }

    #[test]
    fn nested_vectors() {
        let parts: Vec<Vec<u32>> = vec![vec![1, 2], vec![3]];
        assert_eq!(parts.wire_bytes(), 4 + (4 + 8) + (4 + 4));
        assert_eq!(parts.item_count(), 2);
    }

    #[test]
    fn frames_count_atoms() {
        let f = Frame::zeros(10);
        assert_eq!(f.wire_bytes(), 4 + 120);
        assert_eq!(f.item_count(), 10);
        let traj = vec![Frame::zeros(10), Frame::zeros(10)];
        assert_eq!(traj.wire_bytes(), 4 + 2 * 124);
    }

    #[test]
    fn arc_delegates_to_the_pointee() {
        let traj = vec![Frame::zeros(10), Frame::zeros(10)];
        let (bytes, items) = (traj.wire_bytes(), traj.item_count());
        let shared = std::sync::Arc::new(traj);
        assert_eq!(shared.wire_bytes(), bytes);
        assert_eq!(shared.item_count(), items);
    }

    #[test]
    fn options_and_strings() {
        assert_eq!(Some(1u64).wire_bytes(), 9);
        assert_eq!(None::<u64>.wire_bytes(), 1);
        assert_eq!("abc".to_string().wire_bytes(), 7);
    }
}
