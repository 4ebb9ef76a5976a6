//! Hostile trajectory bytes: every decoder answers a truncated, flipped,
//! spliced or lying input with `Ok` or a typed [`IoError::Format`] — never
//! a panic — and reserves no memory out of proportion to the input.
//!
//! This test binary runs on an allocator that records the largest single
//! request of the calling thread, so a header that talks a decoder into a
//! huge `Vec::with_capacity` fails here instead of on a user's machine.

use linalg::{Frame, Vec3};
use mdio::mdt::{decode_mdt, encode_mdt};
use mdio::xtcq::{decode_xtcq, encode_xtcq, DEFAULT_PRECISION};
use mdio::xyz::{decode_xyz, encode_xyz};
use mdio::IoError;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, recording the largest single request per thread.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only a const-initialized thread-local `Cell`, which neither
// allocates nor has a destructor.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Run `decode`, returning its result and the largest single allocation
/// it made.
fn largest_alloc<T>(decode: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = decode();
    (out, LARGEST.with(Cell::get))
}

/// Room for the error message a refused input allocates.
const MESSAGE: usize = 128;

/// `decode` refuses `input` with a typed format error, allocating no more
/// than the input's size (an error message aside).
fn refused<T: std::fmt::Debug>(input: &[u8], decode: impl FnOnce() -> mdio::Result<T>) {
    let (out, largest) = largest_alloc(decode);
    assert!(matches!(out, Err(IoError::Format(_))), "{out:?}");
    assert!(
        largest <= input.len() + MESSAGE,
        "allocated {largest} B for a {} B input",
        input.len()
    );
}

fn header(magic: &[u8; 4], n_atoms: u32, n_frames: u32) -> Vec<u8> {
    [
        magic.as_slice(),
        &n_atoms.to_le_bytes(),
        &n_frames.to_le_bytes(),
    ]
    .concat()
}

fn varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[test]
fn mdt_zero_atom_flood_is_refused() {
    // 12 bytes, no payload needed: 2³² - 1 frames of nothing.
    let input = header(b"MDT1", 0, u32::MAX);
    refused(&input, || decode_mdt(&input));
    assert!(matches!(
        encode_mdt(&[Frame::new(Vec::new())]),
        Err(IoError::Format(_))
    ));
}

#[test]
fn xtcq_zero_atom_flood_is_refused() {
    let mut input = header(b"XTQ1", 0, u32::MAX);
    input.extend_from_slice(&DEFAULT_PRECISION.to_le_bytes());
    refused(&input, || decode_xtcq(&input));
    assert!(matches!(
        encode_xtcq(&[Frame::new(Vec::new())], DEFAULT_PRECISION),
        Err(IoError::Format(_))
    ));
}

#[test]
fn xtcq_frame_count_beyond_the_payload_is_refused() {
    let mut input = header(b"XTQ1", 1, u32::MAX);
    input.extend_from_slice(&DEFAULT_PRECISION.to_le_bytes());
    input.extend_from_slice(&[0, 0, 0]); // one frame of one atom
    refused(&input, || decode_xtcq(&input));
}

#[test]
fn xtcq_delta_overflow_is_refused() {
    // One atom, two frames: frame 0 at i64::MAX on every axis, frame 1
    // one quantum further.
    let mut input = header(b"XTQ1", 1, 2);
    input.extend_from_slice(&DEFAULT_PRECISION.to_le_bytes());
    for zigzagged in [u64::MAX - 1, 2] {
        for _axis in 0..3 {
            varint(zigzagged, &mut input);
        }
    }
    refused(&input, || decode_xtcq(&input));
    // The encoder refuses the delta the decoder could not undo.
    let extremes = [f32::INFINITY, f32::NEG_INFINITY]
        .map(|c| Frame::new(vec![Vec3::new(c, c, c)]))
        .to_vec();
    assert!(matches!(
        encode_xtcq(&extremes, DEFAULT_PRECISION),
        Err(IoError::Format(_))
    ));
}

#[test]
fn xyz_atom_count_beyond_the_text_is_refused() {
    for text in ["1000000000000000000\nc\n", "10000000000\nc\nC 0 0 0\n"] {
        refused(text.as_bytes(), || decode_xyz(text));
    }
}

fn trajectory(n_atoms: usize, n_frames: usize, seed: u32) -> Vec<Frame> {
    (0..n_frames)
        .map(|k| {
            Frame::new(
                (0..n_atoms)
                    .map(|i| {
                        let v = (seed as f32 + (i * 7 + k) as f32) * 0.37;
                        Vec3::new(v, -v * 0.5, v * 1.5)
                    })
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn every_strict_prefix_of_a_valid_file_is_refused() {
    let frames = trajectory(3, 2, 7);
    let mdt = encode_mdt(&frames).unwrap();
    let xtcq = encode_xtcq(&frames, DEFAULT_PRECISION).unwrap();
    for n in 0..mdt.len() {
        refused(&mdt[..n], || decode_mdt(&mdt[..n]));
    }
    for n in 0..xtcq.len() {
        refused(&xtcq[..n], || decode_xtcq(&xtcq[..n]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Truncated, byte-flipped and self-spliced MDT, XTCQ and XYZ
    /// encodings, and ones whose header counts are rewritten to 0, 1 or
    /// `u32::MAX`, decode or fail with a typed format error — never a
    /// panic — and no allocation is out of proportion to the input.
    #[test]
    fn mangled_trajectory_bytes_decode_or_fail_typed(
        format in 0u8..3,
        n_atoms in 1usize..6,
        n_frames in 1usize..5,
        seed in any::<u32>(),
        op in 0u8..4,
        at in 0usize..4096,
        from in 0usize..4096,
        len in 0usize..48,
        byte in any::<u8>(),
        count in prop::sample::select(vec![0u32, 1, u32::MAX]),
        frames_field in any::<bool>(),
    ) {
        let frames = trajectory(n_atoms, n_frames, seed);
        let mut bytes = match format {
            0 => encode_mdt(&frames).unwrap(),
            1 => encode_xtcq(&frames, DEFAULT_PRECISION).unwrap(),
            _ => encode_xyz(&frames).into_bytes(),
        };
        let n = bytes.len();
        let (at, from) = (at % n, from % n);
        match op {
            0 => bytes.truncate(at),
            1 => bytes[at] = byte,
            2 => {
                let piece = bytes[from..(from + len).min(n)].to_vec();
                bytes.splice(at..at, piece);
            }
            _ if format < 2 => {
                let field = if frames_field { 8 } else { 4 };
                bytes[field..field + 4].copy_from_slice(&count.to_le_bytes());
            }
            _ => {
                let line = bytes.iter().position(|&b| b == b'\n').unwrap();
                bytes.splice(..line, count.to_string().into_bytes());
            }
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let (out, largest) = largest_alloc(|| match format {
            0 => decode_mdt(&bytes).map(|f| f.len()),
            1 => decode_xtcq(&bytes).map(|f| f.len()),
            _ => decode_xyz(&text).map(|f| f.len()),
        });
        prop_assert!(!matches!(out, Err(IoError::Io(_))), "{:?}", out);
        prop_assert!(
            largest <= 16 * bytes.len() + 4096,
            "allocated {} B for a {} B input",
            largest,
            bytes.len()
        );
    }
}
