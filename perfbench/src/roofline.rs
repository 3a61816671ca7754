//! Host limits the CAM search kernels are compared against: memory
//! copy bandwidth over a buffer larger than the last-level cache, and
//! the rate of XOR + popcount over 64-bit words held in L1 (the inner
//! step of a packed TCAM Hamming search).

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Bytes copied per repetition: past any last-level cache on the hosts
/// this runs on, so the copy streams from memory.
const COPY_BYTES: usize = 64 << 20;
/// Words per popcount pass: 16 KiB, inside L1.
const POPCNT_WORDS: usize = 2048;
const REPS: usize = 5;

/// Median memcpy bandwidth, GB/s of bytes copied.
pub fn memcpy_gbps() -> f64 {
    let src = vec![0x5au8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    dst.copy_from_slice(&src); // fault the pages in before timing
    let rates: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            COPY_BYTES as f64 / t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&rates)
}

#[inline(always)]
fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x ^ y).count_ones()))
        .sum()
}

/// [`xor_popcount`] compiled with the POPCNT instruction.
///
/// # Safety
/// The CPU must support POPCNT.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn xor_popcount_native(a: &[u64], b: &[u64]) -> u64 {
    xor_popcount(a, b)
}

fn xor_popcount_best(a: &[u64], b: &[u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: the only requirement of a `target_feature` function is
        // that the CPU supports the feature, which was just detected.
        return unsafe { xor_popcount_native(a, b) };
    }
    xor_popcount(a, b)
}

/// Median XOR + popcount rate, billions of 64-bit words per second.
pub fn popcnt_gops() -> f64 {
    let a: Vec<u64> = (0..POPCNT_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let b: Vec<u64> = a.iter().map(|x| x.rotate_left(17)).collect();
    let passes = 20_000;
    let rates: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0u64;
            for _ in 0..passes {
                acc = acc.wrapping_add(xor_popcount_best(black_box(&a), black_box(&b)));
            }
            black_box(acc);
            (passes * POPCNT_WORDS) as f64 / t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_and_portable_popcount_agree() {
        let a: Vec<u64> = (0..64u64).map(|i| i * 0x0123_4567_89ab_cdef).collect();
        let b: Vec<u64> = a.iter().map(|x| !x).collect();
        assert_eq!(xor_popcount_best(&a, &b), xor_popcount(&a, &b));
        assert_eq!(xor_popcount(&a, &b), 64 * 64);
    }
}
