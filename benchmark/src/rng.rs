//! The benchmark's own seeded generator (SplitMix64) and input digest.
//!
//! Inputs must be a pure function of `--seed`, on every host and
//! toolchain, so the generator is spelled out here and not borrowed
//! from a crate whose stream could change under us.

/// SplitMix64: tiny, statistically fine for shuffles and size draws.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a seed, so that adding a draw
    /// to one generator does not shift every other one.
    pub fn stream(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ fnv64(stream.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is irrelevant at
    /// the sizes used here (n ≤ a few hundred against 2^64).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a, 64-bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a generated corpus: names and sources, length-prefixed.
pub fn corpus_digest<'a>(programs: impl Iterator<Item = (&'a str, &'a str)>) -> String {
    let mut bytes = Vec::new();
    for (name, source) in programs {
        for part in [name, source] {
            bytes.extend_from_slice(&(part.len() as u64).to_le_bytes());
            bytes.extend_from_slice(part.as_bytes());
        }
    }
    format!("{:016x}", fnv64(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::stream(7, "t");
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::stream(7, "t");
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = Rng::stream(8, "t");
        assert_ne!(a[0], r.next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..50).collect();
        Rng::stream(3, "t").shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }

    #[test]
    fn range_stays_inside() {
        let mut r = Rng::stream(1, "t");
        for _ in 0..1000 {
            let x = r.range(6, 20);
            assert!((6..=20).contains(&x));
        }
    }
}
