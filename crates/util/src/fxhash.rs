//! FxHash: the fast, non-cryptographic hash function used by the Rust
//! compiler, reimplemented here so the workspace stays within its allowed
//! dependency set.
//!
//! The algorithm hashes one machine word at a time with
//! `state = (state.rotate_left(5) ^ word) * K` where `K` is a fixed odd
//! constant. It is extremely fast for the short, integer-dense keys used by
//! the classifier's partition refinement (class ids, label triples) and by
//! graph deduplication. It offers no HashDoS resistance — all inputs in this
//! workspace are generated locally, never attacker-controlled.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc implementation (64-bit).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A [`Hasher`] implementing FxHash over 64-bit words.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

/// Feeds `bytes` to `add_word` 8 bytes at a time, then the tail in one
/// padded word. The tail padding means `write(b"ab")` != `write(b"ab\0")`,
/// because the length is mixed into the final word.
#[inline]
fn byte_words(bytes: &[u8], mut add_word: impl FnMut(u64)) {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        add_word(u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        tail[7] = tail[7].wrapping_add(rem.len() as u8);
        add_word(u64::from_le_bytes(tail));
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        byte_words(bytes, |word| self.add_word(word));
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_word(v as u64);
        self.add_word((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// Two FxHash lanes over one word stream: a 128-bit fingerprint
/// ([`FxHasher128::finish128`]). The high lane starts from `seed` and
/// folds every word rotated and XORed with it: per-word FxHash maps are
/// bijections, so this decorrelates the lanes' collision sets, and
/// fingerprints made with different seeds differ even over equal words.
#[derive(Debug, Clone, Copy)]
pub struct FxHasher128 {
    lo: FxHasher,
    hi: FxHasher,
    seed: u64,
}

impl FxHasher128 {
    /// Both lanes empty but for `seed` in the high one.
    pub fn new(seed: u64) -> FxHasher128 {
        let mut hi = FxHasher::default();
        hi.add_word(seed);
        FxHasher128 {
            lo: FxHasher::default(),
            hi,
            seed,
        }
    }

    #[inline]
    fn add_word(&mut self, word: u64) {
        self.lo.add_word(word);
        self.hi.add_word(word.rotate_left(32) ^ self.seed);
    }

    /// The two lanes, high lane in the upper 64 bits.
    pub fn finish128(&self) -> u128 {
        ((self.hi.state as u128) << 64) | self.lo.state as u128
    }
}

impl Hasher for FxHasher128 {
    /// The low lane alone.
    #[inline]
    fn finish(&self) -> u64 {
        self.lo.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        byte_words(bytes, |word| self.add_word(word));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with FxHash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with FxHash.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hashes a single value with FxHash; convenient for fingerprinting.
pub fn hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        let a = hash_one(&(1u32, 2u64, "abc"));
        let b = hash_one(&(1u32, 2u64, "abc"));
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_one(&1u64), hash_one(&2u64));
        assert_ne!(hash_one(&(1u32, 2u32)), hash_one(&(2u32, 1u32)));
    }

    #[test]
    fn byte_tail_is_length_sensitive() {
        let mut h1 = FxHasher::default();
        h1.write(b"ab");
        let mut h2 = FxHasher::default();
        h2.write(b"ab\0");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn long_byte_streams_chunk_correctly() {
        // Same logical content split differently must match only when the
        // write boundaries match (Hasher contract does not require stream
        // splitting invariance, but a single write must be stable).
        let data: Vec<u8> = (0..=63).collect();
        let mut h1 = FxHasher::default();
        h1.write(&data);
        let mut h2 = FxHasher::default();
        h2.write(&data);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
    }

    #[test]
    fn spread_over_small_ints_is_reasonable() {
        // 1024 consecutive integers should not collide in the low 10 bits
        // too catastrophically; check bucket occupancy with 256 buckets.
        let mut buckets = [0u32; 256];
        for i in 0..1024u64 {
            buckets[(hash_one(&i) % 256) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(
            max <= 32,
            "suspiciously lumpy distribution: max bucket {max}"
        );
    }
}
