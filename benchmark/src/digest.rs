//! Input digests: a 64-bit FNV-1a over everything a run feeds the system
//! under test, printed with every result so two runs can be shown to have
//! measured byte-identical work.

/// An incremental FNV-1a 64 hasher. Every field is length-prefixed, so
/// `("ab", "c")` and `("a", "bc")` digest differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    fn raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.raw(&x.to_le_bytes());
        self
    }

    /// Folds one length-prefixed byte string.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.u64(bytes.len() as u64);
        self.raw(bytes);
        self
    }

    /// Folds the `Debug` rendering of a value — stable for the plain data
    /// types the workloads are made of (deltas, predicates, attributes).
    pub fn debug(&mut self, value: &impl std::fmt::Debug) -> &mut Self {
        self.bytes(format!("{value:?}").as_bytes())
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // Raw FNV-1a 64 test vectors ("" and "a").
        assert_eq!(Digest::new().hex(), "cbf29ce484222325");
        let mut d = Digest::new();
        d.raw(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
    }

    #[test]
    fn same_input_same_digest_and_order_matters() {
        let mut a = Digest::new();
        a.u64(1).bytes(b"xy").debug(&vec![(1u32, 2u32)]);
        let mut b = Digest::new();
        b.u64(1).bytes(b"xy").debug(&vec![(1u32, 2u32)]);
        assert_eq!(a, b);
        let mut c = Digest::new();
        c.bytes(b"xy").u64(1).debug(&vec![(1u32, 2u32)]);
        assert_ne!(a, c);
    }

    #[test]
    fn length_prefix_separates_adjacent_fields() {
        let mut a = Digest::new();
        a.bytes(b"ab").bytes(b"c");
        let mut b = Digest::new();
        b.bytes(b"a").bytes(b"bc");
        assert_ne!(a, b);
    }
}
