//! Key prefixes: the paper's `(prefix_key, prefix_length)` pairs.

/// Number of bits in a key/node identifier (the paper's simulations use
/// 64-bit identifiers; so do we).
pub const KEY_BITS: u32 = 64;

/// An `len`-bit prefix of a 64-bit key, stored left-aligned with the
/// unused low bits zeroed — exactly the paper's *prefix_key* /
/// *prefix_length* representation.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    key: u64,
    len: u32,
}

impl Prefix {
    /// The empty prefix: the whole key space / whole index space.
    pub const ROOT: Prefix = Prefix { key: 0, len: 0 };

    /// Build from a left-aligned key and a length. Panics if `key` has
    /// bits set beyond `len` or `len > 64`.
    pub fn new(key: u64, len: u32) -> Prefix {
        assert!(len <= KEY_BITS, "prefix length {len} > {KEY_BITS}");
        assert_eq!(
            key & Self::low_mask(len),
            0,
            "prefix key {key:#x} has bits set beyond length {len}"
        );
        Prefix { key, len }
    }

    /// The first `len` bits of `key`, low bits zeroed.
    pub fn of_key(key: u64, len: u32) -> Prefix {
        assert!(len <= KEY_BITS);
        Prefix {
            key: key & !Self::low_mask(len),
            len,
        }
    }

    /// Mask of the `KEY_BITS - len` low (non-prefix) bits.
    #[inline]
    fn low_mask(len: u32) -> u64 {
        // len == 64 must give 0; a plain `>> 64` would overflow.
        u64::MAX.checked_shr(len).unwrap_or(0)
    }

    /// The left-aligned prefix key (paper's `prefix_key`).
    #[inline]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The prefix length (paper's `prefix_length`).
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True for the root prefix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when every division has been applied (a single cell).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == KEY_BITS
    }

    /// The `pos`-th bit (1-based from the most significant bit, the
    /// paper's convention). Panics if `pos` exceeds the prefix length.
    #[inline]
    pub fn bit(&self, pos: u32) -> u8 {
        assert!(pos >= 1 && pos <= self.len, "bit {pos} of {self:?}");
        ((self.key >> (KEY_BITS - pos)) & 1) as u8
    }

    /// The child prefix obtained by appending `bit` (0 or 1).
    #[inline]
    pub fn child(&self, bit: u8) -> Prefix {
        assert!(self.len < KEY_BITS, "cannot extend a full prefix");
        debug_assert!(bit <= 1);
        let len = self.len + 1;
        let key = self.key | ((bit as u64) << (KEY_BITS - len));
        Prefix { key, len }
    }

    /// True when `key`'s first `len` bits equal this prefix.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        (key & !Self::low_mask(self.len)) == self.key
    }

    /// True when `other` extends (or equals) this prefix.
    pub fn contains_prefix(&self, other: &Prefix) -> bool {
        other.len >= self.len && self.contains_key(other.key)
    }

    /// The inclusive range of keys sharing this prefix: the contiguous
    /// arc of the ring a cuboid occupies.
    pub fn key_range(&self) -> (u64, u64) {
        (self.key, self.key | Self::low_mask(self.len))
    }

    /// Iterate the bits of the prefix from the most significant.
    pub fn bits(&self) -> impl Iterator<Item = u8> + '_ {
        (1..=self.len).map(move |pos| self.bit(pos))
    }
}

impl std::fmt::Debug for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Prefix(\"")?;
        for b in self.bits() {
            write!(f, "{b}")?;
        }
        write!(f, "\")")
    }
}

impl std::fmt::Display for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in self.bits() {
            write!(f, "{b}")?;
        }
        if self.len == 0 {
            write!(f, "ε")?;
        }
        Ok(())
    }
}

/// Parse a prefix from a bit string like `"011"` (test/debug helper).
impl std::str::FromStr for Prefix {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut p = Prefix::ROOT;
        for c in s.chars() {
            match c {
                '0' => p = p.child(0),
                '1' => p = p.child(1),
                _ => return Err(format!("invalid prefix bit {c:?}")),
            }
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_and_children() {
        let root = Prefix::ROOT;
        assert_eq!(root.len(), 0);
        assert!(root.is_empty());
        assert!(root.contains_key(0));
        assert!(root.contains_key(u64::MAX));
        let one = root.child(1);
        assert_eq!(one.len(), 1);
        assert_eq!(one.key(), 1 << 63);
        assert_eq!(one.bit(1), 1);
        let zero = root.child(0);
        assert_eq!(zero.key(), 0);
        assert_eq!(zero.bit(1), 0);
    }

    #[test]
    fn paper_figure_example() {
        // Figure 1(a): prefix "011" → prefix_key 0110...0.
        let p: Prefix = "011".parse().unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.key(), 0b011u64 << 61);
        assert_eq!(p.bit(1), 0);
        assert_eq!(p.bit(2), 1);
        assert_eq!(p.bit(3), 1);
        assert_eq!(format!("{p}"), "011");
        // Its children are "0110" and "0111" (figure 1b).
        assert_eq!(format!("{}", p.child(0)), "0110");
        assert_eq!(format!("{}", p.child(1)), "0111");
    }

    #[test]
    fn key_ranges() {
        let p: Prefix = "011".parse().unwrap();
        let (lo, hi) = p.key_range();
        assert_eq!(lo, 0b011u64 << 61);
        assert_eq!(hi, (0b100u64 << 61) - 1);
        assert!(p.contains_key(lo));
        assert!(p.contains_key(hi));
        assert!(!p.contains_key(hi + 1));
        assert!(!p.contains_key(lo - 1));
        // Root covers everything.
        assert_eq!(Prefix::ROOT.key_range(), (0, u64::MAX));
    }

    #[test]
    fn containment() {
        let p: Prefix = "01".parse().unwrap();
        let q: Prefix = "011".parse().unwrap();
        let r: Prefix = "00".parse().unwrap();
        assert!(p.contains_prefix(&q));
        assert!(p.contains_prefix(&p));
        assert!(!q.contains_prefix(&p));
        assert!(!p.contains_prefix(&r));
    }

    #[test]
    fn of_key_truncates() {
        let key = 0xDEAD_BEEF_0000_0000u64;
        let p = Prefix::of_key(key, 8);
        assert_eq!(p.key(), 0xDE00_0000_0000_0000);
        assert_eq!(p.len(), 8);
        assert!(p.contains_key(key));
        // Full-length prefix is a single key.
        let full = Prefix::of_key(key, 64);
        assert!(full.is_full());
        assert_eq!(full.key_range(), (key, key));
    }

    #[test]
    fn bits_round_trip() {
        let p: Prefix = "1011001".parse().unwrap();
        let s: String = p.bits().map(|b| char::from(b'0' + b)).collect();
        assert_eq!(s, "1011001");
    }

    #[test]
    #[should_panic(expected = "bits set beyond length")]
    fn new_rejects_dirty_low_bits() {
        let _ = Prefix::new(1, 8);
    }

    #[test]
    #[should_panic(expected = "cannot extend")]
    fn child_of_full_prefix_panics() {
        let p = Prefix::of_key(0, 64);
        let _ = p.child(0);
    }
}
