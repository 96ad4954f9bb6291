//! Sparse 64-bit data memory.

use std::collections::HashMap;

const PAGE_WORDS: usize = 512;
const PAGE_BYTES: u64 = (PAGE_WORDS as u64) * 8;

/// Entries of the page memo (a power of two).
const MEMO_PAGES: usize = 16;

/// The page number of an empty memo entry: page numbers are byte
/// addresses over [`PAGE_BYTES`], so none reaches it.
const NO_PAGE: u64 = u64::MAX;

/// A sparse, word-addressed data memory.
///
/// ```
/// use polyflow_isa::Memory;
///
/// let mut m = Memory::new();
/// m.write(0x1000, 42);
/// assert_eq!(m.read(0x1000), 42);
/// assert_eq!(m.read(0x2000), 0); // unwritten reads as zero
/// ```
///
/// Addresses are byte addresses; accesses operate on aligned 64-bit words
/// (the low three address bits are ignored, as the ISA only defines
/// doubleword loads and stores). Unwritten locations read as zero.
///
/// Resident pages live in a slab indexed through a hash map keyed by
/// page number (the default, randomly keyed hasher: addresses come from
/// the program, and uploaded programs are outside input). A 16-entry
/// direct-mapped memo, indexed by the page number's low bits, remembers
/// the slots of recently touched pages, so kernels that alternate
/// between a few pages pay for one hash lookup per page, not one per
/// access. Only the `&mut` accesses (the interpreter's loads, and
/// [`Memory::write`]) fill the memo, so `Memory` stays `Send + Sync`
/// without interior mutability.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Page number → index into `pages`.
    slots: HashMap<u64, usize>,
    pages: Vec<Box<[u64; PAGE_WORDS]>>,
    /// `(page number, slot)` of a resident page whose number is the
    /// entry's index mod [`MEMO_PAGES`], or `(NO_PAGE, 0)`.
    memo: [(u64, usize); MEMO_PAGES],
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            slots: HashMap::new(),
            pages: Vec::new(),
            memo: [(NO_PAGE, 0); MEMO_PAGES],
        }
    }
}

/// The memo entry of `page`.
#[inline]
fn memo_index(page: u64) -> usize {
    page as usize % MEMO_PAGES
}

/// The page number and in-page word offset of byte address `addr`.
#[inline]
fn locate(addr: u64) -> (u64, usize) {
    let word = Memory::align(addr) / 8;
    (
        word / PAGE_WORDS as u64,
        (word % PAGE_WORDS as u64) as usize,
    )
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Word-aligns a byte address.
    pub fn align(addr: u64) -> u64 {
        addr & !7
    }

    /// Reads the 64-bit word containing byte address `addr`.
    pub fn read(&self, addr: u64) -> u64 {
        let (page, at) = locate(addr);
        let (memo_page, slot) = self.memo[memo_index(page)];
        if memo_page == page {
            return self.pages[slot][at];
        }
        self.slots.get(&page).map_or(0, |&s| self.pages[s][at])
    }

    /// [`Memory::read`], remembering the page for the next access: the
    /// interpreter's load path.
    #[inline]
    pub(crate) fn load(&mut self, addr: u64) -> u64 {
        let (page, at) = locate(addr);
        let memo = &mut self.memo[memo_index(page)];
        if memo.0 != page {
            match self.slots.get(&page) {
                Some(&s) => *memo = (page, s),
                None => return 0,
            }
        }
        self.pages[memo.1][at]
    }

    /// Writes the 64-bit word containing byte address `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        let (page, at) = locate(addr);
        let memo = &mut self.memo[memo_index(page)];
        if memo.0 != page {
            let pages = &mut self.pages;
            let slot = *self.slots.entry(page).or_insert_with(|| {
                pages.push(Box::new([0; PAGE_WORDS]));
                pages.len() - 1
            });
            *memo = (page, slot);
        }
        self.pages[memo.1][at] = value;
    }

    /// Number of resident pages (each spanning `4 KiB`).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total bytes spanned by resident pages.
    pub fn resident_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_BYTES
    }
}

/// The memory the interpreter used before the page memo: every access
/// hashes its page number. Kept as the differential reference.
#[cfg(test)]
pub(crate) mod reference {
    use super::{locate, PAGE_WORDS};
    use std::collections::HashMap;

    #[derive(Debug, Clone, Default)]
    pub(crate) struct Memory {
        pages: HashMap<u64, Box<[u64; PAGE_WORDS]>>,
    }

    impl Memory {
        pub(crate) fn read(&self, addr: u64) -> u64 {
            let (page, at) = locate(addr);
            self.pages.get(&page).map_or(0, |p| p[at])
        }

        pub(crate) fn write(&mut self, addr: u64, value: u64) {
            let (page, at) = locate(addr);
            self.pages
                .entry(page)
                .or_insert_with(|| Box::new([0; PAGE_WORDS]))[at] = value;
        }

        pub(crate) fn resident_pages(&self) -> usize {
            self.pages.len()
        }

        /// Every resident word's byte address.
        pub(crate) fn addresses(&self) -> impl Iterator<Item = u64> + '_ {
            self.pages.keys().flat_map(|&page| {
                (0..PAGE_WORDS as u64).map(move |w| (page * PAGE_WORDS as u64 + w) * 8)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(0xdead_beef), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = Memory::new();
        m.write(64, 42);
        assert_eq!(m.read(64), 42);
        // Unaligned access reads the containing word.
        assert_eq!(m.read(67), 42);
        m.write(71, 7); // same word as 64? no: 71 & !7 == 64. Yes.
        assert_eq!(m.read(64), 7);
    }

    #[test]
    fn distinct_pages() {
        let mut m = Memory::new();
        m.write(0, 1);
        m.write(PAGE_BYTES * 3, 2);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read(0), 1);
        assert_eq!(m.read(PAGE_BYTES * 3), 2);
        assert_eq!(m.resident_bytes(), 2 * PAGE_BYTES);
    }

    #[test]
    fn align_masks_low_bits() {
        assert_eq!(Memory::align(0), 0);
        assert_eq!(Memory::align(7), 0);
        assert_eq!(Memory::align(8), 8);
        assert_eq!(Memory::align(15), 8);
    }

    /// Pages that share a memo entry (numbers 16 apart) evict each
    /// other from it and keep their own contents.
    #[test]
    fn memo_collisions_keep_pages_apart() {
        let mut m = Memory::new();
        let stride = PAGE_BYTES * MEMO_PAGES as u64;
        for round in 0..3u64 {
            for k in 0..4u64 {
                m.write(k * stride + 8, round * 10 + k);
            }
            for k in 0..4u64 {
                assert_eq!(m.load(k * stride + 8), round * 10 + k);
                assert_eq!(m.read(k * stride + 8), round * 10 + k);
            }
        }
        assert_eq!(m.resident_pages(), 4);
        assert_eq!(m.load(5 * stride), 0, "an absent page reads zero");
    }

    /// Random loads, reads and stores over a few clustered pages, the
    /// page zero and the top of the address space agree with the hashed
    /// reference access by access, and resident pages match after each.
    #[test]
    fn matches_the_hashed_reference() {
        let mut rng = SplitMix64::new(0x5eed);
        let bases = [
            0u64,
            PAGE_BYTES,
            7 * PAGE_BYTES,
            0x8000_0000 - 64,
            u64::MAX - 4095,
        ];
        let mut fast = Memory::new();
        let mut slow = reference::Memory::default();
        for step in 0..20_000u64 {
            let base = bases[(rng.next_u64() % bases.len() as u64) as usize];
            let addr = base.wrapping_add(rng.next_u64() % (2 * PAGE_BYTES));
            match rng.next_u64() % 3 {
                0 => {
                    fast.write(addr, step);
                    slow.write(addr, step);
                }
                1 => assert_eq!(fast.load(addr), slow.read(addr), "load {addr:#x}"),
                _ => assert_eq!(fast.read(addr), slow.read(addr), "read {addr:#x}"),
            }
            assert_eq!(fast.resident_pages(), slow.resident_pages());
        }
        // A clone keeps the contents and the memo consistent.
        let copy = fast.clone();
        for base in bases {
            for k in 0..64 {
                let addr = base.wrapping_add(k * 97);
                assert_eq!(copy.read(addr), slow.read(addr));
            }
        }
    }
}
