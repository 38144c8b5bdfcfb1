//! Cache-line-aligned struct-of-arrays storage for shard-lane hot
//! state.
//!
//! A [`ShardLane`](crate::calendar) sweeps its per-node scalars
//! (choices, back-buffers, epochs, sequence counters) once per
//! window; with plain `Vec<u32>`/`Vec<u64>` those sweeps start at an
//! arbitrary offset inside a cache line and two lanes' allocations
//! can share a line (false sharing once lanes run on separate worker
//! threads). The vectors here store their elements in 64-byte
//! `#[repr(C, align(64))]` chunks — the `trueno-viz` framebuffer
//! idiom — so every lane's array starts on its own cache line, a
//! 16-wide `u32` (or 8-wide `u64`) chunk is exactly one line, and the
//! inner loop streams line after line with no partial prefix.
//!
//! The types keep ordinary `Vec` ergonomics where the engine needs
//! them: `Index`/`IndexMut`, `push`, `iter`, `extend`/`collect` (sized
//! once from the iterator's length hint), and a draining
//! iterator for the rebalance path's flatten/re-split. Everything is
//! safe Rust — alignment comes from the chunk type's declared layout,
//! not from manual allocation.

use std::ops::{Index, IndexMut};

macro_rules! aligned_vec {
    ($(#[$meta:meta])* $name:ident, $chunk:ident, $elem:ty, $lanes:expr) => {
        /// One cache line of elements. Padding slots beyond `len`
        /// always hold `<$elem>::default()` so chunk-wise comparison
        /// equals element-wise comparison.
        #[repr(C, align(64))]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        struct $chunk([$elem; $lanes]);

        const _: () = assert!(std::mem::size_of::<$chunk>() == 64);
        const _: () = assert!(std::mem::align_of::<$chunk>() == 64);

        $(#[$meta])*
        #[derive(Clone, Debug, Default)]
        pub(crate) struct $name {
            chunks: Vec<$chunk>,
            len: usize,
        }

        impl $name {
            /// A vector of `len` copies of `fill`, allocated once at
            /// its exact chunk count.
            pub(crate) fn with_len(len: usize, fill: $elem) -> Self {
                let mut chunks = vec![$chunk([fill; $lanes]); len.div_ceil($lanes)];
                if let Some(last) = chunks.last_mut() {
                    let live = len - (len - 1) / $lanes * $lanes;
                    last.0[live..].fill(<$elem>::default());
                }
                Self { chunks, len }
            }

            pub(crate) fn len(&self) -> usize {
                self.len
            }

            /// Appends one element.
            pub(crate) fn push(&mut self, value: $elem) {
                let (chunk, slot) = (self.len / $lanes, self.len % $lanes);
                if slot == 0 {
                    self.chunks.push($chunk([<$elem>::default(); $lanes]));
                }
                self.chunks[chunk].0[slot] = value;
                self.len += 1;
            }

            /// Iterates the live elements (padding excluded).
            pub(crate) fn iter(&self) -> impl Iterator<Item = &$elem> + '_ {
                self.chunks
                    .iter()
                    .flat_map(|c| c.0.iter())
                    .take(self.len())
            }

            /// Empties `self`, yielding its elements in order — the
            /// rebalance path's flatten step.
            pub(crate) fn drain_all(&mut self) -> impl Iterator<Item = $elem> + '_ {
                let len = self.len;
                self.len = 0;
                self.chunks
                    .drain(..)
                    .flat_map(|c| c.0.into_iter())
                    .take(len)
            }
        }

        impl Extend<$elem> for $name {
            /// Appends every element, reserving the chunks the
            /// iterator's lower size bound promises up front.
            fn extend<I: IntoIterator<Item = $elem>>(&mut self, iter: I) {
                let iter = iter.into_iter();
                let chunks = (self.len + iter.size_hint().0).div_ceil($lanes);
                self.chunks
                    .reserve_exact(chunks.saturating_sub(self.chunks.len()));
                for v in iter {
                    self.push(v);
                }
            }
        }

        impl FromIterator<$elem> for $name {
            fn from_iter<I: IntoIterator<Item = $elem>>(iter: I) -> Self {
                let mut v = Self::default();
                v.extend(iter);
                v
            }
        }

        impl Index<usize> for $name {
            type Output = $elem;
            #[inline]
            fn index(&self, i: usize) -> &$elem {
                assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
                &self.chunks[i / $lanes].0[i % $lanes]
            }
        }

        impl IndexMut<usize> for $name {
            #[inline]
            fn index_mut(&mut self, i: usize) -> &mut $elem {
                assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
                &mut self.chunks[i / $lanes].0[i % $lanes]
            }
        }

        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                // Padding is held at default, so chunk equality is
                // element equality.
                self.len == other.len && self.chunks == other.chunks
            }
        }
        impl Eq for $name {}
    };
}

aligned_vec!(
    /// Cache-line-aligned `u32` storage: 16 elements per 64-byte line.
    AlignedU32s,
    ChunkU32,
    u32,
    16
);

aligned_vec!(
    /// Cache-line-aligned `u64` storage: 8 elements per 64-byte line.
    AlignedU64s,
    ChunkU64,
    u64,
    8
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_cache_line_aligned() {
        let mut v = AlignedU32s::with_len(33, 0);
        v[0] = 7;
        assert_eq!(std::ptr::from_ref(&v[0]) as usize % 64, 0);
        assert_eq!(std::ptr::from_ref(&v[16]) as usize % 64, 0);
        let w = AlignedU64s::with_len(9, 0);
        assert_eq!(std::ptr::from_ref(&w[0]) as usize % 64, 0);
        assert_eq!(std::ptr::from_ref(&w[8]) as usize % 64, 0);
    }

    #[test]
    fn index_push_and_len_behave_like_vec() {
        let mut v = AlignedU32s::default();
        let mut reference = Vec::new();
        for i in 0..100u32 {
            v.push(i * 3);
            reference.push(i * 3);
        }
        assert_eq!(v.len(), reference.len());
        for (i, r) in reference.iter().enumerate() {
            assert_eq!(v[i], *r);
        }
        v[57] = 999;
        assert_eq!(v[57], 999);
        assert_eq!(v.iter().count(), 100);
    }

    #[test]
    fn with_len_fills_and_resize_grows() {
        let mut v = AlignedU64s::with_len(20, 42);
        assert!(v.iter().all(|&x| x == 42));
        v.extend(std::iter::repeat_n(7, 5));
        assert_eq!(v.len(), 25);
        assert_eq!(v[19], 42);
        assert_eq!(v[20], 7);
    }

    #[test]
    fn with_len_and_collect_allocate_the_exact_chunk_count() {
        for len in [0usize, 1, 15, 16, 17, 33, 256] {
            let chunks = len.div_ceil(16);
            let v = AlignedU32s::with_len(len, 7);
            assert_eq!((v.chunks.len(), v.chunks.capacity()), (chunks, chunks));
            let c: AlignedU32s = (0..len).map(|i| i as u32).collect();
            assert_eq!((c.chunks.len(), c.chunks.capacity()), (chunks, chunks));
            // The rebalance re-split shape: a `take` off a longer run.
            let mut source = (0..2 * len as u32).collect::<Vec<_>>().into_iter();
            let t: AlignedU32s = source.by_ref().take(len).collect();
            assert_eq!((t.chunks.len(), t.chunks.capacity()), (chunks, chunks));
            let w = AlignedU64s::with_len(len, 7);
            let words = len.div_ceil(8);
            assert_eq!((w.chunks.len(), w.chunks.capacity()), (words, words));
            // Padding stays at the default, so equality is element-wise.
            assert_eq!(v, std::iter::repeat_n(7u32, len).collect());
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn padding_slots_are_not_indexable() {
        let v = AlignedU32s::with_len(3, 1);
        let _ = v[3];
    }

    #[test]
    fn drain_and_collect_roundtrip_preserves_order() {
        // The rebalance flatten/re-split shape: drain several vecs
        // into one, then re-split by take().
        let mut a: AlignedU32s = (0..23u32).collect();
        let mut b: AlignedU32s = (100..117u32).collect();
        let mut all = AlignedU32s::default();
        all.extend(a.drain_all());
        all.extend(b.drain_all());
        assert_eq!(a.len(), 0);
        assert_eq!(all.len(), 40);
        let mut it = all.drain_all();
        let first: AlignedU32s = it.by_ref().take(30).collect();
        let second: AlignedU32s = it.collect();
        assert_eq!(first.len(), 30);
        assert_eq!(second.len(), 10);
        assert_eq!(first[29], 106);
        assert_eq!(second[0], 107);
        assert_eq!(second[9], 116);
    }

    #[test]
    fn equality_ignores_capacity_history() {
        let mut a = AlignedU32s::with_len(5, 9);
        let b: AlignedU32s = std::iter::repeat_n(9u32, 5).collect();
        assert_eq!(a, b);
        a[4] = 8;
        assert_ne!(a, b);
    }
}
