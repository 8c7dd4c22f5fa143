//! Bitsets as slices of 64-bit words: bit `i` is bit `i % 64` of word
//! `i / 64`. The pump's dirty marks and the max-min filling's link and
//! flow sets are all of this kind.

/// Set bit `i`.
pub(crate) fn set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Clear bit `i`.
pub(crate) fn clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// Whether bit `i` is set.
pub(crate) fn test(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 != 0
}

/// The set bits of `words`, in increasing order.
pub(crate) fn ones(words: &[u64]) -> Ones<'_> {
    Ones { words, w: 0, word: words.first().copied().unwrap_or(0) }
}

/// The set bits of `word` taken as word `w` of a bitset, in increasing
/// order: for a loop that changes the bitset while it scans the word.
pub(crate) fn word_ones(w: usize, word: u64) -> Ones<'static> {
    Ones { words: &[], w, word }
}

/// Iterator of [`ones`] and [`word_ones`].
pub(crate) struct Ones<'a> {
    words: &'a [u64],
    /// The word being scanned and its bits not yet yielded.
    w: usize,
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.w += 1;
            self.word = *self.words.get(self.w)?;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(64 * self.w + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_yields_the_set_bits_in_order() {
        let mut words = vec![0; 3];
        for i in [130, 0, 63, 64, 191] {
            set(&mut words, i);
        }
        assert_eq!(ones(&words).collect::<Vec<_>>(), vec![0, 63, 64, 130, 191]);
        assert!(test(&words, 64) && !test(&words, 65));
        clear(&mut words, 64);
        assert_eq!(ones(&words).collect::<Vec<_>>(), vec![0, 63, 130, 191]);
        assert_eq!(word_ones(2, words[2]).collect::<Vec<_>>(), vec![130, 191]);
        assert_eq!(ones(&[]).next(), None);
    }
}
