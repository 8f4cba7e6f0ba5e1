//! Exact true LRU for sets of at most 16 ways: the replacement state of
//! every [`Cache`](crate::cache::Cache) and [`TlbLevel`](crate::tlb::TlbLevel).
//!
//! Each set keeps one 8-byte recency word that lists its way indices as
//! 4-bit nibbles, most recently used first (unused high nibbles hold
//! `0xF`). A hit or a fill moves its way to the front, so the word orders
//! the ways by their last hit or fill, and the victim of a full set is the
//! nibble at position `ways - 1`. An invalidation leaves the word alone:
//! a set with an empty way fills that way instead of evicting.

/// Most ways a set can have: a recency word holds one 4-bit way index per
/// way.
pub(crate) const MAX_WAYS: usize = 16;

/// A one in every nibble of a word.
const NIBBLES: u64 = 0x1111_1111_1111_1111;

/// Check that a set of `ways` ways fits a recency word.
///
/// # Panics
/// If `ways` is 0 or above [`MAX_WAYS`]; the message names `what`.
pub(crate) fn check_ways(what: &str, ways: usize) {
    assert!(ways > 0, "{what}: zero ways");
    assert!(
        ways <= MAX_WAYS,
        "{what}: {ways} ways, but a recency word holds at most {MAX_WAYS}"
    );
}

/// The recency word of a set no access has touched: way `i` at position
/// `i`, `0xF` in the nibbles past the last way.
pub(crate) fn initial_order(ways: usize) -> u64 {
    (0..MAX_WAYS).fold(0, |word, pos| {
        let nibble = if pos < ways { pos as u64 } else { 0xF };
        word | (nibble << (4 * pos))
    })
}

/// Move `way` to the front of the recency word `order`.
///
/// The zero-nibble test on `order ^ way-in-every-nibble` flags the top bit
/// of the nibble that holds `way` (borrows only flag nibbles above a true
/// zero, and `way` appears once). The nibbles before it shift up by one.
#[inline]
pub(crate) fn to_front(order: u64, way: usize) -> u64 {
    let x = order ^ (way as u64 * NIBBLES);
    let flags = x.wrapping_sub(NIBBLES) & !x & (NIBBLES << 3);
    debug_assert_ne!(flags, 0, "way {way} missing from recency word {order:#x}");
    let through = u64::MAX >> (63 - flags.trailing_zeros());
    (order & !through) | ((order & (through >> 4)) << 4) | way as u64
}

/// The least recently used of a full set's `ways` ways.
#[inline]
pub(crate) fn lru_way(order: u64, ways: usize) -> usize {
    ((order >> (4 * (ways - 1))) & 0xF) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recency_word_moves_a_way_to_the_front() {
        assert_eq!(initial_order(16), 0xFEDC_BA98_7654_3210);
        assert_eq!(initial_order(2), 0xFFFF_FFFF_FFFF_FF10);
        let word = initial_order(16);
        assert_eq!(to_front(word, 0), word);
        assert_eq!(to_front(word, 5), 0xFEDC_BA98_7643_2105);
        assert_eq!(to_front(word, 15), 0xEDCB_A987_6543_210F);
        assert_eq!(to_front(initial_order(8), 7), 0xFFFF_FFFF_6543_2107);
        assert_eq!(lru_way(to_front(initial_order(8), 0), 8), 7);
        assert_eq!(lru_way(to_front(initial_order(8), 7), 8), 6);
        assert_eq!(lru_way(initial_order(1), 1), 0);
    }
}
