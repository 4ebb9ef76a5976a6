//! The host-side shape of a tree reduce.

/// Combine `items` with `f` as a balanced binary tree, left to right:
/// neighbours are paired level by level, so operand order is preserved
/// and `f` needs only to be associative. A value takes part in at most
/// ⌈log₂ n⌉ combines — a left fold would drag one ever-growing
/// accumulator through n − 1 of them.
pub fn fold_pairwise<T>(mut items: Vec<T>, f: impl Fn(T, T) -> T) -> Option<T> {
    while items.len() > 1 {
        let mut next = Vec::with_capacity(items.len().div_ceil(2));
        let mut level = items.into_iter();
        while let Some(a) = level.next() {
            next.push(match level.next() {
                Some(b) => f(a, b),
                None => a,
            });
        }
        items = next;
    }
    items.pop()
}

#[cfg(test)]
mod tests {
    use super::fold_pairwise;

    #[test]
    fn empty_and_single() {
        assert_eq!(fold_pairwise(Vec::<u32>::new(), |a, b| a + b), None);
        assert_eq!(fold_pairwise(vec![7u32], |_, _| unreachable!()), Some(7));
    }

    #[test]
    fn keeps_operand_order() {
        // Concatenation is associative but not commutative.
        let words: Vec<String> = (0..11).map(|i| format!("{i},")).collect();
        assert_eq!(
            fold_pairwise(words.clone(), |a, b| a + &b),
            Some(words.concat())
        );
    }
}
