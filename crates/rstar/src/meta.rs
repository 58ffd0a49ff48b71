//! The index header page (logical page 0 of the large object): the
//! kernel's shared header under the `RSTH` magic.

/// Decoded header of an R\*-tree large object.
pub type Meta = grt_treekit::Meta<crate::tree::RectKey>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RectKey;
    use grt_treekit::{decode_free, encode_free};

    #[test]
    fn meta_roundtrip() {
        let m = Meta {
            root: 3,
            height: 2,
            count: 12345,
            max_entries: 50,
            min_fill: 20,
            free_head: grt_treekit::NO_PAGE,
            reinsert_pct: 30,
            key: RectKey,
        };
        assert_eq!(Meta::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn free_roundtrip() {
        assert_eq!(
            decode_free::<RectKey>(&encode_free::<RectKey>(9)).unwrap(),
            9
        );
        assert!(decode_free::<RectKey>(&grt_sbspace::page::zeroed_page()).is_err());
    }
}
