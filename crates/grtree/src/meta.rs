//! The GR-tree header page (logical page 0 of the large object): the
//! kernel's shared header under the `GRTH` magic, followed by the two
//! parameters [`GrKey`] persists (time parameter, `rectangle_only`).

use crate::key::GrKey;

/// Decoded header of a GR-tree large object.
pub type GrMeta = grt_treekit::Meta<GrKey>;

#[cfg(test)]
mod tests {
    use super::*;
    use grt_treekit::{decode_free, encode_free};

    #[test]
    fn meta_roundtrip() {
        let m = GrMeta {
            root: 9,
            height: 3,
            count: 777,
            max_entries: 32,
            min_fill: 12,
            free_head: 4,
            reinsert_pct: 30,
            key: GrKey {
                time_param: 16,
                rectangle_only: true,
            },
        };
        assert_eq!(GrMeta::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn free_roundtrip() {
        assert_eq!(decode_free::<GrKey>(&encode_free::<GrKey>(3)).unwrap(), 3);
        assert!(decode_free::<GrKey>(&grt_sbspace::page::zeroed_page()).is_err());
    }
}
