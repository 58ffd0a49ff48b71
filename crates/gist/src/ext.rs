//! Two classic extensions: 1-D integer ranges (B-tree flavour) and 2-D
//! rectangles (R-tree flavour) — HNP95's own worked examples.

use crate::adaptor::GistExtension;
use crate::{GistError, Result};

/// A closed `i64` interval key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntRange {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl IntRange {
    /// A range (normalising inverted input).
    pub fn new(a: i64, b: i64) -> IntRange {
        IntRange {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// A single point.
    pub fn point(v: i64) -> IntRange {
        IntRange { lo: v, hi: v }
    }

    /// Interval overlap.
    pub fn overlaps(&self, other: &IntRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Interval containment.
    pub fn contains(&self, other: &IntRange) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }
}

/// The interval-tree extension.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntRangeExt;

impl GistExtension for IntRangeExt {
    type Key = IntRange;
    type Query = IntRange;

    fn encode_key(&self, key: &IntRange, out: &mut Vec<u8>) {
        out.extend_from_slice(&key.lo.to_le_bytes());
        out.extend_from_slice(&key.hi.to_le_bytes());
    }

    fn decode_key(&self, bytes: &[u8]) -> Result<IntRange> {
        if bytes.len() != 16 {
            return Err(GistError::Corrupt("IntRange key must be 16 bytes".into()));
        }
        Ok(IntRange {
            lo: i64::from_le_bytes(bytes[0..8].try_into().unwrap()),
            hi: i64::from_le_bytes(bytes[8..16].try_into().unwrap()),
        })
    }

    fn consistent(&self, key: &IntRange, query: &IntRange, _is_leaf: bool) -> bool {
        key.overlaps(query)
    }

    fn union(&self, keys: &[IntRange]) -> IntRange {
        IntRange {
            lo: keys.iter().map(|k| k.lo).min().expect("nonempty"),
            hi: keys.iter().map(|k| k.hi).max().expect("nonempty"),
        }
    }

    fn penalty(&self, existing: &IntRange, new: &IntRange) -> i128 {
        let u = IntRange {
            lo: existing.lo.min(new.lo),
            hi: existing.hi.max(new.hi),
        };
        (u.hi as i128 - u.lo as i128) - (existing.hi as i128 - existing.lo as i128)
    }

    fn max_key_len(&self) -> usize {
        16
    }

    fn center(&self, key: &IntRange) -> (i64, i64) {
        (key.lo.saturating_add(key.hi), 0)
    }

    fn pick_split(&self, keys: &[IntRange]) -> (Vec<usize>, Vec<usize>) {
        // Sort by lower bound, split in the middle — the B-tree-ish
        // ordered split of HNP95's range example.
        let mut idx: Vec<usize> = (0..keys.len()).collect();
        idx.sort_by_key(|&i| (keys[i].lo, keys[i].hi));
        let mid = idx.len() / 2;
        (idx[..mid].to_vec(), idx[mid..].to_vec())
    }
}

/// A 2-D integer rectangle key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RectKey {
    pub x1: i32,
    pub x2: i32,
    pub y1: i32,
    pub y2: i32,
}

impl RectKey {
    /// A rectangle (normalising inverted edges).
    pub fn new(x1: i32, x2: i32, y1: i32, y2: i32) -> RectKey {
        RectKey {
            x1: x1.min(x2),
            x2: x1.max(x2),
            y1: y1.min(y2),
            y2: y1.max(y2),
        }
    }

    fn area(&self) -> i128 {
        (self.x2 as i128 - self.x1 as i128 + 1) * (self.y2 as i128 - self.y1 as i128 + 1)
    }

    /// Rectangle overlap.
    pub fn overlaps(&self, o: &RectKey) -> bool {
        self.x1 <= o.x2 && o.x1 <= self.x2 && self.y1 <= o.y2 && o.y1 <= self.y2
    }
}

/// The rectangle-tree extension (a compact R-tree via GiST).
#[derive(Debug, Clone, Copy, Default)]
pub struct RectExt;

impl GistExtension for RectExt {
    type Key = RectKey;
    type Query = RectKey;

    fn encode_key(&self, key: &RectKey, out: &mut Vec<u8>) {
        for v in [key.x1, key.x2, key.y1, key.y2] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode_key(&self, bytes: &[u8]) -> Result<RectKey> {
        if bytes.len() != 16 {
            return Err(GistError::Corrupt("RectKey must be 16 bytes".into()));
        }
        let w = |i: usize| i32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
        Ok(RectKey {
            x1: w(0),
            x2: w(4),
            y1: w(8),
            y2: w(12),
        })
    }

    fn consistent(&self, key: &RectKey, query: &RectKey, _is_leaf: bool) -> bool {
        key.overlaps(query)
    }

    fn union(&self, keys: &[RectKey]) -> RectKey {
        RectKey {
            x1: keys.iter().map(|k| k.x1).min().expect("nonempty"),
            x2: keys.iter().map(|k| k.x2).max().expect("nonempty"),
            y1: keys.iter().map(|k| k.y1).min().expect("nonempty"),
            y2: keys.iter().map(|k| k.y2).max().expect("nonempty"),
        }
    }

    fn penalty(&self, existing: &RectKey, new: &RectKey) -> i128 {
        let u = self.union(&[*existing, *new]);
        u.area() - existing.area()
    }

    fn max_key_len(&self) -> usize {
        16
    }

    fn center(&self, key: &RectKey) -> (i64, i64) {
        (key.x1 as i64 + key.x2 as i64, key.y1 as i64 + key.y2 as i64)
    }

    fn pick_split(&self, keys: &[RectKey]) -> (Vec<usize>, Vec<usize>) {
        // Guttman's quadratic split, simplified: seeds = the pair whose
        // union wastes the most area; the rest go to the cheaper side.
        let n = keys.len();
        let (mut s1, mut s2) = (0usize, 1usize.min(n - 1));
        let mut worst = i128::MIN;
        for i in 0..n {
            for j in i + 1..n {
                let waste =
                    self.union(&[keys[i], keys[j]]).area() - keys[i].area() - keys[j].area();
                if waste > worst {
                    worst = waste;
                    s1 = i;
                    s2 = j;
                }
            }
        }
        let (mut left, mut right) = (vec![s1], vec![s2]);
        let (mut lu, mut ru) = (keys[s1], keys[s2]);
        for (i, key) in keys.iter().enumerate() {
            if i == s1 || i == s2 {
                continue;
            }
            let dl = self.penalty(&lu, key);
            let dr = self.penalty(&ru, key);
            if dl <= dr {
                left.push(i);
                lu = self.union(&[lu, *key]);
            } else {
                right.push(i);
                ru = self.union(&[ru, *key]);
            }
        }
        (left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_range_primitives() {
        let ext = IntRangeExt;
        let a = IntRange::new(0, 10);
        let b = IntRange::new(5, 20);
        assert!(ext.consistent(&a, &b, true));
        assert_eq!(ext.union(&[a, b]), IntRange::new(0, 20));
        assert_eq!(ext.penalty(&a, &IntRange::new(2, 8)), 0);
        assert_eq!(ext.penalty(&a, &b), 10);
        let mut bytes = Vec::new();
        ext.encode_key(&a, &mut bytes);
        assert_eq!(ext.decode_key(&bytes).unwrap(), a);
        assert!(ext.decode_key(&bytes[..5]).is_err());
    }

    #[test]
    fn int_range_split_is_ordered() {
        let ext = IntRangeExt;
        let keys: Vec<IntRange> = (0..10).map(|i| IntRange::new(i * 10, i * 10 + 5)).collect();
        let (l, r) = ext.pick_split(&keys);
        assert_eq!(l.len() + r.len(), 10);
        let lmax = l.iter().map(|&i| keys[i].lo).max().unwrap();
        let rmin = r.iter().map(|&i| keys[i].lo).min().unwrap();
        assert!(lmax <= rmin, "ordered split");
    }

    #[test]
    fn rect_primitives_and_split() {
        let ext = RectExt;
        let a = RectKey::new(0, 10, 0, 10);
        let b = RectKey::new(100, 110, 100, 110);
        assert!(!ext.consistent(&a, &b, false));
        assert_eq!(ext.penalty(&a, &RectKey::new(2, 3, 2, 3)), 0);
        let keys = vec![
            RectKey::new(0, 1, 0, 1),
            RectKey::new(2, 3, 1, 2),
            RectKey::new(100, 101, 100, 101),
            RectKey::new(102, 104, 99, 103),
        ];
        let (l, r) = ext.pick_split(&keys);
        assert_eq!(l.len() + r.len(), 4);
        // The two clusters separate.
        let cluster = |idx: &[usize]| {
            idx.iter().all(|&i| keys[i].x1 < 50) || idx.iter().all(|&i| keys[i].x1 >= 50)
        };
        assert!(cluster(&l) && cluster(&r), "{l:?} {r:?}");
    }
}
