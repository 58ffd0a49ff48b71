//! Tree-quality statistics: the "goodness" measures of the paper's
//! Section 3 — dead space and overlap per tree level — come from the
//! kernel's quality walk ([`TreeQuality`]); this module adds the metric
//! for free-standing rectangle sets.

use crate::geom::Rect2;
pub use grt_treekit::{LevelQuality, TreeQuality};

/// Exact pairwise-overlap metric for an arbitrary set of rectangles
/// (used by the figure-3 reproduction).
pub fn pairwise_overlap(rects: &[Rect2]) -> i128 {
    let mut total = 0i128;
    for (i, a) in rects.iter().enumerate() {
        for b in &rects[i + 1..] {
            total += a.overlap_area(b);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_overlap_counts() {
        let rects = [
            Rect2::new(0, 9, 0, 9),
            Rect2::new(5, 14, 0, 9),
            Rect2::new(100, 110, 0, 9),
        ];
        // Only the first pair overlaps: 5 columns x 10 rows.
        assert_eq!(pairwise_overlap(&rects), 50);
    }
}
