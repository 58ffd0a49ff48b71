//! The GR-tree as a key over the paged-tree kernel.
//!
//! Everything that makes the tree a *GR*-tree lives here: entries are
//! unresolved [`RegionSpec`]s (growing rectangles and stair shapes with
//! the `Rectangle`/`Hidden` flags), bounds come from
//! [`bound_entries`], search resolves every entry at the statement's
//! current time, and every insertion penalty — subtree choice, split
//! axis and distribution, reinsertion order — is evaluated on regions
//! resolved at `ct + time_param`, so growing entries are charged for
//! their near-future extent.

use crate::entry;
use crate::Result;
use grt_metrics::TreeMetrics;
use grt_sbspace::page::{get_u32, put_u32, PageBuf, PAGE_SIZE};
use grt_temporal::{bound_entries, Day, Predicate, Rect, Region, RegionSpec, TimeExtent, VtEnd};
use grt_treekit::{Entry, Node, TreeError, TreeKey, META_PARAMS_AT};

/// The GR-tree key policy and the two parameters its header persists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrKey {
    /// The insertion algorithms' *time parameter*: penalty metrics are
    /// evaluated at `ct + time_param`.
    pub time_param: u32,
    /// Ablation switch: degrade stair-shaped bounds to growing
    /// rectangles (the `Rectangle` flag set on every stored bound),
    /// isolating the benefit of the GR-tree's exact stair encoding.
    pub rectangle_only: bool,
}

/// A search argument: the predicate and the query extent's region,
/// resolved once at the scan's current time.
#[derive(Debug, Clone, Copy)]
pub struct GrQuery {
    pred: Predicate,
    region: Region,
}

impl GrQuery {
    /// The query `pred(·, query)` as seen at current time `ct`.
    pub fn new(pred: Predicate, query: &TimeExtent, ct: Day) -> GrQuery {
        GrQuery {
            pred,
            region: query.region(ct),
        }
    }
}

impl GrKey {
    /// The reference time for insertion penalties.
    fn tref(&self, ct: Day) -> Day {
        ct.plus(self.time_param as i32)
    }
}

fn specs(entries: &[Entry<RegionSpec>]) -> Vec<RegionSpec> {
    entries.iter().map(|e| e.key).collect()
}

impl TreeKey for GrKey {
    type Key = RegionSpec;
    type Query = GrQuery;
    /// The statement's current time (Section 5.4).
    type Ctx = Day;
    type Dedup = [u8; 16];

    const NAME: &'static str = "gr-tree";
    const META_MAGIC: &'static [u8; 4] = b"GRTH";
    const FREE_MAGIC: &'static [u8; 4] = b"GRTF";

    fn encode_node(&self, node: &Node<RegionSpec>) -> Result<PageBuf> {
        Ok(entry::encode(node))
    }

    fn decode_node(&self, buf: &[u8; PAGE_SIZE]) -> Result<Node<RegionSpec>> {
        entry::decode(buf)
    }

    fn encode_params(&self, header: &mut [u8]) {
        put_u32(header, META_PARAMS_AT, self.time_param);
        put_u32(header, META_PARAMS_AT + 4, self.rectangle_only as u32);
    }

    fn decode_params(&mut self, header: &[u8; PAGE_SIZE]) {
        self.time_param = get_u32(header, META_PARAMS_AT);
        self.rectangle_only = get_u32(header, META_PARAMS_AT + 4) != 0;
    }

    /// The Section 2 timestamp constraints as of insertion time.
    fn validate(&self, leaf: &RegionSpec, ct: Day) -> Result<()> {
        leaf.validate(ct)
            .map_err(|e| TreeError::Usage(format!("temporal: {e}")))
    }

    fn bound(&self, entries: &[Entry<RegionSpec>], ct: Day) -> RegionSpec {
        bound_entries(&specs(entries), ct)
    }

    /// Under the `rectangle_only` ablation stairs keep their `NOW`
    /// timestamps but the `Rectangle` flag inflates them to squares.
    fn stored_bound(&self, entries: &[Entry<RegionSpec>], ct: Day) -> RegionSpec {
        let mut b = self.bound(entries, ct);
        if self.rectangle_only && matches!(b.vt_end, VtEnd::Now) {
            b.rect = true;
        }
        b
    }

    fn covers(&self, bound: &RegionSpec, key: &RegionSpec, ct: Day) -> bool {
        bound.resolve(ct).contains(&key.resolve(ct))
    }

    /// The stored region must cover the child's current bound now and
    /// in the future (probe a horizon).
    fn bounds_child(&self, entry: &RegionSpec, child: &RegionSpec, ct: Day) -> bool {
        [0, 1, 365]
            .into_iter()
            .all(|probe| self.covers(entry, child, ct.plus(probe)))
    }

    /// The NOW/UC resolution algorithm applied to an internal entry.
    fn consistent(&self, bound: &RegionSpec, q: &GrQuery, ct: Day) -> bool {
        q.pred.consistent(&bound.resolve(ct), &q.region)
    }

    fn matches(&self, key: &RegionSpec, q: &GrQuery, ct: Day) -> bool {
        q.pred.eval_regions(&key.resolve(ct), &q.region)
    }

    fn charge(&self, key: &RegionSpec, metrics: &TreeMetrics) {
        if key.hidden {
            metrics.hidden_resolutions.inc();
        }
        if matches!(key.vt_end, VtEnd::Now) {
            metrics.now_resolutions.inc();
        }
    }

    /// GR-tree ChooseSubtree: least overlap enlargement, ties by area
    /// enlargement, then area — the R\*-tree's leaf-parent criterion at
    /// every level, since overlap cost dominates for growing regions.
    fn choose_subtree(
        &self,
        _level: u16,
        entries: &[Entry<RegionSpec>],
        new: &RegionSpec,
        ct: Day,
    ) -> usize {
        let tref = self.tref(ct);
        let now: Vec<Region> = entries.iter().map(|e| e.key.resolve(tref)).collect();
        let mut best = 0usize;
        let mut best_key = (i128::MAX, i128::MAX, i128::MAX);
        for (i, e) in entries.iter().enumerate() {
            let enlarged = bound_entries(&[e.key, *new], ct).resolve(tref);
            let overlap_delta: i128 = (0..entries.len())
                .filter(|&j| j != i)
                .map(|j| enlarged.intersection_area(&now[j]) - now[i].intersection_area(&now[j]))
                .sum();
            let key = (
                overlap_delta,
                enlarged.area() - now[i].area(),
                now[i].area(),
            );
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// GR-tree split: R\*-style axis and distribution selection over
    /// regions resolved at `ct + time_param`.
    fn split(
        &self,
        entries: Vec<Entry<RegionSpec>>,
        m: usize,
        ct: Day,
    ) -> Result<(Vec<Entry<RegionSpec>>, Vec<Entry<RegionSpec>>)> {
        let tref = self.tref(ct);
        let total = entries.len();
        let group = |es: &[Entry<RegionSpec>]| self.bound(es, ct).resolve(tref);
        // Sort keys over resolved MBRs: lower/upper per axis.
        #[allow(clippy::type_complexity)]
        let keys: [fn(&Rect) -> (i32, i32); 4] = [
            |r| (r.tt1.0, r.tt2.0),
            |r| (r.tt2.0, r.tt1.0),
            |r| (r.vt1.0, r.vt2.0),
            |r| (r.vt2.0, r.vt1.0),
        ];
        let mut sorted: Vec<Vec<Entry<RegionSpec>>> = Vec::with_capacity(4);
        let mut axis_margin = [0i128; 2];
        for (k, key) in keys.iter().enumerate() {
            let mut es = entries.clone();
            es.sort_by_key(|e| key(&e.key.resolve(tref).mbr()));
            for split_at in m..=(total - m) {
                for side in [&es[..split_at], &es[split_at..]] {
                    let b = group(side).mbr();
                    axis_margin[k / 2] += (b.tt2.0 as i128 - b.tt1.0 as i128 + 1)
                        + (b.vt2.0 as i128 - b.vt1.0 as i128 + 1);
                }
            }
            sorted.push(es);
        }
        let axis = if axis_margin[0] <= axis_margin[1] {
            0
        } else {
            1
        };
        let mut best: Option<(i128, i128, usize, usize)> = None;
        for key in [axis * 2, axis * 2 + 1] {
            let es = &sorted[key];
            for split_at in m..=(total - m) {
                let (b1, b2) = (group(&es[..split_at]), group(&es[split_at..]));
                let cand = (
                    b1.intersection_area(&b2),
                    b1.area() + b2.area(),
                    key,
                    split_at,
                );
                if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                    best = Some(cand);
                }
            }
        }
        let (_, _, key, split_at) = best.expect("at least one distribution");
        let mut a = sorted.swap_remove(key);
        let b = a.split_off(split_at);
        Ok((a, b))
    }

    /// Forced reinsertion evicts the entries whose resolved regions lie
    /// farthest from the node's resolved centre.
    fn sort_for_reinsert(&self, entries: &mut [Entry<RegionSpec>], ct: Day) {
        let tref = self.tref(ct);
        let node = self.bound(entries, ct).resolve(tref).mbr();
        entries.sort_by_key(|e| {
            let m = e.key.resolve(tref).mbr();
            let cx =
                (m.tt1.0 as i128 + m.tt2.0 as i128) - (node.tt1.0 as i128 + node.tt2.0 as i128);
            let cy =
                (m.vt1.0 as i128 + m.vt2.0 as i128) - (node.vt1.0 as i128 + node.vt2.0 as i128);
            std::cmp::Reverse(cx * cx + cy * cy)
        });
    }

    /// Rowid plus encoded extent identify an entry: an update gives the
    /// same rowid a new extent and that counts as a new entry.
    fn dedup_key(&self, key: &RegionSpec) -> [u8; 16] {
        entry::timestamps(key)
    }

    fn center(&self, key: &RegionSpec, ct: Day) -> (i64, i64) {
        let m = key.resolve(ct).mbr();
        (
            m.tt1.0 as i64 + m.tt2.0 as i64,
            m.vt1.0 as i64 + m.vt2.0 as i64,
        )
    }

    fn area(&self, key: &RegionSpec, ct: Day) -> i128 {
        key.resolve(ct).area()
    }

    fn overlap(&self, a: &RegionSpec, b: &RegionSpec, ct: Day) -> i128 {
        a.resolve(ct).intersection_area(&b.resolve(ct))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_temporal::TtEnd;

    #[test]
    fn bound_of_leaf_matches_manual() {
        let leaf = |ttb, vtb| Entry {
            key: RegionSpec::leaf(Day(ttb), TtEnd::Uc, Day(vtb), VtEnd::Now),
            ptr: 0,
        };
        let b = GrKey::default().bound(&[leaf(10, 10), leaf(20, 15)], Day(100));
        assert!(b.grows_tt());
        assert!(b.grows_vt(Day(100)));
        assert_eq!(b.tt_begin, Day(10));
        assert_eq!(b.vt_begin, Day(10));
    }
}
