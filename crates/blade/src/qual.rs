//! Qualification-descriptor manipulation.
//!
//! Section 6.3: "For the manipulation of the qualification descriptor,
//! we had to code the logic for how to break a complex qualification
//! (containing several strategy functions separated by ANDs or ORs)
//! into simple ones and for how to invoke appropriate strategy
//! functions."
//!
//! The descriptor is parsed **once per scan**, at `am_beginscan`, into a
//! [`Qual`]: the same boolean tree with every simple predicate resolved
//! to a [`Probe`] — strategy-function name matched, query constant
//! decoded. Nothing about a qualification depends on the candidate, so
//! nothing about it is worked out again per candidate.
//!
//! The decomposition strategy: each *branch* of a top-level OR (an AND
//! tree or a single predicate) contributes one index probe — its first
//! simple predicate, which is a necessary condition for the branch —
//! and every candidate an index probe produces is checked against the
//! **full** qualification tree with the exact bitemporal predicates
//! before it is returned. Duplicate candidates across OR branches are
//! suppressed.

use crate::extent_type::extent_from_value;
use grt_ids::vii::{QualDescriptor, QualNode, SimpleQual};
use grt_ids::{IdsError, Value};
use grt_temporal::{Day, Predicate, TimeExtent, TtEnd, VtEnd};

/// One index probe: the predicate and query extent to scan with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// The strategy predicate.
    pub pred: Predicate,
    /// The query extent.
    pub query: TimeExtent,
    /// Whether the stored value is the *second* argument
    /// (`f(constant, column)`).
    pub commuted: bool,
}

/// An extent that overlaps every representable region — the probe used
/// for an unqualified scan.
pub fn universal_extent() -> TimeExtent {
    TimeExtent::from_parts(
        Day(i32::MIN / 4),
        TtEnd::Ground(Day(i32::MAX / 4)),
        Day(i32::MIN / 4),
        VtEnd::Ground(Day(i32::MAX / 4)),
    )
    .expect("universal extent is legal")
}

impl Probe {
    /// Resolves one simple predicate: the strategy function by name,
    /// the query extent from the constant's bytes.
    fn parse(simple: &SimpleQual) -> Result<Probe, IdsError> {
        let pred = Predicate::from_udr_name(&simple.func).ok_or_else(|| {
            IdsError::AccessMethod(format!(
                "{} is not a GR-tree strategy function",
                simple.func
            ))
        })?;
        let constant = simple.constant.as_ref().ok_or_else(|| {
            IdsError::AccessMethod(format!("{}(column) form is not supported", simple.func))
        })?;
        Ok(Probe {
            pred,
            query: extent_from_value(constant)?,
            commuted: simple.commuted,
        })
    }

    /// Whether a stored extent satisfies the predicate at `ct`, with
    /// the arguments in the order the statement wrote them.
    fn eval(&self, stored: &TimeExtent, ct: Day) -> bool {
        if self.commuted {
            self.pred.eval(&self.query, stored, ct)
        } else {
            self.pred.eval(stored, &self.query, ct)
        }
    }

    /// The probe as an index scans with it: the predicate seen from the
    /// stored value's side — `Contains(const, col)` asks whether the
    /// constant contains the column, i.e. the column is `ContainedIn`
    /// the constant.
    fn oriented(self) -> Probe {
        let pred = match (self.commuted, self.pred) {
            (true, Predicate::Contains) => Predicate::ContainedIn,
            (true, Predicate::ContainedIn) => Predicate::Contains,
            (_, p) => p,
        };
        Probe { pred, ..self }
    }
}

/// A qualification descriptor parsed for one scan.
#[derive(Debug, Clone, PartialEq)]
pub enum Qual {
    /// No qualification: every stored extent qualifies.
    All,
    /// One strategy-function predicate, as written.
    Simple(Probe),
    /// All children must hold.
    And(Vec<Qual>),
    /// At least one child must hold.
    Or(Vec<Qual>),
}

impl Qual {
    /// Parses the descriptor: every strategy-function name is matched
    /// and every constant decoded here, once.
    pub fn compile(qual: &QualDescriptor) -> Result<Qual, IdsError> {
        fn node(n: &QualNode) -> Result<Qual, IdsError> {
            let children = |cs: &[QualNode]| cs.iter().map(node).collect::<Result<Vec<_>, _>>();
            Ok(match n {
                QualNode::Simple(s) => Qual::Simple(Probe::parse(s)?),
                QualNode::And(cs) => Qual::And(children(cs)?),
                QualNode::Or(cs) => Qual::Or(children(cs)?),
            })
        }
        qual.root.as_ref().map_or(Ok(Qual::All), node)
    }

    /// The first simple predicate under this node, left to right.
    fn first(&self) -> Option<Probe> {
        match self {
            Qual::All => None,
            Qual::Simple(p) => Some(*p),
            Qual::And(cs) | Qual::Or(cs) => cs.iter().find_map(Qual::first),
        }
    }

    /// Breaks the qualification into index probes: one per OR branch
    /// (the branch's first simple predicate, oriented for the index).
    /// No qualification yields the universal probe.
    pub fn probes(&self) -> Result<Vec<Probe>, IdsError> {
        let branches = match self {
            Qual::All => {
                return Ok(vec![Probe {
                    pred: Predicate::Overlaps,
                    query: universal_extent(),
                    commuted: false,
                }])
            }
            Qual::Or(children) => children.as_slice(),
            other => std::slice::from_ref(other),
        };
        branches
            .iter()
            .map(|b| {
                b.first()
                    .map(Probe::oriented)
                    .ok_or_else(|| IdsError::AccessMethod("empty qualification branch".into()))
            })
            .collect()
    }

    /// Evaluates the full qualification against a stored extent at
    /// current time `ct` — the recheck applied to every index candidate.
    pub fn eval(&self, stored: &TimeExtent, ct: Day) -> bool {
        match self {
            Qual::All => true,
            Qual::Simple(p) => p.eval(stored, ct),
            Qual::And(cs) => cs.iter().all(|c| c.eval(stored, ct)),
            Qual::Or(cs) => cs.iter().any(|c| c.eval(stored, ct)),
        }
    }
}

/// Extracts the extent constant of a qualification value (for tests).
pub fn constant_extent(v: &Value) -> Result<TimeExtent, IdsError> {
    extent_from_value(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent_type::extent_to_value;

    fn extent(ttb: i32, tte: Option<i32>, vtb: i32, vte: Option<i32>) -> TimeExtent {
        TimeExtent::from_parts(
            Day(ttb),
            tte.map_or(TtEnd::Uc, |x| TtEnd::Ground(Day(x))),
            Day(vtb),
            vte.map_or(VtEnd::Now, |x| VtEnd::Ground(Day(x))),
        )
        .unwrap()
    }

    fn probes_of(qual: &QualDescriptor) -> Vec<Probe> {
        Qual::compile(qual).unwrap().probes().unwrap()
    }

    fn simple(func: &str, q: TimeExtent, commuted: bool) -> QualNode {
        QualNode::Simple(SimpleQual {
            func: func.into(),
            column: "time_extent".into(),
            constant: Some(extent_to_value(&q)),
            commuted,
        })
    }

    #[test]
    fn universal_probe_for_empty_qual() {
        let all = Qual::compile(&QualDescriptor::default()).unwrap();
        assert_eq!(all, Qual::All);
        let probes = all.probes().unwrap();
        assert_eq!(probes.len(), 1);
        let u = universal_extent();
        let any = extent(10, None, 5, None);
        assert!(Predicate::Overlaps.eval(&any, &u, Day(100)));
        assert!(all.eval(&any, Day(100)));
    }

    #[test]
    fn and_yields_single_probe_or_yields_many() {
        let a = extent(0, Some(50), 0, Some(50));
        let b = extent(100, Some(150), 100, Some(150));
        let and = QualDescriptor {
            root: Some(QualNode::And(vec![
                simple("Overlaps", a, false),
                simple("Contains", b, false),
            ])),
        };
        assert_eq!(probes_of(&and).len(), 1);
        let or = QualDescriptor {
            root: Some(QualNode::Or(vec![
                simple("Overlaps", a, false),
                simple("Overlaps", b, false),
            ])),
        };
        assert_eq!(probes_of(&or).len(), 2);
    }

    #[test]
    fn commuted_contains_flips_orientation() {
        let big = extent(0, Some(100), 0, Some(100));
        let small = extent(10, Some(20), 10, Some(20));
        // Contains(const=big, col): "big contains the column" — true for
        // the small stored extent.
        let qual = QualDescriptor {
            root: Some(simple("Contains", big, true)),
        };
        let compiled = Qual::compile(&qual).unwrap();
        assert!(compiled.eval(&small, Day(200)));
        assert!(!compiled.eval(&extent(0, Some(500), 0, Some(400)), Day(600)));
        // The index probe is seen from the stored side; the recheck
        // keeps the predicate as written.
        assert_eq!(compiled.probes().unwrap()[0].pred, Predicate::ContainedIn);
        assert!(matches!(compiled, Qual::Simple(p) if p.pred == Predicate::Contains));
    }

    #[test]
    fn full_eval_respects_boolean_structure() {
        let a = extent(0, Some(50), 0, Some(50));
        let b = extent(100, Some(150), 100, Some(150));
        let stored = extent(40, Some(60), 30, Some(60));
        let ct = Day(500);
        let or = QualDescriptor {
            root: Some(QualNode::Or(vec![
                simple("Overlaps", a, false),
                simple("Overlaps", b, false),
            ])),
        };
        assert!(Qual::compile(&or).unwrap().eval(&stored, ct));
        let and = QualDescriptor {
            root: Some(QualNode::And(vec![
                simple("Overlaps", a, false),
                simple("Overlaps", b, false),
            ])),
        };
        assert!(!Qual::compile(&and).unwrap().eval(&stored, ct));
    }

    #[test]
    fn non_strategy_function_rejected() {
        let qual = QualDescriptor {
            root: Some(QualNode::Simple(SimpleQual {
                func: "Near".into(),
                column: "c".into(),
                constant: Some(extent_to_value(&extent(0, None, 0, None))),
                commuted: false,
            })),
        };
        assert!(Qual::compile(&qual).is_err());
    }
}
