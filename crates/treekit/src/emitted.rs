//! A scan's memory of what it has already returned.

use std::collections::HashSet;
use std::hash::Hash;

/// The identities a scan has emitted, kept so that nothing is returned
/// twice. One traversal meets every leaf entry once, so until something
/// makes a second meeting possible — a Section 5.5 restart re-walking
/// the tree, or a second probe of an OR qualification covering the same
/// rows — there is nothing to look up: the memory is an append-only log
/// and an emission costs one `Vec` push. [`Emitted::arm`] is called at
/// that moment and turns the log into a hash set; most scans end
/// without ever paying for one.
pub struct Emitted<T> {
    log: Vec<T>,
    set: Option<HashSet<T>>,
}

impl<T: Eq + Hash> Emitted<T> {
    /// An empty, unarmed memory.
    pub fn new() -> Emitted<T> {
        Emitted {
            log: Vec::new(),
            set: None,
        }
    }

    /// Records `id`; `false` when it was emitted before. Unarmed, every
    /// identity is new by construction and is only logged.
    pub fn insert(&mut self, id: T) -> bool {
        match &mut self.set {
            Some(set) => set.insert(id),
            None => {
                self.log.push(id);
                true
            }
        }
    }

    /// From here on an identity may come round again: checks start, and
    /// everything logged so far counts as emitted.
    pub fn arm(&mut self) {
        if self.set.is_none() {
            self.set = Some(self.log.drain(..).collect());
        }
    }

    /// Forgets everything and disarms (`am_rescan`).
    pub fn clear(&mut self) {
        self.log.clear();
        self.set = None;
    }
}

impl<T: Eq + Hash> Default for Emitted<T> {
    fn default() -> Self {
        Emitted::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logs_until_armed_then_checks() {
        let mut seen = Emitted::new();
        assert!(seen.insert(1) && seen.insert(2));
        assert!(seen.insert(1), "unarmed: nothing is looked up");
        seen.arm();
        assert!(!seen.insert(1), "logged before arming counts as emitted");
        assert!(seen.insert(3));
        assert!(!seen.insert(3));
        seen.arm();
        assert!(!seen.insert(2), "arming twice keeps the set");
        seen.clear();
        assert!(seen.insert(1), "cleared");
        assert!(seen.insert(1), "and disarmed");
    }
}
