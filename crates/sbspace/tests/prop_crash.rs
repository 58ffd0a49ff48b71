//! Property-based crash testing: random operation sequences with a
//! crash after a random prefix. After recovery, the store must hold
//! exactly the committed state — no lost commits, no leaked aborts —
//! and remain fully operational.

use grt_sbspace::wal::MemWal;
use grt_sbspace::{IsolationLevel, LoId, LockMode, MemBackend, Sbspace, SbspaceOptions};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    /// Begin a transaction writing `value` to object `obj % live`, then
    /// commit (`true`) or abort cleanly (`false`).
    Write { obj: u8, value: u64, commit: bool },
    /// Create a new object (committed).
    Create,
    /// Drop an existing object (committed).
    Drop { obj: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u64>(), any::<bool>()).prop_map(|(obj, value, commit)| Op::Write {
            obj,
            value,
            commit
        }),
        Just(Op::Create),
        any::<u8>().prop_map(|obj| Op::Drop { obj }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recovery_restores_exactly_the_committed_state(
        ops in proptest::collection::vec(arb_op(), 1..40),
        crash_after in 0usize..40,
    ) {
        let backend = Arc::new(MemBackend::new());
        let wal = Arc::new(MemWal::new());
        let opts = SbspaceOptions {
            pool_pages: 64,
            ..Default::default()
        };
        let sb = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts.clone()).unwrap();

        // The oracle of committed state: object -> value.
        let mut oracle: HashMap<u32, u64> = HashMap::new();
        let mut live: Vec<LoId> = Vec::new();
        // Bootstrap one object so writes always have a target.
        {
            let t = sb.begin(IsolationLevel::ReadCommitted);
            let lo = sb.create_lo(&t).unwrap();
            let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
            h.write_at(0, &0u64.to_le_bytes()).unwrap();
            h.close().unwrap();
            t.commit().unwrap();
            oracle.insert(lo.0, 0);
            live.push(lo);
        }

        for (i, op) in ops.iter().enumerate() {
            if i >= crash_after {
                break;
            }
            match op {
                Op::Write { obj, value, commit } => {
                    let lo = live[*obj as usize % live.len()];
                    let t = sb.begin(IsolationLevel::ReadCommitted);
                    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
                    h.write_at(0, &value.to_le_bytes()).unwrap();
                    h.close().unwrap();
                    if *commit {
                        t.commit().unwrap();
                        oracle.insert(lo.0, *value);
                    } else {
                        t.abort().unwrap();
                    }
                }
                Op::Create => {
                    let t = sb.begin(IsolationLevel::ReadCommitted);
                    let lo = sb.create_lo(&t).unwrap();
                    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive).unwrap();
                    h.write_at(0, &7u64.to_le_bytes()).unwrap();
                    h.close().unwrap();
                    t.commit().unwrap();
                    oracle.insert(lo.0, 7);
                    live.push(lo);
                }
                Op::Drop { obj } => {
                    if live.len() > 1 {
                        let idx = *obj as usize % live.len();
                        let lo = live.remove(idx);
                        let t = sb.begin(IsolationLevel::ReadCommitted);
                        sb.drop_lo(&t, lo).unwrap();
                        t.commit().unwrap();
                        oracle.remove(&lo.0);
                    }
                }
            }
        }

        // Optionally leave one transaction in flight (uncommitted writes
        // and allocations) at the moment of the crash.
        if crash_after % 2 == 0 {
            let t = sb.begin(IsolationLevel::ReadCommitted);
            let target = live[crash_after % live.len()];
            let mut h = sb.open_lo(&t, target, LockMode::Exclusive).unwrap();
            h.write_at(0, &u64::MAX.to_le_bytes()).unwrap();
            h.close().unwrap();
            let doomed = sb.create_lo(&t).unwrap();
            let mut h = sb.open_lo(&t, doomed, LockMode::Exclusive).unwrap();
            h.write_at(0, &[9u8; 4096 * 2]).unwrap();
            h.close().unwrap();
            std::mem::forget(t);
        }
        // CRASH: drop the space without checkpointing, reopen over the
        // same backend and log.
        drop(sb);
        let sb2 = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts).unwrap();
        let t = sb2.begin(IsolationLevel::ReadCommitted);
        for (obj, expected) in &oracle {
            let h = sb2.open_lo(&t, LoId(*obj), LockMode::Shared).unwrap();
            let mut buf = [0u8; 8];
            h.read_at(0, &mut buf).unwrap();
            prop_assert_eq!(
                u64::from_le_bytes(buf),
                *expected,
                "object {} lost its committed value",
                obj
            );
        }
        drop(t);
        // The recovered store is still fully operational.
        let t2 = sb2.begin(IsolationLevel::ReadCommitted);
        let lo = sb2.create_lo(&t2).unwrap();
        sb2.verify_lo(&t2, lo).unwrap();
        t2.commit().unwrap();
    }
}

// ---------------------------------------------------------------------
// Crash-point sweep.
//
// The property test above crashes between operations and keeps every
// byte the process ever wrote. The sweep below is stricter on both
// counts: it cuts the power after *every* WAL append, WAL sync, backend
// page write and backend sync of a seeded script, and its stores model
// what a cut leaves behind — WAL bytes past the last sync and backend
// writes past the last sync may or may not have reached the disk. Each
// cut reboots six ways: the unsynced log tail lost, torn or kept, times
// the unsynced backend writes lost or kept.
//
// A commit or abort is two of those events (one append, one sync) and
// no page write. The allocator's state is not in any page: it is in
// the log, as `AllocNote`s, `FreeNote`s and the copy a `Checkpoint`
// record carries, so the cuts that bracket a free are: after the
// append that carries its `FreeNote` (lost / torn: the note is gone,
// with any `Abort` behind it — what made the pages free-able, a
// loser's `AllocNote`, a committed `RetireNote` or a checkpoint's
// retire backlog, still owes them, and recovery gives them back; kept: the note replays behind the last checkpoint record and
// the second give does nothing); after the sync (the note is durable,
// whether or not the `Abort` behind it is); and after a checkpoint's
// record and recycle (the note is gone and the record's copy of the
// free stack is the only one).
//
// Recovery writes too — committed page images, a backend sync, a trim
// of the torn tail, and one append and sync of its own tail (`FreeNote`
// of what it gave back, an `Abort` per loser, a `Checkpoint` record) —
// so the sweep has a second level: for each cut, one of the six reboots
// (seeded) is run again with the power cut after a seeded one of its
// recovery's own events, and what that leaves is rebooted six ways and
// held to the same checks. That tail lost, torn (the `FreeNote` and
// some `Abort`s kept, the record not) or kept must all replay to the
// same allocator.
// ---------------------------------------------------------------------

mod sweep {
    use grt_sbspace::lo::Inode;
    use grt_sbspace::page::{page_from_slice, zeroed_page};
    use grt_sbspace::wal::{WalRecord, WalStore};
    use grt_sbspace::{
        Backend, IsolationLevel, LoId, LockMode, PageBuf, PageId, Result, SbError, Sbspace,
        SbspaceOptions, SpaceSnapshot, PAGE_SIZE,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, HashMap, HashSet};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// Counts I/O events across both stores; once armed, event `cut + 1`
    /// and everything after it fails — the machine lost power right
    /// after event `cut` completed.
    struct Clock {
        events: AtomicU64,
        cut: AtomicU64,
    }

    impl Clock {
        fn disarmed() -> Arc<Clock> {
            Arc::new(Clock {
                events: AtomicU64::new(0),
                cut: AtomicU64::new(u64::MAX),
            })
        }
        fn tick(&self) -> Result<()> {
            let n = self.events.fetch_add(1, Ordering::SeqCst) + 1;
            if n > self.cut.load(Ordering::SeqCst) {
                return Err(SbError::Io("power cut".into()));
            }
            Ok(())
        }
        /// Starts counting from zero and cuts after `cut` events.
        fn arm(&self, cut: u64) {
            self.events.store(0, Ordering::SeqCst);
            self.cut.store(cut, Ordering::SeqCst);
        }
        fn events(&self) -> u64 {
            self.events.load(Ordering::SeqCst)
        }
        fn is_cut(&self) -> bool {
            self.events() > self.cut.load(Ordering::SeqCst)
        }
    }

    /// How much of the WAL's unsynced tail survives the cut.
    #[derive(Debug, Clone, Copy)]
    enum Tail {
        Lost,
        /// Half of it — usually ending mid-record (a torn append).
        Torn,
        Kept,
    }

    #[derive(Default)]
    struct WalState {
        segs: BTreeMap<u64, Vec<u8>>,
        /// Durable length per segment (absent = 0).
        synced: BTreeMap<u64, usize>,
        active: u64,
    }

    /// A segmented in-memory log that knows which bytes were synced.
    struct SimWal {
        st: Mutex<WalState>,
        segment_bytes: usize,
        clock: Arc<Clock>,
    }

    impl SimWal {
        fn new(segment_bytes: usize, clock: Arc<Clock>) -> SimWal {
            let mut st = WalState::default();
            st.segs.insert(0, Vec::new());
            SimWal {
                st: Mutex::new(st),
                segment_bytes,
                clock,
            }
        }

        /// The log as a reboot would find it, its I/O counted on `clock`.
        fn after_cut(&self, tail: Tail, clock: Arc<Clock>) -> SimWal {
            let st = self.st.lock().unwrap();
            let mut out = WalState {
                active: st.active,
                ..Default::default()
            };
            for (&id, bytes) in &st.segs {
                let synced = st.synced.get(&id).copied().unwrap_or(0);
                let keep = match tail {
                    Tail::Lost => synced,
                    Tail::Torn => synced + (bytes.len() - synced) / 2,
                    Tail::Kept => bytes.len(),
                };
                out.segs.insert(id, bytes[..keep].to_vec());
                out.synced.insert(id, keep);
            }
            SimWal {
                st: Mutex::new(out),
                segment_bytes: self.segment_bytes,
                clock,
            }
        }
    }

    impl WalStore for SimWal {
        fn append(&self, bytes: &[u8]) -> Result<()> {
            self.clock.tick()?;
            let mut st = self.st.lock().unwrap();
            let active = st.active;
            let len = st.segs[&active].len();
            if len > 0 && len + bytes.len() > self.segment_bytes {
                // A roll seals (syncs) the old segment.
                st.synced.insert(active, len);
                st.active = active + 1;
                st.segs.insert(active + 1, Vec::new());
            }
            let active = st.active;
            st.segs.get_mut(&active).unwrap().extend_from_slice(bytes);
            Ok(())
        }
        fn sync(&self) -> Result<()> {
            self.clock.tick()?;
            let mut st = self.st.lock().unwrap();
            let active = st.active;
            let len = st.segs[&active].len();
            st.synced.insert(active, len);
            Ok(())
        }
        /// Durable at once: a cut that undid it would only bring back
        /// the garbage recovery is about to overwrite.
        fn trim(&self, len: u64) -> Result<()> {
            self.clock.tick()?;
            let mut st = self.st.lock().unwrap();
            let active = st.active;
            st.segs.get_mut(&active).unwrap().truncate(len as usize);
            let synced = st.synced.entry(active).or_insert(0);
            *synced = (*synced).min(len as usize);
            Ok(())
        }
        fn read_segment(&self, seg: u64) -> Result<Vec<u8>> {
            let st = self.st.lock().unwrap();
            st.segs
                .get(&seg)
                .cloned()
                .ok_or_else(|| SbError::NotFound(format!("wal segment {seg}")))
        }
        fn segments(&self) -> Result<Vec<u64>> {
            Ok(self.st.lock().unwrap().segs.keys().copied().collect())
        }
        fn active_segment(&self) -> u64 {
            self.st.lock().unwrap().active
        }
        fn recycle_below(&self, seg: u64) -> Result<usize> {
            let mut st = self.st.lock().unwrap();
            let before = st.segs.len();
            st.segs.retain(|&id, _| id >= seg);
            st.synced.retain(|&id, _| id >= seg);
            Ok(before - st.segs.len())
        }
    }

    /// A page store that knows which writes were synced.
    struct SimBackend {
        cur: Mutex<HashMap<u32, PageBuf>>,
        durable: Mutex<HashMap<u32, PageBuf>>,
        clock: Arc<Clock>,
    }

    impl SimBackend {
        fn new(clock: Arc<Clock>) -> SimBackend {
            SimBackend {
                cur: Mutex::new(HashMap::new()),
                durable: Mutex::new(HashMap::new()),
                clock,
            }
        }
        /// The store as a reboot would find it, its I/O counted on `clock`.
        fn after_cut(&self, keep_unsynced: bool, clock: Arc<Clock>) -> SimBackend {
            let pages = if keep_unsynced {
                self.cur.lock().unwrap().clone()
            } else {
                self.durable.lock().unwrap().clone()
            };
            SimBackend {
                cur: Mutex::new(pages.clone()),
                durable: Mutex::new(pages),
                clock,
            }
        }
        fn page(&self, pid: u32) -> PageBuf {
            let mut out = zeroed_page();
            self.read_page(PageId(pid), &mut out).unwrap();
            out
        }
    }

    impl Backend for SimBackend {
        fn read_page(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<()> {
            match self.cur.lock().unwrap().get(&pid.0) {
                Some(p) => out.copy_from_slice(&p[..]),
                None => out.fill(0),
            }
            Ok(())
        }
        fn write_page(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
            self.clock.tick()?;
            self.cur
                .lock()
                .unwrap()
                .insert(pid.0, page_from_slice(data));
            Ok(())
        }
        fn page_count(&self) -> u32 {
            self.cur.lock().unwrap().keys().max().map_or(0, |&p| p + 1)
        }
        fn sync(&self) -> Result<()> {
            self.clock.tick()?;
            let cur = self.cur.lock().unwrap().clone();
            *self.durable.lock().unwrap() = cur;
            Ok(())
        }
    }

    fn below(rng: &mut StdRng, n: usize) -> usize {
        rng.gen_range(0..n)
    }

    /// Committed state: object → the stamp of each of its pages.
    type Model = BTreeMap<u32, Vec<u64>>;

    fn stamp_page(stamp: u64) -> PageBuf {
        page_from_slice(&stamp.to_le_bytes())
    }

    fn opts() -> SbspaceOptions {
        SbspaceOptions {
            pool_pages: 32,
            // Small segments: the script rolls and recycles several.
            wal_segment_bytes: 24 * 1024,
            ..Default::default()
        }
    }

    /// Steps in one seeded script.
    const STEPS: u64 = 40;

    /// One step of the script. Returns the model the step commits to,
    /// or `None` for steps that change no committed state.
    fn step(
        sb: &Sbspace,
        rng: &mut StdRng,
        model: &Model,
        held: &mut Option<SpaceSnapshot>,
        stamp: u64,
    ) -> (Option<Model>, Result<()>) {
        let live: Vec<u32> = model.keys().copied().collect();
        let pick = |rng: &mut StdRng| LoId(live[below(rng, live.len())]);
        let kind = if live.is_empty() { 0 } else { below(rng, 16) };
        match kind {
            // INSERT: a new object of 1–3 pages.
            0..=2 => {
                let n = 1 + below(rng, 3);
                let mut next = model.clone();
                let res = (|| {
                    let t = sb.begin(IsolationLevel::ReadCommitted);
                    let lo = sb.create_lo(&t)?;
                    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive)?;
                    for _ in 0..n {
                        h.append_page(&stamp_page(stamp))?;
                    }
                    h.close()?;
                    next.insert(lo.0, vec![stamp; n]);
                    t.commit()
                })();
                (Some(next), res)
            }
            // UPDATE: rewrite some pages (copy-on-write: allocates,
            // retires, frees after commit), sometimes grow or shrink.
            3..=7 => {
                let lo = pick(rng);
                let mut pages = model[&lo.0].clone();
                let reshape = below(rng, 4);
                let mask = rand::RngCore::next_u64(rng);
                let res = (|| {
                    let t = sb.begin(IsolationLevel::ReadCommitted);
                    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive)?;
                    for (i, slot) in pages.iter_mut().enumerate() {
                        if mask >> i & 1 == 1 {
                            h.write_page(i as u32, &stamp_page(stamp))?;
                            *slot = stamp;
                        }
                    }
                    if reshape == 0 {
                        h.append_page(&stamp_page(stamp))?;
                        pages.push(stamp);
                    } else if reshape == 1 && pages.len() > 1 {
                        h.truncate_pages(pages.len() as u32 - 1)?;
                        pages.pop();
                    }
                    h.close()?;
                    t.commit()
                })();
                let mut next = model.clone();
                next.insert(lo.0, pages);
                (Some(next), res)
            }
            // DELETE: drop an object.
            8..=9 => {
                let lo = pick(rng);
                let res = (|| {
                    let t = sb.begin(IsolationLevel::ReadCommitted);
                    sb.drop_lo(&t, lo)?;
                    t.commit()
                })();
                let mut next = model.clone();
                next.remove(&lo.0);
                (Some(next), res)
            }
            // ABORT: allocate and write, then roll back.
            10..=11 => {
                let lo = pick(rng);
                let res = (|| {
                    let t = sb.begin(IsolationLevel::ReadCommitted);
                    let mut h = sb.open_lo(&t, lo, LockMode::Exclusive)?;
                    h.write_page(0, &stamp_page(stamp))?;
                    h.append_page(&stamp_page(stamp))?;
                    h.close()?;
                    let doomed = sb.create_lo(&t)?;
                    let mut h = sb.open_lo(&t, doomed, LockMode::Exclusive)?;
                    h.append_page(&stamp_page(stamp))?;
                    h.close()?;
                    t.abort()
                })();
                (None, res)
            }
            // SNAPSHOT: pin the current epoch, or drop the pin (which
            // reclaims whatever it was holding back).
            12..=13 => {
                let res = match held.take() {
                    Some(snap) => {
                        drop(snap);
                        Ok(())
                    }
                    None => sb
                        .snapshot_for(&live.iter().map(|&l| LoId(l)).collect::<Vec<_>>())
                        .map(|snap| *held = Some(snap)),
                };
                (None, res)
            }
            // CHECKPOINT: flush, sync, recycle.
            _ => (None, sb.checkpoint()),
        }
    }

    /// The allocator's state as recovery left it on disk: the last
    /// checkpoint record of the log, which recovery ends by writing —
    /// unless nothing was ever logged, and the space is as created.
    fn logged_allocator(wal: &SimWal) -> std::result::Result<(u32, Vec<u32>), String> {
        let bytes = wal.read_all().unwrap();
        let (records, clean) = WalRecord::decode_segment(&bytes);
        if clean != bytes.len() {
            return Err("recovery left a log that does not decode to its end".into());
        }
        match records.last() {
            Some(WalRecord::Checkpoint {
                total_pages, free, ..
            }) => Ok((*total_pages, free.clone())),
            None => Ok((1, Vec::new())),
            other => Err(format!(
                "recovery's log ends in {other:?}, not a checkpoint"
            )),
        }
    }

    /// Checks one rebooted store against one candidate model, from the
    /// raw log and pages recovery left behind (`allocator` is
    /// [`logged_allocator`] of its log) and then through the API.
    fn check(
        backend: &Arc<SimBackend>,
        allocator: &(u32, Vec<u32>),
        sb: &Sbspace,
        model: &Model,
    ) -> std::result::Result<(), String> {
        let (total_pages, free_stack) = allocator;
        let mut free: HashSet<u32> = HashSet::new();
        for &pid in free_stack {
            if !free.insert(pid) {
                return Err(format!("page {pid} is free twice"));
            }
            if pid == 0 || pid >= *total_pages {
                return Err(format!("free page {pid} is outside 1..{total_pages}"));
            }
        }
        let mut live: HashSet<u32> = HashSet::new();
        for (&lo, stamps) in model {
            let inode = Inode::decode(LoId(lo), |pid| Ok(backend.page(pid)))
                .map_err(|e| format!("lo{lo}: {e}"))?;
            if inode.data_pages.len() != stamps.len() {
                return Err(format!(
                    "lo{lo}: {} pages, model has {}",
                    inode.data_pages.len(),
                    stamps.len()
                ));
            }
            for (i, (&pid, &want)) in inode.data_pages.iter().zip(stamps).enumerate() {
                let got = u64::from_le_bytes(backend.page(pid)[..8].try_into().unwrap());
                if got != want {
                    return Err(format!("lo{lo} page {i}: stamp {got}, model has {want}"));
                }
            }
            for pid in inode.all_pages(LoId(lo)) {
                if !live.insert(pid) {
                    return Err(format!("page {pid} belongs to two objects"));
                }
                if free.contains(&pid) {
                    return Err(format!("page {pid} of lo{lo} is on the free list"));
                }
                if pid >= *total_pages {
                    return Err(format!("page {pid} of lo{lo} is past the watermark"));
                }
            }
        }
        let accounted = 1 + live.len() + free.len();
        if accounted != *total_pages as usize {
            return Err(format!(
                "pages leaked or double-counted: watermark {total_pages}, header + {} live + {} free",
                live.len(),
                free.len()
            ));
        }
        // The same through the front door.
        let info = sb.space_info().map_err(|e| e.to_string())?;
        if (info.total_pages, info.free_pages as usize) != (*total_pages, free.len()) {
            return Err(format!("space_info disagrees with the log: {info:?}"));
        }
        let t = sb.begin(IsolationLevel::ReadCommitted);
        for (&lo, stamps) in model {
            let h = sb
                .open_lo(&t, LoId(lo), LockMode::Shared)
                .map_err(|e| format!("open lo{lo}: {e}"))?;
            let page = h.read_page(0).map_err(|e| e.to_string())?;
            if u64::from_le_bytes(page[..8].try_into().unwrap()) != stamps[0] {
                return Err(format!("lo{lo}: wrong first page through the API"));
            }
        }
        Ok(())
    }

    /// The six ways a cut store comes back: the unsynced log tail lost,
    /// torn or kept, times the unsynced backend writes lost or kept.
    const REBOOTS: [(Tail, bool); 6] = [
        (Tail::Lost, false),
        (Tail::Lost, true),
        (Tail::Torn, false),
        (Tail::Torn, true),
        (Tail::Kept, false),
        (Tail::Kept, true),
    ];

    /// The states a cut store may legitimately come back in.
    struct Expect {
        /// Every step the caller saw succeed.
        model: Model,
        /// The same plus the step the cut interrupted, which can have
        /// reached its commit point without the caller ever hearing of it.
        maybe: Option<Model>,
    }

    /// Reboots what a cut left of `backend` and `wal` one of the six
    /// ways, on a clock that only counts; holds the survivor to `expect`
    /// and makes it work. Returns the I/O events its recovery took.
    fn reboot(
        what: &str,
        backend: &SimBackend,
        wal: &SimWal,
        (tail, keep_unsynced): (Tail, bool),
        expect: &Expect,
    ) -> u64 {
        let what = format!("{what} tail {tail:?} keep_unsynced {keep_unsynced}");
        let clock = Clock::disarmed();
        let backend2 = Arc::new(backend.after_cut(keep_unsynced, Arc::clone(&clock)));
        let wal2 = Arc::new(wal.after_cut(tail, Arc::clone(&clock)));
        let sb2 = Sbspace::open_with(Arc::clone(&backend2), Arc::clone(&wal2), opts())
            .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
        let events = clock.events();
        let allocator = logged_allocator(&wal2).unwrap_or_else(|e| panic!("{what}: {e}"));
        let acked = check(&backend2, &allocator, &sb2, &expect.model);
        let verdict = match (&acked, &expect.maybe) {
            (Err(_), Some(m)) => check(&backend2, &allocator, &sb2, m),
            _ => acked.clone(),
        };
        if let Err(e) = verdict {
            panic!("{what}: {e} (acknowledged state: {acked:?})");
        }
        // And the survivor still works.
        let t = sb2.begin(IsolationLevel::ReadCommitted);
        let lo = sb2.create_lo(&t).unwrap();
        let mut h = sb2.open_lo(&t, lo, LockMode::Exclusive).unwrap();
        h.append_page(&stamp_page(0)).unwrap();
        h.close().unwrap();
        t.commit().unwrap();
        sb2.checkpoint().unwrap();
        events
    }

    /// Runs the script for `seed`, cutting after `cut` events (`None`:
    /// never). Returns the events the armed part of the run consumed.
    fn run(seed: u64, cut: Option<u64>) -> u64 {
        let clock = Clock::disarmed();
        let backend = Arc::new(SimBackend::new(Arc::clone(&clock)));
        let wal = Arc::new(SimWal::new(opts().wal_segment_bytes, Arc::clone(&clock)));
        let sb = Sbspace::open_with(Arc::clone(&backend), Arc::clone(&wal), opts()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut expect = Expect {
            model: Model::new(),
            maybe: None,
        };
        let mut held = None;
        clock.arm(cut.unwrap_or(u64::MAX));
        for stamp in 1..=STEPS {
            let (next, res) = step(&sb, &mut rng, &expect.model, &mut held, stamp);
            match res {
                Ok(()) => expect.model = next.unwrap_or(expect.model),
                Err(e) => {
                    assert!(
                        clock.is_cut(),
                        "seed {seed}: step {stamp} failed uncut: {e}"
                    );
                    expect.maybe = next;
                    break;
                }
            }
        }
        let events = clock.events();
        drop(held);
        drop(sb);
        let Some(cut) = cut else {
            return events;
        };
        // First level: the script's cut, rebooted six ways.
        let what = format!("seed {seed} cut {cut}");
        let recoveries = REBOOTS.map(|way| reboot(&what, &backend, &wal, way, &expect));
        // Second level: recovery itself writes pages, syncs, trims and
        // appends to the log, and the power can go there too. One of the
        // six reboots, seeded, is run again with the clock armed at one
        // of its recovery's own events; what that leaves is rebooted six
        // ways and held to the same expectations.
        let mut rng = StdRng::seed_from_u64(seed << 32 | cut);
        let pick = below(&mut rng, REBOOTS.len());
        let (tail, keep_unsynced) = REBOOTS[pick];
        if recoveries[pick] == 0 {
            return events; // nothing was logged yet: recovery did no I/O
        }
        let cut2 = below(&mut rng, recoveries[pick] as usize) as u64;
        let what =
            format!("{what} tail {tail:?} keep_unsynced {keep_unsynced}, recovery cut {cut2}");
        let clock = Clock::disarmed();
        clock.arm(cut2);
        let backend2 = Arc::new(backend.after_cut(keep_unsynced, Arc::clone(&clock)));
        let wal2 = Arc::new(wal.after_cut(tail, Arc::clone(&clock)));
        let cut_short = Sbspace::open_with(Arc::clone(&backend2), Arc::clone(&wal2), opts());
        assert!(cut_short.is_err(), "{what}: recovery outran its cut");
        drop(cut_short);
        for way in REBOOTS {
            reboot(&what, &backend2, &wal2, way, &expect);
        }
        events
    }

    fn sweep(seed: u64) {
        let total = run(seed, None);
        // Twelve of the sixteen step kinds end a transaction, and a
        // commit or abort is one log append and one log sync — no page
        // write: 60 events expected from those alone, before the
        // checkpoints' flushes (seeds 1–32 do 79–142). Fewer means the
        // script lost its transactions.
        let floor = STEPS * 12 / 16 * 2;
        assert!(
            total > floor,
            "seed {seed}: the script did only {total} I/Os"
        );
        for cut in 0..total {
            run(seed, Some(cut));
        }
    }

    /// Seeds `1..=CRASH_SWEEP_SEEDS` (default 6).
    #[test]
    fn every_cut_point_recovers_to_an_acknowledged_state() {
        let seeds: u64 = std::env::var("CRASH_SWEEP_SEEDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(6);
        for seed in 1..=seeds {
            sweep(seed);
        }
    }
}
