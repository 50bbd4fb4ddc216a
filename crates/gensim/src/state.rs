//! Simulator state: the data structures that emulate the target
//! architecture's storage elements, plus state monitors and the
//! latency-delayed write-back queue.
//!
//! All accesses are routed through [`State`] so monitors (§3.2 item 3 of
//! the paper) observe every change. Writes are *staged* during a cycle
//! and committed when their latency expires, implementing the paper's
//! two-phase read/write discipline (§3.3.3).

use bitv::BitVector;
use isdl::model::{Machine, StorageKind};
use isdl::rtl::StorageId;

/// One observed state change, delivered to monitors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorEvent {
    /// Index of the monitor that fired (see [`State::add_monitor`]).
    pub monitor: usize,
    /// Cycle at which the write became visible.
    pub cycle: u64,
    /// The storage written.
    pub storage: StorageId,
    /// Cell index (0 for non-addressed storage).
    pub index: u64,
    /// Value before the write.
    pub old: BitVector,
    /// Value after the write.
    pub new: BitVector,
}

/// A watch on part of the state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Monitor {
    /// Storage to watch.
    pub storage: StorageId,
    /// Restrict to one cell (`None` watches every cell).
    pub index: Option<u64>,
    /// Only report when the value actually changes.
    pub only_changes: bool,
    /// A simulator command dispatched back to the user interface when
    /// the monitor fires (the paper's "attached commands", §3.2).
    pub command: Option<String>,
}

impl Monitor {
    /// A plain change monitor on one cell (or the whole storage).
    #[must_use]
    pub fn watch(storage: StorageId, index: Option<u64>) -> Self {
        Self { storage, index, only_changes: true, command: None }
    }
}

/// A staged write waiting for its latency to expire.
#[derive(Debug, Clone)]
struct PendingWrite {
    /// Cycle from which the value is visible.
    visible_at: u64,
    storage: StorageId,
    index: u64,
    /// Bit range written (whole-cell writes use `hi = width-1, lo = 0`).
    hi: u32,
    lo: u32,
    value: BitVector,
}

/// The complete architectural state of a simulated machine.
#[derive(Debug)]
pub struct State {
    /// `cells[s]` holds storage `s`'s cells.
    cells: Vec<Vec<BitVector>>,
    widths: Vec<u32>,
    pending: Vec<PendingWrite>,
    /// Earliest `visible_at` among `pending` (`u64::MAX` when empty):
    /// lets every commit scan early-out in O(1) on the cycles — the
    /// majority — where nothing is due yet.
    next_due: u64,
    monitors: Vec<Monitor>,
    events: Vec<MonitorEvent>,
}

impl State {
    /// Allocates zeroed state for every storage element of `machine`
    /// (§3.3.1 "State Generation").
    #[must_use]
    pub fn new(machine: &Machine) -> Self {
        let cells = machine
            .storages
            .iter()
            .map(|s| vec![BitVector::zero(s.width); s.cells() as usize])
            .collect();
        let widths = machine.storages.iter().map(|s| s.width).collect();
        Self {
            cells,
            widths,
            pending: Vec::new(),
            next_due: u64::MAX,
            monitors: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Reads one cell.
    ///
    /// # Panics
    ///
    /// Panics if the storage id is out of range. Out-of-range cell
    /// indices wrap modulo the depth (the documented address-wrap
    /// semantics).
    #[must_use]
    pub fn read(&self, storage: StorageId, index: u64) -> &BitVector {
        let cells = &self.cells[storage.0];
        &cells[(index % cells.len() as u64) as usize]
    }

    /// Reads one cell as `u64` (low bits). Fast path for the bytecode
    /// core; identical wrapping semantics to [`Self::read`].
    #[must_use]
    pub fn read_u64(&self, storage: StorageId, index: u64) -> u64 {
        self.read(storage, index).to_u64_lossy()
    }

    /// Immediately writes one whole cell, bypassing staging. Intended
    /// for test setup, program loading, and the interactive `set`
    /// command; simulation writes go through [`Self::stage_write`].
    ///
    /// # Panics
    ///
    /// Panics if the value width differs from the storage width.
    pub fn poke(&mut self, storage: StorageId, index: u64, value: BitVector) {
        assert_eq!(value.width(), self.widths[storage.0], "poke width mismatch");
        let cells = &mut self.cells[storage.0];
        let i = (index % cells.len() as u64) as usize;
        cells[i] = value;
    }

    /// Width of one cell of `storage`.
    #[must_use]
    pub fn width(&self, storage: StorageId) -> u32 {
        self.widths[storage.0]
    }

    /// Number of cells of `storage`.
    #[must_use]
    pub fn depth(&self, storage: StorageId) -> u64 {
        self.cells[storage.0].len() as u64
    }

    /// Stages a write of bits `hi..=lo` of a cell, visible from cycle
    /// `visible_at`.
    ///
    /// # Panics
    ///
    /// Panics if the bit range or value width is inconsistent.
    pub fn stage_write(
        &mut self,
        storage: StorageId,
        index: u64,
        hi: u32,
        lo: u32,
        value: BitVector,
        visible_at: u64,
    ) {
        assert!(hi >= lo && hi < self.widths[storage.0], "stage range out of bounds");
        assert_eq!(value.width(), hi - lo + 1, "staged value width mismatch");
        self.next_due = self.next_due.min(visible_at);
        self.pending.push(PendingWrite { visible_at, storage, index, hi, lo, value });
    }

    /// Whether any staged write is due at `cycle` — the O(1) guard the
    /// dispatch loops use to skip the commit scan entirely on the
    /// (majority of) cycles where nothing can land.
    #[inline]
    #[must_use]
    pub fn has_due(&self, cycle: u64) -> bool {
        cycle >= self.next_due
    }

    /// Commits every staged write whose visibility cycle is `<= cycle`
    /// and pushes the (depth-wrapped) cell index of every committed
    /// write into `watch` onto `dirty`, so the scheduler can invalidate
    /// decode/translation caches *precisely* — only the entries a store
    /// can actually affect — instead of dropping them wholesale.
    ///
    /// Writes staged earlier commit first, so within one cycle the
    /// later (in field order) of two conflicting writes wins.
    pub fn commit_due_collecting(&mut self, cycle: u64, watch: StorageId, dirty: &mut Vec<u64>) {
        if cycle < self.next_due {
            return;
        }
        let depth = self.cells[watch.0].len() as u64;
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].visible_at <= cycle {
                let p = self.pending.remove(i);
                self.apply(&p, cycle);
                if p.storage == watch {
                    dirty.push(p.index % depth);
                }
            } else {
                i += 1;
            }
        }
        self.recompute_next_due();
    }

    fn recompute_next_due(&mut self) {
        self.next_due = self.pending.iter().map(|p| p.visible_at).min().unwrap_or(u64::MAX);
    }

    /// Discards all staged writes (used by `reset`).
    pub fn clear_pending(&mut self) {
        self.pending.clear();
        self.next_due = u64::MAX;
    }

    fn apply(&mut self, p: &PendingWrite, cycle: u64) {
        let cells = &mut self.cells[p.storage.0];
        let i = (p.index % cells.len() as u64) as usize;
        let old = cells[i].clone();
        let new = if p.lo == 0 && p.hi == old.width() - 1 {
            p.value.clone()
        } else {
            old.with_slice(p.hi, p.lo, &p.value)
        };
        let fired = self.monitors.iter().position(|m| {
            m.storage == p.storage
                && m.index.is_none_or(|ix| ix == i as u64)
                && (!m.only_changes || old != new)
        });
        if let Some(monitor) = fired {
            self.events.push(MonitorEvent {
                monitor,
                cycle,
                storage: p.storage,
                index: i as u64,
                old,
                new: new.clone(),
            });
        }
        cells[i] = new;
    }

    /// Installs a monitor; returns its handle (the index reported in
    /// [`MonitorEvent::monitor`]).
    pub fn add_monitor(&mut self, m: Monitor) -> usize {
        self.monitors.push(m);
        self.monitors.len() - 1
    }

    /// The installed monitors.
    #[must_use]
    pub fn monitors(&self) -> &[Monitor] {
        &self.monitors
    }

    /// Removes every monitor.
    pub fn clear_monitors(&mut self) {
        self.monitors.clear();
    }

    /// Drains the accumulated monitor events.
    pub fn take_events(&mut self) -> Vec<MonitorEvent> {
        std::mem::take(&mut self.events)
    }

    /// Pending (staged, uncommitted) write count — useful in tests.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Zeroes all cells, drops staged writes, keeps monitors.
    pub fn reset(&mut self) {
        for (s, cells) in self.cells.iter_mut().enumerate() {
            for c in cells.iter_mut() {
                *c = BitVector::zero(self.widths[s]);
            }
        }
        self.pending.clear();
        self.next_due = u64::MAX;
        self.events.clear();
    }
}

/// Finds the storage id of the first storage with the given kind.
#[must_use]
pub fn find_storage(machine: &Machine, kind: StorageKind) -> Option<StorageId> {
    machine.storages.iter().position(|s| s.kind == kind).map(StorageId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isdl::samples::TOY;

    fn state() -> (Machine, State) {
        let m = isdl::load(TOY).expect("loads");
        let s = State::new(&m);
        (m, s)
    }

    fn rf(m: &Machine) -> StorageId {
        m.storage_by_name("RF").expect("RF exists").0
    }

    /// Commits the writes due at `cycle`, returning the cells of
    /// `watch` they wrote.
    fn commit(s: &mut State, cycle: u64, watch: StorageId) -> Vec<u64> {
        let mut dirty = Vec::new();
        s.commit_due_collecting(cycle, watch, &mut dirty);
        dirty
    }

    #[test]
    fn fresh_state_is_zero() {
        let (m, s) = state();
        let rf = rf(&m);
        assert!(s.read(rf, 0).is_zero());
        assert_eq!(s.width(rf), 16);
        assert_eq!(s.depth(rf), 8);
    }

    #[test]
    fn poke_and_read() {
        let (m, mut s) = state();
        let rf = rf(&m);
        s.poke(rf, 3, BitVector::from_u64(0xBEEF, 16));
        assert_eq!(s.read(rf, 3).to_u64_lossy(), 0xBEEF);
        assert_eq!(s.read_u64(rf, 3), 0xBEEF);
    }

    #[test]
    fn index_wraps_at_depth() {
        let (m, mut s) = state();
        let rf = rf(&m);
        s.poke(rf, 1, BitVector::from_u64(7, 16));
        assert_eq!(s.read(rf, 9).to_u64_lossy(), 7); // 9 % 8 == 1
    }

    #[test]
    fn staged_write_commits_at_latency() {
        let (m, mut s) = state();
        let rf = rf(&m);
        s.stage_write(rf, 10, 15, 0, BitVector::from_u64(5, 16), 3);
        assert!(s.read(rf, 2).is_zero());
        assert!(commit(&mut s, 2, rf).is_empty());
        assert!(s.read(rf, 2).is_zero());
        assert_eq!(commit(&mut s, 3, rf), vec![2], "index wraps at depth");
        assert_eq!(s.read(rf, 2).to_u64_lossy(), 5);
    }

    #[test]
    fn partial_write_merges() {
        let (m, mut s) = state();
        let acc = m.storage_by_name("ACC").expect("ACC").0;
        s.poke(acc, 0, BitVector::from_u64(0xFF00, 16));
        s.stage_write(acc, 0, 7, 0, BitVector::from_u64(0xAB, 8), 1);
        assert!(commit(&mut s, 1, rf(&m)).is_empty(), "only the watched storage is collected");
        assert_eq!(s.read(acc, 0).to_u64_lossy(), 0xFFAB);
    }

    #[test]
    fn later_write_wins_same_cycle() {
        let (m, mut s) = state();
        let acc = m.storage_by_name("ACC").expect("ACC").0;
        s.stage_write(acc, 0, 15, 0, BitVector::from_u64(1, 16), 1);
        s.stage_write(acc, 0, 15, 0, BitVector::from_u64(2, 16), 1);
        assert_eq!(commit(&mut s, 1, acc), vec![0, 0]);
        assert_eq!(s.read(acc, 0).to_u64_lossy(), 2);
    }

    #[test]
    fn monitors_capture_changes() {
        let (m, mut s) = state();
        let rf = rf(&m);
        s.add_monitor(Monitor::watch(rf, Some(1)));
        s.stage_write(rf, 1, 15, 0, BitVector::from_u64(9, 16), 1);
        s.stage_write(rf, 2, 15, 0, BitVector::from_u64(9, 16), 1); // not watched
        commit(&mut s, 1, rf);
        let events = s.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].index, 1);
        assert_eq!(events[0].new.to_u64_lossy(), 9);
        assert!(s.take_events().is_empty(), "events drained");
    }

    #[test]
    fn only_changes_suppresses_identical_writes() {
        let (m, mut s) = state();
        let rf = rf(&m);
        s.add_monitor(Monitor::watch(rf, None));
        s.stage_write(rf, 0, 15, 0, BitVector::zero(16), 1);
        commit(&mut s, 1, rf);
        assert!(s.take_events().is_empty());
        s.clear_monitors();
        s.add_monitor(Monitor { storage: rf, index: None, only_changes: false, command: None });
        s.stage_write(rf, 0, 15, 0, BitVector::zero(16), 2);
        commit(&mut s, 2, rf);
        assert_eq!(s.take_events().len(), 1);
    }

    #[test]
    fn reset_clears_state_and_pending() {
        let (m, mut s) = state();
        let rf = rf(&m);
        s.poke(rf, 0, BitVector::from_u64(1, 16));
        s.stage_write(rf, 1, 15, 0, BitVector::from_u64(2, 16), 5);
        s.reset();
        assert!(s.read(rf, 0).is_zero());
        assert_eq!(s.pending_count(), 0);
    }

    #[test]
    fn find_storage_by_kind() {
        let (m, _) = state();
        assert!(find_storage(&m, StorageKind::ProgramCounter).is_some());
        assert!(find_storage(&m, StorageKind::Stack).is_none());
    }
}
