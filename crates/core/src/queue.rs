//! The alarm queue: entries ordered by scheduled delivery time.
//!
//! Android's `AlarmManager` keeps registered alarms "queued in the
//! increasing order of their delivery times" (§2.1). Alignment policies
//! scan this order in their *search phase*, and the simulator pops due
//! entries from the front.
//!
//! Every delivery of a repeating alarm re-places it (§2.1, §3.2.1), and
//! most re-placements join an existing entry, so the queue's cost sits in
//! a few operations:
//!
//! * **Storage and pop.** The entries live in a `VecDeque` that is kept
//!   contiguous, so [`AlarmQueue::entries`] is one slice in delivery
//!   order. Popping the `k` due entries ([`AlarmQueue::pop_due_into`])
//!   moves only those `k`; the entries behind them stay where they are.
//!   An insert that wraps the ring re-joins it at once, after growing
//!   the buffer to twice the queue's length, so wraps stay rare.
//! * **Reposition.** An entry whose membership changed
//!   ([`AlarmQueue::add_to_entry`], [`AlarmQueue::remove_alarm`]) is
//!   rotated from its old slot to its new one, so only the entries it
//!   crosses shift. The final order is the one removing it and
//!   re-inserting it through [`AlarmQueue::insert_entry`] gives: after
//!   every other entry delivering at or before it.
//! * **Id high-water mark.** The queue remembers the highest alarm id it
//!   has ever held. [`AlarmQueue::position_of`] and
//!   [`AlarmQueue::contains_alarm`] answer `None`/`false` at once for any
//!   id above it, which is every freshly minted id a registration looks
//!   up. Entries enter only through `insert_entry` and `add_to_entry`
//!   (checkpoint restore included), and both raise the mark.
//! * **Buffer reuse.** A delivered entry's emptied member list comes back
//!   through [`AlarmQueue::recycle`] (and an entry that loses its last
//!   member through `remove_alarm`), and
//!   [`AlarmQueue::insert_new_entry`] takes one of these spares before it
//!   allocates, so a steady-state delivery allocates nothing. A fresh
//!   entry still gets a one-alarm buffer, and a buffer that grew past
//!   [`MAX_SPARE_CAPACITY`] is freed rather than kept. The spares are
//!   capacity only: never persisted, cloned, compared or printed.
//!
//! The pre-rotation queue, which removed and re-inserted the whole entry,
//! scanned every entry for every lookup and shifted the whole queue on a
//! pop, is kept in [`oracle`] as the differential-testing reference.

use std::collections::VecDeque;
use std::fmt;

use crate::alarm::{Alarm, AlarmId};
use crate::entry::{DeliveryDiscipline, QueueEntry};
use crate::time::SimTime;

/// The largest member-buffer capacity [`AlarmQueue::recycle`] keeps.
pub const MAX_SPARE_CAPACITY: usize = 16;

/// A delivery-time-ordered queue of [`QueueEntry`] batches.
///
/// Ordering is stable: entries with equal delivery times keep their
/// insertion order, which makes the "first found, most preferable entry"
/// tie-break of §3.2.1 deterministic.
///
/// # Examples
///
/// ```
/// use simty_core::alarm::Alarm;
/// use simty_core::entry::DeliveryDiscipline;
/// use simty_core::queue::AlarmQueue;
/// use simty_core::time::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), simty_core::error::BuildAlarmError> {
/// let mut queue = AlarmQueue::new();
/// let alarm = Alarm::builder("sync")
///     .nominal(SimTime::from_secs(60))
///     .repeating_dynamic(SimDuration::from_secs(60))
///     .build()?;
/// queue.insert_new_entry(alarm, DeliveryDiscipline::Window);
/// assert_eq!(queue.next_delivery_time(), Some(SimTime::from_secs(60)));
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct AlarmQueue {
    /// The entries in delivery order, always contiguous (see
    /// [`keep_contiguous`](Self::keep_contiguous)).
    entries: VecDeque<QueueEntry>,
    /// The highest alarm id ever queued (`None` before the first entry);
    /// no entry holds an id above it.
    max_id: Option<AlarmId>,
    /// Emptied member buffers, taken by the next new entries.
    spare: Vec<Vec<Alarm>>,
}

impl AlarmQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        AlarmQueue::default()
    }

    /// The entries in increasing delivery-time order.
    pub fn entries(&self) -> &[QueueEntry] {
        let (entries, wrapped) = self.entries.as_slices();
        debug_assert!(wrapped.is_empty(), "the queue's ring is wrapped");
        entries
    }

    /// Number of entries (batches).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of alarms across all entries.
    pub fn alarm_count(&self) -> usize {
        self.entries.iter().map(QueueEntry::len).sum()
    }

    /// The delivery time of the front entry.
    pub fn next_delivery_time(&self) -> Option<SimTime> {
        self.entries.front().map(QueueEntry::delivery_time)
    }

    /// Whether any entry contains the alarm.
    pub fn contains_alarm(&self, id: AlarmId) -> bool {
        self.position_of(id).is_some()
    }

    /// Finds the queue position of the entry holding `id`: `None` at once
    /// for an id above the high-water mark, a scan of the entries
    /// otherwise.
    pub fn position_of(&self, id: AlarmId) -> Option<usize> {
        if self.max_id.is_none_or(|max| id > max) {
            return None;
        }
        self.entries().iter().position(|e| e.contains(id))
    }

    /// Raises the id high-water mark to cover `id`.
    fn note_id(&mut self, id: AlarmId) {
        self.max_id = self.max_id.max(Some(id));
    }

    /// Wraps `alarm` in a fresh entry and inserts it in delivery-time
    /// order. The entry takes a [recycled](Self::recycle) buffer if the
    /// queue holds one, and allocates a one-alarm buffer otherwise.
    pub fn insert_new_entry(&mut self, alarm: Alarm, discipline: DeliveryDiscipline) {
        let entry = match self.spare.pop() {
            Some(mut buffer) => {
                buffer.push(alarm);
                QueueEntry::from_alarms(buffer, discipline)
            }
            None => QueueEntry::new(alarm, discipline),
        };
        self.insert_entry(entry);
    }

    /// Keeps `buffer`, a delivered entry's member list, for a later
    /// [`insert_new_entry`](Self::insert_new_entry). Its alarms are
    /// dropped. A buffer that never allocated is not kept, and neither is
    /// one above [`MAX_SPARE_CAPACITY`]: a spare keeps the capacity of the
    /// largest entry it held and would hand it to a one-alarm entry.
    pub fn recycle(&mut self, mut buffer: Vec<Alarm>) {
        if (1..=MAX_SPARE_CAPACITY).contains(&buffer.capacity()) {
            buffer.clear();
            self.spare.push(buffer);
        }
    }

    /// Reserves capacity for at least `additional` more entries, so a
    /// subsequent insert cannot trigger a reallocation.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Inserts a prepared entry in delivery-time order (after any existing
    /// entries with the same delivery time).
    pub fn insert_entry(&mut self, entry: QueueEntry) {
        for alarm in entry.alarms() {
            self.note_id(alarm.id());
        }
        let t = entry.delivery_time();
        let pos = self.entries().partition_point(|e| e.delivery_time() <= t);
        self.entries.insert(pos, entry);
        self.keep_contiguous();
    }

    /// Re-joins the ring after an insert wrapped it, so
    /// [`entries`](Self::entries) stays one slice. The buffer first grows
    /// to twice the queue's length, so the live range drifts that far
    /// before the next wrap: re-joining moves every entry, and it stays
    /// rare next to the pops it saves a shift on.
    fn keep_contiguous(&mut self) {
        if self.entries.as_slices().1.is_empty() {
            return;
        }
        let len = self.entries.len();
        if self.entries.capacity() < 2 * len {
            self.entries.reserve(len);
        }
        self.entries.make_contiguous();
    }

    /// Adds `alarm` to the entry at `index`, repositioning the entry since
    /// its delivery time may have moved.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn add_to_entry(&mut self, index: usize, alarm: Alarm) {
        self.note_id(alarm.id());
        self.entries[index].push(alarm);
        self.reposition(index);
    }

    /// Removes the alarm with `id` from whichever entry holds it; drops
    /// the entry (recycling its buffer) if it becomes empty, repositions
    /// it otherwise.
    pub fn remove_alarm(&mut self, id: AlarmId) -> Option<Alarm> {
        let idx = self.position_of(id)?;
        let alarm = self.entries[idx].remove(id);
        if self.entries[idx].is_empty() {
            let emptied = self.take_entry(idx);
            self.recycle(emptied.into_alarms());
        } else {
            self.reposition(idx);
        }
        alarm
    }

    /// Moves the entry at `index`, whose delivery time may have changed,
    /// to the slot [`insert_entry`](Self::insert_entry) would give it
    /// among the other entries (after every one delivering at or before
    /// it), shifting only the entries in between.
    fn reposition(&mut self, index: usize) {
        let entries = self.entries.make_contiguous();
        let t = entries[index].delivery_time();
        let (before, after) = entries.split_at(index);
        if before.last().is_some_and(|e| e.delivery_time() > t) {
            let to = before.partition_point(|e| e.delivery_time() <= t);
            entries[to..=index].rotate_right(1);
        } else {
            let to = index + after[1..].partition_point(|e| e.delivery_time() <= t);
            entries[index..=to].rotate_left(1);
        }
    }

    /// Removes and returns the entry at `index` (used by NATIVE's
    /// realignment, §2.1).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn take_entry(&mut self, index: usize) -> QueueEntry {
        // Removal shifts the shorter side toward the gap, which keeps the
        // ring contiguous.
        self.entries
            .remove(index)
            .expect("take_entry index out of bounds")
    }

    /// Removes and returns every entry whose delivery time is at or before
    /// `now`, in delivery order.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<QueueEntry> {
        let mut out = Vec::new();
        self.pop_due_into(now, &mut out);
        out
    }

    /// Like [`pop_due`](Self::pop_due), but appends into a caller-owned
    /// buffer. The simulator's delivery loop calls this every wakeup
    /// round; reusing one buffer there avoids a `Vec` allocation per
    /// round (most rounds pop zero or one entry). Only the popped entries
    /// move: the ring's head advances past them.
    pub fn pop_due_into(&mut self, now: SimTime, out: &mut Vec<QueueEntry>) {
        let cut = self.entries().partition_point(|e| e.delivery_time() <= now);
        out.extend(self.entries.drain(..cut));
    }

    /// Iterates over the entries in delivery order.
    pub fn iter(&self) -> std::slice::Iter<'_, QueueEntry> {
        self.entries().iter()
    }
}

impl Clone for AlarmQueue {
    /// Clones the entries and the high-water mark; the clone starts
    /// without spare buffers.
    fn clone(&self) -> Self {
        AlarmQueue {
            entries: self.entries.clone(),
            max_id: self.max_id,
            spare: Vec::new(),
        }
    }
}

impl fmt::Debug for AlarmQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlarmQueue")
            .field("entries", &self.entries())
            .field("max_id", &self.max_id)
            .finish_non_exhaustive()
    }
}

impl<'a> IntoIterator for &'a AlarmQueue {
    type Item = &'a QueueEntry;
    type IntoIter = std::slice::Iter<'a, QueueEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for AlarmQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "queue with {} entr(ies):", self.entries.len())?;
        for e in self.iter() {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

/// The queue as it was before repositioning by rotation, the id
/// high-water mark and the ring: a membership change removes the entry
/// and re-inserts it (shifting the queue's tail twice), every lookup
/// scans all entries, and a pop shifts every entry behind the popped
/// ones. The differential test drives random operation sequences
/// through both queues and asserts identical entry orders, members and
/// lookups, and the queue microbenchmarks use it as the baseline. The
/// manager itself never constructs one.
pub mod oracle {
    use crate::alarm::{Alarm, AlarmId};
    use crate::entry::QueueEntry;
    use crate::time::SimTime;

    /// A delivery-time-ordered queue with stable ties, repositioning by
    /// remove and re-insert (the pre-rotation implementation).
    #[derive(Debug, Clone, Default)]
    pub struct ShiftingAlarmQueue {
        entries: Vec<QueueEntry>,
    }

    impl ShiftingAlarmQueue {
        /// Creates an empty queue.
        pub fn new() -> Self {
            ShiftingAlarmQueue::default()
        }

        /// The entries in increasing delivery-time order.
        pub fn entries(&self) -> &[QueueEntry] {
            &self.entries
        }

        /// Finds the queue position of the entry holding `id`.
        pub fn position_of(&self, id: AlarmId) -> Option<usize> {
            self.entries.iter().position(|e| e.contains(id))
        }

        /// Inserts a prepared entry after any existing entries with the
        /// same delivery time.
        pub fn insert_entry(&mut self, entry: QueueEntry) {
            let t = entry.delivery_time();
            let pos = self.entries.partition_point(|e| e.delivery_time() <= t);
            self.entries.insert(pos, entry);
        }

        /// Adds `alarm` to the entry at `index`, then removes and
        /// re-inserts that entry.
        ///
        /// # Panics
        ///
        /// Panics if `index` is out of bounds.
        pub fn add_to_entry(&mut self, index: usize, alarm: Alarm) {
            let mut entry = self.entries.remove(index);
            entry.push(alarm);
            self.insert_entry(entry);
        }

        /// Removes the alarm with `id`; drops its entry if it becomes
        /// empty, removes and re-inserts it otherwise.
        pub fn remove_alarm(&mut self, id: AlarmId) -> Option<Alarm> {
            let idx = self.position_of(id)?;
            let mut entry = self.entries.remove(idx);
            let alarm = entry.remove(id);
            if !entry.is_empty() {
                self.insert_entry(entry);
            }
            alarm
        }

        /// Removes and returns the entry at `index`.
        ///
        /// # Panics
        ///
        /// Panics if `index` is out of bounds.
        pub fn take_entry(&mut self, index: usize) -> QueueEntry {
            self.entries.remove(index)
        }

        /// Appends every entry due at or before `now` to `out`, in
        /// delivery order.
        pub fn pop_due_into(&mut self, now: SimTime, out: &mut Vec<QueueEntry>) {
            let cut = self.entries.partition_point(|e| e.delivery_time() <= now);
            out.extend(self.entries.drain(..cut));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::ShiftingAlarmQueue;
    use super::*;
    use crate::hardware::HardwareSet;
    use crate::policy::{
        AlignmentPolicy, DurationSimilarityPolicy, NativePolicy, Placement, SimtyPolicy,
    };
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn alarm_at(label: &str, nominal_s: u64) -> Alarm {
        Alarm::builder(label)
            .nominal(SimTime::from_secs(nominal_s))
            .repeating_static(SimDuration::from_secs(600))
            .window_fraction(0.75)
            .build()
            .unwrap()
    }

    #[test]
    fn entries_stay_sorted_by_delivery_time() {
        let mut q = AlarmQueue::new();
        for t in [300, 100, 200] {
            q.insert_new_entry(alarm_at("a", t), DeliveryDiscipline::Window);
        }
        let times: Vec<_> = q
            .iter()
            .map(|e| e.delivery_time().as_millis() / 1000)
            .collect();
        assert_eq!(times, vec![100, 200, 300]);
    }

    #[test]
    fn equal_delivery_times_keep_insertion_order() {
        let mut q = AlarmQueue::new();
        let first = alarm_at("first", 100);
        let second = alarm_at("second", 100);
        let first_id = first.id();
        q.insert_new_entry(first, DeliveryDiscipline::Window);
        q.insert_new_entry(second, DeliveryDiscipline::Window);
        assert_eq!(q.entries()[0].alarms()[0].id(), first_id);
    }

    #[test]
    fn pop_due_takes_exactly_the_due_prefix() {
        let mut q = AlarmQueue::new();
        for t in [100, 200, 300] {
            q.insert_new_entry(alarm_at("a", t), DeliveryDiscipline::Window);
        }
        let due = q.pop_due(SimTime::from_secs(200));
        assert_eq!(due.len(), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_delivery_time(), Some(SimTime::from_secs(300)));
        assert!(q.pop_due(SimTime::from_secs(250)).is_empty());
    }

    #[test]
    fn remove_alarm_drops_empty_entries() {
        let mut q = AlarmQueue::new();
        let a = alarm_at("a", 100);
        let id = a.id();
        q.insert_new_entry(a, DeliveryDiscipline::Window);
        assert!(q.contains_alarm(id));
        let removed = q.remove_alarm(id).unwrap();
        assert_eq!(removed.id(), id);
        assert!(q.is_empty());
        assert!(q.remove_alarm(id).is_none());
    }

    #[test]
    fn add_to_entry_repositions() {
        let mut q = AlarmQueue::new();
        q.insert_new_entry(alarm_at("early", 100), DeliveryDiscipline::Window);
        q.insert_new_entry(alarm_at("late", 400), DeliveryDiscipline::Window);
        // Joining a later alarm moves the first entry's window start to 150.
        q.add_to_entry(0, alarm_at("join", 150));
        assert_eq!(q.entries()[0].delivery_time(), SimTime::from_secs(150));
        assert_eq!(q.alarm_count(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn counts_and_lookup() {
        let mut q = AlarmQueue::new();
        let a = alarm_at("a", 100);
        let id = a.id();
        q.insert_new_entry(a, DeliveryDiscipline::Window);
        q.insert_new_entry(alarm_at("b", 200), DeliveryDiscipline::Window);
        assert_eq!(q.len(), 2);
        assert_eq!(q.alarm_count(), 2);
        assert_eq!(q.position_of(id), Some(0));
        assert_eq!((&q).into_iter().count(), 2);
    }

    #[test]
    fn a_new_entry_reuses_a_recycled_buffer() {
        let mut q = AlarmQueue::new();
        q.insert_new_entry(alarm_at("a", 100), DeliveryDiscipline::Window);
        q.add_to_entry(0, alarm_at("b", 100));
        let delivered = q.pop_due(SimTime::from_secs(100)).pop().unwrap();
        let buffer = delivered.into_alarms();
        let (ptr, capacity) = (buffer.as_ptr(), buffer.capacity());
        q.recycle(buffer);
        q.insert_new_entry(alarm_at("c", 200), DeliveryDiscipline::Window);
        assert_eq!(q.entries()[0].alarms().as_ptr(), ptr);
        // With no spare left, a fresh entry holds exactly one alarm.
        q.insert_new_entry(alarm_at("d", 300), DeliveryDiscipline::Window);
        let mut popped = q.pop_due(SimTime::from_secs(300)).into_iter();
        let reused = popped.next().unwrap().into_alarms();
        assert_eq!((reused.as_ptr(), reused.capacity()), (ptr, capacity));
        assert_eq!(popped.next().unwrap().into_alarms().capacity(), 1);
        // An entry that loses its last member leaves its buffer behind.
        let e = alarm_at("e", 400);
        let id = e.id();
        q.insert_new_entry(e, DeliveryDiscipline::Window);
        let ptr = q.entries()[0].alarms().as_ptr();
        q.remove_alarm(id);
        q.insert_new_entry(alarm_at("f", 500), DeliveryDiscipline::Window);
        assert_eq!(q.entries()[0].alarms().as_ptr(), ptr);
        // A clone starts without spares.
        q.recycle(
            q.clone()
                .pop_due(SimTime::from_secs(500))
                .pop()
                .unwrap()
                .into_alarms(),
        );
        assert_eq!((q.spare.len(), q.clone().spare.len()), (1, 0));
    }

    #[test]
    fn a_buffer_over_the_cap_is_dropped_not_kept() {
        let mut q = AlarmQueue::new();
        let mut big = Vec::with_capacity(MAX_SPARE_CAPACITY + 1);
        big.push(alarm_at("a", 100));
        q.recycle(big);
        q.recycle(Vec::with_capacity(MAX_SPARE_CAPACITY));
        assert_eq!(q.spare.len(), 1, "only the buffer at the cap is kept");
        // A one-alarm entry takes the kept spare, then a fresh buffer; it
        // never inherits a capacity above the cap.
        for t in [200, 300] {
            q.insert_new_entry(alarm_at("b", t), DeliveryDiscipline::Window);
        }
        let popped = q.pop_due(SimTime::from_secs(300));
        let capacities: Vec<usize> = popped
            .into_iter()
            .map(|e| e.into_alarms().capacity())
            .collect();
        assert_eq!(capacities, [MAX_SPARE_CAPACITY, 1]);
    }

    #[test]
    fn a_drifting_ring_stays_one_slice_in_delivery_order() {
        // Pop the front entry and insert one at the back, over and over:
        // the live range drifts through the ring buffer and wraps.
        let mut q = AlarmQueue::new();
        let mut reference = ShiftingAlarmQueue::new();
        for t in 0..6u64 {
            let entry = QueueEntry::new(alarm_at("a", 100 * t), DeliveryDiscipline::Window);
            reference.insert_entry(entry.clone());
            q.insert_entry(entry);
        }
        let mut rejoined = 0;
        for round in 6..200u64 {
            let now = SimTime::from_secs(100 * (round - 6));
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            q.pop_due_into(now, &mut fast);
            reference.pop_due_into(now, &mut slow);
            let popped = |e: &[QueueEntry]| e.iter().map(members).collect::<Vec<_>>();
            assert_eq!(popped(&fast), popped(&slow));
            // Every third insert lands mid-queue, so both sides shift.
            let t = if round % 3 == 0 {
                100 * round - 250
            } else {
                100 * round
            };
            let entry = QueueEntry::new(alarm_at("a", t), DeliveryDiscipline::Window);
            reference.insert_entry(entry.clone());
            let head = |q: &AlarmQueue| q.entries.as_slices().0.as_ptr() as usize;
            let before = head(&q);
            q.insert_entry(entry);
            assert!(q.entries.as_slices().1.is_empty());
            // An insert shifts the front back by one entry at most; a
            // re-join moves it further.
            rejoined += usize::from(before.abs_diff(head(&q)) > size_of::<QueueEntry>());
            assert_eq!(popped(q.entries()), popped(reference.entries()));
        }
        assert!(rejoined > 0, "the ring never wrapped");
        assert!(
            q.entries.capacity() <= 4 * q.len(),
            "{}",
            q.entries.capacity()
        );
    }

    /// One step of a differential script.
    #[derive(Debug, Clone)]
    enum QueueOp {
        /// Place an alarm where the policy says: nominal slot, shape,
        /// hardware bits, id choice (see [`Script::alarm`]).
        Place(u64, u8, u16, u64),
        /// Add an alarm to the entry at `pick % len`, whatever the policy
        /// would say (a new entry when the queue is empty).
        Join(usize, u64, u8, u64),
        /// Remove the `pick`-th id the script has used, queued or not.
        Remove(usize),
        /// Take the entry at `pick % len`, re-inserting it when `true`
        /// (NATIVE's realignment takes and re-places entries).
        Take(usize, bool),
        /// Pop every entry due at the slot's time.
        Pop(u64),
        /// Rebuild both queues entry by entry through `insert_entry`, as
        /// a checkpoint restore does.
        Rebuild,
    }

    fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
        let place = || {
            (0..6u64, 0..6u8, 0..8u16, 0..128u64)
                .prop_map(|(slot, shape, hw, id)| QueueOp::Place(slot, shape, hw, id))
        };
        prop_oneof![
            place(),
            place(),
            place(),
            (any::<usize>(), 0..6u64, 0..6u8, 0..128u64)
                .prop_map(|(pick, slot, shape, id)| QueueOp::Join(pick, slot, shape, id)),
            any::<usize>().prop_map(QueueOp::Remove),
            (any::<usize>(), any::<bool>()).prop_map(|(pick, back)| QueueOp::Take(pick, back)),
            (0..3u64).prop_map(QueueOp::Pop),
            Just(QueueOp::Rebuild),
        ]
    }

    /// Restored ids sit far above every id the process mints, so a
    /// restored alarm raises the high-water mark past later fresh ids.
    const RESTORED_BASE: u64 = 1 << 50;

    /// What a script exercised, summed over scripts to check the
    /// generator reaches the cases the rotation and the mark must get
    /// right.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Adjacent entries with equal delivery times, summed over steps.
        ties: u64,
        /// Joins and removals after which the entry changed position.
        moves: u64,
        /// Probes answered by the high-water mark alone.
        above_mark: u64,
        /// Restored ids found queued below the mark.
        restored_found: u64,
    }

    /// The fast queue and the reference, driven in lockstep.
    struct Script {
        fast: AlarmQueue,
        reference: ShiftingAlarmQueue,
        /// Every id the script has used, in first-use order.
        ids: Vec<AlarmId>,
        coverage: Coverage,
    }

    impl Script {
        /// A 600 s repeating alarm at `slot` minutes with one of six
        /// window/grace shapes; hardware bits make some perceptible.
        /// `id < 64` restores id `RESTORED_BASE + id` (a fresh id if the
        /// script used that one already), `id >= 64` mints a fresh one.
        fn alarm(&mut self, slot: u64, shape: u8, hw: u16, id: u64) -> Alarm {
            let builder = Alarm::builder(format!("app{}", shape % 3))
                .nominal(SimTime::from_secs(60 * slot))
                .repeating_static(SimDuration::from_secs(600))
                .hardware(HardwareSet::from_bits(hw));
            let builder = match shape % 3 {
                0 => builder.window(SimDuration::ZERO),
                1 => builder.window_fraction(0.25),
                _ => builder.window_fraction(0.75),
            };
            let grace = if shape < 3 { 0.75 } else { 0.96 };
            let mut alarm = builder.grace_fraction(grace).build().unwrap();
            if hw.is_multiple_of(2) {
                alarm.mark_hardware_known();
            }
            let restored = AlarmId::from_raw(RESTORED_BASE + id);
            if id < 64 && !self.ids.contains(&restored) {
                alarm = Alarm::restore(
                    restored,
                    alarm.label_arc(),
                    alarm.nominal(),
                    alarm.window(),
                    alarm.grace_base(),
                    alarm.repeat(),
                    alarm.kind(),
                    alarm.hardware(),
                    alarm.is_hardware_known(),
                    alarm.task_duration(),
                    alarm.is_quarantined(),
                    alarm.grace_stretch(),
                );
            }
            self.ids.push(alarm.id());
            alarm
        }

        fn step(
            &mut self,
            policy: &dyn AlignmentPolicy,
            op: &QueueOp,
        ) -> Result<(), TestCaseError> {
            let len = self.fast.len();
            match *op {
                QueueOp::Place(slot, shape, hw, id) => {
                    let alarm = self.alarm(slot, shape, hw, id);
                    match policy.place(&self.fast, &alarm) {
                        Placement::Existing(index) => self.join(index, alarm),
                        Placement::NewEntry => {
                            let entry = QueueEntry::new(alarm, policy.discipline());
                            self.reference.insert_entry(entry.clone());
                            self.fast.insert_entry(entry);
                        }
                    }
                }
                QueueOp::Join(pick, slot, shape, id) => {
                    let alarm = self.alarm(slot, shape, 1, id);
                    if len == 0 {
                        let entry = QueueEntry::new(alarm, policy.discipline());
                        self.reference.insert_entry(entry.clone());
                        self.fast.insert_entry(entry);
                    } else {
                        self.join(pick % len, alarm);
                    }
                }
                QueueOp::Remove(pick) => {
                    if let Some(&id) = self.ids.get(pick % self.ids.len().max(1)) {
                        let before = self.fast.position_of(id);
                        let fast = self.fast.remove_alarm(id).map(|a| a.id());
                        let reference = self.reference.remove_alarm(id).map(|a| a.id());
                        prop_assert_eq!(fast, reference);
                        let mate = before
                            .filter(|&i| i < self.fast.len())
                            .and_then(|i| self.reference.entries().get(i))
                            .map(|e| e.alarms()[0].id());
                        if let (Some(i), Some(mate)) = (before, mate) {
                            if self.fast.position_of(mate) != Some(i) {
                                self.coverage.moves += 1;
                            }
                        }
                    }
                }
                QueueOp::Take(pick, back) => {
                    if len > 0 {
                        let fast = self.fast.take_entry(pick % len);
                        let reference = self.reference.take_entry(pick % len);
                        prop_assert_eq!(members(&fast), members(&reference));
                        if back {
                            self.fast.insert_entry(fast);
                            self.reference.insert_entry(reference);
                        }
                    }
                }
                QueueOp::Pop(slot) => {
                    let now = SimTime::from_secs(60 * slot);
                    let (mut fast, mut reference) = (Vec::new(), Vec::new());
                    self.fast.pop_due_into(now, &mut fast);
                    self.reference.pop_due_into(now, &mut reference);
                    prop_assert_eq!(
                        fast.iter().map(members).collect::<Vec<_>>(),
                        reference.iter().map(members).collect::<Vec<_>>()
                    );
                }
                QueueOp::Rebuild => {
                    let mut fast = AlarmQueue::new();
                    let mut reference = ShiftingAlarmQueue::new();
                    for entry in self.fast.iter() {
                        fast.insert_entry(entry.clone());
                        reference.insert_entry(entry.clone());
                    }
                    self.fast = fast;
                    self.reference = reference;
                }
            }
            self.check()
        }

        fn join(&mut self, index: usize, alarm: Alarm) {
            let id = alarm.id();
            self.reference.add_to_entry(index, alarm.clone());
            self.fast.add_to_entry(index, alarm);
            if self.fast.position_of(id) != Some(index) {
                self.coverage.moves += 1;
            }
        }

        /// Same entry order, same members per entry, same lookups.
        fn check(&mut self) -> Result<(), TestCaseError> {
            let fast: Vec<_> = self.fast.iter().map(members).collect();
            let reference: Vec<_> = self.reference.entries().iter().map(members).collect();
            prop_assert_eq!(fast, reference);
            let times: Vec<SimTime> = self.fast.iter().map(QueueEntry::delivery_time).collect();
            self.coverage.ties += times.windows(2).filter(|w| w[0] == w[1]).count() as u64;
            let never_queued = [
                AlarmId::fresh(),
                AlarmId::from_raw(0),
                AlarmId::from_raw(RESTORED_BASE + 1_000),
                AlarmId::from_raw(u64::MAX),
            ];
            for &id in self.ids.iter().chain(&never_queued) {
                let found = self.fast.position_of(id);
                prop_assert_eq!(found, self.reference.position_of(id), "id {}", id);
                prop_assert_eq!(self.fast.contains_alarm(id), found.is_some());
                if self.fast.max_id.is_none_or(|max| id > max) {
                    self.coverage.above_mark += 1;
                } else if found.is_some() && id.as_u64() >= RESTORED_BASE {
                    self.coverage.restored_found += 1;
                }
            }
            Ok(())
        }
    }

    /// An entry's delivery time and member ids, in member order.
    fn members(entry: &QueueEntry) -> (SimTime, Vec<AlarmId>) {
        (
            entry.delivery_time(),
            entry.alarms().iter().map(Alarm::id).collect(),
        )
    }

    /// SIMTY, NATIVE and DURSIM: the placements the differential scripts
    /// run under.
    fn placements() -> [Box<dyn AlignmentPolicy>; 3] {
        [
            Box::new(SimtyPolicy::new()),
            Box::new(NativePolicy::new()),
            Box::new(DurationSimilarityPolicy::new()),
        ]
    }

    fn run_script(
        policy: &dyn AlignmentPolicy,
        ops: &[QueueOp],
    ) -> Result<Coverage, TestCaseError> {
        let mut script = Script {
            fast: AlarmQueue::new(),
            reference: ShiftingAlarmQueue::new(),
            ids: Vec::new(),
            coverage: Coverage::default(),
        };
        for op in ops {
            script.step(policy, op)?;
        }
        Ok(script.coverage)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Rotation and the high-water mark change nothing a caller can
        /// see: after every step of a random script, both queues hold
        /// the same entries in the same order with the same members, and
        /// answer `position_of` alike for every id the script used and
        /// for ids never queued.
        #[test]
        fn rotating_queue_matches_shifting_reference(ops in prop::collection::vec(arb_queue_op(), 1..160)) {
            for policy in placements() {
                run_script(policy.as_ref(), &ops)?;
            }
        }
    }

    /// The script generator reaches what the differential test must
    /// cover: ties in delivery time, entries that move when they gain or
    /// lose a member, lookups the mark answers alone, and restored ids
    /// found below the mark.
    #[test]
    fn differential_scripts_reach_ties_moves_and_both_sides_of_the_mark() {
        let strategy = prop::collection::vec(arb_queue_op(), 1..160);
        let mut total = Coverage::default();
        for case in 0..64 {
            let ops = strategy.new_value(&mut TestRng::for_case(case));
            for policy in placements() {
                let c = run_script(policy.as_ref(), &ops).expect("queues agree");
                total.ties += c.ties;
                total.moves += c.moves;
                total.above_mark += c.above_mark;
                total.restored_found += c.restored_found;
            }
        }
        assert!(total.ties > 1_000, "{total:?}");
        assert!(total.moves > 100, "{total:?}");
        assert!(total.above_mark > 1_000, "{total:?}");
        assert!(total.restored_found > 100, "{total:?}");
    }
}
