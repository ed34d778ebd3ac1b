//! The cub's per-instance receipt index (§4.1.2 receipt idempotence).
//!
//! "Receiving a viewer state is idempotent: duplicates are ignored." A cub
//! decides that for every record it receives, twice per stream-second on
//! a full ring, by asking two questions about the record's viewer
//! instance: has this cub already served this block (or a later one), and
//! is it already servicing exactly this `(slot, kind, play_seq)`? The
//! answers live in the active-service table and the retired log, which a
//! scan walks whole — hundreds of entries per cub at full load.
//!
//! [`ReceiptIndex`] summarises both per instance so every question is one
//! hash lookup. For each instance it keeps:
//!
//! * the highest play sequence over the *served* entries — non-coded
//!   actives plus retired-log records (coded shard actives carry the home
//!   block's play sequence and say nothing about this cub's own primary
//!   progression) — and how many such entries there are;
//! * the instance's active service keys: one inline, the rare extra ones
//!   (a small ring's next-lap record overlapping the previous block, a
//!   mirror piece beside a primary) in an overflow set.
//!
//! The record sits in a 32-byte slot of an open-addressing table with
//! linear probing and backward-shift deletion ([`InstanceTable`]): unlike
//! a tombstoning hash map, whose table doubles once deletions use up its
//! free slots while it is more than half full, the table keeps the size
//! its live records need however much instances churn. Removing an
//! instance's current maximum while other served entries remain
//! re-derives the maximum from the cub's own tables: the caller passes
//! that scan in, so the index stays exact without holding every play
//! sequence.

use tiger_layout::ids::ViewerInstance;
use tiger_sched::{SlotId, StreamKind, ViewerState};
use tiger_sim::DetHashSet as HashSet;

/// Key identifying one active service on a cub.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ServiceKey {
    pub slot: SlotId,
    pub instance: ViewerInstance,
    pub kind: KindKey,
    /// Distinguishes successive laps of the same slot: on small rings a
    /// slot's next-lap record can arrive while the previous block is still
    /// being transmitted.
    pub play_seq: u32,
}

/// The service kind part of a [`ServiceKey`]: which piece or shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum KindKey {
    Primary,
    Mirror(u32),
    Coded(u32),
}

impl ServiceKey {
    /// The key of the service `vs` describes.
    pub fn of(vs: &ViewerState) -> Self {
        ServiceKey {
            slot: vs.slot,
            instance: vs.instance,
            kind: KindKey::of(vs.kind),
            play_seq: vs.play_seq,
        }
    }
}

impl KindKey {
    pub fn of(k: StreamKind) -> Self {
        match k {
            StreamKind::Primary => KindKey::Primary,
            StreamKind::Mirror { piece, .. } => KindKey::Mirror(piece),
            StreamKind::Coded { shard, .. } => KindKey::Coded(shard),
        }
    }

    /// Whether an active of this kind counts as served: coded shard
    /// actives do not (see the module doc).
    fn served(self) -> bool {
        !matches!(self, KindKey::Coded(_))
    }

    /// The kind in 16 bits: a 2-bit tag (never 0, which marks an empty
    /// inline key) and a 14-bit piece or shard index.
    fn pack(self) -> u16 {
        let (tag, index) = match self {
            KindKey::Primary => (1, 0),
            KindKey::Mirror(piece) => (2, piece),
            KindKey::Coded(shard) => (3, shard),
        };
        assert!(
            index < 1 << 14,
            "piece or shard index {index} exceeds 14 bits"
        );
        (index as u16) << 2 | tag
    }
}

/// What one instance has on this cub. 16 bytes: with the 16-byte
/// instance key, one table slot is 32 bytes.
#[derive(Clone, Copy, Debug)]
struct Receipt {
    /// Highest play sequence over the served entries (meaningless while
    /// `served` is zero).
    max_seq: u32,
    /// The inline active key's slot and play sequence…
    slot: u32,
    play_seq: u32,
    /// …and its packed kind; `0` when there is no inline key. Extra keys
    /// of the instance exist in the overflow set only while this is set.
    kind: u16,
    /// Served entries: non-coded actives plus retired-log records.
    served: u16,
}

impl Receipt {
    const EMPTY: Receipt = Receipt {
        max_seq: 0,
        slot: 0,
        play_seq: 0,
        kind: 0,
        served: 0,
    };

    fn holds_inline(&self, key: &ServiceKey) -> bool {
        self.kind == key.kind.pack() && self.slot == key.slot.raw() && self.play_seq == key.play_seq
    }

    fn set_inline(&mut self, key: &ServiceKey) {
        self.slot = key.slot.raw();
        self.play_seq = key.play_seq;
        self.kind = key.kind.pack();
    }

    /// No served entry and no active key: the instance has nothing here,
    /// and the table slot holding it is vacant.
    fn is_empty(&self) -> bool {
        self.served == 0 && self.kind == 0
    }
}

/// An open-addressing map from instance to [`Receipt`]: linear probing
/// over a power-of-two slot array at most 3/4 full, an empty receipt
/// marking a vacant slot, and backward-shift deletion, so no tombstones
/// ever accumulate. Iteration order is never observed, so the hash only
/// has to spread sequential viewer ids.
#[derive(Debug, Default)]
struct InstanceTable {
    slots: Vec<(ViewerInstance, Receipt)>,
    len: usize,
}

impl InstanceTable {
    fn home(&self, instance: &ViewerInstance) -> usize {
        let h = (instance.viewer.raw() ^ u64::from(instance.incarnation).rotate_left(32))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // The top bits are the best mixed; the slot count is a power of two.
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot holding `instance`, if any.
    fn find(&self, instance: &ViewerInstance) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mut i = self.home(instance);
        loop {
            let (k, r) = &self.slots[i];
            if r.is_empty() {
                return None;
            }
            if k == instance {
                return Some(i);
            }
            i = (i + 1) & self.mask();
        }
    }

    fn get(&self, instance: &ViewerInstance) -> Option<&Receipt> {
        self.find(instance).map(|i| &self.slots[i].1)
    }

    /// The slot holding `instance`, claimed with an empty receipt if it
    /// had none. The caller makes the receipt non-empty before the next
    /// table operation.
    fn find_or_insert(&mut self, instance: ViewerInstance) -> usize {
        if let Some(i) = self.find(&instance) {
            return i;
        }
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut i = self.home(&instance);
        while !self.slots[i].1.is_empty() {
            i = (i + 1) & self.mask();
        }
        self.slots[i].0 = instance;
        self.len += 1;
        i
    }

    /// Vacates slot `i`, shifting later records of its probe run back so
    /// every record stays reachable from its home slot.
    fn remove_at(&mut self, i: usize) {
        let mask = self.mask();
        let mut hole = i;
        let mut j = (i + 1) & mask;
        while !self.slots[j].1.is_empty() {
            let home = self.home(&self.slots[j].0);
            // `j` may fill the hole if the hole lies on its probe path,
            // i.e. between its home and `j` (cyclically).
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.slots[hole].1 = Receipt::EMPTY;
        self.len -= 1;
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(
            &mut self.slots,
            vec![(ViewerInstance::default(), Receipt::EMPTY); cap],
        );
        for (instance, receipt) in old {
            if !receipt.is_empty() {
                let mut i = self.home(&instance);
                while !self.slots[i].1.is_empty() {
                    i = (i + 1) & self.mask();
                }
                self.slots[i] = (instance, receipt);
            }
        }
    }

    fn clear(&mut self) {
        self.slots.fill((ViewerInstance::default(), Receipt::EMPTY));
        self.len = 0;
    }
}

/// The per-instance receipt index (see the module doc).
#[derive(Debug, Default)]
pub(crate) struct ReceiptIndex {
    by_instance: InstanceTable,
    /// Active keys beyond each instance's inline one.
    overflow: HashSet<ServiceKey>,
}

impl ReceiptIndex {
    /// Whether some served entry of `instance` has play sequence
    /// `play_seq` or later.
    pub fn already_served(&self, instance: &ViewerInstance, play_seq: u32) -> bool {
        self.by_instance
            .get(instance)
            .is_some_and(|r| r.served > 0 && r.max_seq >= play_seq)
    }

    /// Whether `instance` has any active service or retired record.
    pub fn carries(&self, instance: &ViewerInstance) -> bool {
        self.by_instance.find(instance).is_some()
    }

    /// Whether an active service with exactly `key` exists.
    pub fn contains_key(&self, key: &ServiceKey) -> bool {
        self.by_instance.get(&key.instance).is_some_and(|r| {
            r.holds_inline(key) || (!self.overflow.is_empty() && self.overflow.contains(key))
        })
    }

    /// Records a new active service. Keys are unique: callers check
    /// [`Self::contains_key`] first.
    pub fn insert_active(&mut self, key: ServiceKey) {
        let i = self.by_instance.find_or_insert(key.instance);
        let r = &mut self.by_instance.slots[i].1;
        if key.kind.served() {
            r.max_seq = if r.served == 0 {
                key.play_seq
            } else {
                r.max_seq.max(key.play_seq)
            };
            r.served = r
                .served
                .checked_add(1)
                .expect("served entries per instance exceed u16");
        }
        if r.kind == 0 {
            r.set_inline(&key);
        } else {
            let fresh = self.overflow.insert(key);
            debug_assert!(fresh, "active key {key:?} inserted twice");
        }
    }

    /// Forgets the active service `key`. `retired` says its record moves
    /// to the retired log (it stays served); otherwise a served kind stops
    /// counting, and `rescan` — the instance's highest served play
    /// sequence in the caller's tables, already without this entry — is
    /// consulted if the entry held the maximum.
    pub fn remove_active(
        &mut self,
        key: &ServiceKey,
        retired: bool,
        rescan: impl FnOnce() -> Option<u32>,
    ) {
        let Some(i) = self.by_instance.find(&key.instance) else {
            debug_assert!(false, "removing unindexed key {key:?}");
            return;
        };
        let r = &mut self.by_instance.slots[i].1;
        if r.holds_inline(key) {
            // Promote one of the instance's overflow keys, if any, so the
            // inline slot stays set while the instance has keys.
            let next = if self.overflow.is_empty() {
                None
            } else {
                self.overflow
                    .iter()
                    .find(|k| k.instance == key.instance)
                    .copied()
            };
            match next {
                Some(k) => {
                    self.overflow.remove(&k);
                    r.set_inline(&k);
                }
                None => r.kind = 0,
            }
        } else {
            let found = self.overflow.remove(key);
            debug_assert!(found, "removing unindexed key {key:?}");
        }
        if key.kind.served() && !retired {
            Self::unserve(r, key.play_seq, rescan);
        }
        if r.is_empty() {
            self.by_instance.remove_at(i);
        }
    }

    /// Forgets one pruned retired-log record of `instance`; `rescan` as
    /// for [`Self::remove_active`], with the record already gone. A batch
    /// of records may leave the log before any of them is forgotten: the
    /// index is exact again once the last is.
    pub fn remove_retired(
        &mut self,
        instance: &ViewerInstance,
        play_seq: u32,
        rescan: impl FnOnce() -> Option<u32>,
    ) {
        let Some(i) = self.by_instance.find(instance) else {
            debug_assert!(false, "pruning unindexed record of {instance}");
            return;
        };
        let r = &mut self.by_instance.slots[i].1;
        Self::unserve(r, play_seq, rescan);
        if r.is_empty() {
            self.by_instance.remove_at(i);
        }
    }

    fn unserve(r: &mut Receipt, play_seq: u32, rescan: impl FnOnce() -> Option<u32>) {
        debug_assert!(r.served > 0, "served count underflow");
        r.served -= 1;
        if r.served > 0 && play_seq == r.max_seq {
            // `None` only mid-batch: every remaining served entry is
            // another pruned record still to be removed, after which
            // `served` reaches zero.
            if let Some(max) = rescan() {
                r.max_seq = max;
            }
        }
    }

    /// Rebuilds the index from the active service keys alone, for a
    /// cub whose retired log was just cleared.
    pub fn rebuild(&mut self, actives: impl IntoIterator<Item = ServiceKey>) {
        self.by_instance.clear();
        self.overflow.clear();
        for key in actives {
            self.insert_active(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_layout::ids::ViewerId;
    use tiger_sim::check::check;
    use tiger_sim::SimRng;

    #[test]
    fn a_receipt_bucket_is_32_bytes() {
        assert_eq!(
            std::mem::size_of::<(ViewerInstance, Receipt)>(),
            32,
            "one hash bucket of the index"
        );
    }

    /// The open-addressing table against a std map, over enough
    /// instances to grow it several times and to make long probe runs, so
    /// backward-shift deletion moves records across the wrap-around.
    #[test]
    fn instance_table_agrees_with_a_map() {
        check("instance_table_agrees_with_a_map", |rng| {
            let mut table = InstanceTable::default();
            let mut model = std::collections::HashMap::new();
            let universe = rng.gen_range(1u64..400);
            let mut peak = 0;
            for step in 0..1_500u32 {
                let instance = ViewerInstance {
                    viewer: ViewerId(rng.gen_range(0..universe)),
                    incarnation: rng.gen_range(0u32..3),
                };
                if rng.gen_bool(0.55) {
                    let i = table.find_or_insert(instance);
                    // Any non-empty receipt; `step` tells writes apart.
                    table.slots[i].1.served = 1;
                    table.slots[i].1.max_seq = step;
                    model.insert(instance, step);
                } else if let Some(i) = table.find(&instance) {
                    table.remove_at(i);
                    assert!(model.remove(&instance).is_some(), "{instance}");
                } else {
                    assert!(!model.contains_key(&instance), "{instance}");
                }
                assert_eq!(table.len, model.len());
                peak = peak.max(model.len());
            }
            for (instance, step) in &model {
                assert_eq!(table.get(instance).map(|r| r.max_seq), Some(*step));
            }
            let live = table.slots.iter().filter(|(_, r)| !r.is_empty()).count();
            assert_eq!(live, model.len());
            // The size follows the peak live count alone, however many
            // records came and went.
            assert!(table.slots.len() <= (peak * 8 / 3).max(16));
        });
    }

    /// A cub's tables reduced to what the index summarises: active keys
    /// and retired-log records, kept in service order.
    #[derive(Default)]
    struct Model {
        actives: Vec<ServiceKey>,
        retired: Vec<(ViewerInstance, u32)>,
    }

    impl Model {
        fn max_served(&self, instance: &ViewerInstance) -> Option<u32> {
            let active = self
                .actives
                .iter()
                .filter(|k| k.instance == *instance && k.kind.served())
                .map(|k| k.play_seq);
            let retired = self
                .retired
                .iter()
                .filter(|(i, _)| i == instance)
                .map(|&(_, s)| s);
            active.chain(retired).max()
        }
    }

    fn random_key(rng: &mut SimRng) -> ServiceKey {
        let kind = match rng.gen_range(0u32..4) {
            0 | 1 => KindKey::Primary,
            2 => KindKey::Mirror(rng.gen_range(0u32..3)),
            _ => KindKey::Coded(rng.gen_range(1u32..4)),
        };
        ServiceKey {
            slot: SlotId(rng.gen_range(0u32..4)),
            instance: ViewerInstance {
                viewer: ViewerId(rng.gen_range(0u64..4)),
                incarnation: rng.gen_range(0u32..2),
            },
            kind,
            play_seq: rng.gen_range(0u32..6),
        }
    }

    /// Random accept / mirror / coded / reclaim / prune / reset sequences
    /// over a small universe of instances, slots and play sequences, so
    /// collisions (several keys per instance, equal maxima, removals of
    /// the maximum) are common. After every step each question the cub
    /// asks is answered exactly as a scan of the model answers it.
    #[test]
    fn index_agrees_with_the_scan() {
        check("receipt_index_agrees_with_the_scan", |rng| {
            let mut index = ReceiptIndex::default();
            let mut model = Model::default();
            for _ in 0..120 {
                match rng.gen_range(0u32..10) {
                    // Accept: a primary, mirror, or coded service begins
                    // (callers never insert a key that is already active).
                    0..=4 => {
                        let key = random_key(rng);
                        if !model.actives.contains(&key) {
                            index.insert_active(key);
                            model.actives.push(key);
                        }
                    }
                    // Reclaim: a served primary moves to the retired log;
                    // a dropped one, a mirror piece or a shard just goes.
                    5 | 6 if !model.actives.is_empty() => {
                        let key = model
                            .actives
                            .swap_remove(rng.gen_range(0..model.actives.len()));
                        let retired = key.kind == KindKey::Primary && rng.gen_bool(0.7);
                        if retired {
                            model.retired.push((key.instance, key.play_seq));
                        }
                        index.remove_active(&key, retired, || model.max_served(&key.instance));
                    }
                    // Prune: the oldest records leave the retired log.
                    7 | 8 => {
                        let cut = rng.gen_range(0..=model.retired.len());
                        let pruned: Vec<_> = model.retired.drain(..cut).collect();
                        for (instance, play_seq) in pruned {
                            index.remove_retired(&instance, play_seq, || {
                                model.max_served(&instance)
                            });
                        }
                    }
                    // Reset: the retired log is cleared (and, as on a
                    // power cut, sometimes every active too).
                    9 => {
                        if rng.gen_bool(0.5) {
                            model.actives.clear();
                        }
                        model.retired.clear();
                        index.rebuild(model.actives.iter().copied());
                    }
                    _ => {}
                }
                for viewer in 0..4 {
                    for incarnation in 0..2 {
                        let instance = ViewerInstance {
                            viewer: ViewerId(viewer),
                            incarnation,
                        };
                        let carried = model.actives.iter().any(|k| k.instance == instance)
                            || model.retired.iter().any(|(i, _)| *i == instance);
                        assert_eq!(index.carries(&instance), carried, "{instance}");
                        let max = model.max_served(&instance);
                        for play_seq in 0..7 {
                            assert_eq!(
                                index.already_served(&instance, play_seq),
                                max.is_some_and(|m| m >= play_seq),
                                "{instance} play_seq {play_seq}"
                            );
                        }
                    }
                }
                for _ in 0..8 {
                    let key = random_key(rng);
                    assert_eq!(index.contains_key(&key), model.actives.contains(&key));
                }
                for key in &model.actives {
                    assert!(index.contains_key(key), "{key:?}");
                }
            }
        });
    }
}
