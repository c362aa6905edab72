//! A deliberately naive Chord ring, written from the definition and nothing
//! else: membership is a `BTreeMap` from peer id to that peer's items,
//! events apply one at a time, and routing state is computed on demand.
//! It shares no code with the arena's fast paths, so a fast path that agrees
//! with it is right by specification, not by agreeing with a sibling.
//!
//! * `join(id)` takes the items in `(pred, id]` from their owner;
//! * `leave(id)` hands every item to the heir; `crash(id)` loses them;
//! * the predecessor of `id` is the previous key, its successor list the
//!   next `min(SUCCESSOR_LIST_LEN, P − 1).max(1)` keys, and finger `f` the
//!   owner of `id + 2^f` (wrapping);
//! * joins and leaves charge what the arena charges: one `Handoff` of 8 B
//!   per moved item, and one `Stabilize` of `8 · (1 + successor-list
//!   length)` on the ring after the event. Crashes charge nothing.

use dde_ring::id::RING_BITS;
use dde_ring::node::SUCCESSOR_LIST_LEN;
use dde_ring::{ChurnApplied, ChurnEvent, MessageKind, MessageStats, Network, Placement, RingId};
use std::collections::BTreeMap;

/// The model ring.
pub struct RingModel {
    placement: Placement,
    stores: BTreeMap<RingId, Vec<f64>>,
    /// Messages charged since the model was taken.
    pub stats: MessageStats,
}

impl RingModel {
    /// The membership and stores of `net`, with no messages charged.
    pub fn of(net: &Network) -> Self {
        let stores = net
            .ids()
            .map(|id| (id, net.node(id).expect("alive").store.values().to_vec()))
            .collect();
        Self { placement: net.placement(), stores, stats: MessageStats::new() }
    }

    /// Alive ids, in ring order.
    pub fn ids(&self) -> Vec<RingId> {
        self.stores.keys().copied().collect()
    }

    /// The items `id` holds, ascending.
    pub fn store(&self, id: RingId) -> &[f64] {
        &self.stores[&id]
    }

    /// The first peer at or after `t`, wrapping.
    pub fn owner(&self, t: RingId) -> RingId {
        let mut from_t = self.stores.range(t..).map(|(&id, _)| id);
        from_t.next().or_else(|| self.stores.keys().next().copied()).expect("nonempty ring")
    }

    /// The last peer before `t`, wrapping.
    pub fn predecessor(&self, t: RingId) -> RingId {
        let mut before_t = self.stores.range(..t).map(|(&id, _)| id);
        before_t.next_back().or_else(|| self.stores.keys().next_back().copied()).expect("nonempty")
    }

    /// The successor list of `id`.
    pub fn successors(&self, id: RingId) -> Vec<RingId> {
        let len = SUCCESSOR_LIST_LEN.min(self.stores.len() - 1).max(1);
        let after = self.stores.range(id..).skip(1).map(|(&s, _)| s);
        after.chain(self.stores.keys().copied()).take(len).collect()
    }

    /// The fingers of `id`: finger `f` is the owner of `id + 2^f`. Targets
    /// move clockwise away from `id` as `f` grows, so a target no further
    /// round than the previous finger's owner shares that owner.
    pub fn fingers(&self, id: RingId) -> Vec<RingId> {
        let mut last = id;
        (0..RING_BITS)
            .map(|f| {
                let target = RingId(id.0.wrapping_add(1u64 << f));
                if id.distance_to(target) > id.distance_to(last) {
                    last = self.owner(target);
                }
                last
            })
            .collect()
    }

    /// Applies `events` one at a time, in order, and reports what they did
    /// (no repair work: the model has no routing state to repair). Joins of
    /// alive ids and departures of absent ids or at two peers are skipped.
    pub fn apply(&mut self, events: &[ChurnEvent]) -> ChurnApplied {
        let mut out = ChurnApplied::default();
        for &ev in events {
            let alive = self.stores.contains_key(&ev.id());
            let applied = match ev {
                ChurnEvent::Join(id) if !alive => {
                    out.joins += 1;
                    out.items_moved += self.join(id);
                    true
                }
                ChurnEvent::Leave(id) if alive && self.stores.len() > 2 => {
                    out.leaves += 1;
                    out.items_moved += self.leave(id);
                    true
                }
                ChurnEvent::Crash(id) if alive && self.stores.len() > 2 => {
                    out.crashes += 1;
                    out.lost.extend(self.stores.remove(&id).expect("alive"));
                    true
                }
                _ => false,
            };
            out.skipped += u64::from(!applied);
        }
        out
    }

    fn join(&mut self, id: RingId) -> u64 {
        let (pred, owner) = (self.predecessor(id), self.owner(id));
        let placement = self.placement;
        let donor = self.stores.get_mut(&owner).expect("alive");
        let (moved, kept) =
            donor.iter().copied().partition(|&x| placement.place(x).in_arc(pred, id));
        *donor = kept;
        self.stores.insert(id, moved);
        self.charge_handoff_and_stabilize(self.stores[&id].len())
    }

    fn leave(&mut self, id: RingId) -> u64 {
        let items = self.stores.remove(&id).expect("alive");
        let heir = self.owner(id);
        let heir = self.stores.get_mut(&heir).expect("alive");
        heir.extend_from_slice(&items);
        heir.sort_by(f64::total_cmp);
        self.charge_handoff_and_stabilize(items.len())
    }

    fn charge_handoff_and_stabilize(&mut self, moved: usize) -> u64 {
        self.stats.record(MessageKind::Handoff, 8 * moved);
        let successors = SUCCESSOR_LIST_LEN.min(self.stores.len() - 1).max(1);
        self.stats.record(MessageKind::Stabilize, 8 * (1 + successors));
        moved as u64
    }
}
