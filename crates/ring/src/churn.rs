//! Churn: joins, graceful leaves, and crash failures.
//!
//! Two regimes live here:
//!
//! * **Poisson churn** ([`ChurnProcess`]) — the protocol-faithful driver:
//!   rates are *per peer per time unit*, the convention P2P measurement
//!   papers use (e.g. "0.1 churn" = each peer has a 10% chance of departing
//!   per unit time). Event times are exponential interarrivals; joins run
//!   the full bootstrap-lookup protocol and stabilization repairs routing
//!   state at a fixed period, so staleness tracks the churn/stabilization
//!   ratio.
//! * **Batched arena churn** ([`ChurnBatch`]) — the mega-scale mutation
//!   path: a window of membership events splices the columnar state
//!   directly and restores *perfect* routing via `O(log P)` locality repair
//!   (`NodeIndex::repair_positions`), skipping the stabilization storm a
//!   10⁶-peer network cannot afford. Data handoff and the stabilization
//!   traffic a real join/leave would cost are still charged to the message
//!   counters. The batch's semantics are those of applying its events one
//!   at a time to a Chord ring; `crates/sim/tests/churn_model.rs` checks it
//!   against a deliberately naive model of exactly that.
//!
//! Arena membership changes in exactly these two ways: the protocol path
//! (`join` / `leave` / `fail` plus stabilization, which [`ChurnProcess`]
//! drives) and [`ChurnBatch`].

use crate::id::RingId;
use crate::index::RepairStats;
use crate::messages::MessageKind;
use crate::network::Network;
use crate::node::{Node, SUCCESSOR_LIST_LEN};
use rand::Rng;

/// Churn rates, per alive peer per time unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Join rate (new peers per alive peer per time unit).
    pub join_rate: f64,
    /// Graceful-leave rate.
    pub leave_rate: f64,
    /// Crash-failure rate.
    pub fail_rate: f64,
    /// Stabilization period (time units between rounds).
    pub stabilize_period: f64,
}

impl ChurnConfig {
    /// A symmetric churn level: joins balance departures (half leaves, half
    /// crashes), keeping the expected network size constant.
    pub fn symmetric(rate: f64, stabilize_period: f64) -> Self {
        Self { join_rate: rate, leave_rate: rate / 2.0, fail_rate: rate / 2.0, stabilize_period }
    }

    /// No churn at all.
    pub fn none() -> Self {
        Self { join_rate: 0.0, leave_rate: 0.0, fail_rate: 0.0, stabilize_period: 1.0 }
    }

    fn total_rate(&self) -> f64 {
        self.join_rate + self.leave_rate + self.fail_rate
    }
}

/// Counts of what a churn run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnOutcome {
    /// Successful joins.
    pub joins: u64,
    /// Graceful leaves.
    pub leaves: u64,
    /// Crash failures.
    pub fails: u64,
    /// Stabilization rounds run.
    pub stabilize_rounds: u64,
    /// Events skipped because the network was about to empty out.
    pub skipped: u64,
}

/// A resumable churn process.
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    config: ChurnConfig,
    /// Simulation clock.
    now: f64,
    /// Next stabilization time.
    next_stabilize: f64,
}

impl ChurnProcess {
    /// Creates a process with the given rates, starting at time 0.
    pub fn new(config: ChurnConfig) -> Self {
        Self { config, now: 0.0, next_stabilize: config.stabilize_period }
    }

    /// The current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the simulation by `duration` time units, applying churn
    /// events and periodic stabilization to `net`.
    ///
    /// The network is never allowed to drop below 2 peers (departure events
    /// that would do so are skipped and counted).
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        duration: f64,
        rng: &mut R,
    ) -> ChurnOutcome {
        let mut outcome = ChurnOutcome::default();
        let end = self.now + duration;
        loop {
            let rate = self.config.total_rate() * net.len() as f64;
            let next_event =
                if rate > 0.0 { self.now + exponential(rng, rate) } else { f64::INFINITY };
            // Interleave stabilization ticks in timestamp order.
            while self.next_stabilize <= next_event.min(end) {
                net.stabilize_round();
                outcome.stabilize_rounds += 1;
                self.next_stabilize += self.config.stabilize_period;
            }
            if next_event > end {
                self.now = end;
                return outcome;
            }
            self.now = next_event;
            self.apply_one(net, rng, &mut outcome);
        }
    }

    /// Applies exactly `n` churn events (no clock, no stabilization) — for
    /// tests that want precise control.
    pub fn apply_events<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        n: usize,
        rng: &mut R,
    ) -> ChurnOutcome {
        let mut outcome = ChurnOutcome::default();
        for _ in 0..n {
            self.apply_one(net, rng, &mut outcome);
        }
        outcome
    }

    fn apply_one<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        outcome: &mut ChurnOutcome,
    ) {
        let total = self.config.total_rate();
        if total <= 0.0 || net.is_empty() {
            outcome.skipped += 1;
            return;
        }
        let u: f64 = rng.gen::<f64>() * total;
        if u < self.config.join_rate {
            let new_id = RingId(rng.gen());
            let Some(bootstrap) = net.random_peer(rng) else {
                outcome.skipped += 1;
                return;
            };
            if net.join(new_id, bootstrap).is_ok() {
                outcome.joins += 1;
            } else {
                outcome.skipped += 1;
            }
        } else {
            if net.len() <= 2 {
                outcome.skipped += 1;
                return;
            }
            let Some(victim) = net.random_peer(rng) else {
                outcome.skipped += 1;
                return;
            };
            if u < self.config.join_rate + self.config.leave_rate {
                if net.leave(victim).is_ok() {
                    outcome.leaves += 1;
                }
            } else if net.fail(victim).is_ok() {
                outcome.fails += 1;
            }
        }
    }
}

/// One membership event for the amortized arena-churn path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A new peer joins under this id.
    Join(RingId),
    /// This peer departs gracefully, handing its data to its successor.
    Leave(RingId),
    /// This peer crashes; its primary data is lost.
    Crash(RingId),
}

impl ChurnEvent {
    /// The peer id the event concerns.
    pub fn id(&self) -> RingId {
        match *self {
            ChurnEvent::Join(id) | ChurnEvent::Leave(id) | ChurnEvent::Crash(id) => id,
        }
    }
}

/// What a [`ChurnBatch::apply`] did — counts, handoff volume, the values
/// crashes destroyed (so an incremental truth can journal the removals),
/// and the repair work performed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnApplied {
    /// Joins applied.
    pub joins: u64,
    /// Graceful leaves applied.
    pub leaves: u64,
    /// Crashes applied.
    pub crashes: u64,
    /// Events skipped (duplicate-id conflicts, joins of alive ids,
    /// departures of absent ids, or departures blocked by the ≥ 2-peer
    /// floor).
    pub skipped: u64,
    /// Items handed off (join arc transfers + leave handoffs).
    pub items_moved: u64,
    /// Values lost to crashes, in event order (each crashed peer's store
    /// sorted ascending). Feed these to a streamed-truth delta journal.
    pub lost: Vec<f64>,
    /// Locality-repair work counters.
    pub repair: RepairStats,
}

impl Network {
    /// Direct-placement batch insert for churn/turnover phases: every value
    /// lands on its true owner without routing (the mega-scale simulator
    /// path — routing 5% of 2·10⁷ items per round would dwarf the phase
    /// under measurement), each charged one [`MessageKind::Handoff`]
    /// transfer and one epoch bump. Does nothing on an empty network.
    ///
    /// The stores come out exactly as inserting the values one at a time in
    /// slice order with [`crate::LocalStore::insert`] leaves them. Owners
    /// are resolved by one walk of the key column over the values sorted by
    /// ring position (wrapping past the top of the ring to position 0), and
    /// each touched store takes one merge of its values, sorted ascending
    /// with ties kept in slice order.
    pub fn churn_insert_items(&mut self, values: &[f64]) {
        let p = self.nodes.len();
        if p == 0 || values.is_empty() {
            return;
        }
        let placement = self.placement;
        let mut by_place: Vec<(RingId, usize)> =
            values.iter().enumerate().map(|(seq, &x)| (placement.place(x), seq)).collect();
        by_place.sort_unstable();
        let mut owned: Vec<(usize, f64, usize)> = Vec::with_capacity(values.len());
        let mut pos = 0;
        let (keys, _) = self.nodes.columns();
        for &(r, seq) in &by_place {
            while pos < p && keys[pos] < r {
                pos += 1;
            }
            owned.push((if pos == p { 0 } else { pos }, values[seq], seq));
        }
        // Values past the last peer wrapped to position 0; move them to the
        // front so every owner's values are contiguous.
        let wrapped = owned.iter().rev().take_while(|&&(owner, _, _)| owner == 0).count();
        owned.rotate_right(wrapped);
        let mut run = Vec::new();
        let mut lo = 0;
        while lo < owned.len() {
            let owner = owned[lo].0;
            let hi = lo + owned[lo..].iter().take_while(|&&(o, _, _)| o == owner).count();
            let group = &mut owned[lo..hi];
            group.sort_unstable_by(|a, b| {
                a.1.partial_cmp(&b.1).expect("NaN item").then(a.2.cmp(&b.2))
            });
            run.clear();
            run.extend(group.iter().map(|&(_, x, _)| x));
            self.nodes.node_at_mut(owner).store.insert_sorted_run(&run);
            lo = hi;
        }
        for _ in values {
            self.bump_epoch();
            self.stats.record(MessageKind::Handoff, 8);
        }
    }

    /// Direct batch delete for churn/turnover phases: `n` removals, each of
    /// one uniform value from the first non-empty store at or after a
    /// uniform random ring position — so removal is uniform over *stores*,
    /// not items — each charged one [`MessageKind::Handoff`] transfer and
    /// one epoch bump. Removed values are appended to `out` in draw order.
    /// Once the network holds no items, the remaining removals still draw
    /// their start position but remove nothing, so `out` grows by fewer
    /// than `n`.
    ///
    /// Two phases, with the same RNG stream, removed values and stores as
    /// `n` one-at-a-time removals (a draw depends only on store lengths, and
    /// nothing inserts in between): every draw runs against a snapshot of
    /// the store lengths, finding the next non-empty store in an occupancy
    /// bitset; then one ring-order sweep removes each store's picks in draw
    /// order.
    pub fn churn_remove_items<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        rng: &mut R,
        out: &mut Vec<f64>,
    ) {
        let p = self.nodes.len();
        if p == 0 {
            return;
        }
        let mut lens: Vec<usize> = self.nodes.values().map(|node| node.store.len()).collect();
        let mut occupied = vec![0u64; p.div_ceil(64)];
        let mut live = 0usize;
        for (pos, &len) in lens.iter().enumerate() {
            if len > 0 {
                occupied[pos / 64] |= 1 << (pos % 64);
                live += 1;
            }
        }
        // Draw: `(position, seq, index into the store as of that draw)`.
        let mut picks: Vec<(usize, usize, usize)> = Vec::new();
        for _ in 0..n {
            let start = rng.gen_range(0..p);
            if live == 0 {
                continue;
            }
            let pos = next_occupied(&occupied, start);
            let idx = rng.gen_range(0..lens[pos]);
            lens[pos] -= 1;
            if lens[pos] == 0 {
                occupied[pos / 64] &= !(1 << (pos % 64));
                live -= 1;
            }
            picks.push((pos, picks.len(), idx));
        }
        // Resolve in ring order; `seq` breaks ties, so each store replays
        // its picks in draw order.
        picks.sort_unstable();
        let base = out.len();
        out.resize(base + picks.len(), 0.0);
        for &(pos, seq, idx) in &picks {
            let store = &mut self.nodes.node_at_mut(pos).store;
            let x = store.values()[idx];
            store.remove(x);
            out[base + seq] = x;
        }
        for _ in &picks {
            self.bump_epoch();
            self.stats.record(MessageKind::Handoff, 8);
        }
    }
}

/// A coalesced window of membership events, applied to arena state in one
/// column splice plus one monotone repair sweep.
///
/// Semantics are **sequential event semantics**: `apply` leaves the network
/// that applying the recorded events one at a time, in recorded order,
/// would leave. A join takes the items in
/// `(pred, id]` from their owner; a leave hands every item to its heir; a
/// crash loses them. Data movement replays in event order against a merged
/// view of the evolving membership, so order-dependent outcomes (an heir
/// crashing after inheriting, a joiner taking items a prior joiner just
/// received) come out as the sequence dictates. Routing state ends
/// perfect: predecessors, successor lists and all fingers match the final
/// ring. `crates/sim/tests/churn_model.rs` checks all of this, plus the
/// Handoff/Stabilize charges, against a naive `BTreeMap` ring model. The
/// one policy beyond sequential application is **conflict handling**: a
/// batch admits at most one event per id — later events on the same id are
/// skipped and counted. Callers wanting repeat events on one id split them
/// across batches.
///
/// Scratch buffers (including the replacement columns, which ping-pong with
/// the network's) are retained across `apply` calls, so steady-state
/// batched churn performs zero allocations (fenced in
/// `ring/tests/alloc_free.rs`).
#[derive(Debug, Clone, Default)]
pub struct ChurnBatch {
    events: Vec<ChurnEvent>,
    skip: Vec<bool>,
    by_id: Vec<(RingId, u32)>,
    /// Staged joins: `(id, event seq, detached slot)`, sorted by id.
    joins: Vec<(RingId, u32, u32)>,
    /// Departures: `(id, event seq, graceful)`, sorted by id.
    dead: Vec<(RingId, u32, bool)>,
    /// Base-column positions of `dead`, ascending.
    dead_pos: Vec<u32>,
    /// Final-column positions whose ownership arc changed.
    affected: Vec<usize>,
    /// Replacement columns, swapped with the network's on every apply.
    spare_keys: Vec<RingId>,
    spare_order: Vec<u32>,
}

impl ChurnBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a join of `id`.
    pub fn join(&mut self, id: RingId) {
        self.events.push(ChurnEvent::Join(id));
    }

    /// Queues a graceful leave of `id`.
    pub fn leave(&mut self, id: RingId) {
        self.events.push(ChurnEvent::Leave(id));
    }

    /// Queues a crash of `id`.
    pub fn crash(&mut self, id: RingId) {
        self.events.push(ChurnEvent::Crash(id));
    }

    /// Queues `event`.
    pub fn push(&mut self, event: ChurnEvent) {
        self.events.push(event);
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Applies the queued events to `net` in one coalesced pass and clears
    /// the queue. Phases: validate (conflict + feasibility guards), stage
    /// join records in detached slots, replay data movement in event order
    /// against the merged membership view, splice the merged columns in,
    /// retire departed slots, and run one locality-repair sweep over every
    /// changed arc.
    pub fn apply(&mut self, net: &mut Network) -> ChurnApplied {
        let mut out = ChurnApplied::default();
        if self.events.is_empty() {
            return out;
        }
        if net.is_empty() {
            out.skipped = self.events.len() as u64;
            self.events.clear();
            return out;
        }
        net.bump_epoch();
        net.nodes.reserve(self.events.len());
        let p0 = net.nodes.len();

        // Validate. Conflict policy first: at most one event per id per
        // batch, first recorded wins. Then feasibility in event order, as
        // sequential application would see it: joins of alive ids are
        // skipped, departures of absent ids or past the ≥ 2-peer floor are
        // skipped.
        self.skip.clear();
        self.skip.resize(self.events.len(), false);
        self.by_id.clear();
        for (i, ev) in self.events.iter().enumerate() {
            self.by_id.push((ev.id(), i as u32));
        }
        self.by_id.sort_unstable();
        for w in self.by_id.windows(2) {
            if w[0].0 == w[1].0 {
                self.skip[w[1].1 as usize] = true;
            }
        }
        let mut alive = p0;
        for (i, ev) in self.events.iter().enumerate() {
            if self.skip[i] {
                continue;
            }
            match *ev {
                ChurnEvent::Join(id) => {
                    if net.nodes.contains_key(&id) {
                        self.skip[i] = true;
                    } else {
                        alive += 1;
                    }
                }
                ChurnEvent::Leave(id) | ChurnEvent::Crash(id) => {
                    if !net.nodes.contains_key(&id) || alive <= 2 {
                        self.skip[i] = true;
                    } else {
                        alive -= 1;
                    }
                }
            }
        }

        // Stage join records in detached slots; collect departures.
        self.joins.clear();
        self.dead.clear();
        for (i, ev) in self.events.iter().enumerate() {
            if self.skip[i] {
                out.skipped += 1;
                continue;
            }
            match *ev {
                ChurnEvent::Join(id) => {
                    let slot = net.nodes.alloc_detached(Node::new(id));
                    self.joins.push((id, i as u32, slot));
                    out.joins += 1;
                }
                ChurnEvent::Leave(id) => {
                    self.dead.push((id, i as u32, true));
                    out.leaves += 1;
                }
                ChurnEvent::Crash(id) => {
                    self.dead.push((id, i as u32, false));
                    out.crashes += 1;
                }
            }
        }
        if self.joins.is_empty() && self.dead.is_empty() {
            self.events.clear();
            return out;
        }
        self.joins.sort_unstable_by_key(|&(id, _, _)| id);
        self.dead.sort_unstable_by_key(|&(id, _, _)| id);

        // Replay data movement in recorded order against the merged view.
        // Every resolution (owner, predecessor, heir) sees exactly the
        // membership sequential application would: base peers minus
        // already-departed, plus already-joined overlays.
        let placement = net.placement;
        let mut alive = p0;
        {
            let (keys, order, arena) = net.nodes.split_view();
            let view = MergedView { keys, order, joins: &self.joins, dead: &self.dead };
            for (i, ev) in self.events.iter().enumerate() {
                if self.skip[i] {
                    continue;
                }
                let seq = i as u32;
                match *ev {
                    ChurnEvent::Join(id) => {
                        alive += 1;
                        let (pred, _) = view.last_active_before(id, seq, id);
                        let (_, owner) = view.first_active_from(id, seq, id);
                        let moved = arena
                            .slot_mut(view.slot(owner))
                            .store
                            .drain_by(|x| placement.place(x).in_arc(pred, id));
                        net.stats.record(MessageKind::Handoff, 8 * moved.len());
                        let slen = SUCCESSOR_LIST_LEN.min(alive - 1).max(1);
                        net.stats.record(MessageKind::Stabilize, 8 * (1 + slen));
                        out.items_moved += moved.len() as u64;
                        let jslot = view.join_slot(id);
                        arena.slot_mut(jslot as usize).store.extend_values(moved);
                    }
                    ChurnEvent::Leave(id) => {
                        alive -= 1;
                        let vslot = order[view.base_position(id)] as usize;
                        let data = arena.slot_mut(vslot).store.drain_all();
                        net.stats.record(MessageKind::Handoff, 8 * data.len());
                        out.items_moved += data.len() as u64;
                        let (_, heir) = view.first_active_from(id, seq, id);
                        let heir_node = arena.slot_mut(view.slot(heir));
                        heir_node.store.extend_values(data);
                        heir_node.replicas.remove(&id);
                        let slen = SUCCESSOR_LIST_LEN.min(alive - 1).max(1);
                        net.stats.record(MessageKind::Stabilize, 8 * (1 + slen));
                    }
                    ChurnEvent::Crash(id) => {
                        alive -= 1;
                        let vslot = order[view.base_position(id)] as usize;
                        let data = arena.slot_mut(vslot).store.drain_all();
                        out.lost.extend(data);
                    }
                }
            }
        }

        // Merge the surviving base column with the sorted joins into the
        // spare columns (two-pointer walk), then swap them in. The old
        // columns become next apply's spares — steady-state churn
        // ping-pongs two column pairs and never reallocates.
        self.dead_pos.clear();
        {
            let (keys, _) = net.nodes.columns();
            for &(id, _, _) in &self.dead {
                self.dead_pos.push(keys.partition_point(|&k| k < id) as u32);
            }
        }
        self.spare_keys.clear();
        self.spare_order.clear();
        let new_len = p0 + self.joins.len() - self.dead.len();
        self.spare_keys.reserve(new_len);
        self.spare_order.reserve(new_len);
        {
            let (keys, order) = net.nodes.columns();
            let mut ji = 0usize;
            let mut di = 0usize;
            for bi in 0..p0 {
                while ji < self.joins.len() && self.joins[ji].0 < keys[bi] {
                    self.spare_keys.push(self.joins[ji].0);
                    self.spare_order.push(self.joins[ji].2);
                    ji += 1;
                }
                if di < self.dead_pos.len() && self.dead_pos[di] as usize == bi {
                    di += 1;
                    continue;
                }
                self.spare_keys.push(keys[bi]);
                self.spare_order.push(order[bi]);
            }
            for &(id, _, slot) in &self.joins[ji..] {
                self.spare_keys.push(id);
                self.spare_order.push(slot);
            }
        }
        net.nodes.splice_columns(&mut self.spare_keys, &mut self.spare_order);

        // Retire departed slots (their positions index the OLD order column,
        // which the splice handed back as our spare) and drop stale cursors.
        for (i, &(id, _, _)) in self.dead.iter().enumerate() {
            let slot = self.spare_order[self.dead_pos[i] as usize];
            let _ = net.nodes.free_slot(slot);
            net.finger_cursor.remove(&id);
        }

        // One repair sweep over every changed arc: each join's position and
        // each departure's heir position in the final column.
        self.affected.clear();
        for &(id, _, _) in &self.joins {
            self.affected.push(net.nodes.owner_position(id));
        }
        for &(id, _, _) in &self.dead {
            self.affected.push(net.nodes.owner_position(id));
        }
        self.affected.sort_unstable();
        self.affected.dedup();
        out.repair = net.nodes.repair_positions(&self.affected);
        self.events.clear();
        out
    }
}

/// Which record backs a merged-view entry: a base-column position or a
/// staged (detached-slot) joiner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRef {
    Base(usize),
    Overlay(u32),
}

/// The membership as of one event inside a batch: the base columns, minus
/// departures already replayed, plus joiners already replayed. Entries
/// activate strictly by sequence number, so resolving against the view at
/// seq `s` sees exactly what one-at-a-time application would see before
/// its `s`-th event.
struct MergedView<'a> {
    keys: &'a [RingId],
    order: &'a [u32],
    joins: &'a [(RingId, u32, u32)],
    dead: &'a [(RingId, u32, bool)],
}

impl MergedView<'_> {
    /// The arena slot backing `r`.
    fn slot(&self, r: NodeRef) -> usize {
        match r {
            NodeRef::Base(pos) => self.order[pos] as usize,
            NodeRef::Overlay(slot) => slot as usize,
        }
    }

    /// The staged slot of the joiner `id`.
    fn join_slot(&self, id: RingId) -> u32 {
        let ji = self.joins.binary_search_by_key(&id, |&(jid, _, _)| jid).expect("staged join");
        self.joins[ji].2
    }

    /// Exact base-column position of `id` (departure victims are validated
    /// to be base peers).
    fn base_position(&self, id: RingId) -> usize {
        let pos = self.keys.partition_point(|&k| k < id);
        debug_assert!(pos < self.keys.len() && self.keys[pos] == id, "victim not in base column");
        pos
    }

    /// Whether base position `pos` is still alive as of `seq` (its departure,
    /// if any, has not been replayed yet).
    fn base_active(&self, pos: usize, seq: u32) -> bool {
        match self.dead.binary_search_by_key(&self.keys[pos], |&(id, _, _)| id) {
            Ok(di) => self.dead[di].1 >= seq,
            Err(_) => true,
        }
    }

    /// First active entry with id `>= from` (wrapping), skipping `exclude` —
    /// the owner/successor resolution. Panics only if the view is empty,
    /// which the feasibility guards rule out.
    fn first_active_from(&self, from: RingId, seq: u32, exclude: RingId) -> (RingId, NodeRef) {
        let sb = self.keys.partition_point(|&k| k < from);
        let sj = self.joins.partition_point(|&(id, _, _)| id < from);
        self.scan_fwd(sb, self.keys.len(), sj, self.joins.len(), seq, exclude)
            .or_else(|| self.scan_fwd(0, sb, 0, sj, seq, exclude))
            .expect("merged view exhausted: alive floor violated")
    }

    /// Last active entry with id `< id` (wrapping) — the predecessor
    /// resolution for a join arc.
    fn last_active_before(&self, id: RingId, seq: u32, exclude: RingId) -> (RingId, NodeRef) {
        let eb = self.keys.partition_point(|&k| k < id);
        let ej = self.joins.partition_point(|&(jid, _, _)| jid < id);
        self.scan_back(0, eb, 0, ej, seq, exclude)
            .or_else(|| self.scan_back(eb, self.keys.len(), ej, self.joins.len(), seq, exclude))
            .expect("merged view exhausted: alive floor violated")
    }

    /// Ascending merged scan over base positions `[lo_b, hi_b)` and join
    /// entries `[lo_j, hi_j)`; first active non-excluded entry wins. Join
    /// ids never collide with base ids (feasibility skips joins of alive
    /// peers), so the merge order is strict.
    fn scan_fwd(
        &self,
        lo_b: usize,
        hi_b: usize,
        lo_j: usize,
        hi_j: usize,
        seq: u32,
        exclude: RingId,
    ) -> Option<(RingId, NodeRef)> {
        let (mut bi, mut ji) = (lo_b, lo_j);
        loop {
            let b = (bi < hi_b).then(|| self.keys[bi]);
            let j = (ji < hi_j).then(|| self.joins[ji].0);
            let take_base = match (b, j) {
                (None, None) => return None,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(bk), Some(jk)) => bk < jk,
            };
            if take_base {
                let key = self.keys[bi];
                if key != exclude && self.base_active(bi, seq) {
                    return Some((key, NodeRef::Base(bi)));
                }
                bi += 1;
            } else {
                let (key, jseq, slot) = self.joins[ji];
                if key != exclude && jseq < seq {
                    return Some((key, NodeRef::Overlay(slot)));
                }
                ji += 1;
            }
        }
    }

    /// Descending merged scan (mirror of [`MergedView::scan_fwd`]).
    fn scan_back(
        &self,
        lo_b: usize,
        hi_b: usize,
        lo_j: usize,
        hi_j: usize,
        seq: u32,
        exclude: RingId,
    ) -> Option<(RingId, NodeRef)> {
        let (mut bi, mut ji) = (hi_b, hi_j);
        loop {
            let b = (bi > lo_b).then(|| self.keys[bi - 1]);
            let j = (ji > lo_j).then(|| self.joins[ji - 1].0);
            let take_base = match (b, j) {
                (None, None) => return None,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(bk), Some(jk)) => bk > jk,
            };
            if take_base {
                bi -= 1;
                let key = self.keys[bi];
                if key != exclude && self.base_active(bi, seq) {
                    return Some((key, NodeRef::Base(bi)));
                }
            } else {
                ji -= 1;
                let (key, jseq, slot) = self.joins[ji];
                if key != exclude && jseq < seq {
                    return Some((key, NodeRef::Overlay(slot)));
                }
            }
        }
    }
}

/// The first set bit at or after `start` in `bits`, wrapping past the end.
///
/// # Panics
/// Panics if no bit is set.
fn next_occupied(bits: &[u64], start: usize) -> usize {
    let w = start / 64;
    let here = bits[w] & (!0u64 << (start % 64));
    if here != 0 {
        return w * 64 + here.trailing_zeros() as usize;
    }
    // Word `w` comes round again last, for its bits below `start`.
    (1..=bits.len())
        .map(|step| (w + step) % bits.len())
        .find(|&i| bits[i] != 0)
        .map(|i| i * 64 + bits[i].trailing_zeros() as usize)
        .expect("occupancy bitset is empty")
}

/// An exponential interarrival with the given rate.
fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net_of_n(n: u64) -> Network {
        let ids = (1..=n).map(|i| RingId(i * (u64::MAX / (n + 1)))).collect();
        Network::build(ids, Placement::range(0.0, 100.0))
    }

    #[test]
    fn item_turnover_ops_place_and_charge_correctly() {
        let mut net = net_of_n(16);
        net.bulk_load(&(0..160).map(|i| i as f64 * 100.0 / 160.0).collect::<Vec<_>>());
        let mut rng = StdRng::seed_from_u64(9);
        let bytes0 = net.stats().total_bytes();
        net.churn_insert_items(&[12.34]);
        assert_eq!(net.total_items(), 161);
        let owner = net.nodes.key_at(net.nodes.owner_position(net.placement.place(12.34))).unwrap();
        assert!(net.node(owner).unwrap().store.values().contains(&12.34), "lands on its owner");
        let mut removed = Vec::new();
        net.churn_remove_items(1, &mut rng, &mut removed);
        assert_eq!(removed.len(), 1, "items exist");
        assert!((0.0..=100.0).contains(&removed[0]));
        assert_eq!(net.total_items(), 160);
        // Two items, each one Handoff message: 8 B payload + fixed header.
        assert_eq!(
            net.stats().total_bytes() - bytes0,
            2 * (8 + crate::messages::HEADER_BYTES as u64)
        );
        assert!(net.check_invariants().is_empty(), "{:?}", net.check_invariants());
    }

    /// The specification of item turnover, deliberately naive: one item at a
    /// time. Each removal walks forward from a uniform random position to
    /// the first non-empty store and removes a uniform value from it.
    fn reference_remove_items(net: &mut Network, n: usize, rng: &mut StdRng, out: &mut Vec<f64>) {
        let p = net.nodes.len();
        if p == 0 {
            return;
        }
        for _ in 0..n {
            let start = rng.gen_range(0..p);
            for k in 0..p {
                let node = net.nodes.node_at_mut((start + k) % p);
                if let Some(x) = node.store.sample_uniform(rng) {
                    node.store.remove(x);
                    net.bump_epoch();
                    net.stats.record(MessageKind::Handoff, 8);
                    out.push(x);
                    break;
                }
            }
        }
    }

    /// Each insert binary-searches its owner and inserts into its store.
    fn reference_insert_items(net: &mut Network, values: &[f64]) {
        for &x in values {
            if net.nodes.is_empty() {
                return;
            }
            net.bump_epoch();
            let pos = net.nodes.owner_position(net.placement.place(x));
            net.nodes.node_at_mut(pos).store.insert(x);
            net.stats.record(MessageKind::Handoff, 8);
        }
    }

    /// Every store's values as bits, in ring order.
    fn store_bits(net: &Network) -> Vec<(RingId, Vec<u64>)> {
        net.nodes
            .iter()
            .map(|(id, n)| (*id, n.store.values().iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    /// Every store bit for bit, the message counters and the epoch.
    fn assert_same_turnover_state(a: &Network, b: &Network, ctx: &str) {
        assert_eq!(store_bits(a), store_bits(b), "{ctx}: stores");
        assert_eq!(a.stats(), b.stats(), "{ctx}: message stats");
        assert_eq!(a.mutation_epoch(), b.mutation_epoch(), "{ctx}: epoch");
    }

    #[test]
    fn batched_turnover_matches_the_one_at_a_time_reference() {
        for placement in [Placement::range(0.0, 100.0), Placement::hashed(0.0, 100.0)] {
            for seed in 0..6u64 {
                let ctx = |round: u64| format!("{placement:?} seed {seed} round {round}");
                // 200 peers: the occupancy bitset spans several words.
                let ids = (1..=200u64).map(|i| RingId(i * (u64::MAX / 201))).collect();
                let mut spec = Network::build(ids, placement);
                // Skewed load: most stores sparse, so removals drain them.
                let mut values = StdRng::seed_from_u64(seed ^ 0x5EED);
                let base: Vec<f64> =
                    (0..2_400).map(|_| 100.0 * values.gen::<f64>().powi(3)).collect();
                spec.bulk_load(&base);
                let mut fast = spec.clone();
                // A fork sharing every store: the batched ops must copy a
                // shared store, never write through it.
                let fork = spec.clone();
                let fork_bits = store_bits(&fork);
                let mut rng_spec = StdRng::seed_from_u64(seed);
                let mut rng_fast = StdRng::seed_from_u64(seed);
                for round in 0..12 {
                    let t = spec.total_items() as usize / 5;
                    let (mut out_spec, mut out_fast) = (Vec::new(), Vec::new());
                    reference_remove_items(&mut spec, t, &mut rng_spec, &mut out_spec);
                    fast.churn_remove_items(t, &mut rng_fast, &mut out_fast);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&out_spec), bits(&out_fast), "{}: removed", ctx(round));
                    assert_same_turnover_state(&spec, &fast, &ctx(round));
                    // Fewer inserts than removals, so stores keep draining.
                    // Duplicates, signed zeros and the top of the domain
                    // (past the last peer under range placement, so it
                    // wraps to position 0) ride along.
                    let mut fresh: Vec<f64> = (0..t / 2)
                        .map(|i| match i % 7 {
                            0 => 50.0,
                            1 => 0.0,
                            2 => -0.0,
                            3 => 100.0,
                            _ => 100.0 * values.gen::<f64>(),
                        })
                        .collect();
                    fresh.push(99.999_999);
                    reference_insert_items(&mut spec, &fresh);
                    fast.churn_insert_items(&fresh);
                    assert_same_turnover_state(&spec, &fast, &ctx(round));
                    assert_eq!(rng_spec.gen::<u64>(), rng_fast.gen::<u64>(), "{}: rng", ctx(round));
                }
                assert_eq!(store_bits(&fork), fork_bits, "{}: fork written through", ctx(12));
            }
        }
    }

    #[test]
    fn wrapped_inserts_keep_call_order_among_equal_values() {
        // Under hashed placement 0.0 and -0.0 are equal values at different
        // ring positions. Peer 0 sits on the lower one; peer 1 sits below
        // the upper one, which therefore wraps to peer 0 too — after the
        // values peer 1 owns in ring order.
        let placement = Placement::hashed(0.0, 100.0);
        let (mut front, mut wraps) = (-0.0, 0.0);
        if placement.place(front) > placement.place(wraps) {
            std::mem::swap(&mut front, &mut wraps);
        }
        let (lo, hi) = (placement.place(front), placement.place(wraps));
        let mid = RingId(lo.0 + (hi.0 - lo.0) / 2);
        let owned_by_mid =
            (1..).map(f64::from).find(|&x| placement.place(x).in_arc(lo, mid)).expect("some value");
        let mut spec = Network::build(vec![lo, mid], placement);
        let mut fast = spec.clone();
        let values = [wraps, owned_by_mid, front, wraps];
        reference_insert_items(&mut spec, &values);
        fast.churn_insert_items(&values);
        assert_same_turnover_state(&spec, &fast, "signed zeros");
    }

    #[test]
    fn batched_removal_past_the_live_items_keeps_drawing() {
        let mut spec = net_of_n(8);
        spec.bulk_load(&[1.0, 20.0, 20.0, 55.0, 90.0]);
        let mut fast = spec.clone();
        let mut rng_spec = StdRng::seed_from_u64(4);
        let mut rng_fast = StdRng::seed_from_u64(4);
        let (mut out_spec, mut out_fast) = (vec![-1.0], vec![-1.0]);
        reference_remove_items(&mut spec, 12, &mut rng_spec, &mut out_spec);
        fast.churn_remove_items(12, &mut rng_fast, &mut out_fast);
        assert_eq!(out_fast.len(), 6, "appends only what was there");
        assert_eq!(out_spec, out_fast);
        assert_eq!(fast.total_items(), 0);
        assert_same_turnover_state(&spec, &fast, "drained");
        assert_eq!(rng_spec.gen::<u64>(), rng_fast.gen::<u64>(), "drained: rng");
    }

    #[test]
    fn batch_skip_policy_is_pinned() {
        let mut net = net_of_n(8);
        let ids: Vec<RingId> = net.ids().collect();
        let mut batch = ChurnBatch::new();
        batch.join(ids[0]); // join of an alive id: skipped
        batch.leave(RingId(123)); // absent id: skipped
        batch.leave(ids[1]); // fine
        batch.crash(ids[1]); // second event on same id: skipped
        batch.join(RingId(777)); // fine
        batch.join(RingId(777)); // duplicate join id: skipped
        let out = batch.apply(&mut net);
        assert_eq!(out.skipped, 4);
        assert_eq!(out.joins, 1);
        assert_eq!(out.leaves, 1);
        assert_eq!(out.crashes, 0);
        assert_eq!(net.len(), 8);
        assert!(net.check_invariants().is_empty(), "{:?}", net.check_invariants());
    }

    #[test]
    fn batch_respects_alive_floor_mid_window() {
        let mut net = net_of_n(4);
        let ids: Vec<RingId> = net.ids().collect();
        let mut batch = ChurnBatch::new();
        batch.leave(ids[0]);
        batch.crash(ids[1]);
        batch.leave(ids[2]);
        batch.crash(ids[3]);
        let out = batch.apply(&mut net);
        // Only two departures fit above the 2-peer floor; the floor blocks
        // leaves and crashes alike.
        assert_eq!((out.leaves, out.crashes), (1, 1));
        assert_eq!(out.skipped, 2);
        assert_eq!(net.len(), 2);
        assert!(net.check_invariants().is_empty(), "{:?}", net.check_invariants());
    }

    #[test]
    fn batch_reports_crash_losses_for_truth_deltas() {
        let mut net = net_of_n(16);
        net.bulk_load(&(0..320).map(|i| i as f64 * 100.0 / 320.0).collect::<Vec<_>>());
        let victim = net.ids().nth(6).unwrap();
        let expected: Vec<f64> = net.node(victim).unwrap().store.values().to_vec();
        assert!(!expected.is_empty());
        let bytes_before = net.stats().total_bytes();
        let mut batch = ChurnBatch::new();
        batch.crash(victim);
        let out = batch.apply(&mut net);
        assert_eq!(out.lost, expected);
        assert_eq!(net.total_items(), 320 - expected.len() as u64);
        assert_eq!(net.stats().total_bytes(), bytes_before, "crashes charge nothing");
        assert!(net.check_invariants().is_empty(), "{:?}", net.check_invariants());
    }

    #[test]
    fn batch_empty_window_is_a_no_op_and_single_peer_bootstraps() {
        let mut batch = ChurnBatch::new();
        let mut net = net_of_n(8);
        assert_eq!(batch.apply(&mut net), ChurnApplied::default());
        // A single-peer network can grow through the batch path: the lone
        // base peer is both predecessor and arc donor for every joiner.
        let mut tiny = net_of_n(1);
        tiny.bulk_load(&(0..64).map(|i| i as f64 * 100.0 / 64.0).collect::<Vec<_>>());
        batch.join(RingId(1_000));
        batch.join(RingId(u64::MAX / 2 + 12_345));
        let out = batch.apply(&mut tiny);
        assert_eq!(out.joins, 2);
        assert_eq!(tiny.len(), 3);
        assert_eq!(tiny.total_items(), 64);
        assert!(tiny.check_invariants().is_empty(), "{:?}", tiny.check_invariants());
    }

    #[test]
    fn symmetric_churn_keeps_size_roughly_constant() {
        let mut net = net_of_n(64);
        let mut rng = StdRng::seed_from_u64(17);
        let mut churn = ChurnProcess::new(ChurnConfig::symmetric(0.1, 1.0));
        let outcome = churn.run(&mut net, 20.0, &mut rng);
        assert!(outcome.joins + outcome.leaves + outcome.fails > 50, "{outcome:?}");
        assert!(outcome.stabilize_rounds >= 19, "{outcome:?}");
        assert!((32..=110).contains(&net.len()), "size drifted to {}", net.len());
    }

    #[test]
    fn churn_then_stabilize_restores_ring() {
        let mut net = net_of_n(48);
        net.bulk_load(&(0..500).map(|i| i as f64 / 5.0).collect::<Vec<_>>());
        let mut rng = StdRng::seed_from_u64(3);
        let mut churn = ChurnProcess::new(ChurnConfig::symmetric(0.2, 0.5));
        churn.run(&mut net, 10.0, &mut rng);
        for _ in 0..8 {
            net.stabilize_round();
        }
        let violations = net.check_invariants();
        let ring_only: Vec<&String> = violations.iter().filter(|v| !v.contains("item")).collect();
        assert!(ring_only.is_empty(), "{ring_only:?}");
        // Lookups must work after churn + repair.
        let from = net.random_peer(&mut rng).unwrap();
        assert!(net.lookup(from, RingId(12345)).is_ok());
    }

    #[test]
    fn zero_rates_do_nothing() {
        let mut net = net_of_n(8);
        let mut rng = StdRng::seed_from_u64(1);
        let mut churn = ChurnProcess::new(ChurnConfig::none());
        let outcome = churn.run(&mut net, 5.0, &mut rng);
        assert_eq!(outcome.joins + outcome.leaves + outcome.fails, 0);
        assert_eq!(net.len(), 8);
        // Clock still advances and stabilization still ticks.
        assert_eq!(churn.now(), 5.0);
        assert!(outcome.stabilize_rounds >= 4);
    }

    #[test]
    fn never_shrinks_below_two() {
        let mut net = net_of_n(4);
        let mut rng = StdRng::seed_from_u64(9);
        let cfg =
            ChurnConfig { join_rate: 0.0, leave_rate: 1.0, fail_rate: 1.0, stabilize_period: 0.5 };
        let mut churn = ChurnProcess::new(cfg);
        churn.run(&mut net, 50.0, &mut rng);
        assert_eq!(net.len(), 2);
    }

    #[test]
    fn apply_events_is_exact() {
        let mut net = net_of_n(16);
        let mut rng = StdRng::seed_from_u64(2);
        let mut churn = ChurnProcess::new(ChurnConfig::symmetric(1.0, 1.0));
        let outcome = churn.apply_events(&mut net, 10, &mut rng);
        assert_eq!(outcome.joins + outcome.leaves + outcome.fails + outcome.skipped, 10);
    }
}
