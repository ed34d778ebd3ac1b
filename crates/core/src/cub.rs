//! The cub: Tiger's per-machine schedule manager (paper §4.1).
//!
//! A cub holds a bounded view of the schedule near its disks, services
//! entries as its disk pointers cross their slots (read one scheduling
//! lead early, transmit paced at the stream rate), forwards viewer states
//! to its successor and second successor, applies and propagates
//! deschedules, inserts queued start requests into slots it owns, runs the
//! deadman protocol against its predecessor, and — when a neighbour dies —
//! manufactures mirror viewer states so the declustered secondary copies
//! take over.

use tiger_sim::{DetHashMap as HashMap, DetHashSet as HashSet};

use tiger_disk::{DiskError, DiskRequest, RequestKind};
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockIndex, BlockNum, CubId, DiskId, DiskSpace, FileId};
use tiger_proto::{InsertMachine, RingConfig, RingMachine};
use tiger_sched::view::ViewApply;
use tiger_sched::{Deschedule, ScheduleView, SlotId, StreamKind, ViewerState};
use tiger_sim::{Counter, SimDuration, SimTime};
use tiger_trace::TraceEvent;

use crate::config::ForwardingPolicy;
use crate::event::{Event, ServiceToken};
use crate::receipts::{ReceiptIndex, ServiceKey};
use crate::system::{CodedRuntime, Shared};
use tiger_proto::msg::Message;

pub use tiger_proto::insert::PendingStart;

/// The ring machine's timing constants, as this driver configures them.
fn ring_cfg(sh: &Shared) -> RingConfig {
    RingConfig {
        deadman_timeout: sh.cfg.deadman_timeout,
        deadman_interval: sh.cfg.deadman_interval,
        min_vstate_lead: sh.cfg.min_vstate_lead,
    }
}

/// Per-block key under which the coded backend's load rings account a
/// block's shard reservations: the play sequence number stands in for the
/// incarnation, so consecutive blocks of one stream hold distinct
/// reservations (their `2k`-disk windows overlap as the stream advances,
/// and releasing one block must not free the next one's).
fn coded_load_key(vs: &ViewerState) -> ViewerInstance {
    ViewerInstance {
        viewer: vs.instance.viewer,
        incarnation: vs.play_seq,
    }
}

/// One block (or mirror piece) this cub has committed to send.
#[derive(Clone, Copy, Debug)]
struct Active {
    vs: ViewerState,
    /// Local index of the disk that holds the bytes.
    disk_local: u32,
    send_at: SimTime,
    /// Paced transmission duration (bpt for primaries, bpt/decluster for
    /// mirror pieces).
    send_duration: SimDuration,
    /// Payload bytes delivered to the client.
    payload: u64,
    /// On-disk extent size charged against the buffer cache.
    read_bytes: u64,
    read_issued: bool,
    read_ready: bool,
    /// A read-ahead buffer is charged to this service.
    buffer_held: bool,
    transmitting: bool,
    /// The block went out (or its transmission is in progress).
    sent: bool,
    /// The deadline passed before the read completed; the block was
    /// dropped but the viewer continues (only this block is lost).
    missed: bool,
    forwarded: bool,
    /// Cancelled by a deschedule or failure; do not send or forward.
    dropped: bool,
}

impl Active {
    fn new(
        vs: ViewerState,
        disk_local: u32,
        send_at: SimTime,
        send_duration: SimDuration,
        payload: u64,
        forwarded: bool,
    ) -> Self {
        Active {
            vs,
            disk_local,
            send_at,
            send_duration,
            payload,
            read_bytes: 0,
            read_issued: false,
            read_ready: false,
            buffer_held: false,
            transmitting: false,
            sent: false,
            missed: false,
            forwarded,
            dropped: false,
        }
    }

    /// Whether the entry's work is finished and it can be reclaimed.
    fn finished(&self) -> bool {
        self.forwarded
            && !self.transmitting
            && (self.sent || self.missed || self.dropped)
            && (!self.read_issued || self.read_ready)
    }
}

/// A shadow record: schedule information this cub holds for redundancy
/// (second-successor copies), keyed by slot and instance.
#[derive(Clone, Copy, Debug)]
struct Shadow {
    vs: ViewerState,
    due: SimTime,
}

/// The per-machine state of one cub.
#[derive(Debug)]
pub struct Cub {
    /// This cub's id.
    pub id: CubId,
    /// Whether this cub has been power-cut.
    pub failed: bool,
    disks: Vec<tiger_disk::Disk>,
    space: Vec<DiskSpace>,
    index: BlockIndex,
    view: ScheduleView,
    active: HashMap<ServiceToken, Active>,
    /// Per-instance summary of `active` and `retired_log` answering the
    /// §4.1.2 idempotence questions in one lookup (`crate::receipts`).
    receipts: ReceiptIndex,
    next_token: ServiceToken,
    shadows: HashMap<(SlotId, ViewerInstance), Shadow>,
    /// Blocks for which this cub (as acting successor) already created
    /// mirror viewer states, to make creation idempotent.
    mirrors_created: HashSet<(SlotId, ViewerInstance, u32)>,
    /// The sans-io insertion machine: queued and redundant starts, and
    /// the one-armed attempt timer (`tiger_proto::insert`).
    ins: InsertMachine,
    /// The sans-io ring machine: failure beliefs, deadman clocks, rejoin
    /// horizons, and the hand-back window (`tiger_proto::ring`). This
    /// struct is the DES *driver* for it: machine verdicts become event
    /// schedules, simulated sends, and trace records here.
    ring: RingMachine,
    /// Read-ahead buffer bytes in use (bounded by the buffer cache).
    buffer_bytes_in_use: u64,
    /// Recently buffered blocks, newest last (the buffer cache doubles as
    /// a tiny block cache; §5 measured its hit rate at "less than 0.05%"
    /// because staggered viewers rarely re-read a block while it is still
    /// resident).
    cache_resident: std::collections::VecDeque<(DiskId, FileId, BlockNum)>,
    /// Block-cache hits (reads satisfied without touching the disk).
    pub cache_hits: Counter,
    /// Block-cache lookups.
    pub cache_lookups: Counter,
    /// Peak buffer usage in bytes (diagnostics; compare against the 20 MB
    /// cache of the testbed).
    pub peak_buffer_bytes: u64,
    /// When this cub's next periodic forwarding pass is due (maintained by
    /// the event loop; lets acceptance decide whether a record can wait).
    pub next_forward_pass: SimTime,
    /// Recently serviced-and-forwarded primary records, retained for one
    /// failure-detection window so that, as "the preceding living cub",
    /// this cub can re-send scheduling information across a gap of
    /// consecutive failures (§2.3).
    retired_log: Vec<(SimTime, ViewerState)>,
    /// Control messages processed (receive side, for the CPU model).
    msgs_processed: Counter,
    /// Viewer instances for which an EOF notice was already sent.
    eof_sent: HashSet<ViewerInstance>,
    /// Set while this cub is rejoining after a restart: the restart
    /// instant, taken (and traced as convergence) on the first primary
    /// service acceptance of the new life.
    rejoined_at: Option<SimTime>,
}

impl Cub {
    /// Creates an idle cub with its disks.
    pub fn new(id: CubId, num_cubs: u32, disks: Vec<tiger_disk::Disk>) -> Self {
        let space = disks
            .iter()
            .map(|d| DiskSpace::half_split(d.profile().capacity))
            .collect();
        Cub {
            id,
            failed: false,
            disks,
            space,
            index: BlockIndex::new(),
            view: ScheduleView::new(),
            active: HashMap::default(),
            receipts: ReceiptIndex::default(),
            next_token: 0,
            shadows: HashMap::default(),
            mirrors_created: HashSet::default(),
            ins: InsertMachine::new(),
            ring: RingMachine::new(id, num_cubs),
            buffer_bytes_in_use: 0,
            cache_resident: std::collections::VecDeque::new(),
            cache_hits: Counter::new(),
            cache_lookups: Counter::new(),
            peak_buffer_bytes: 0,
            next_forward_pass: SimTime::ZERO,
            retired_log: Vec::new(),
            msgs_processed: Counter::new(),
            eof_sent: HashSet::default(),
            rejoined_at: None,
        }
    }

    // --- Content loading -------------------------------------------------

    /// Allocates space and indexes one primary block extent on a local
    /// disk. Called by the system while laying out a file.
    pub fn load_primary(
        &mut self,
        disk: DiskId,
        local: u32,
        file: FileId,
        block: BlockNum,
        size: tiger_sim::ByteSize,
    ) {
        let (offset, len) = self.space[local as usize]
            .allocate(tiger_layout::DiskRegion::Primary, size)
            .expect("primary region full while loading content");
        let entry = tiger_layout::IndexEntry::pack(offset, len).expect("extent packs");
        self.index
            .insert_primary(disk, file, block, entry)
            .expect("no duplicate blocks while loading");
    }

    /// Allocates and indexes one mirror-piece extent on a local disk.
    pub fn load_secondary(
        &mut self,
        disk: DiskId,
        local: u32,
        file: FileId,
        block: BlockNum,
        piece: u32,
        size: tiger_sim::ByteSize,
    ) {
        let (offset, len) = self.space[local as usize]
            .allocate(tiger_layout::DiskRegion::Secondary, size)
            .expect("secondary region full while loading content");
        let entry = tiger_layout::IndexEntry::pack(offset, len).expect("extent packs");
        self.index
            .insert_secondary(disk, file, block, piece, entry)
            .expect("no duplicate pieces while loading");
    }

    // --- Introspection ---------------------------------------------------

    /// The cub's bounded schedule view.
    pub fn view(&self) -> &ScheduleView {
        &self.view
    }

    /// Local disks (for load reporting).
    pub fn disks(&self) -> &[tiger_disk::Disk] {
        &self.disks
    }

    /// Mutable local disks (window resets).
    pub fn disks_mut(&mut self) -> &mut [tiger_disk::Disk] {
        &mut self.disks
    }

    /// Queued (not yet inserted) start requests.
    pub fn queued_starts(&self) -> usize {
        self.ins.queued()
    }

    /// Total schedule information currently held: live view entries,
    /// shadow (redundancy) records, active services, and the retired log.
    /// §4: "A necessary but insufficient condition for scalability is that
    /// participants' views be limited to a size that does not grow as a
    /// function of the scale of the system" — the boundedness test samples
    /// this.
    pub fn schedule_information_held(&self) -> usize {
        self.view.len() + self.shadows.len() + self.active.len() + self.retired_log.len()
    }

    /// Control messages processed per second over the current window.
    pub fn msgs_processed_rate(&self, now: SimTime) -> f64 {
        self.msgs_processed.window_rate(now)
    }

    /// Starts a fresh measurement window.
    pub fn reset_window(&mut self, now: SimTime) {
        self.msgs_processed.reset_window(now);
        for d in &mut self.disks {
            d.reset_window(now);
        }
    }

    /// Whether this cub currently believes `cub` is failed.
    pub fn believes_failed(&self, cub: CubId) -> bool {
        self.ring.believes_failed(cub)
    }

    // --- Ring helpers (delegated to the sans-io ring machine) -------------

    fn next_living(&self, from: CubId) -> Option<CubId> {
        self.ring.next_living(from)
    }

    fn prev_living(&self, from: CubId) -> Option<CubId> {
        self.ring.prev_living(from)
    }

    /// Whether this cub is the acting successor for `failed` (the first
    /// living cub after it).
    fn acting_successor_of(&self, failed: CubId) -> bool {
        self.ring.acting_successor_of(failed)
    }

    // --- Message entry point ----------------------------------------------

    /// Handles a delivered control message.
    pub fn on_message(&mut self, sh: &mut Shared, now: SimTime, msg: Message) {
        if self.failed {
            // Narrow spare-shield allowance: a spare holding ready shield
            // spans serves the mirror records the cover path routes to it,
            // while remaining a non-member for every other purpose (no
            // ring work, no forwarding, no primary service).
            if sh.shield.is_serving_spare(self.id) {
                match msg {
                    Message::ViewerState(vs) => self.on_shield_state(sh, now, vs),
                    Message::ViewerStates(ref batch) => {
                        for &vs in batch.iter() {
                            self.on_shield_state(sh, now, vs);
                        }
                    }
                    _ => {}
                }
            }
            return;
        }
        self.msgs_processed.incr();
        match msg {
            Message::ViewerState(vs) => self.on_viewer_state(sh, now, vs),
            Message::ViewerStates(batch) => {
                for &vs in batch.iter() {
                    self.on_viewer_state(sh, now, vs);
                }
            }
            Message::Deschedule { request, hops_left } => {
                self.on_deschedule(sh, now, request, hops_left);
            }
            Message::RoutedStart {
                client,
                instance,
                file,
                from_block,
                requested_at,
                redundant,
            } => {
                self.on_routed_start(
                    sh,
                    now,
                    PendingStart {
                        instance,
                        client,
                        file,
                        from_block: BlockNum(from_block),
                        requested_at,
                    },
                    redundant,
                );
            }
            Message::DeadmanPing { from } => {
                if self.ring.on_ping(from, now) {
                    // A ping from a cub this cub already declared dead:
                    // a stalled process resumed (a zombie). Tell it so it
                    // fences itself off — its streams were taken over,
                    // and two servers working the same schedule would
                    // double-deliver blocks.
                    let me = sh.cub_node(self.id);
                    let zombie = sh.cub_node(from);
                    sh.send_control(now, me, zombie, Message::FailureNotice { failed: from });
                }
            }
            Message::FailureNotice { failed } => {
                self.on_failure_notice(sh, now, failed);
            }
            Message::RejoinRequest { from } => {
                self.on_rejoin_request(sh, now, from);
            }
            Message::RejoinAck { from, failed } => {
                // A ring neighbour's bounded-view exchange: merge its
                // failure beliefs (this cub restarted knowing nothing).
                self.ring.heard_from(from, now);
                for &c in failed.iter() {
                    if c != self.id.raw() {
                        self.declare_failed(sh, now, CubId(c));
                    }
                }
            }
            Message::RetiredReplay { from, states } => {
                // The predecessor's retired-log tail, already advanced to
                // this cub's next due positions. Receipt idempotence
                // (already-served blocks, play-sequence supersession, late
                // guards) dedups against anything the normal circulation
                // also delivers.
                self.ring.heard_from(from, now);
                for &vs in states.iter() {
                    self.on_viewer_state(sh, now, vs);
                }
            }
            _ => {
                debug_assert!(false, "cub received unexpected message: {msg:?}");
            }
        }
    }

    /// A crashed neighbour announces it is back (§4 ownership insertion
    /// restores its slots; this message restores the ring bookkeeping).
    fn on_rejoin_request(&mut self, sh: &mut Shared, now: SimTime, from: CubId) {
        // The machine clears the belief, opens the rejoiner's
        // vulnerability horizon, and re-baselines deadman monitoring;
        // its outcome says what this driver owes the rejoiner.
        let Some(outcome) = self.ring.on_rejoin_request(from, now, &ring_cfg(sh)) else {
            return;
        };
        // Ring neighbours reply with their current beliefs so the
        // rejoiner learns about other failures without waiting a full
        // deadman timeout per dead cub.
        if outcome.should_ack {
            let failed = self.ring.failed_ids();
            let me = sh.cub_node(self.id);
            sh.send_control(
                now,
                me,
                sh.cub_node(from),
                Message::RejoinAck {
                    from: self.id,
                    failed: failed.into(),
                },
            );
        }
        if outcome.should_replay && sh.cfg.retired_replay {
            self.replay_retired_tail(sh, now, from);
        }
        if outcome.was_covering {
            self.grant_handback(sh, now, from);
        }
    }

    /// Sub-interval rejoin: as the rejoiner's ring predecessor, replay the
    /// retired-log tail — each recently serviced record skipped ahead to
    /// its next due position, the same arithmetic as the §2.3 gap bridge —
    /// filtered to positions that land on the rejoiner's disks. The
    /// rejoiner rebuilds its in-flight viewer state the moment the batch
    /// arrives instead of waiting up to a full forward interval for
    /// natural circulation; receipt idempotence makes over-sending safe.
    fn replay_retired_tail(&mut self, sh: &mut Shared, now: SimTime, to: CubId) {
        let bpt = sh.params.block_play_time();
        // Mirror-commitment frontier: a record reaches its owner — or,
        // while the owner is believed dead, the acting successor, which
        // mirror-commits it on receipt — up to the maximum legitimate
        // lead ahead of the position's due time (maxVStateLead plus one
        // block play time per bridged failure, the same bound the
        // acceptance staleness guard uses). Positions due inside that
        // lead were taken over before the rejoin's belief flip could
        // stop them; one forward interval of slack covers pass cadence
        // and the flip's propagation. Replay must not claim a position
        // the committed mirror chain will also serve.
        let clear_horizon = sh.cfg.max_vstate_lead
            + bpt.mul_u64(u64::from(sh.params.stripe().decluster) + 1)
            + sh.cfg.forward_interval;
        let states = crate::recovery::replay_batch(
            &self.retired_log,
            now,
            bpt,
            clear_horizon,
            self.ring.num_cubs(),
            |file, pos| sh.catalog.locate(file, pos).map(|loc| loc.cub),
            |c| self.ring.believes_failed(c),
            to,
        );
        sh.tracer.record(
            now,
            self.id.raw(),
            TraceEvent::RetiredReplay {
                to: to.raw(),
                count: states.len() as u32,
            },
        );
        if !states.is_empty() {
            let me = sh.cub_node(self.id);
            let batch: std::sync::Arc<[ViewerState]> = states.into();
            sh.send_control(
                now,
                me,
                sh.cub_node(to),
                Message::RetiredReplay {
                    from: self.id,
                    states: batch,
                },
            );
        }
        // Aged active entries due to forward into the rejoiner should go
        // now, not at the next periodic cadence.
        sh.queue.schedule(
            now + SimDuration::from_millis(1),
            Event::ForwardPass { cub: self.id },
        );
    }

    /// Mirror catch-up (the covering partner's half of a rejoin): hand the
    /// rejoiner every shadowed record for its disks whose block this cub
    /// has *not* already driven to the mirrors — those blocks' pieces are
    /// in flight and a primary re-send would serve the slot twice. A
    /// bounded window then keeps relaying freshly shadowed records until
    /// the rejoiner's own lead pipeline is warm (one minVStateLead).
    fn grant_handback(&mut self, sh: &mut Shared, now: SimTime, to: CubId) {
        let grant: Vec<ViewerState> = self
            .shadows
            .values()
            .filter(|s| {
                // Only fresh records (send time still ahead): a stale
                // pre-failure shadow carries an old position, and replaying
                // it into the rejoiner's empty view would re-serve a block
                // the mirrors already delivered.
                s.due > now
                    && sh
                        .catalog
                        .locate(s.vs.file, s.vs.position)
                        .is_some_and(|loc| loc.cub == to)
                    && !self.mirrors_created.contains(&(
                        s.vs.slot,
                        s.vs.instance,
                        s.vs.position.raw(),
                    ))
            })
            .map(|s| s.vs)
            .collect();
        sh.tracer.record(
            now,
            self.id.raw(),
            TraceEvent::RejoinGrant {
                to: to.raw(),
                count: grant.len() as u32,
            },
        );
        self.ring.open_handback(to, now, &ring_cfg(sh));
        if !grant.is_empty() {
            let me = sh.cub_node(self.id);
            let batch: std::sync::Arc<[ViewerState]> = grant.into();
            sh.send_control(now, me, sh.cub_node(to), Message::ViewerStates(batch));
        }
    }

    // --- Viewer-state handling (§4.1.1) -----------------------------------

    fn on_viewer_state(&mut self, sh: &mut Shared, now: SimTime, vs: ViewerState) {
        // Any sighting of a viewer state supersedes a redundant start we
        // might be holding for the same instance.
        self.ins.superseded_by_sighting(&vs.instance);

        match vs.kind {
            StreamKind::Primary => self.on_primary_state(sh, now, vs),
            StreamKind::Mirror { failed_disk, piece } => {
                self.on_mirror_state(sh, now, vs, failed_disk, piece);
            }
            StreamKind::Coded { home_disk, shard } => {
                self.on_coded_state(sh, now, vs, home_disk, shard);
            }
        }
    }

    fn on_primary_state(&mut self, sh: &mut Shared, now: SimTime, vs: ViewerState) {
        let Some(meta) = sh.catalog.get(vs.file).copied() else {
            return;
        };
        if vs.position.raw() >= meta.num_blocks {
            // End of file: the viewer leaves the schedule (§4.1.2).
            if self.eof_sent.insert(vs.instance) {
                sh.send_to_controllers(
                    now,
                    sh.cub_node(self.id),
                    Message::ViewerFinished {
                        instance: vs.instance,
                    },
                );
            }
            return;
        }
        let loc = sh
            .catalog
            .locate(vs.file, vs.position)
            .expect("position checked in range");

        // §4.1.2 idempotence, per-instance monotonicity: a state whose
        // block this cub already serviced (or is servicing a later block
        // of) is a wrapped, re-driven, or duplicated stale copy. Accepting
        // it would put a second, lagging copy of the stream into
        // circulation that re-delivers every block.
        if self.already_served(&vs) {
            let (slot, viewer, inc) = vkey(&vs);
            sh.tracer.record(
                now,
                self.id.raw(),
                TraceEvent::VsDuplicate {
                    slot,
                    viewer,
                    inc,
                    play_seq: vs.play_seq,
                },
            );
            return;
        }

        if loc.cub == self.id {
            self.accept_service(sh, now, vs, loc.disk);
        } else if self.ring.believes_failed(loc.cub) && self.acting_successor_of(loc.cub) {
            self.cover_failed_disk(sh, now, vs, loc.disk);
        } else {
            // Redundancy copy: shadow it until it is superseded or stale.
            let (slot, viewer, inc) = vkey(&vs);
            sh.tracer.record(
                now,
                self.id.raw(),
                TraceEvent::VsShadow { slot, viewer, inc },
            );
            let due = sh.params.slot_send_time(loc.disk, vs.slot, now);
            let entry = self
                .shadows
                .entry((vs.slot, vs.instance))
                .or_insert(Shadow { vs, due });
            if vs.play_seq >= entry.vs.play_seq {
                *entry = Shadow { vs, due };
            }
            // Open hand-back window: relay records for the rejoiner's
            // disks straight to it while its own lead pipeline warms up
            // (receipt idempotence makes the extra copy safe).
            if self.ring.handback_relay(loc.cub, now) {
                let me = sh.cub_node(self.id);
                sh.send_control(now, me, sh.cub_node(loc.cub), Message::ViewerState(vs));
            }
        }
    }

    /// Begins normal service of `vs` on local disk `disk`.
    fn accept_service(&mut self, sh: &mut Shared, now: SimTime, vs: ViewerState, disk: DiskId) {
        let me = self.id.raw();
        let (slot, viewer, inc) = vkey(&vs);
        match self.view.apply_viewer_state(vs, now) {
            ViewApply::Inserted | ViewApply::Updated => {}
            ViewApply::Duplicate => {
                sh.tracer.record(
                    now,
                    me,
                    TraceEvent::VsDuplicate {
                        slot,
                        viewer,
                        inc,
                        play_seq: vs.play_seq,
                    },
                );
                return;
            }
            ViewApply::Blocked => {
                sh.tracer
                    .record(now, me, TraceEvent::VsBlocked { slot, viewer, inc });
                return;
            }
            ViewApply::Conflict => {
                sh.tracer
                    .record(now, me, TraceEvent::VsConflict { slot, viewer, inc });
                sh.metrics.violations.push(format!(
                    "{}: conflicting viewer state for {} in {}",
                    self.id, vs.instance, vs.slot
                ));
                return;
            }
        }
        let key = ServiceKey::of(&vs);
        if self.has_service(&key) {
            // Already servicing this entry (double-forward duplicate).
            sh.tracer.record(
                now,
                me,
                TraceEvent::VsDuplicate {
                    slot,
                    viewer,
                    inc,
                    play_seq: vs.play_seq,
                },
            );
            return;
        }
        let send_at = sh.params.slot_send_time(disk, vs.slot, now);
        // A record can only legitimately be up to maxVStateLead early plus
        // one block play time per bridged failure (the cover chain advances
        // past each dead disk instantly); a send time further out means
        // the record arrived *after* its due time and wrapped to the next
        // schedule lap. §4.1.2 prescribes discarding such late arrivals
        // (the viewer is "spontaneously descheduled" in the worst case).
        // On rings too short to tell the two cases apart, skip the guard.
        let max_legit_lead = sh.cfg.max_vstate_lead
            + sh.params
                .block_play_time()
                .mul_u64(u64::from(sh.params.stripe().decluster) + 1);
        if max_legit_lead < sh.params.schedule_len()
            && send_at.saturating_since(now) > max_legit_lead
        {
            sh.tracer.record(
                now,
                me,
                TraceEvent::VsLate {
                    slot,
                    viewer,
                    inc,
                    play_seq: vs.play_seq,
                },
            );
            self.view.retire(vs.slot, &vs);
            sh.metrics.loss.failover_lost += 1;
            return;
        }
        sh.tracer.record(
            now,
            me,
            TraceEvent::VsAccept {
                slot,
                viewer,
                inc,
                play_seq: vs.play_seq,
                position: u64::from(vs.position.raw()),
            },
        );
        if self.rejoined_at.take().is_some() {
            // First primary acceptance of this cub's new life: the rejoin
            // has converged (the ring is feeding it schedule state again).
            sh.tracer
                .record(now, me, TraceEvent::RejoinDone { cub: me });
        }
        let meta = sh.catalog.get(vs.file).copied().expect("file known");
        // Under the coded backend the home's primary extent is one shard
        // (1/k of the block): a shorter read, a shorter paced send.
        let (payload, send_duration) = match &sh.coded {
            Some(c) => (
                meta.payload_size
                    .div_u64_ceil(u64::from(c.placement.k()))
                    .as_bytes(),
                sh.params
                    .block_play_time()
                    .div_u64(u64::from(c.placement.k())),
            ),
            None => (meta.payload_size.as_bytes(), sh.params.block_play_time()),
        };
        let token = self.alloc_token();
        self.active.insert(
            token,
            Active::new(
                vs,
                sh.params.stripe().local_index_of(disk),
                send_at,
                send_duration,
                payload,
                false,
            ),
        );
        self.receipts.insert_active(key);
        // §3.1: "the disks run at least one block service time ahead of the
        // schedule. Usually, they run a little earlier, trading off buffer
        // usage to cover for slight variations in disk … performance."
        // Steady-state records arrive minVStateLead+ early, so their reads
        // go out two scheduling leads ahead; a freshly inserted viewer's
        // first read is issued immediately (it has only the scheduling
        // lead).
        let read_at = send_at
            .saturating_sub(sh.cfg.scheduling_lead.mul_u64(2))
            .max(now);
        sh.queue.schedule(
            read_at,
            Event::ReadIssue {
                cub: self.id,
                token,
            },
        );
        sh.queue.schedule(
            send_at,
            Event::SendDue {
                cub: self.id,
                token,
            },
        );
        sh.metrics.loss.blocks_scheduled += 1;
        if sh.coded.is_some() {
            self.fan_out_coded(sh, now, vs, disk, send_at);
        }
        // If waiting for the next periodic pass would let the successor's
        // lead fall below minVStateLead ("Cubs endeavor to keep the
        // schedule updated at least minVStateLead into the future"),
        // forward promptly instead of batching. This is what keeps freshly
        // inserted streams alive while their lead pipeline builds up.
        let successor_breach =
            (send_at + sh.params.block_play_time()).saturating_sub(sh.cfg.min_vstate_lead);
        if successor_breach < self.next_forward_pass {
            sh.queue.schedule(
                now + SimDuration::from_millis(1),
                Event::ForwardPass { cub: self.id },
            );
        }
    }

    /// Acting-successor work for a viewer state addressed to a failed disk:
    /// create mirror viewer states for its declustered pieces, and keep the
    /// record propagating (§4.1.1, Figure 5).
    fn cover_failed_disk(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        vs: ViewerState,
        failed_disk: DiskId,
    ) {
        if sh.coded.is_some() {
            self.cover_failed_disk_coded(sh, now, vs, failed_disk);
            return;
        }
        let created_key = (vs.slot, vs.instance, vs.position.raw());
        if self.mirrors_created.insert(created_key) {
            let (slot, viewer, inc) = vkey(&vs);
            sh.tracer.record(
                now,
                self.id.raw(),
                TraceEvent::MirrorCreate {
                    slot,
                    viewer,
                    inc,
                    failed_disk: failed_disk.raw(),
                },
            );
            sh.metrics.loss.blocks_scheduled += 1;
            // "When the succeeding cub makes this decision, it creates a
            // special kind of viewer state called a mirror viewer state"
            // (§4.1.1). Mirror viewer states then propagate along the ring
            // of piece-holding cubs "much like normal ones": each holder
            // serves its piece and forwards the record for the next piece.
            let mut mvs = vs;
            mvs.kind = StreamKind::Mirror {
                failed_disk,
                piece: 0,
            };
            self.on_mirror_state(sh, now, mvs, failed_disk, 0);
        }
        // Continue normal propagation past the failed machine: the next
        // block is due on the disk after the failed one, which may be ours
        // or (with consecutive failures) dead as well — recurse.
        self.on_primary_state(sh, now, vs.advanced(1));
    }

    /// Accepts mirror service for the declustered piece this cub holds,
    /// then forwards the record toward the next piece's holder.
    ///
    /// The embedded `piece` is the *next expected* piece; the receiving cub
    /// re-derives which piece it actually holds from ring geometry (with
    /// consecutive failures the expected holder may be dead, in which case
    /// the skipped pieces are unrecoverable, §2.3).
    fn on_mirror_state(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        mut vs: ViewerState,
        failed_disk: DiskId,
        expected_piece: u32,
    ) {
        let stripe = sh.params.stripe();
        // Which piece of this failed disk lives on one of our disks?
        // Consecutive disks are on consecutive cubs, so at most one does.
        let Some(piece) = (0..stripe.decluster)
            .find(|&i| stripe.cub_of(stripe.disk_after(failed_disk, i + 1)) == self.id)
        else {
            return; // No piece of this block here (over-forwarded copy).
        };
        if piece < expected_piece {
            return; // A double-forwarded duplicate for a piece already done.
        }
        // Pieces between the expected one and ours whose holders are dead
        // are unrecoverable (double-forwarded copies also skip ahead, but
        // those skipped holders are alive and serve from their own copies —
        // only dead holders count as losses) — unless the spare shield
        // holds ready copies of the span, in which case the dead holder's
        // record routes to the serving spare instead.
        for j in expected_piece..piece {
            let holder_cub = stripe.cub_of(stripe.disk_after(failed_disk, j + 1));
            if self.ring.believes_failed(holder_cub)
                && !self.route_to_shield(sh, now, vs, failed_disk, j)
            {
                sh.metrics.loss.failover_lost += 1;
            }
        }
        let holder = stripe.disk_after(failed_disk, piece + 1);
        vs.kind = StreamKind::Mirror { failed_disk, piece };
        match self.view.apply_viewer_state(vs, now) {
            ViewApply::Inserted | ViewApply::Updated => {}
            _ => return,
        }
        let key = ServiceKey::of(&vs);
        if self.has_service(&key) {
            return;
        }
        // Piece i goes out i/decluster of a block play time after the
        // block's nominal send time (§4.1.1 mirror timing).
        let block_due = sh.params.slot_send_time(failed_disk, vs.slot, now);
        // Same staleness rule as primary acceptance: a "next" due time more
        // than the maximum legitimate lead away means the block's real due
        // time already passed (it wrapped to the next lap) — the block is
        // lost, not a minute late.
        let max_legit_lead = sh.cfg.max_vstate_lead
            + sh.params
                .block_play_time()
                .mul_u64(u64::from(stripe.decluster) + 1);
        let (slot, viewer, inc) = vkey(&vs);
        if max_legit_lead < sh.params.schedule_len()
            && block_due.saturating_since(now) > max_legit_lead
        {
            sh.tracer.record(
                now,
                self.id.raw(),
                TraceEvent::VsLate {
                    slot,
                    viewer,
                    inc,
                    play_seq: vs.play_seq,
                },
            );
            sh.metrics.loss.failover_lost += 1;
            self.view.retire(vs.slot, &vs);
            return;
        }
        let piece_gap = sh
            .params
            .block_play_time()
            .div_u64(u64::from(stripe.decluster));
        let send_at = block_due + piece_gap.mul_u64(u64::from(piece));
        if send_at <= now + SimDuration::from_millis(5) {
            // Too late to read and send this piece.
            sh.tracer.record(
                now,
                self.id.raw(),
                TraceEvent::VsLate {
                    slot,
                    viewer,
                    inc,
                    play_seq: vs.play_seq,
                },
            );
            sh.metrics.loss.failover_lost += 1;
            self.view.retire(vs.slot, &vs);
            return;
        }
        sh.tracer.record(
            now,
            self.id.raw(),
            TraceEvent::MirrorAccept {
                slot,
                viewer,
                inc,
                piece,
            },
        );
        let meta = sh.catalog.get(vs.file).copied().expect("file known");
        let piece_payload = meta.payload_size.div_u64_ceil(u64::from(stripe.decluster));
        let token = self.alloc_token();
        self.active.insert(
            token,
            Active::new(
                vs,
                stripe.local_index_of(holder),
                send_at,
                piece_gap,
                piece_payload.as_bytes(),
                true, // Mirror records forward immediately (below), not in the periodic pass.
            ),
        );
        self.receipts.insert_active(key);
        // Mirror reads land on disks already running near saturation; issue
        // them extra-early ("the cubs take these timing differences into
        // consideration", §4.1.1) to ride out queueing convoys.
        let read_at = send_at
            .saturating_sub(sh.cfg.scheduling_lead.mul_u64(3))
            .max(now);
        sh.queue.schedule(
            read_at,
            Event::ReadIssue {
                cub: self.id,
                token,
            },
        );
        sh.queue.schedule(
            send_at,
            Event::SendDue {
                cub: self.id,
                token,
            },
        );

        // Forward the mirror record toward the next piece's holder, doubly
        // (mirror viewer states propagate "much like normal ones").
        if piece + 1 < stripe.decluster {
            let mut next = vs;
            next.kind = StreamKind::Mirror {
                failed_disk,
                piece: piece + 1,
            };
            let me = sh.cub_node(self.id);
            if let Some(succ) = self.next_living(self.id) {
                sh.tracer.record(
                    now,
                    self.id.raw(),
                    TraceEvent::VsForward {
                        dst: succ.raw(),
                        count: 1,
                        second: false,
                    },
                );
                sh.send_control(now, me, sh.cub_node(succ), Message::ViewerState(next));
                if sh.cfg.forwarding == ForwardingPolicy::Double {
                    if let Some(second) = self.next_living(succ) {
                        if second != self.id {
                            sh.tracer.record(
                                now,
                                self.id.raw(),
                                TraceEvent::VsForward {
                                    dst: second.raw(),
                                    count: 1,
                                    second: true,
                                },
                            );
                            sh.send_control(
                                now,
                                me,
                                sh.cub_node(second),
                                Message::ViewerState(next),
                            );
                        }
                    }
                }
            }
        }
        // Dead holders *ahead* of this piece whose spans the shield
        // holds: route their records to the serving spare now. The living
        // chain never reaches pieces past its last living holder (the
        // successor outside the span drops the record), and for mid-chain
        // dead holders the next living holder's receive loop routes a
        // duplicate — the spare's by-key table dedups it.
        for j in piece + 1..stripe.decluster {
            let holder_cub = stripe.cub_of(stripe.disk_after(failed_disk, j + 1));
            if self.ring.believes_failed(holder_cub) {
                self.route_to_shield(sh, now, vs, failed_disk, j);
            }
        }
    }

    /// Routes a dead holder's mirror record to the spare shielding its
    /// span, if one is ready. Returns whether the record was routed.
    fn route_to_shield(
        &self,
        sh: &mut Shared,
        now: SimTime,
        mut vs: ViewerState,
        failed_disk: DiskId,
        piece: u32,
    ) -> bool {
        let Some(spare) = sh.shield.serving_spare(failed_disk, piece) else {
            return false;
        };
        vs.kind = StreamKind::Mirror { failed_disk, piece };
        let me = sh.cub_node(self.id);
        sh.send_control(now, me, sh.cub_node(spare), Message::ViewerState(vs));
        true
    }

    /// Shield service entry: a record routed to this spare because a
    /// mirror piece's normal holder is dead. Only records for spans this
    /// spare actually holds ready copies of are served; anything else is
    /// an over-forwarded duplicate and drops.
    fn on_shield_state(&mut self, sh: &mut Shared, now: SimTime, vs: ViewerState) {
        let StreamKind::Mirror { failed_disk, piece } = vs.kind else {
            return;
        };
        if sh.shield.serving_spare(failed_disk, piece) != Some(self.id) {
            return;
        }
        self.serve_shielded_piece(sh, now, vs, failed_disk, piece);
    }

    /// Serves one shielded mirror piece in a dead holder's place: the
    /// same acceptance, timing, and too-late rules as
    /// [`Self::on_mirror_state`], minus the span-geometry derivation
    /// (the spare is not in the span — the routed record already names
    /// its piece) and minus forwarding (the living holders' chain keeps
    /// propagating the record; the spare only fills dead holders' gaps).
    fn serve_shielded_piece(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        vs: ViewerState,
        failed_disk: DiskId,
        piece: u32,
    ) {
        let stripe = sh.params.stripe();
        match self.view.apply_viewer_state(vs, now) {
            ViewApply::Inserted | ViewApply::Updated => {}
            _ => return,
        }
        let key = ServiceKey::of(&vs);
        if self.has_service(&key) {
            return;
        }
        let block_due = sh.params.slot_send_time(failed_disk, vs.slot, now);
        let max_legit_lead = sh.cfg.max_vstate_lead
            + sh.params
                .block_play_time()
                .mul_u64(u64::from(stripe.decluster) + 1);
        let (slot, viewer, inc) = vkey(&vs);
        let piece_gap = sh
            .params
            .block_play_time()
            .div_u64(u64::from(stripe.decluster));
        let send_at = block_due + piece_gap.mul_u64(u64::from(piece));
        let wrapped = max_legit_lead < sh.params.schedule_len()
            && block_due.saturating_since(now) > max_legit_lead;
        if wrapped || send_at <= now + SimDuration::from_millis(5) {
            sh.tracer.record(
                now,
                self.id.raw(),
                TraceEvent::VsLate {
                    slot,
                    viewer,
                    inc,
                    play_seq: vs.play_seq,
                },
            );
            sh.metrics.loss.failover_lost += 1;
            self.view.retire(vs.slot, &vs);
            return;
        }
        sh.tracer.record(
            now,
            self.id.raw(),
            TraceEvent::MirrorAccept {
                slot,
                viewer,
                inc,
                piece,
            },
        );
        let meta = sh.catalog.get(vs.file).copied().expect("file known");
        let piece_payload = meta.payload_size.div_u64_ceil(u64::from(stripe.decluster));
        let token = self.alloc_token();
        self.active.insert(
            token,
            Active::new(
                vs,
                // The copy's extent lives on the spare's local disk that
                // mirrors the failed home's local index.
                stripe.local_index_of(failed_disk),
                send_at,
                piece_gap,
                piece_payload.as_bytes(),
                true, // Shield records never enter the forward pass.
            ),
        );
        self.receipts.insert_active(key);
        let read_at = send_at
            .saturating_sub(sh.cfg.scheduling_lead.mul_u64(3))
            .max(now);
        sh.queue.schedule(
            read_at,
            Event::ReadIssue {
                cub: self.id,
                token,
            },
        );
        sh.queue.schedule(
            send_at,
            Event::SendDue {
                cub: self.id,
                token,
            },
        );
    }

    // --- Coded-backend service (tiger-coded) --------------------------------

    /// Coded-backend fan-out, run by the home after it accepts a block's
    /// primary record: the home's own entry serves shard 0 from its
    /// primary region; the other `k − 1` of the block's `k` sends are
    /// assigned to holders chosen from the `2k − 1` remote shard disks by
    /// the per-disk load index — mirroring's fixed partner lookup becomes
    /// an admission-aware choice. Chosen holders are driven by unicast
    /// coded viewer states, and the block's send window is reserved on
    /// every participating disk so later choices see this one's load.
    fn fan_out_coded(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        vs: ViewerState,
        home: DiskId,
        block_due: SimTime,
    ) {
        let (k, n) = match sh.coded.as_ref() {
            Some(c) => (c.placement.k(), c.placement.n()),
            None => return,
        };
        let stripe = sh.params.stripe();
        // Rank candidates: believed-alive holders, least loaded at the
        // block's ring position first, shard index breaking ties. Every
        // input is deterministic, so the choice is too.
        let mut ranked: Vec<(u64, u32)> = Vec::new();
        if let Some(c) = sh.coded.as_ref() {
            for j in 1..n {
                let d = stripe.disk_after(home, j);
                if self.ring.believes_failed(stripe.cub_of(d)) {
                    continue;
                }
                ranked.push((c.load_at(d, block_due).bits_per_sec(), j));
            }
        }
        ranked.sort_unstable();
        let want = k as usize - 1;
        if ranked.len() < want {
            // Too few surviving holders to assemble the block: the sends
            // that do go out cannot complete it at the client.
            sh.metrics.loss.failover_lost += 1;
        }
        ranked.truncate(want);
        let key = coded_load_key(&vs);
        if let Some(c) = sh.coded.as_mut() {
            c.reserve(home, key, block_due, vs.bitrate);
            for &(_, j) in &ranked {
                let d = stripe.disk_after(home, j);
                c.reserve(d, key, block_due, vs.bitrate);
            }
        }
        let me = sh.cub_node(self.id);
        for (_, j) in ranked {
            let mut cvs = vs;
            cvs.kind = StreamKind::Coded {
                home_disk: home,
                shard: j,
            };
            let holder_cub = stripe.cub_of(stripe.disk_after(home, j));
            if holder_cub == self.id {
                self.on_coded_state(sh, now, cvs, home, j);
            } else {
                sh.send_control(now, me, sh.cub_node(holder_cub), Message::ViewerState(cvs));
            }
        }
    }

    /// Acting-successor cover under the coded backend: shard 0 died with
    /// the home, so pick `k` of the block's surviving remote shard
    /// holders — by the same load-ranked choice the home makes in healthy
    /// operation — and drive them with coded viewer states, then keep the
    /// record propagating past the failed machine.
    fn cover_failed_disk_coded(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        vs: ViewerState,
        failed_disk: DiskId,
    ) {
        let created_key = (vs.slot, vs.instance, vs.position.raw());
        if self.mirrors_created.insert(created_key) {
            let (slot, viewer, inc) = vkey(&vs);
            sh.tracer.record(
                now,
                self.id.raw(),
                TraceEvent::CodedRepair {
                    slot,
                    viewer,
                    inc,
                    failed_disk: failed_disk.raw(),
                },
            );
            sh.metrics.loss.blocks_scheduled += 1;
            let (k, n) = sh
                .coded
                .as_ref()
                .map(|c| (c.placement.k(), c.placement.n()))
                .expect("coded mode");
            let stripe = sh.params.stripe();
            let block_due = sh.params.slot_send_time(failed_disk, vs.slot, now);
            let mut ranked: Vec<(u64, u32)> = Vec::new();
            if let Some(c) = sh.coded.as_ref() {
                for j in 1..n {
                    let d = stripe.disk_after(failed_disk, j);
                    if self.ring.believes_failed(stripe.cub_of(d)) {
                        continue;
                    }
                    ranked.push((c.load_at(d, block_due).bits_per_sec(), j));
                }
            }
            ranked.sort_unstable();
            if ranked.len() < k as usize {
                // Fewer than k surviving shards: the block is gone (the
                // code's loss window), not worth partial sends.
                sh.metrics.loss.failover_lost += 1;
            } else {
                ranked.truncate(k as usize);
                let me = sh.cub_node(self.id);
                for (_, j) in ranked {
                    let mut cvs = vs;
                    cvs.kind = StreamKind::Coded {
                        home_disk: failed_disk,
                        shard: j,
                    };
                    let holder_cub = stripe.cub_of(stripe.disk_after(failed_disk, j));
                    if holder_cub == self.id {
                        self.on_coded_state(sh, now, cvs, failed_disk, j);
                    } else {
                        sh.send_control(
                            now,
                            me,
                            sh.cub_node(holder_cub),
                            Message::ViewerState(cvs),
                        );
                    }
                }
            }
        }
        // Continue normal propagation past the failed machine (§2.3), the
        // same advance the mirror cover makes.
        self.on_primary_state(sh, now, vs.advanced(1));
    }

    /// Accepts unicast coded-shard service: this cub holds `shard` of the
    /// block homed on `home_disk` and was chosen by the block's
    /// coordinator (the home in healthy operation, the acting successor
    /// after a failure) to deliver it.
    ///
    /// Unlike mirror viewer states, coded records do not chain along a
    /// piece ring: the coordinator picked the exact holders, so each
    /// record is final and never forwarded.
    fn on_coded_state(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        mut vs: ViewerState,
        home_disk: DiskId,
        shard: u32,
    ) {
        let Some((k, n)) = sh
            .coded
            .as_ref()
            .map(|c| (c.placement.k(), c.placement.n()))
        else {
            return; // Stray coded record under mirroring.
        };
        if shard == 0 || shard >= n {
            return;
        }
        let stripe = sh.params.stripe();
        let holder = stripe.disk_after(home_disk, shard);
        if stripe.cub_of(holder) != self.id {
            return; // Misrouted copy.
        }
        vs.kind = StreamKind::Coded { home_disk, shard };
        match self.view.apply_viewer_state(vs, now) {
            ViewApply::Inserted | ViewApply::Updated => {}
            _ => return,
        }
        let key = ServiceKey::of(&vs);
        if self.has_service(&key) {
            return;
        }
        let block_due = sh.params.slot_send_time(home_disk, vs.slot, now);
        let (slot, viewer, inc) = vkey(&vs);
        // Same staleness rule as primary and mirror acceptance.
        let max_legit_lead = sh.cfg.max_vstate_lead
            + sh.params
                .block_play_time()
                .mul_u64(u64::from(stripe.decluster) + 1);
        if max_legit_lead < sh.params.schedule_len()
            && block_due.saturating_since(now) > max_legit_lead
        {
            sh.tracer.record(
                now,
                self.id.raw(),
                TraceEvent::VsLate {
                    slot,
                    viewer,
                    inc,
                    play_seq: vs.play_seq,
                },
            );
            sh.metrics.loss.failover_lost += 1;
            self.view.retire(vs.slot, &vs);
            return;
        }
        // Shard sends stagger across the block play time by shard index,
        // so whichever subset the coordinator picked, every send fits in
        // the block's play window: the highest possible shard (2k − 1)
        // starts at bpt − bpt/k and ends exactly at block_due + bpt.
        let shard_time = sh.params.block_play_time().div_u64(u64::from(k));
        let gap = (sh.params.block_play_time() - shard_time).div_u64(u64::from(n - 1));
        let send_at = block_due + gap.mul_u64(u64::from(shard));
        if send_at <= now + SimDuration::from_millis(5) {
            // Too late to read and send this shard.
            sh.tracer.record(
                now,
                self.id.raw(),
                TraceEvent::VsLate {
                    slot,
                    viewer,
                    inc,
                    play_seq: vs.play_seq,
                },
            );
            sh.metrics.loss.failover_lost += 1;
            self.view.retire(vs.slot, &vs);
            return;
        }
        if self.ring.believes_failed(stripe.cub_of(home_disk)) {
            // Degraded service: this shard stands in for data whose home
            // machine is down.
            sh.tracer.record(
                now,
                self.id.raw(),
                TraceEvent::DegradedPieceRead {
                    slot,
                    viewer,
                    inc,
                    shard,
                },
            );
        }
        let meta = sh.catalog.get(vs.file).copied().expect("file known");
        let shard_payload = meta.payload_size.div_u64_ceil(u64::from(k));
        let token = self.alloc_token();
        self.active.insert(
            token,
            Active::new(
                vs,
                stripe.local_index_of(holder),
                send_at,
                shard_time,
                shard_payload.as_bytes(),
                true, // Coded records never forward: the fan-out is complete.
            ),
        );
        self.receipts.insert_active(key);
        // Like mirror reads: issue extra-early to ride out queueing
        // convoys on disks already running near saturation.
        let read_at = send_at
            .saturating_sub(sh.cfg.scheduling_lead.mul_u64(3))
            .max(now);
        sh.queue.schedule(
            read_at,
            Event::ReadIssue {
                cub: self.id,
                token,
            },
        );
        sh.queue.schedule(
            send_at,
            Event::SendDue {
                cub: self.id,
                token,
            },
        );
    }

    // --- Disk service ------------------------------------------------------

    /// Issues the disk read for `token` (one scheduling lead early).
    ///
    /// Reads are issued as early as the buffer cache allows ("trading off
    /// buffer usage to cover for slight variations in disk and I/O system
    /// performance", §3.1): when the 20 MB cache is full, the read is
    /// retried shortly, down to a hard floor of one scheduling lead before
    /// the send.
    pub fn on_read_issue(&mut self, sh: &mut Shared, now: SimTime, token: ServiceToken) {
        if self.failed && !sh.shield.is_serving_spare(self.id) {
            return;
        }
        let Some(entry) = self.active.get_mut(&token) else {
            return; // Descheduled before the read was due.
        };
        if entry.dropped || entry.read_issued {
            return;
        }
        let must_issue_by = entry.send_at.saturating_sub(sh.cfg.scheduling_lead);
        if now < must_issue_by
            && self.buffer_bytes_in_use + u64::from(sh.cfg.block_size().as_bytes() as u32)
                > sh.cfg.buffer_cache.as_bytes()
        {
            // Cache full: retry soon, no later than the hard floor.
            let retry = (now + SimDuration::from_millis(50)).min(must_issue_by);
            sh.queue.schedule(
                retry,
                Event::ReadIssue {
                    cub: self.id,
                    token,
                },
            );
            return;
        }
        let stripe = sh.params.stripe();
        let local = entry.disk_local;
        let disk_id = match entry.vs.kind {
            // A shield-serving spare's copies are keyed under the failed
            // home disk: spares have no ids in the stripe's disk
            // namespace (only their physical `local` index is real).
            StreamKind::Mirror { failed_disk, .. } if self.failed => failed_disk,
            _ => stripe.disk_of(self.id, local),
        };
        if entry.vs.kind == StreamKind::Primary {
            // Buffer-cache check (§5 measured <0.05% hits: staggered
            // viewers rarely re-read a block while it is still resident).
            self.cache_lookups.incr();
            let key = (disk_id, entry.vs.file, entry.vs.position);
            if self.cache_resident.contains(&key) {
                self.cache_hits.incr();
                entry.read_ready = true;
                return;
            }
        }
        let lookup = match entry.vs.kind {
            StreamKind::Primary => {
                self.index
                    .lookup_primary(disk_id, entry.vs.file, entry.vs.position)
            }
            StreamKind::Mirror { piece, .. } => {
                self.index
                    .lookup_secondary(disk_id, entry.vs.file, entry.vs.position, piece)
            }
            StreamKind::Coded { shard, .. } => {
                self.index
                    .lookup_secondary(disk_id, entry.vs.file, entry.vs.position, shard)
            }
        };
        let Some(extent) = lookup else {
            // Content not on this disk (stale record after a restripe).
            // The block is lost but the viewer continues.
            entry.missed = true;
            sh.metrics.loss.failover_lost += 1;
            return;
        };
        let req = DiskRequest {
            offset: extent.offset(),
            len: extent.length(),
            kind: match entry.vs.kind {
                StreamKind::Primary => RequestKind::Primary,
                // Coded shards 1..2k live in the secondary region too.
                StreamKind::Mirror { .. } | StreamKind::Coded { .. } => RequestKind::Mirror,
            },
        };
        match self.disks[local as usize].submit(now, req) {
            Ok(done) => {
                let (slot, viewer, inc) = vkey(&entry.vs);
                sh.tracer.record(
                    now,
                    self.id.raw(),
                    TraceEvent::DiskIssue {
                        slot,
                        viewer,
                        inc,
                        disk: disk_id.raw(),
                    },
                );
                entry.read_issued = true;
                entry.buffer_held = true;
                entry.read_bytes = req.len.as_bytes();
                self.buffer_bytes_in_use += entry.read_bytes;
                self.peak_buffer_bytes = self.peak_buffer_bytes.max(self.buffer_bytes_in_use);
                if entry.vs.kind == StreamKind::Primary {
                    let key = (disk_id, entry.vs.file, entry.vs.position);
                    self.cache_resident.push_back(key);
                    let max_resident = (sh.cfg.buffer_cache.as_bytes()
                        / sh.cfg.block_size().as_bytes().max(1))
                        as usize;
                    while self.cache_resident.len() > max_resident {
                        self.cache_resident.pop_front();
                    }
                }
                sh.queue.schedule(
                    done,
                    Event::DiskDone {
                        cub: self.id,
                        token,
                    },
                );
            }
            Err(DiskError::Failed) => {
                entry.missed = true;
                sh.metrics.loss.failover_lost += 1;
            }
            Err(DiskError::Transient) => {
                // Injected transient read error: the block is lost (no
                // retry path — the send deadline leaves no slack for one),
                // but the disk and the viewer both continue.
                entry.missed = true;
                sh.metrics.loss.failover_lost += 1;
                let (slot, viewer, inc) = vkey(&entry.vs);
                sh.tracer.record(
                    now,
                    self.id.raw(),
                    TraceEvent::DiskTransient {
                        slot,
                        viewer,
                        inc,
                        disk: disk_id.raw(),
                    },
                );
            }
            Err(DiskError::OutOfRange) => {
                unreachable!("index produced an out-of-range extent");
            }
        }
    }

    /// Handles a disk-read completion.
    pub fn on_disk_done(&mut self, sh: &mut Shared, now: SimTime, token: ServiceToken) {
        if self.failed && !sh.shield.is_serving_spare(self.id) {
            return;
        }
        let Some(entry) = self.active.get_mut(&token) else {
            // Unreachable in a correct run: entries with outstanding reads
            // are never force-removed (see the deschedule path).
            debug_assert!(false, "disk completion for a vanished service");
            return;
        };
        if self.disks[entry.disk_local as usize].is_failed() {
            // The disk died while this read was in flight: the data never
            // arrived. The block is lost; the viewer continues.
            entry.missed = true;
            sh.metrics.loss.failover_lost += 1;
            if self.active.get(&token).is_some_and(Active::finished) {
                self.reclaim(now, token, sh.coded.as_mut());
            }
            return;
        }
        entry.read_ready = true;
        let (slot, viewer, inc) = vkey(&entry.vs);
        sh.tracer.record(
            now,
            self.id.raw(),
            TraceEvent::DiskDone { slot, viewer, inc },
        );
        let disk_local = entry.disk_local;
        // The buffer pool recycles aggressively (§2.2's zero-copy path
        // keeps no long-lived cache), so a block is shareable only while
        // its read is in flight — I/O coalescing, which is what keeps the
        // §5 buffer-cache hit rate "less than 0.05%".
        if entry.vs.kind == StreamKind::Primary {
            let disk_id = sh.params.stripe().disk_of(self.id, disk_local);
            let key = (disk_id, entry.vs.file, entry.vs.position);
            if let Some(pos) = self.cache_resident.iter().position(|k| *k == key) {
                self.cache_resident.remove(pos);
            }
        }
        self.disks[disk_local as usize].complete(now);
        if self.active.get(&token).is_some_and(Active::finished) {
            self.reclaim(now, token, sh.coded.as_mut());
        }
    }

    /// The block (or piece) for `token` is due at the network.
    pub fn on_send_due(&mut self, sh: &mut Shared, now: SimTime, token: ServiceToken) {
        if self.failed && !sh.shield.is_serving_spare(self.id) {
            return;
        }
        let Some(entry) = self.active.get_mut(&token) else {
            return; // Descheduled.
        };
        if entry.dropped {
            return;
        }
        let (slot, viewer, inc) = vkey(&entry.vs);
        sh.tracer.record(
            now,
            self.id.raw(),
            TraceEvent::SendDue {
                slot,
                viewer,
                inc,
                ok: entry.read_ready && !entry.missed,
            },
        );
        if entry.missed {
            // The read path already declared this block lost.
            if entry.finished() {
                self.reclaim(now, token, sh.coded.as_mut());
            }
            return;
        }
        if !entry.read_ready {
            // "the server failed to place 15 blocks on the network, each
            // because the disk read hadn't completed in time" — the block
            // is dropped, not sent late, and the viewer continues with its
            // subsequent blocks (the entry still gets forwarded).
            sh.metrics.loss.server_missed += 1;
            if entry.vs.kind != StreamKind::Primary {
                sh.metrics.loss.mirror_missed += 1;
            }
            entry.missed = true;
            if entry.finished() {
                self.reclaim(now, token, sh.coded.as_mut());
            }
            return;
        }
        let rate = entry.vs.bitrate;
        let node = sh.cub_node(self.id);
        let ok = sh.net.begin_stream(now, node, rate);
        if !ok {
            // NIC overcommitted — the schedule should prevent this; report
            // it as a violation but keep sending (degraded).
            sh.metrics
                .violations
                .push(format!("{}: NIC overcommit at {now}", self.id));
        }
        entry.transmitting = true;
        entry.sent = true;
        if entry.vs.kind == StreamKind::Primary {
            if let Some(omni) = sh.omniscient.as_mut() {
                omni.on_send(&entry.vs, now);
            }
        }
        let done_at = now + entry.send_duration;
        sh.queue.schedule(
            done_at,
            Event::SendDone {
                cub: self.id,
                token,
            },
        );
    }

    /// A paced transmission finished: free the NIC, deliver to the client.
    pub fn on_send_done(&mut self, sh: &mut Shared, now: SimTime, token: ServiceToken) {
        if self.failed && !sh.shield.is_serving_spare(self.id) {
            return;
        }
        let Some(entry) = self.active.get(&token).copied() else {
            return;
        };
        let (slot, viewer, inc) = vkey(&entry.vs);
        sh.tracer.record(
            now,
            self.id.raw(),
            TraceEvent::SendDone { slot, viewer, inc },
        );
        let node = sh.cub_node(self.id);
        sh.net
            .end_stream(now, node, entry.vs.bitrate, entry.payload);
        sh.metrics.loss.blocks_sent += 1;
        // Deliver to the client (receive time = last byte arrival, §5).
        let client = tiger_net::NetNode(entry.vs.client);
        let at = sh.net.send_data(now, node, client);
        sh.trace_net_injections(now);
        if let Some(at) = at {
            let (piece, total) = match entry.vs.kind {
                // Under the coded backend the home's primary send is
                // shard 0 of the k the client assembles.
                StreamKind::Primary => match &sh.coded {
                    Some(c) => (Some(0), c.placement.k()),
                    None => (None, 1),
                },
                StreamKind::Mirror { piece, .. } => (Some(piece), sh.params.stripe().decluster),
                StreamKind::Coded { shard, .. } => (
                    Some(shard),
                    sh.coded.as_ref().map_or(1, |c| c.placement.k()),
                ),
            };
            sh.queue.schedule(
                at,
                Event::Deliver {
                    dst: client,
                    msg: Message::StreamData {
                        instance: entry.vs.instance,
                        block: entry.vs.position.raw(),
                        piece,
                        total_pieces: total,
                        bytes: entry.payload,
                    },
                },
            );
        }
        self.view.retire(entry.vs.slot, &entry.vs);
        if let Some(e) = self.active.get_mut(&token) {
            e.transmitting = false;
        }
        if self.active.get(&token).is_some_and(Active::finished) {
            self.reclaim(now, token, sh.coded.as_mut());
        }
        // Otherwise forwarding has not happened yet (fresh inserts with
        // very short leads); the next forward pass reclaims the entry.
    }

    /// Removes a finished or cancelled service, returning its buffer.
    /// Serviced primary records are retained in the retired log for one
    /// failure-detection window (gap bridging, §2.3). Under the coded
    /// backend, retiring the home's primary entry releases the block's
    /// shard reservations from the per-disk load rings (`coded` is `None`
    /// only at restripe cut-over, which rebuilds the rings wholesale).
    fn reclaim(&mut self, now: SimTime, token: ServiceToken, coded: Option<&mut CodedRuntime>) {
        if let Some(e) = self.active.remove(&token) {
            if e.buffer_held {
                self.buffer_bytes_in_use = self.buffer_bytes_in_use.saturating_sub(e.read_bytes);
            }
            if e.vs.kind == StreamKind::Primary {
                if let Some(c) = coded {
                    let home = c.placement.config().disk_of(self.id, e.disk_local);
                    c.release(home, coded_load_key(&e.vs));
                }
            }
            let retired = !e.dropped && e.vs.kind == StreamKind::Primary;
            if retired {
                self.retired_log.push((now, e.vs));
            }
            let (active, log) = (&self.active, &self.retired_log);
            self.receipts
                .remove_active(&ServiceKey::of(&e.vs), retired, || {
                    max_served_seq(active, log, &e.vs.instance)
                });
        }
    }

    fn alloc_token(&mut self) -> ServiceToken {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    // --- Forwarding (§4.1.1) ------------------------------------------------

    /// Periodic batching pass: forward viewer states whose receiver lead
    /// has dropped to `maxVStateLead`, to the successor and (policy
    /// permitting) the second successor.
    pub fn on_forward_pass(&mut self, sh: &mut Shared, now: SimTime) {
        if self.failed {
            return;
        }
        let mut batch: Vec<ViewerState> = Vec::new();
        let mut finished: Vec<ViewerInstance> = Vec::new();
        for entry in self.active.values_mut() {
            if entry.forwarded || entry.dropped || entry.vs.kind != StreamKind::Primary {
                continue;
            }
            let due_next = entry.send_at + sh.params.block_play_time();
            if now < due_next.saturating_sub(sh.cfg.max_vstate_lead) {
                continue;
            }
            entry.forwarded = true;
            let advanced = entry.vs.advanced(1);
            let meta = sh.catalog.get(advanced.file).copied();
            let at_eof = meta.is_none_or(|m| advanced.position.raw() >= m.num_blocks);
            if at_eof {
                finished.push(advanced.instance);
            } else {
                batch.push(advanced);
            }
        }
        let done: Vec<ServiceToken> = self
            .active
            .iter()
            .filter(|(_, e)| e.finished())
            .map(|(&t, _)| t)
            .collect();
        for token in done {
            self.reclaim(now, token, sh.coded.as_mut());
        }
        for instance in finished {
            if self.eof_sent.insert(instance) {
                sh.send_to_controllers(
                    now,
                    sh.cub_node(self.id),
                    Message::ViewerFinished { instance },
                );
            }
        }
        if !batch.is_empty() {
            let me = sh.cub_node(self.id);
            if let Some(succ) = self.next_living(self.id) {
                let batch: std::sync::Arc<[ViewerState]> = batch.into();
                sh.tracer.record(
                    now,
                    self.id.raw(),
                    TraceEvent::VsForward {
                        dst: succ.raw(),
                        count: batch.len() as u32,
                        second: false,
                    },
                );
                sh.send_control(
                    now,
                    me,
                    sh.cub_node(succ),
                    Message::ViewerStates(batch.clone()),
                );
                if sh.cfg.forwarding == ForwardingPolicy::Double {
                    if let Some(second) = self.next_living(succ) {
                        if second != self.id {
                            sh.tracer.record(
                                now,
                                self.id.raw(),
                                TraceEvent::VsForward {
                                    dst: second.raw(),
                                    count: batch.len() as u32,
                                    second: true,
                                },
                            );
                            sh.send_control(
                                now,
                                me,
                                sh.cub_node(second),
                                Message::ViewerStates(batch),
                            );
                        }
                    }
                }
            }
        }
        // Shadow GC: drop records whose due time is well past.
        let horizon = now.saturating_sub(sh.cfg.deschedule_hold);
        self.shadows.retain(|_, s| s.due >= horizon);
        // Retired-log GC: keep one failure-detection window.
        let pruned = crate::recovery::prune_retired(
            &mut self.retired_log,
            now,
            crate::recovery::retired_retention(&sh.cfg),
        );
        for (_, vs) in pruned {
            let (active, log) = (&self.active, &self.retired_log);
            self.receipts.remove_retired(&vs.instance, vs.play_seq, || {
                max_served_seq(active, log, &vs.instance)
            });
        }
        // Mirror-creation memory GC is keyed the same way; bound its size.
        if self.mirrors_created.len() > 100_000 {
            self.mirrors_created.clear();
        }
        if sh.tracer.on() {
            // Traced runs observe each hold expiry (at this pass's
            // granularity); gc_report is behaviorally identical to gc.
            let me = self.id.raw();
            let tracer = &mut sh.tracer;
            self.view.gc_report(now, |d| {
                tracer.record(
                    now,
                    me,
                    TraceEvent::DeschedExpire {
                        slot: d.slot.raw(),
                        viewer: d.instance.viewer.raw(),
                        inc: d.instance.incarnation,
                    },
                );
            });
        } else {
            self.view.gc(now);
        }
    }

    // --- Deschedules (§4.1.2) ------------------------------------------------

    fn on_deschedule(&mut self, sh: &mut Shared, now: SimTime, d: Deschedule, hops_left: u32) {
        let first_sighting = !self.view.holds_deschedule(&d);
        let hold_until = now + sh.cfg.deschedule_hold + sh.cfg.max_vstate_lead;
        self.view.apply_deschedule(d, now, hold_until);
        // Kill matching active services that have not yet gone out.
        let tokens: Vec<ServiceToken> = self
            .active
            .iter()
            .filter(|(_, e)| d.matches(&e.vs))
            .map(|(&t, _)| t)
            .collect();
        let mut killed = 0u32;
        for token in tokens {
            let entry = self.active.get_mut(&token).expect("token just listed");
            if entry.sent {
                continue; // Already went out; harmless.
            }
            entry.dropped = true;
            entry.forwarded = true; // Never forward a descheduled entry.
            killed += 1;
            if entry.finished() {
                self.reclaim(now, token, sh.coded.as_mut());
            }
            // Otherwise an outstanding read completes first; DiskDone
            // reclaims it then.
        }
        sh.tracer.record(
            now,
            self.id.raw(),
            TraceEvent::DeschedApply {
                slot: d.slot.raw(),
                viewer: d.instance.viewer.raw(),
                inc: d.instance.incarnation,
                first: first_sighting,
                killed,
                hops_left,
            },
        );
        // Drop matching shadows and queued starts.
        self.shadows.retain(|_, s| !d.matches(&s.vs));
        self.ins.drop_instance(&d.instance);
        // Forward on first sighting, immediately (§4.1.2: deschedules are
        // not batched; they must outrun viewer states).
        if first_sighting && hops_left > 0 {
            let me = sh.cub_node(self.id);
            let msg = Message::Deschedule {
                request: d,
                hops_left: hops_left - 1,
            };
            if let Some(succ) = self.next_living(self.id) {
                sh.send_control(now, me, sh.cub_node(succ), msg.clone());
                if let Some(second) = self.next_living(succ) {
                    if second != self.id {
                        sh.send_control(now, me, sh.cub_node(second), msg);
                    }
                }
            }
        }
    }

    // --- Insertion (§4.1.3) -----------------------------------------------

    fn on_routed_start(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        pending: PendingStart,
        redundant: bool,
    ) {
        let carried = self.carries_instance(&pending.instance);
        if self.ins.on_routed_start(pending, redundant, carried) {
            self.schedule_insert_attempt(sh, now + SimDuration::from_nanos(1));
        }
    }

    /// Whether this cub already carries schedule state for `instance` —
    /// in its view, its active services, or the retired log. Receiving a
    /// routed start must be idempotent like viewer states are (§4.1.2):
    /// the network may duplicate a message, and a duplicate arriving
    /// after the original start was inserted must not insert the viewer
    /// into a second slot (every block would be delivered twice).
    fn carries_instance(&self, instance: &ViewerInstance) -> bool {
        let indexed = self.receipts.carries(instance);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            indexed,
            self.carries_instance_scan(instance),
            "{}: receipt index disagrees on carrying {instance}",
            self.id
        );
        indexed || self.view.iter().any(|(_, e)| e.instance == *instance)
    }

    /// Whether this cub has already serviced `vs.play_seq` (or a later
    /// block) of the instance — the staleness test behind the §4.1.2
    /// receipt idempotence in `on_primary_state`.
    pub(crate) fn already_served(&self, vs: &ViewerState) -> bool {
        let indexed = self.receipts.already_served(&vs.instance, vs.play_seq);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            indexed,
            self.already_served_scan(vs),
            "{}: receipt index disagrees on {vs:?}",
            self.id
        );
        indexed
    }

    /// Whether an active service with exactly `key` exists (a double-
    /// forwarded duplicate of a record already being serviced).
    fn has_service(&self, key: &ServiceKey) -> bool {
        let indexed = self.receipts.contains_key(key);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            indexed,
            self.active.values().any(|a| ServiceKey::of(&a.vs) == *key),
            "{}: receipt index disagrees on {key:?}",
            self.id
        );
        indexed
    }

    fn schedule_insert_attempt(&mut self, sh: &mut Shared, at: SimTime) {
        if self.ins.arm_attempt() {
            sh.queue.schedule(
                at.max(sh.queue.now()),
                Event::InsertAttempt { cub: self.id },
            );
        }
    }

    /// The disk that should source the first requested block — and the
    /// pointer whose ownership windows gate the insertion.
    fn start_disk(&self, sh: &Shared, pending: &PendingStart) -> Option<DiskId> {
        sh.catalog
            .locate(pending.file, pending.from_block)
            .map(|loc| loc.disk)
    }

    /// Attempts to insert queued starts into currently-owned empty slots.
    pub fn on_insert_attempt(&mut self, sh: &mut Shared, now: SimTime) {
        self.ins.attempt_due();
        if self.failed {
            return;
        }
        let mut remaining: Vec<PendingStart> = Vec::new();
        let queue = self.ins.take_queue();
        for pending in queue {
            let Some(d0) = self.start_disk(sh, &pending) else {
                continue; // Unknown file or out-of-range block: drop it.
            };
            // We may insert via d0's pointer if d0 is ours, or if we are
            // the acting successor of d0's dead cub.
            let d0_cub = sh.params.stripe().cub_of(d0);
            let responsible = d0_cub == self.id
                || (self.ring.believes_failed(d0_cub) && self.acting_successor_of(d0_cub));
            if !responsible {
                continue; // Another cub will run this insertion.
            }
            let owned = sh.params.owned_slot_range(d0, now);
            let slot = owned.into_iter().find(|&s| self.view.believes_slot_free(s));
            match slot {
                Some(slot) => self.commit_insert(sh, now, pending, d0, slot),
                None => {
                    sh.tracer.record(
                        now,
                        self.id.raw(),
                        TraceEvent::InsertMiss {
                            viewer: pending.instance.viewer.raw(),
                            inc: pending.instance.incarnation,
                            disk: d0.raw(),
                        },
                    );
                    remaining.push(pending);
                }
            }
        }
        self.ins.requeue(remaining);
        if let Some(head) = self.ins.head().copied() {
            // Retry when the next ownership window opens for the head's
            // start disk.
            if let Some(d0) = self.start_disk(sh, &head) {
                let dt = sh.params.time_to_next_ownership(d0, now) + SimDuration::from_nanos(1);
                self.ins.arm_attempt();
                sh.queue
                    .schedule(now + dt, Event::InsertAttempt { cub: self.id });
            }
        }
    }

    fn commit_insert(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        pending: PendingStart,
        d0: DiskId,
        slot: SlotId,
    ) {
        let meta = sh.catalog.get(pending.file).copied().expect("file known");
        let vs = ViewerState {
            instance: pending.instance,
            client: pending.client,
            file: pending.file,
            position: pending.from_block,
            slot,
            play_seq: 0,
            bitrate: meta.bitrate,
            kind: StreamKind::Primary,
        };
        sh.tracer.record(
            now,
            self.id.raw(),
            TraceEvent::InsertCommit {
                slot: slot.raw(),
                viewer: pending.instance.viewer.raw(),
                inc: pending.instance.incarnation,
                disk: d0.raw(),
            },
        );
        if let Some(omni) = sh.omniscient.as_mut() {
            omni.on_insert(vs, now);
        }
        if d0_is_local(sh, self.id, d0) {
            self.accept_service(sh, now, vs, d0);
        } else {
            // Acting-successor insertion for a dead start disk: service via
            // mirrors straight away.
            self.cover_failed_disk(sh, now, vs, d0);
        }
        // Commit: tell the controller (the insertion "becomes part of the
        // coherent hallucination when a message to that effect makes it to
        // at least one other machine").
        let first_send = sh.params.slot_send_time(d0, slot, now);
        sh.send_to_controllers(
            now,
            sh.cub_node(self.id),
            Message::InsertCommitted {
                instance: pending.instance,
                slot,
                file: pending.file,
                first_send,
            },
        );
        // Hasten propagation of the fresh insert.
        sh.queue.schedule(
            now + SimDuration::from_millis(1),
            Event::ForwardPass { cub: self.id },
        );
    }

    // --- Deadman protocol (§2.3) -------------------------------------------

    /// Periodic heartbeat to the successor.
    pub fn on_deadman_ping(&mut self, sh: &mut Shared, now: SimTime) {
        if self.failed {
            return;
        }
        if let Some(succ) = self.ring.ping_target() {
            sh.tracer.record(
                now,
                self.id.raw(),
                TraceEvent::DeadmanPing { to: succ.raw() },
            );
            sh.send_control(
                now,
                sh.cub_node(self.id),
                sh.cub_node(succ),
                Message::DeadmanPing { from: self.id },
            );
        }
    }

    /// Periodic silence check on the predecessor.
    pub fn on_deadman_check(&mut self, sh: &mut Shared, now: SimTime) {
        if self.failed {
            return;
        }
        let Some((pred, silence)) = self.ring.poll_check(now, &ring_cfg(sh)) else {
            return;
        };
        sh.tracer.record(
            now,
            self.id.raw(),
            TraceEvent::DeadmanDeclare {
                failed: pred.raw(),
                silence_ns: silence.as_nanos(),
            },
        );
        sh.metrics.failure_detections.push((now, pred.raw()));
        self.declare_failed(sh, now, pred);
        // Tell everyone (including the controller).
        let me = sh.cub_node(self.id);
        let notice = Message::FailureNotice { failed: pred };
        let num_cubs = self.ring.num_cubs();
        for c in 0..num_cubs {
            let target = CubId(c);
            if target != self.id && !self.ring.believes_failed(target) {
                sh.send_control(now, me, sh.cub_node(target), notice.clone());
            }
        }
        sh.send_to_controllers(now, me, notice);
    }

    fn on_failure_notice(&mut self, sh: &mut Shared, now: SimTime, failed: CubId) {
        if failed == self.id {
            // The ring declared this cub dead while it was stalled, and
            // the acting successor already covers its streams. Fence:
            // stop serving entirely rather than double-deliver until the
            // (offline) repair brings this cub back through a restripe.
            sh.tracer.record(
                now,
                self.id.raw(),
                TraceEvent::CubFenced { cub: self.id.raw() },
            );
            self.power_cut(now);
            let node = sh.cub_node(self.id);
            sh.net.fail_node(node);
            return;
        }
        self.declare_failed(sh, now, failed);
    }

    fn declare_failed(&mut self, sh: &mut Shared, now: SimTime, failed: CubId) {
        if self.ring.believes_failed(failed) || failed == self.id {
            return;
        }
        sh.tracer.record(
            now,
            self.id.raw(),
            TraceEvent::FailureNotice {
                failed: failed.raw(),
            },
        );
        self.ring.declare_failed(failed, now);
        // §2.3 gap bridging: "If two or more consecutive cubs are failed,
        // the preceding living cub will send scheduling information to the
        // succeeding living cub." Re-send the advanced copy of every
        // recently serviced record whose next hop is now inside a dead
        // span that begins right after us; the acting successor covers the
        // span with mirror viewer states. Receipt is idempotent, so this
        // is safe even when the normal double-forwarded copies survived.
        let redrive: Vec<ViewerState> = self
            .retired_log
            .iter()
            .map(|&(_, vs)| vs.advanced(1))
            .filter(|next| {
                sh.catalog
                    .locate(next.file, next.position)
                    .is_some_and(|loc| {
                        self.ring.believes_failed(loc.cub)
                            && self.prev_living(loc.cub) == Some(self.id)
                    })
            })
            .collect();
        if !sh.cfg.gap_recovery {
            return self.takeover_if_acting_successor(sh, now, failed);
        }
        // Active entries already forwarded into what turned out to be the
        // dead window must be re-forwarded: clear their flag so the next
        // pass sends them to the new next-living successor.
        let mut reforward = false;
        for e in self.active.values_mut() {
            if !e.forwarded || e.dropped || e.vs.kind != StreamKind::Primary {
                continue;
            }
            let next = e.vs.advanced(1);
            let into_gap = sh
                .catalog
                .locate(next.file, next.position)
                .is_some_and(|loc| self.ring.believes_failed(loc.cub));
            if into_gap {
                e.forwarded = false;
                reforward = true;
            }
        }
        if reforward {
            sh.queue.schedule(
                now + SimDuration::from_millis(1),
                Event::ForwardPass { cub: self.id },
            );
        }
        if !redrive.is_empty() {
            let me = sh.cub_node(self.id);
            // Group by destination: the acting successor of each record's
            // dead cub (and its successor, for redundancy).
            for next in redrive {
                let loc = sh
                    .catalog
                    .locate(next.file, next.position)
                    .expect("filtered above");
                if let Some(succ) = self.next_living(loc.cub) {
                    if succ == self.id {
                        // Unreachable in practice (we precede the gap), but
                        // handle the two-cub ring degenerately.
                        continue;
                    }
                    sh.send_control(now, me, sh.cub_node(succ), Message::ViewerState(next));
                    if let Some(second) = self.next_living(succ) {
                        if second != self.id {
                            sh.send_control(
                                now,
                                me,
                                sh.cub_node(second),
                                Message::ViewerState(next),
                            );
                        }
                    }
                }
            }
        }
        self.takeover_if_acting_successor(sh, now, failed);
    }

    /// The acting-successor duties on a failure: promote redundant starts
    /// and convert shadows for the failed cub's disks into mirror service.
    fn takeover_if_acting_successor(&mut self, sh: &mut Shared, now: SimTime, failed: CubId) {
        if !self.acting_successor_of(failed) {
            return;
        }
        sh.tracer.record(
            now,
            self.id.raw(),
            TraceEvent::MirrorTakeover {
                failed_cub: failed.raw(),
            },
        );
        let stripe = sh.params.stripe();
        let catalog = &sh.catalog;
        self.ins.promote_where(|p| {
            catalog
                .get(p.file)
                .is_some_and(|m| stripe.cub_of(m.start_disk) == failed)
        });
        if self.ins.queued() > 0 {
            self.schedule_insert_attempt(sh, now + SimDuration::from_nanos(1));
        }
        // Re-drive shadowed schedule information addressed to *any* cub we
        // now cover. This matters when the dying cub was itself the acting
        // successor for an earlier failure: records it was advancing
        // internally die with it, and our shadows (deposited by the
        // double-forwarding) are the only surviving copies — exactly the
        // §4.1.1 argument for forwarding twice.
        let shadows: Vec<ViewerState> = self
            .shadows
            .values()
            .filter(|s| {
                sh.catalog
                    .locate(s.vs.file, s.vs.position)
                    .is_some_and(|loc| {
                        self.ring.believes_failed(loc.cub) && self.acting_successor_of(loc.cub)
                    })
            })
            .map(|s| s.vs)
            .collect();
        for vs in shadows {
            self.shadows.remove(&(vs.slot, vs.instance));
            self.on_primary_state(sh, now, vs);
        }
        // Double failure during catch-up: the dead cub may have been the
        // covering partner of a cub that just rejoined, holding records
        // addressed to the rejoiner that the rejoiner (down at forward
        // time) never saw. Our shadow is then the only surviving copy —
        // re-send it to the rejoiner. Receipt idempotence dedups the
        // common case where the rejoiner did get the record.
        let to_rejoiner: Vec<(ViewerState, SimTime)> = self
            .shadows
            .values()
            .filter(|s| {
                sh.catalog
                    .locate(s.vs.file, s.vs.position)
                    .is_some_and(|loc| {
                        loc.cub != self.id
                            && !self.ring.believes_failed(loc.cub)
                            && self.ring.recently_rejoined(loc.cub, now)
                    })
            })
            .map(|s| (s.vs, s.due))
            .collect();
        // The shadow's position is usually stale (its send time passed
        // while the record sat unrevived), so re-sending it verbatim would
        // either be discarded as a late arrival or replay a block the
        // mirrors already delivered. The shadow's recorded due time says
        // exactly how far behind it is: advance to the first position
        // whose nominal send time is still ahead and hand the record to
        // that position's owner — the same skip-to-reachable move the
        // §2.3 gap bridge makes, with the skipped blocks as bounded loss.
        let bpt = sh.params.block_play_time();
        let ring = self.ring.num_cubs();
        let me = sh.cub_node(self.id);
        for (vs, due) in to_rejoiner {
            let behind = now.saturating_since(due);
            let mut k = if behind == SimDuration::ZERO {
                0
            } else {
                (behind.as_nanos() / bpt.as_nanos()) as u32 + 1
            };
            for _ in 0..ring {
                let cand = vs.advanced(k);
                let Some(loc) = sh.catalog.locate(cand.file, cand.position) else {
                    break; // Past end-of-file: the stream was finishing.
                };
                if self.ring.believes_failed(loc.cub) {
                    k += 1; // Owner still dead: its block is lost; skip on.
                    continue;
                }
                if loc.cub == self.id {
                    self.on_primary_state(sh, now, cand);
                } else {
                    sh.send_control(now, me, sh.cub_node(loc.cub), Message::ViewerState(cand));
                }
                break;
            }
        }
    }

    /// Clears the viewer/schedule state every reset path discards: the
    /// bounded schedule view, shadowed records, queued insertions, and the
    /// retired log. Power-cut, restart, and restripe cut-over all call
    /// this and layer their site-specific extras on top.
    fn reset_viewer_state(&mut self) {
        self.view = ScheduleView::new();
        self.shadows.clear();
        self.ins.clear_queues();
        self.retired_log.clear();
        // Whatever survives the reset is still in `active` (empty after a
        // power-cut or restart; in-flight transmissions at cut-over).
        self.receipts
            .rebuild(self.active.values().map(|a| ServiceKey::of(&a.vs)));
    }

    /// Power-cut: the cub stops doing anything; its disks die with it.
    pub fn power_cut(&mut self, now: SimTime) {
        self.failed = true;
        for d in &mut self.disks {
            d.fail(now);
        }
        self.active.clear();
        self.reset_viewer_state();
        self.buffer_bytes_in_use = 0;
    }

    // --- Online recovery ----------------------------------------------------

    /// Restarts a power-cut/fenced cub with empty schedule state. The disk
    /// contents (index, space maps) survive the crash — only the in-memory
    /// schedule is gone, which is the paper's point: "a cub can be
    /// rebooted... and rejoin" because the bounded view rebuilds from the
    /// ring. Everything protocol-visible is reset; the rejoin protocol
    /// (see `on_rejoin_request`) re-learns ring state from neighbours.
    pub fn restart(&mut self, now: SimTime, striped_cubs: u32) {
        self.failed = false;
        for d in &mut self.disks {
            d.revive(now);
        }
        self.active.clear();
        self.reset_viewer_state();
        self.mirrors_created.clear();
        self.cache_resident.clear();
        self.buffer_bytes_in_use = 0;
        self.ins.reset();
        // A restarted process knows nothing about who is down; it assumes
        // the full striped ring is alive (spares stay marked failed — they
        // are not ring members) and learns real failures from RejoinAcks.
        self.ring.restart(now, striped_cubs);
        self.rejoined_at = Some(now);
    }

    // --- Live-restripe cut-over support -------------------------------------

    /// Read access to the block index (the restriper's layout digest).
    pub(crate) fn index(&self) -> &BlockIndex {
        &self.index
    }

    /// Removes the primary index entry for a block that migrated to another
    /// disk during a live restripe. The extent's space is not reclaimed
    /// (the space map is append-only, like the real system's restriper
    /// which reformats disks offline); only the lookup must stop answering.
    pub(crate) fn remove_primary_entry(&mut self, disk: DiskId, file: FileId, block: BlockNum) {
        self.index.remove_primary(disk, file, block);
    }

    /// Drops every mirror extent and resets the secondary space maps: the
    /// cut-over re-derives mirror placement wholesale for the new stripe.
    pub(crate) fn clear_secondary_layout(&mut self) {
        self.index.clear_all_secondary();
        for s in &mut self.space {
            s.clear_secondary();
        }
    }

    /// Marks `cub` believed-failed without the declaration side effects
    /// (construction-time marking of spare cubs, which are not ring
    /// members until a restripe cut-over activates them).
    pub(crate) fn mark_believed_failed(&mut self, cub: CubId) {
        self.ring.mark_believed_failed(cub);
    }

    /// Installs the restriper's post-cut-over ring map: belief vectors grow
    /// to the new ring size and every member's liveness is set from ground
    /// truth (the cut-over barrier is the one moment the restriper knows
    /// it). Deadman baselines restart from this instant.
    pub(crate) fn set_ring_state(&mut self, failed: &[bool], now: SimTime) {
        self.ring.set_ring_state(failed, now);
    }

    /// The schedule half of a live-restripe cut-over: kill every service
    /// that has not yet gone out (its record carries old-geometry slot
    /// assignments), let in-flight transmissions finish, and prevent any
    /// old-incarnation record from propagating by marking everything
    /// forwarded and fencing the old instances with deschedules.
    pub(crate) fn cutover_reset(
        &mut self,
        now: SimTime,
        fences: &[Deschedule],
        hold_until: SimTime,
    ) {
        let tokens: Vec<ServiceToken> = self.active.keys().copied().collect();
        for token in tokens {
            let entry = self.active.get_mut(&token).expect("token just listed");
            if !entry.sent {
                entry.dropped = true;
            }
            entry.forwarded = true;
            if entry.finished() {
                self.reclaim(now, token, None);
            }
        }
        self.reset_viewer_state();
        for &d in fences {
            self.view.apply_deschedule(d, now, hold_until);
        }
        self.mirrors_created.clear();
        self.eof_sent.clear();
        self.ring.clear_handback();
    }
}

/// The highest play sequence over `instance`'s served entries: non-coded
/// actives plus retired-log records. The receipt index summarises exactly
/// this; it falls back to the scan when an instance's maximum leaves.
fn max_served_seq(
    active: &HashMap<ServiceToken, Active>,
    retired_log: &[(SimTime, ViewerState)],
    instance: &ViewerInstance,
) -> Option<u32> {
    // Coded shard actives carry the *home* block's play_seq and say
    // nothing about this cub's own primary progression — counting one
    // here would reject the double-forwarded redundancy copy of the very
    // record the shard serves, exactly when the home just died and that
    // copy is the stream's only survivor.
    let served = active
        .values()
        .map(|a| &a.vs)
        .filter(|vs| !matches!(vs.kind, StreamKind::Coded { .. }));
    served
        .chain(retired_log.iter().map(|(_, vs)| vs))
        .filter(|vs| vs.instance == *instance)
        .map(|vs| vs.play_seq)
        .max()
}

/// The pre-index scans, kept as the exactness oracle: debug builds check
/// every index answer against them.
#[cfg(any(test, debug_assertions))]
impl Cub {
    fn already_served_scan(&self, vs: &ViewerState) -> bool {
        max_served_seq(&self.active, &self.retired_log, &vs.instance)
            .is_some_and(|m| m >= vs.play_seq)
    }

    fn carries_instance_scan(&self, instance: &ViewerInstance) -> bool {
        self.active.values().any(|a| a.vs.instance == *instance)
            || self
                .retired_log
                .iter()
                .any(|(_, vs)| vs.instance == *instance)
    }
}

fn d0_is_local(sh: &Shared, me: CubId, d0: DiskId) -> bool {
    sh.params.stripe().cub_of(d0) == me
}

/// The `(slot, viewer, inc)` triple most trace events carry.
fn vkey(vs: &ViewerState) -> (u32, u64, u32) {
    (
        vs.slot.raw(),
        vs.instance.viewer.raw(),
        vs.instance.incarnation,
    )
}
