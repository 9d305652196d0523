//! The event-driven multi-flow network simulator.
//!
//! N senders share one bottleneck (FIFO queue, time-varying bandwidth
//! trace). Unlike the fluid single-flow [`crate::sim::CcSim`], this core is
//! packet-level and event-driven: a central deterministic [`EventQueue`]
//! dispatches `Send` / `Arrive` / `Deliver` / `Ack` / `Timeout` / `MiClose`
//! events to per-flow state, and each flow's [`CongestionControl`] reacts
//! through the trait hooks. That is the structure that expresses what the
//! fluid loop cannot: competing flows, ACK loss, RTT heterogeneity,
//! retransmission timers (DESIGN.md §14).
//!
//! Every event travels on one of 5n + 1 queue lanes whose keys only
//! increase: per flow `Send`, `Arrive`, `Ack`, `MiClose` and `Timeout`, and
//! one global `Deliver` lane. `Arrive` and `Ack` are scheduled a fixed
//! half-RTT after a clock that never runs back; `Deliver` at the bottleneck's
//! next free instant, which strictly increases; the other three have at most
//! one event pending. The retransmission timer is lazy: re-arming it
//! reserves a key but queues nothing unless the new key is earlier than the
//! one queued, and a queued `Timeout` that pops under a stale key re-queues
//! at the armed key instead of firing. NAK words ride a per-flow FIFO beside
//! the ACK lane, so an `Ack` event carries only how many words are its own.
//!
//! Per-flow statistics accumulate per monitor interval with the same
//! ground-truth accounting as the fluid simulator (sent at send, random
//! loss at send, congestion drop at the queue, delivered + latency at
//! delivery), so [`MiStats::reward`] means the same thing on both cores.
//!
//! Determinism: the clock is integer nanoseconds; same-timestamp events
//! dispatch in schedule order; every random draw comes from a per-flow RNG
//! stream derived as `derive_seed3(seed, STREAM, flow)` and is consumed in
//! event-queue order — a pure function of `(path, specs, seed)`, never of
//! thread count or wall clock.

use crate::control::{AckInfo, CcVariables, CongestionControl, FlowState, LossInfo};
use crate::event::{ns_to_secs, secs_to_ns, EventKey, EventQueue, TimeNs};
use crate::loss::{decode_loss_ranges, encode_loss_ranges};
use crate::sim::{mbps_to_pps, MiStats, MAX_RATE_MBPS, MIN_RATE_MBPS, PACKET_BITS};
use genet_math::{derive_seed3, mean, sample_gaussian};
use genet_traces::BandwidthTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Seed-stream label for per-flow data-packet loss draws.
const STREAM_LOSS: u64 = 0xF10A;
/// Seed-stream label for per-flow ACK loss draws.
const STREAM_ACK_LOSS: u64 = 0xF10B;
/// Seed-stream label for per-flow latency-noise draws.
const STREAM_NOISE: u64 = 0xF10C;
/// Seed-stream label for per-flow initial-rate draws.
const STREAM_START_RATE: u64 = 0xF10D;

/// The bottleneck's one `Deliver` lane; flow `f`'s lanes follow it at
/// `1 + LANES_PER_FLOW * f + LANE_*`.
const LANE_DELIVER: usize = 0;
const LANES_PER_FLOW: usize = 5;
const LANE_SEND: usize = 0;
const LANE_ARRIVE: usize = 1;
const LANE_ACK: usize = 2;
const LANE_MI_CLOSE: usize = 3;
const LANE_TIMEOUT: usize = 4;

/// Queue lane of flow `f`'s events of one kind.
fn lane(f: usize, kind: usize) -> usize {
    1 + LANES_PER_FLOW * f + kind
}

/// The shared path every flow crosses.
#[derive(Debug, Clone)]
pub struct MultiFlowPath {
    /// Bottleneck bandwidth over time (total, shared by all flows).
    pub trace: BandwidthTrace,
    /// Bottleneck queue capacity in packets (shared FIFO).
    pub queue_cap_pkts: f64,
    /// Random per-packet loss rate on the data direction.
    pub loss_rate: f64,
    /// Random per-ACK loss rate on the reverse direction.
    pub ack_loss_rate: f64,
    /// Std-dev of gaussian latency noise (seconds).
    pub delay_noise_s: f64,
    /// Episode duration (seconds).
    pub duration_s: f64,
}

/// One sender: its congestion controller and path asymmetries.
pub struct FlowSpec {
    /// The congestion-control law driving this flow.
    pub cc: Box<dyn CongestionControl>,
    /// Propagation RTT of this flow (s) — flows may differ (RTT jitter).
    pub base_rtt_s: f64,
    /// Initial pacing rate (Mbps); `None` draws a seeded 0.3–1.5× multiple
    /// of the flow's fair share of the time-0 bandwidth, mirroring the
    /// fluid simulator's Aurora-style start.
    pub start_rate_mbps: Option<f64>,
}

/// Per-MI ground-truth accumulator (mirrors the fluid `Accum`).
#[derive(Debug, Clone, Copy, Default)]
struct Accum {
    start_s: f64,
    sent: f64,
    delivered: f64,
    lost: f64,
    lat_weighted: f64,
}

/// Simulator events. Payloads carry everything the handler needs so
/// dispatch never reaches back into stale state.
enum Ev {
    /// The pacer releases the flow's next packet.
    Send { flow: usize },
    /// A packet reaches the bottleneck queue.
    Arrive {
        flow: usize,
        seq: u32,
        sent_ns: TimeNs,
    },
    /// A packet leaves the bottleneck and reaches the receiver.
    Deliver {
        flow: usize,
        seq: u32,
        sent_ns: TimeNs,
    },
    /// An acknowledgement reaches the sender: cumulative counters, and how
    /// many words at the front of the flow's `nak_words` are its NAK.
    Ack {
        flow: usize,
        ack_seq: u32,
        rtt_s: f64,
        delivered_cum: u64,
        lost_cum: u64,
        nak_words: usize,
    },
    /// The flow's retransmission timer fires.
    Timeout { flow: usize },
    /// The flow's monitor interval closes.
    MiClose { flow: usize },
}

struct Flow {
    cc: Box<dyn CongestionControl>,
    vars: CcVariables,
    base_rtt_s: f64,
    mi_s: f64,
    // Sender-side state (knowledge carried by ACKs only).
    next_seq: u32,
    sent: u64,
    known_delivered: u64,
    known_lost: u64,
    min_rtt_s: f64,
    srtt_s: f64,
    /// Key the retransmission timer is armed at (`None`: disarmed).
    rto_armed: Option<EventKey>,
    /// Key of the one `Timeout` queued on the flow's timer lane; stale
    /// once it differs from `rto_armed`.
    rto_queued: Option<EventKey>,
    // Receiver-side state.
    rcv_expected: u32,
    rcv_delivered: u64,
    rcv_lost: u64,
    rcv_pending_nak: Vec<(u32, u32)>,
    /// Compressed NAK words of the ACKs in flight, in ACK order.
    nak_words: VecDeque<u32>,
    // Ground-truth accounting.
    acc: Accum,
    completed: Vec<MiStats>,
    // Independent per-flow streams.
    loss_rng: StdRng,
    ack_rng: StdRng,
    noise_rng: StdRng,
}

/// The running multi-flow simulation.
pub struct MultiFlowSim {
    path: MultiFlowPath,
    flows: Vec<Flow>,
    queue: EventQueue<Ev>,
    backlog_pkts: u64,
    link_free_ns: TimeNs,
    duration_ns: TimeNs,
    now_ns: TimeNs,
    finished: bool,
    events_dispatched: u64,
    /// Reused buffer the NAK ranges of a loss report are decoded into.
    loss_ranges: Vec<(u32, u32)>,
}

impl MultiFlowSim {
    /// Builds and initializes a simulation: seeds per-flow RNG streams,
    /// draws starting rates, calls every controller's `on_init`, and
    /// schedules the first send, MI close and RTO per flow (in flow order,
    /// so time-0 ties dispatch deterministically).
    pub fn new(path: MultiFlowPath, specs: Vec<FlowSpec>, seed: u64) -> Self {
        assert!(!specs.is_empty(), "at least one flow");
        assert!(path.duration_s > 0.0 && path.queue_cap_pkts >= 1.0);
        assert!((0.0..=1.0).contains(&path.loss_rate));
        assert!((0.0..=1.0).contains(&path.ack_loss_rate));
        let n = specs.len();
        let fair_share = path.trace.bw_at(0.0) / n as f64;
        let duration_ns = secs_to_ns(path.duration_s);
        let mut sim = Self {
            path,
            flows: Vec::with_capacity(n),
            queue: EventQueue::new(1 + LANES_PER_FLOW * n),
            backlog_pkts: 0,
            link_free_ns: 0,
            duration_ns,
            now_ns: 0,
            finished: false,
            events_dispatched: 0,
            loss_ranges: Vec::new(),
        };
        for (f, spec) in specs.into_iter().enumerate() {
            assert!(spec.base_rtt_s > 0.0, "flow {f}: base RTT must be positive");
            let fu = f as u64;
            let mut start_rng = StdRng::seed_from_u64(derive_seed3(seed, STREAM_START_RATE, fu));
            let start_rate = spec.start_rate_mbps.unwrap_or_else(|| {
                let mult: f64 = start_rng.random_range(0.3..1.5);
                fair_share * mult
            });
            let mi_s = (1.5 * spec.base_rtt_s).clamp(0.02, 1.0);
            let flow = Flow {
                cc: spec.cc,
                vars: CcVariables {
                    pacing_rate_mbps: start_rate.clamp(MIN_RATE_MBPS, MAX_RATE_MBPS),
                    rto_s: (4.0 * spec.base_rtt_s).clamp(0.2, 2.0),
                },
                base_rtt_s: spec.base_rtt_s,
                mi_s,
                next_seq: 0,
                sent: 0,
                known_delivered: 0,
                known_lost: 0,
                min_rtt_s: f64::INFINITY,
                srtt_s: 0.0,
                rto_armed: None,
                rto_queued: None,
                rcv_expected: 0,
                rcv_delivered: 0,
                rcv_lost: 0,
                rcv_pending_nak: Vec::new(),
                nak_words: VecDeque::new(),
                acc: Accum::default(),
                completed: Vec::new(),
                loss_rng: StdRng::seed_from_u64(derive_seed3(seed, STREAM_LOSS, fu)),
                ack_rng: StdRng::seed_from_u64(derive_seed3(seed, STREAM_ACK_LOSS, fu)),
                noise_rng: StdRng::seed_from_u64(derive_seed3(seed, STREAM_NOISE, fu)),
            };
            sim.flows.push(flow);
        }
        for f in 0..n {
            let state = sim.flow_state(f);
            let fl = &mut sim.flows[f];
            let mut vars = fl.vars;
            fl.cc.on_init(&state, &mut vars);
            vars.pacing_rate_mbps = vars.pacing_rate_mbps.clamp(MIN_RATE_MBPS, MAX_RATE_MBPS);
            fl.vars = vars;
        }
        for f in 0..n {
            sim.queue
                .schedule(lane(f, LANE_SEND), 0, Ev::Send { flow: f });
            let mi_ns = secs_to_ns(sim.flows[f].mi_s);
            sim.queue
                .schedule(lane(f, LANE_MI_CLOSE), mi_ns, Ev::MiClose { flow: f });
            sim.arm_rto(f);
        }
        sim
    }

    /// Number of flows.
    pub fn n_flows(&self) -> usize {
        self.flows.len()
    }

    /// Current simulation time (s).
    pub fn now_s(&self) -> f64 {
        ns_to_secs(self.now_ns)
    }

    /// True once the episode is over (all events up to the duration
    /// dispatched and partial MIs closed).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Events dispatched so far (diagnostic; part of determinism
    /// fingerprints).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// The shared path.
    pub fn path(&self) -> &MultiFlowPath {
        &self.path
    }

    /// A flow's monitor-interval length (s).
    pub fn flow_mi_s(&self, flow: usize) -> f64 {
        self.flows[flow].mi_s
    }

    /// A flow's propagation RTT (s).
    pub fn flow_base_rtt_s(&self, flow: usize) -> f64 {
        self.flows[flow].base_rtt_s
    }

    /// A flow's minimum observed RTT (s); base RTT until the first ACK.
    pub fn flow_min_rtt_s(&self, flow: usize) -> f64 {
        let m = self.flows[flow].min_rtt_s;
        if m.is_finite() {
            m
        } else {
            self.flows[flow].base_rtt_s
        }
    }

    /// A flow's current pacing rate (Mbps).
    pub fn flow_rate_mbps(&self, flow: usize) -> f64 {
        self.flows[flow].vars.pacing_rate_mbps
    }

    /// Sets a flow's pacing rate (Mbps), clamped to the legal range —
    /// the hook for externally driven flows ([`crate::control::ExternalCc`]).
    pub fn set_flow_rate_mbps(&mut self, flow: usize, rate: f64) {
        self.flows[flow].vars.pacing_rate_mbps = rate.clamp(MIN_RATE_MBPS, MAX_RATE_MBPS);
    }

    /// Multiplies a flow's pacing rate (the RL action).
    pub fn scale_flow_rate(&mut self, flow: usize, mult: f64) {
        let r = self.flow_rate_mbps(flow);
        self.set_flow_rate_mbps(flow, r * mult);
    }

    /// A flow's completed monitor intervals.
    pub fn completed_mis(&self, flow: usize) -> &[MiStats] {
        &self.flows[flow].completed
    }

    /// Mean per-MI Table-1 reward of a flow (meaningful once finished).
    pub fn flow_reward(&self, flow: usize) -> f64 {
        let rs: Vec<f64> = self.flows[flow]
            .completed
            .iter()
            .map(|m| m.reward())
            .collect();
        mean(&rs)
    }

    /// Runs the whole episode to completion.
    pub fn run(&mut self) {
        while self.dispatch_next() {}
        self.finish();
    }

    /// Advances until `flow` closes its next monitor interval (the RL step
    /// for an externally driven flow) and returns that MI's statistics. At
    /// episode end the in-progress partial interval is closed, so every
    /// call before `finished()` yields a fresh MI.
    pub fn step_flow_mi(&mut self, flow: usize) -> MiStats {
        let before = self.flows[flow].completed.len();
        while self.flows[flow].completed.len() == before {
            if !self.dispatch_next() {
                self.finish();
                break;
            }
        }
        let closed = self.flows[flow].completed.last();
        // genet-lint: allow(panic-in-library) an MI is closed by the loop or by finish() above
        *closed.expect("step_flow_mi closed at least one MI")
    }

    /// Dispatches the next event at or before the episode duration.
    /// A stale `Timeout` is not an event: it re-queues (or drops) and the
    /// loop moves on, uncounted.
    fn dispatch_next(&mut self) -> bool {
        loop {
            let Some(t) = self.queue.peek_time() else {
                return false;
            };
            if t > self.duration_ns {
                return false;
            }
            let Some((key, ev)) = self.queue.pop() else {
                return false;
            };
            if let Ev::Timeout { flow } = ev {
                if !self.take_timeout(flow, key) {
                    continue;
                }
            }
            self.now_ns = key.time_ns;
            self.events_dispatched += 1;
            match ev {
                Ev::Send { flow } => self.on_send(flow),
                Ev::Arrive { flow, seq, sent_ns } => self.on_arrive(flow, seq, sent_ns),
                Ev::Deliver { flow, seq, sent_ns } => self.on_deliver(flow, seq, sent_ns),
                Ev::Ack {
                    flow,
                    ack_seq,
                    rtt_s,
                    delivered_cum,
                    lost_cum,
                    nak_words,
                } => self.on_ack(flow, ack_seq, rtt_s, delivered_cum, lost_cum, nak_words),
                Ev::Timeout { flow } => self.on_timeout(flow),
                Ev::MiClose { flow } => self.on_mi_close(flow),
            }
            return true;
        }
    }

    /// Settles a `Timeout` popped under `key`: true when `key` is the armed
    /// one (the timer fires); otherwise the timer re-queues at its armed key,
    /// if any, and the popped entry is dropped.
    fn take_timeout(&mut self, f: usize, key: EventKey) -> bool {
        let fl = &mut self.flows[f];
        fl.rto_queued = None;
        if fl.rto_armed == Some(key) {
            return true;
        }
        if let Some(armed) = fl.rto_armed {
            fl.rto_queued = Some(armed);
            self.queue
                .schedule_at(lane(f, LANE_TIMEOUT), armed, Ev::Timeout { flow: f });
        }
        false
    }

    /// Drains pending events past the duration and closes partial MIs.
    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.now_ns = self.duration_ns;
        for f in 0..self.flows.len() {
            let fl = &self.flows[f];
            let has_tail = self.now_s() - fl.acc.start_s > 1e-9;
            if has_tail || fl.completed.is_empty() {
                self.close_mi(f);
            }
        }
        self.finished = true;
    }

    fn flow_state(&self, f: usize) -> FlowState {
        let fl = &self.flows[f];
        FlowState {
            flow_id: f,
            now_s: ns_to_secs(self.now_ns),
            mi_s: fl.mi_s,
            base_rtt_s: fl.base_rtt_s,
            min_rtt_s: if fl.min_rtt_s.is_finite() {
                fl.min_rtt_s
            } else {
                fl.base_rtt_s
            },
            srtt_s: if fl.srtt_s > 0.0 {
                fl.srtt_s
            } else {
                fl.base_rtt_s
            },
            inflight_pkts: fl.sent - fl.known_delivered - fl.known_lost,
            sent_pkts: fl.sent,
            delivered_pkts: fl.known_delivered,
            lost_pkts: fl.known_lost,
        }
    }

    /// (Re-)arms the retransmission timer. The key is reserved here, in
    /// the total order, but a `Timeout` is queued only when none is or the
    /// queued one is later; a later deadline waits for the queued entry to
    /// pop stale and re-queue (`take_timeout`).
    fn arm_rto(&mut self, f: usize) {
        let deadline = self.now_ns + secs_to_ns(self.flows[f].vars.rto_s.max(1e-3));
        let key = self.queue.reserve(deadline);
        let fl = &mut self.flows[f];
        fl.rto_armed = Some(key);
        let timer = lane(f, LANE_TIMEOUT);
        match fl.rto_queued {
            None => self.queue.schedule_at(timer, key, Ev::Timeout { flow: f }),
            Some(queued) if key < queued => self.queue.replace(timer, key, Ev::Timeout { flow: f }),
            Some(_) => return,
        }
        fl.rto_queued = Some(key);
    }

    fn on_send(&mut self, f: usize) {
        if self.now_ns >= self.duration_ns {
            return;
        }
        let fwd_ns = secs_to_ns(self.flows[f].base_rtt_s / 2.0);
        {
            let fl = &mut self.flows[f];
            fl.next_seq += 1;
            fl.sent += 1;
            fl.acc.sent += 1.0;
        }
        let seq = self.flows[f].next_seq - 1;
        let state = self.flow_state(f);
        let fl = &mut self.flows[f];
        let mut vars = fl.vars;
        fl.cc.on_packet_sent(&state, &mut vars);
        fl.vars = vars;
        // Random (non-congestion) loss is decided — and accounted — at send
        // time, like the fluid core; the receiver later detects the gap.
        // Nothing else reads the loss stream, so a lossless path skips the
        // draw.
        let lost = self.path.loss_rate > 0.0 && fl.loss_rng.random::<f64>() < self.path.loss_rate;
        if lost {
            fl.acc.lost += 1.0;
        } else {
            self.queue.schedule(
                lane(f, LANE_ARRIVE),
                self.now_ns + fwd_ns,
                Ev::Arrive {
                    flow: f,
                    seq,
                    sent_ns: self.now_ns,
                },
            );
        }
        // Pace the next packet at the (possibly just-updated) rate.
        let rate = self.flows[f]
            .vars
            .pacing_rate_mbps
            .clamp(MIN_RATE_MBPS, MAX_RATE_MBPS);
        let interval_ns = secs_to_ns(PACKET_BITS / (rate * 1e6)).max(1);
        let next = self.now_ns + interval_ns;
        if next < self.duration_ns {
            self.queue
                .schedule(lane(f, LANE_SEND), next, Ev::Send { flow: f });
        }
    }

    fn on_arrive(&mut self, f: usize, seq: u32, sent_ns: TimeNs) {
        if (self.backlog_pkts as f64) >= self.path.queue_cap_pkts {
            // Congestion drop at the bottleneck (ground truth, at drop
            // time); the receiver will report the gap.
            self.flows[f].acc.lost += 1.0;
            return;
        }
        self.backlog_pkts += 1;
        let service_start = self.link_free_ns.max(self.now_ns);
        let bw = self.path.trace.bw_at(ns_to_secs(service_start)).max(1e-3);
        let service_ns = secs_to_ns(PACKET_BITS / (bw * 1e6)).max(1);
        let depart = service_start + service_ns;
        self.link_free_ns = depart;
        self.queue.schedule(
            LANE_DELIVER,
            depart,
            Ev::Deliver {
                flow: f,
                seq,
                sent_ns,
            },
        );
    }

    fn on_deliver(&mut self, f: usize, seq: u32, sent_ns: TimeNs) {
        self.backlog_pkts = self.backlog_pkts.saturating_sub(1);
        let ret_ns = secs_to_ns(self.flows[f].base_rtt_s / 2.0);
        let noise_sd = self.path.delay_noise_s;
        let elapsed_fwd_s = ns_to_secs(self.now_ns - sent_ns);
        let fl = &mut self.flows[f];
        // One path, one FIFO: per-flow packets deliver in order, so any
        // sequence gap is a loss, never reordering.
        if seq > fl.rcv_expected {
            let gap = (fl.rcv_expected, seq - 1);
            fl.rcv_lost += u64::from(gap.1) - u64::from(gap.0) + 1;
            fl.rcv_pending_nak.push(gap);
        }
        fl.rcv_expected = seq + 1;
        fl.rcv_delivered += 1;
        let noise = if noise_sd > 0.0 {
            sample_gaussian(&mut fl.noise_rng, 0.0, noise_sd).max(0.0)
        } else {
            0.0
        };
        let rtt_s = elapsed_fwd_s + ns_to_secs(ret_ns) + noise;
        fl.acc.delivered += 1.0;
        fl.acc.lat_weighted += rtt_s;
        // The ACK (cumulative counters + the pending NAK ranges) crosses the
        // reverse path; ACK loss destroys the detailed ranges but never the
        // cumulative counts — the next ACK carries those forward.
        // The ACK-loss stream likewise has no other reader.
        let dropped =
            self.path.ack_loss_rate > 0.0 && fl.ack_rng.random::<f64>() < self.path.ack_loss_rate;
        if dropped {
            fl.rcv_pending_nak.clear();
            return;
        }
        let before = fl.nak_words.len();
        let words = &mut fl.nak_words;
        encode_loss_ranges(&fl.rcv_pending_nak, |w| words.push_back(w));
        fl.rcv_pending_nak.clear();
        let ack = Ev::Ack {
            flow: f,
            ack_seq: seq,
            rtt_s,
            delivered_cum: fl.rcv_delivered,
            lost_cum: fl.rcv_lost,
            nak_words: fl.nak_words.len() - before,
        };
        self.queue
            .schedule(lane(f, LANE_ACK), self.now_ns + ret_ns, ack);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_ack(
        &mut self,
        f: usize,
        ack_seq: u32,
        rtt_s: f64,
        delivered_cum: u64,
        lost_cum: u64,
        nak_words: usize,
    ) {
        {
            let fl = &mut self.flows[f];
            fl.min_rtt_s = fl.min_rtt_s.min(rtt_s);
            fl.srtt_s = if fl.srtt_s > 0.0 {
                0.875 * fl.srtt_s + 0.125 * rtt_s
            } else {
                rtt_s
            };
        }
        let newly_acked = delivered_cum.saturating_sub(self.flows[f].known_delivered);
        let newly_lost = lost_cum.saturating_sub(self.flows[f].known_lost);
        self.flows[f].known_delivered = delivered_cum;
        self.flows[f].known_lost = lost_cum;
        let state = self.flow_state(f);
        let fl = &mut self.flows[f];
        let mut vars = fl.vars;
        fl.cc.on_ack(
            &AckInfo {
                ack_seq,
                rtt_s,
                newly_acked,
            },
            &state,
            &mut vars,
        );
        // This ACK's NAK words are the next ones in the flow's FIFO: ACKs of
        // one flow dispatch in the order they were scheduled.
        if newly_lost > 0 {
            let mut ranges = std::mem::take(&mut self.loss_ranges);
            ranges.clear();
            decode_loss_ranges(fl.nak_words.drain(..nak_words), &mut ranges);
            let loss = LossInfo { newly_lost, ranges };
            fl.cc.on_loss(&loss, &state, &mut vars);
            self.loss_ranges = loss.ranges;
        } else {
            fl.nak_words.drain(..nak_words);
        }
        vars.pacing_rate_mbps = vars.pacing_rate_mbps.clamp(MIN_RATE_MBPS, MAX_RATE_MBPS);
        fl.vars = vars;
        // A (late) ACK re-arms the retransmission timer for the data still
        // in flight; the deadline it replaces never fires.
        self.arm_rto(f);
    }

    fn on_timeout(&mut self, f: usize) {
        self.flows[f].rto_armed = None;
        let state = self.flow_state(f);
        if state.inflight_pkts > 0 {
            let fl = &mut self.flows[f];
            let mut vars = fl.vars;
            fl.cc.on_timeout(&state, &mut vars);
            vars.pacing_rate_mbps = vars.pacing_rate_mbps.clamp(MIN_RATE_MBPS, MAX_RATE_MBPS);
            fl.vars = vars;
        }
        self.arm_rto(f);
    }

    fn on_mi_close(&mut self, f: usize) {
        self.close_mi(f);
        let next = self.now_ns + secs_to_ns(self.flows[f].mi_s);
        if next <= self.duration_ns {
            self.queue
                .schedule(lane(f, LANE_MI_CLOSE), next, Ev::MiClose { flow: f });
        }
    }

    /// Closes the in-progress MI with the fluid core's exact stat formulas.
    fn close_mi(&mut self, f: usize) {
        let now_s = ns_to_secs(self.now_ns);
        let fallback_lat = self.flows[f].base_rtt_s
            + self.path.queue_cap_pkts / mbps_to_pps(self.path.trace.bw_at(now_s).max(1e-3));
        let fl = &mut self.flows[f];
        let dur = (now_s - fl.acc.start_s).max(1e-9);
        let delivered = fl.acc.delivered;
        let stats = MiStats {
            start_s: fl.acc.start_s,
            dur_s: dur,
            sent_pkts: fl.acc.sent,
            delivered_pkts: delivered,
            lost_pkts: fl.acc.lost,
            avg_latency_s: if delivered > 0.0 {
                fl.acc.lat_weighted / delivered
            } else {
                fallback_lat
            },
            throughput_mbps: delivered * PACKET_BITS / 1e6 / dur,
            loss_frac: if fl.acc.sent > 0.0 {
                fl.acc.lost / fl.acc.sent
            } else {
                0.0
            },
        };
        fl.completed.push(stats);
        fl.acc = Accum {
            start_s: now_s,
            ..Accum::default()
        };
        let state = self.flow_state(f);
        let fl = &mut self.flows[f];
        let mut vars = fl.vars;
        fl.cc.on_mi(&stats, &state, &mut vars);
        vars.pacing_rate_mbps = vars.pacing_rate_mbps.clamp(MIN_RATE_MBPS, MAX_RATE_MBPS);
        fl.vars = vars;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ExternalCc;

    fn path(bw: f64, queue: f64, loss: f64, dur: f64) -> MultiFlowPath {
        MultiFlowPath {
            trace: BandwidthTrace::constant(bw, dur + 1.0),
            queue_cap_pkts: queue,
            loss_rate: loss,
            ack_loss_rate: 0.0,
            delay_noise_s: 0.0,
            duration_s: dur,
        }
    }

    fn fixed_flow(rate: f64, rtt_s: f64) -> FlowSpec {
        FlowSpec {
            cc: Box::new(ExternalCc),
            base_rtt_s: rtt_s,
            start_rate_mbps: Some(rate),
        }
    }

    #[test]
    fn single_flow_underload_delivers_at_rate() {
        let mut sim = MultiFlowSim::new(path(10.0, 50.0, 0.0, 10.0), vec![fixed_flow(2.0, 0.1)], 0);
        sim.run();
        assert!(sim.finished());
        let mis = sim.completed_mis(0);
        assert!(mis.len() > 50, "{} MIs", mis.len());
        for m in &mis[1..mis.len() - 1] {
            assert!((m.throughput_mbps - 2.0).abs() < 0.25, "{m:?}");
            assert!(m.loss_frac < 1e-9, "{m:?}");
            // Base RTT + one service time at 10 Mbps (~1.2 ms).
            assert!((m.avg_latency_s - 0.1).abs() < 0.01, "{m:?}");
        }
    }

    #[test]
    fn single_flow_overload_saturates_and_drops() {
        let mut sim = MultiFlowSim::new(path(2.0, 20.0, 0.0, 10.0), vec![fixed_flow(8.0, 0.1)], 0);
        sim.run();
        let mis = sim.completed_mis(0);
        let last = mis.last().unwrap();
        assert!(last.loss_frac > 0.5, "{last:?}");
        assert!((last.throughput_mbps - 2.0).abs() < 0.3, "{last:?}");
        assert!(last.avg_latency_s > 0.15, "{last:?}");
    }

    #[test]
    fn random_loss_rate_is_respected() {
        let mut sim = MultiFlowSim::new(
            path(10.0, 100.0, 0.02, 10.0),
            vec![fixed_flow(3.0, 0.05)],
            0,
        );
        sim.run();
        let mis = sim.completed_mis(0);
        let sent: f64 = mis.iter().map(|m| m.sent_pkts).sum();
        let lost: f64 = mis.iter().map(|m| m.lost_pkts).sum();
        assert!((lost / sent - 0.02).abs() < 0.01, "{}", lost / sent);
    }

    #[test]
    fn two_equal_flows_split_the_bottleneck() {
        let mut sim = MultiFlowSim::new(
            path(6.0, 60.0, 0.0, 10.0),
            vec![fixed_flow(3.0, 0.05), fixed_flow(3.0, 0.05)],
            0,
        );
        sim.run();
        for f in 0..2 {
            let mis = sim.completed_mis(f);
            let steady = &mis[mis.len() / 2..];
            let tput =
                genet_math::mean(&steady.iter().map(|m| m.throughput_mbps).collect::<Vec<_>>());
            assert!((tput - 3.0).abs() < 0.3, "flow {f}: {tput}");
        }
    }

    #[test]
    fn identical_seeds_are_bit_identical_and_seeds_differ() {
        let run = |seed| {
            let mut sim = MultiFlowSim::new(
                MultiFlowPath {
                    delay_noise_s: 0.005,
                    ack_loss_rate: 0.05,
                    ..path(4.0, 30.0, 0.01, 8.0)
                },
                vec![fixed_flow(2.0, 0.06), fixed_flow(2.5, 0.09)],
                seed,
            );
            sim.run();
            (
                sim.flow_reward(0).to_bits(),
                sim.flow_reward(1).to_bits(),
                sim.events_dispatched(),
            )
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn step_flow_mi_matches_run_to_completion() {
        let build = || {
            MultiFlowSim::new(
                path(4.0, 30.0, 0.0, 8.0),
                vec![fixed_flow(2.0, 0.1), fixed_flow(1.0, 0.1)],
                1,
            )
        };
        let mut whole = build();
        whole.run();
        let mut stepped = build();
        while !stepped.finished() {
            stepped.step_flow_mi(0);
        }
        assert_eq!(whole.completed_mis(0).len(), stepped.completed_mis(0).len());
        for (a, b) in whole.completed_mis(0).iter().zip(stepped.completed_mis(0)) {
            assert_eq!(a.reward().to_bits(), b.reward().to_bits());
        }
    }

    #[test]
    fn ack_loss_delays_but_does_not_lose_counts() {
        // With heavy ACK loss the sender still learns cumulative delivery.
        let mut sim = MultiFlowSim::new(
            MultiFlowPath {
                ack_loss_rate: 0.5,
                ..path(4.0, 40.0, 0.0, 10.0)
            },
            vec![fixed_flow(2.0, 0.1)],
            2,
        );
        sim.run();
        let fl_delivered: f64 = sim.completed_mis(0).iter().map(|m| m.delivered_pkts).sum();
        assert!(fl_delivered > 0.0);
        // Sender knowledge tracks ground truth within the in-flight tail.
        let known = sim.flows[0].known_delivered as f64;
        assert!(
            known >= fl_delivered * 0.9,
            "known {known} vs delivered {fl_delivered}"
        );
    }
}
