//! Pins the event core's dispatch order on fixed scenarios: the exact
//! number of events dispatched, every flow's monitor-interval count and
//! the bits of every flow's reward.
//!
//! Every flow is fixed-rate ([`ExternalCc`], or [`LossRecorder`], which
//! keeps its rate too but digests the loss reports and timer firings it
//! sees, and in one case moves its RTO) or pinned to the fair share
//! ([`OracleCc`]), and no case draws delay noise. No libm call decides
//! anything on these paths, so the values are the same on every host. They were recorded while the queue was still a
//! `BTreeMap<EventKey, Ev>`: any queue that dispatches the same
//! `(time_ns, seq)` order reproduces them bit for bit, and a change to that
//! order moves at least one of them.

use genet_cc::control::{
    AckInfo, CcVariables, CongestionControl, ExternalCc, FlowState, LossInfo, OracleCc,
};
use genet_cc::multiflow::{FlowSpec, MultiFlowPath, MultiFlowSim};
use genet_traces::BandwidthTrace;
use std::cell::Cell;
use std::rc::Rc;

/// Inert like [`ExternalCc`], but folds every loss report and timer firing
/// it sees into an integer digest, so the NAK ranges that ride the ACKs are
/// pinned too, not only their effect on the counters.
struct LossRecorder {
    digest: Rc<Cell<u64>>,
    /// Alternates the RTO between a long and a short deadline on every
    /// ACK, so the timer is re-armed to earlier keys as well as later ones.
    flip_rto: bool,
}

impl LossRecorder {
    fn fold(&self, word: u64) {
        // FNV-1a over 64-bit words: integer-only, host-independent.
        let h = (self.digest.get() ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        self.digest.set(h);
    }
}

impl CongestionControl for LossRecorder {
    fn on_ack(&mut self, ack: &AckInfo, _s: &FlowState, v: &mut CcVariables) {
        if self.flip_rto {
            v.rto_s = if ack.ack_seq.is_multiple_of(2) {
                0.5
            } else {
                0.03
            };
        }
    }
    fn on_loss(&mut self, loss: &LossInfo, _s: &FlowState, _v: &mut CcVariables) {
        self.fold(loss.newly_lost);
        for &(start, end) in &loss.ranges {
            self.fold(u64::from(start) << 32 | u64::from(end));
        }
    }
    fn on_timeout(&mut self, s: &FlowState, _v: &mut CcVariables) {
        self.fold(u64::MAX ^ s.inflight_pkts);
    }
}

/// One flow of a case.
enum Law {
    /// Fixed rate (Mbps).
    Fixed(f64),
    /// Fixed rate (Mbps), loss reports digested.
    Recorded(f64),
    /// As `Recorded`, with the RTO flipped on every ACK.
    FlippedRto(f64),
    /// The trace's fair share.
    Oracle,
}

/// Everything a case pins.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    mis: Vec<usize>,
    reward_bits: Vec<u64>,
    loss_digest: u64,
}

fn path(trace: BandwidthTrace, queue: f64, loss: f64, ack_loss: f64, dur: f64) -> MultiFlowPath {
    MultiFlowPath {
        trace,
        queue_cap_pkts: queue,
        loss_rate: loss,
        ack_loss_rate: ack_loss,
        delay_noise_s: 0.0,
        duration_s: dur,
    }
}

/// The digest of a run in which no recorder saw a report (the FNV offset).
const NO_REPORTS: u64 = 0xCBF2_9CE4_8422_2325;

fn run(path: MultiFlowPath, flows: &[(Law, f64)], seed: u64) -> Fingerprint {
    let digest = Rc::new(Cell::new(NO_REPORTS));
    let n = flows.len();
    let specs = flows
        .iter()
        .map(|(law, rtt_s)| {
            let (cc, rate): (Box<dyn CongestionControl>, f64) = match *law {
                Law::Fixed(r) => (Box::new(ExternalCc), r),
                Law::Recorded(r) | Law::FlippedRto(r) => (
                    Box::new(LossRecorder {
                        digest: digest.clone(),
                        flip_rto: matches!(law, Law::FlippedRto(_)),
                    }),
                    r,
                ),
                Law::Oracle => (Box::new(OracleCc::new(path.trace.clone(), n)), 1.0),
            };
            FlowSpec {
                cc,
                base_rtt_s: *rtt_s,
                start_rate_mbps: Some(rate),
            }
        })
        .collect();
    let mut sim = MultiFlowSim::new(path, specs, seed);
    sim.run();
    Fingerprint {
        events: sim.events_dispatched(),
        mis: (0..n).map(|f| sim.completed_mis(f).len()).collect(),
        reward_bits: (0..n).map(|f| sim.flow_reward(f).to_bits()).collect(),
        loss_digest: digest.get(),
    }
}

fn constant(bw: f64, dur: f64) -> BandwidthTrace {
    BandwidthTrace::constant(bw, dur + 1.0)
}

#[test]
fn one_flow() {
    let got = run(
        path(constant(10.0, 6.0), 50.0, 0.0, 0.0, 6.0),
        &[(Law::Fixed(3.0), 0.05)],
        1,
    );
    assert_eq!(
        got,
        Fingerprint {
            events: 6056,
            mis: vec![80],
            reward_bits: vec![0x4073_35C2_8F5C_28F2],
            loss_digest: NO_REPORTS,
        }
    );
}

#[test]
fn two_flows_with_different_rtts() {
    let got = run(
        path(constant(8.0, 6.0), 40.0, 0.0, 0.0, 6.0),
        &[(Law::Fixed(5.0), 0.03), (Law::Oracle, 0.07)],
        2,
    );
    assert_eq!(
        got,
        Fingerprint {
            events: 17126,
            mis: vec![134, 58],
            reward_bits: vec![0x403E_1A5D_07E9_7E38, 0x4075_A352_2D9B_5231],
            loss_digest: NO_REPORTS,
        }
    );
}

#[test]
fn five_flows_with_different_rtts() {
    let got = run(
        path(constant(12.0, 6.0), 60.0, 0.0, 0.0, 6.0),
        &[
            (Law::Fixed(2.0), 0.02),
            (Law::Oracle, 0.035),
            (Law::Fixed(3.0), 0.05),
            (Law::Oracle, 0.08),
            (Law::Fixed(4.0), 0.12),
        ],
        3,
    );
    assert_eq!(
        got,
        Fingerprint {
            events: 26152,
            mis: vec![200, 115, 80, 50, 34],
            reward_bits: vec![
                0x4064_0CB0_20C4_9B98,
                0x4033_556C_46C7_A96D,
                0x406F_00EF_BD8D_0BAA,
                0xC03C_714C_A514_CA5C,
                0xC07F_DB66_BC56_4229
            ],
            loss_digest: NO_REPORTS,
        }
    );
}

#[test]
fn eight_flows_with_different_rtts() {
    let flows: Vec<(Law, f64)> = (0..8)
        .map(|f| {
            let law = if f % 2 == 0 {
                Law::Fixed(1.5 + 0.25 * f as f64)
            } else {
                Law::Oracle
            };
            (law, 0.015 + 0.012 * f as f64)
        })
        .collect();
    let got = run(path(constant(16.0, 5.0), 80.0, 0.0, 0.0, 5.0), &flows, 4);
    assert_eq!(
        got,
        Fingerprint {
            events: 28011,
            mis: vec![223, 124, 86, 66, 53, 45, 39, 34],
            reward_bits: vec![
                0xC07D_CDC1_3E5F_AA57,
                0xC073_02C4_B400_4206,
                0x4062_0454_A740_B613,
                0x4060_9550_CA71_958E,
                0x4066_66C2_B88F_1234,
                0x405B_29A8_ECE4_824B,
                0x406A_CD3F_7D63_4F6E,
                0x4055_4E38_D305_4EF8
            ],
            loss_digest: NO_REPORTS,
        }
    );
}

#[test]
fn stepped_bandwidth_trace() {
    let trace = BandwidthTrace::new(vec![0.0, 1.5, 3.0, 4.5], vec![10.0, 3.0, 7.0, 5.0]);
    let got = run(
        path(trace, 40.0, 0.0, 0.0, 6.0),
        &[
            (Law::Oracle, 0.04),
            (Law::Oracle, 0.09),
            (Law::Fixed(2.5), 0.06),
        ],
        5,
    );
    assert_eq!(
        got,
        Fingerprint {
            events: 12883,
            mis: vec![100, 45, 67],
            reward_bits: vec![
                0xC077_0571_6496_FB46,
                0x4048_0D2F_BC7E_F18D,
                0xC062_1202_2C67_2750
            ],
            loss_digest: NO_REPORTS,
        }
    );
}

#[test]
fn phase_locked_equal_flows() {
    // Identical flows started together send, arrive and deliver at equal
    // timestamps, so every tie across their lanes breaks by `seq`.
    let flows: Vec<(Law, f64)> = (0..4).map(|_| (Law::Fixed(1.5), 0.08)).collect();
    let got = run(path(constant(8.0, 6.0), 60.0, 0.01, 0.0, 6.0), &flows, 9);
    assert_eq!(
        got,
        Fingerprint {
            events: 12054,
            mis: vec![50, 50, 50, 50],
            reward_bits: vec![
                0x4053_3D03_69D0_36A0,
                0x4054_51F6_7152_9A4D,
                0x4051_C488_24AB_407A,
                0x4054_5D05_C0FF_E70B
            ],
            loss_digest: NO_REPORTS,
        }
    );
}

#[test]
fn random_loss() {
    let got = run(
        path(constant(8.0, 6.0), 40.0, 0.03, 0.0, 6.0),
        &[
            (Law::Recorded(3.0), 0.05),
            (Law::Fixed(2.0), 0.08),
            (Law::Oracle, 0.11),
        ],
        6,
    );
    assert_eq!(
        got,
        Fingerprint {
            events: 15054,
            mis: vec![80, 50, 37],
            reward_bits: vec![
                0x406D_6E4C_1604_8AF5,
                0x4057_59F3_2F5E_1385,
                0x405F_707E_3DB3_6C45
            ],
            loss_digest: 0xE5B8_CBC2_B303_AE20,
        }
    );
}

#[test]
fn ack_loss_with_data_loss() {
    // Overloaded (7 Mbps offered on 6) with random loss on top, so NAK
    // ranges ride the ACKs, and 30% of those ACKs are lost.
    let got = run(
        path(constant(6.0, 6.0), 30.0, 0.02, 0.3, 6.0),
        &[(Law::Recorded(4.0), 0.06), (Law::Recorded(3.0), 0.1)],
        7,
    );
    assert_eq!(
        got,
        Fingerprint {
            events: 12037,
            mis: vec![67, 40],
            reward_bits: vec![0xC066_C487_CCF8_37D9, 0x4062_6506_B7B9_965E],
            loss_digest: 0x3CF4_B4FA_32EE_F44E,
        }
    );
}

#[test]
fn link_outage_mid_episode_fires_the_rto() {
    // Healthy ACK clocks for 2 s (every ACK re-arms the timer past the
    // deadline it has queued), then the bottleneck all but stops: a packet
    // takes 12 s to serve, the ACKs dry up and the timers fire.
    let trace = BandwidthTrace::new(vec![0.0, 2.0], vec![6.0, 0.0]);
    let got = run(
        path(trace, 40.0, 0.0, 0.0, 5.0),
        &[(Law::Recorded(2.0), 0.05), (Law::Oracle, 0.08)],
        10,
    );
    assert_eq!(
        got,
        Fingerprint {
            events: 4863,
            mis: vec![67, 42],
            reward_bits: vec![0xC106_E038_CCA1_53A2, 0xC106_5B01_5366_50E1],
            loss_digest: 0x7C86_912D_BEB2_70A3,
        }
    );
}

#[test]
fn rto_rearmed_earlier_and_later() {
    // Odd ACKs re-arm to a 30 ms deadline, earlier than the 500 ms one an
    // even ACK queued; at 0.3 Mbps the next ACK is 40 ms away, so the short
    // deadline also fires.
    let got = run(
        path(constant(4.0, 5.0), 40.0, 0.0, 0.0, 5.0),
        &[
            (Law::FlippedRto(0.3), 0.06),
            (Law::FlippedRto(1.0), 0.1),
            (Law::Fixed(1.5), 0.05),
        ],
        11,
    );
    assert_eq!(
        got,
        Fingerprint {
            events: 4853,
            mis: vec![56, 34, 67],
            reward_bits: vec![
                0xC03C_235A_35A3_5A39,
                0x402E_DBDB_DBDB_DBDE,
                0x405F_761B_AE25_DE8F,
            ],
            loss_digest: 0x59F3_032E_0C64_BDEC,
        }
    );
}

#[test]
fn total_ack_outage_fires_the_rto() {
    let got = run(
        path(constant(8.0, 5.0), 40.0, 0.0, 1.0, 5.0),
        &[(Law::Recorded(2.0), 0.1), (Law::Oracle, 0.05)],
        8,
    );
    assert_eq!(
        got,
        Fingerprint {
            events: 7605,
            mis: vec![34, 67],
            reward_bits: vec![0x4060_EEAE_AEAE_AEAE, 0x407A_9EBB_FCF1_7B0A],
            loss_digest: 0xE00A_9D4F_F6FB_57BD,
        }
    );
}
