/// How much of a neighbor table a notification message carries — the §6.2
/// message-size reduction enhancements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PayloadMode {
    /// Every message carries the sender's full table (the base protocol of
    /// §4, and the default).
    #[default]
    Full,
    /// A `JoinNotiMsg` from `x` to `y` carries only levels
    /// `x.noti_level ..= |csuf(x, y)|` of `x`'s table (§6.2, first bullet).
    Levels,
    /// In addition to [`PayloadMode::Levels`], the `JoinNotiMsg` carries a
    /// bit vector of `x`'s filled entries and the reply omits entries `x`
    /// already has below its notification level (§6.2, second bullet).
    BitVector,
}

/// Timeout-and-retry parameters for running the join protocol over a lossy
/// transport (the paper assumes reliable delivery; this is the engineering
/// extension that makes the assumption hold in practice).
///
/// With a policy installed, the engine guards every request (`CpRstMsg`,
/// `JoinWaitMsg`, `JoinNotiMsg`, `SpeNotiMsg` and the state notifications
/// `RvNghNotiMsg`, `InSysNotiMsg`) with a timer and retransmits up to
/// [`max_retries`](RetryPolicy::max_retries) times until the reply
/// arrives. The paper answers a `RvNghNotiMsg` only on a state mismatch
/// and an `InSysNotiMsg` never; under a policy the receiver always
/// acknowledges them (`RvNghNotiRlyMsg`, `PongMsg`).
///
/// How the retransmissions are spaced, and what exhaustion means, depends
/// on the fault model, and a configured [`FailureDetector`] is what says
/// which one runs:
///
/// * **Loss only** (no detector): silence means a lost datagram, so every
///   retransmission waits the same [`timeout_us`](RetryPolicy::timeout_us)
///   and an exhausted request is simply given up; no peer is condemned.
/// * **Crashes** (a detector): silence may mean a dead peer. Every
///   retransmission after the first doubles the wait, up to 16 s, shifted
///   by a deterministic ±10 % jitter derived from `(node, timer, attempt)`
///   so every rerun of a seed jitters identically; and when a
///   *join-critical* request (`CpRstMsg`, `JoinWaitMsg`, `JoinNotiMsg`,
///   `SpeNotiMsg`) exhausts its retries, the joiner treats the silent peer
///   as dead and falls back instead of stranding: it restarts the copy
///   through an alternate contact, or drops the dead peer from its
///   notification wait set so the switch to S-node can still happen.
///
/// A lossless run whose replies beat the first timeout is bit-identical
/// under either model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Microseconds to wait for a reply before the first retransmission
    /// (and, without a detector, before every later one).
    pub timeout_us: u64,
    /// Maximum retransmissions of a request.
    pub max_retries: u32,
    // Read nowhere (notifications are acknowledged like every other
    // request): the frozen `benchmark/` sets it in a struct literal.
    // Goes with the thaw (ROADMAP item 7(d)).
    #[doc(hidden)]
    pub noti_repeats: u32,
}

/// Upper bound on a backed-off timeout, in microseconds.
const MAX_TIMEOUT_US: u64 = 16_000_000;

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_us: 1_000_000,
            max_retries: 16,
            noti_repeats: 4,
        }
    }
}

impl RetryPolicy {
    /// The crash model's delay before retransmission `attempt` of a
    /// request fires (`attempt` 0 is the initial arm): the timeout
    /// doubles per attempt, saturating at 16 s, and for `attempt > 0` is
    /// then shifted by a deterministic jitter of up to ±10 % derived from
    /// `salt` (a pure function of the node and timer, so reruns of a seed
    /// are bit-identical). Under loss alone every wait is
    /// [`timeout_us`](Self::timeout_us).
    pub(crate) fn retry_delay(&self, salt: u64, attempt: u32) -> u64 {
        let mut d = self.timeout_us;
        for _ in 0..attempt {
            d = d.saturating_mul(2);
            if d >= MAX_TIMEOUT_US {
                d = MAX_TIMEOUT_US;
                break;
            }
        }
        let amp = d / 10;
        if attempt > 0 && amp > 0 {
            // SplitMix64 over (salt, attempt): cheap, stateless, and
            // identical on every rerun.
            let mut z = salt ^ (u64::from(attempt)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let span = 2 * amp + 1;
            d = d - amp + z % span;
        }
        d.max(1)
    }
}

/// Crash-failure detection and table-repair parameters (the paper defers
/// failures to future work; this is the crash-churn extension).
///
/// With a detector installed, every `in_system` node periodically probes
/// its stored neighbors and reverse neighbors with `PingMsg`s. A neighbor
/// that leaves [`suspicion_threshold`](FailureDetector::suspicion_threshold)
/// consecutive probes unanswered is declared dead: its table entries are
/// evicted, and (when [`repair`](FailureDetector::repair) is on) a
/// `RepairQryMsg` is suffix-routed toward each vacated `(level, digit)`
/// slot to find a surviving replacement, which is installed through the
/// same `T`→`S` state discipline the join protocol uses. Repair queries
/// are paced: at most four slots are queried per probe tick, and a slot
/// that stays vacant waits `2^attempts` ticks (capped at 32) before its
/// next query (see `repair.rs`).
///
/// A detector is also the one switch for the crash model of a
/// [`RetryPolicy`]: with one configured, retransmissions back off with
/// jitter and an exhausted join-critical request runs the join fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureDetector {
    /// Microseconds between liveness probes of each monitored neighbor.
    pub probe_interval_us: u64,
    /// Consecutive unanswered probes before a neighbor is declared dead.
    pub suspicion_threshold: u32,
    /// Whether evicted slots are refilled via `RepairQryMsg` routing;
    /// with repair off the detector only evicts (the control arm of the
    /// `crashchurn` experiment).
    pub repair: bool,
}

impl Default for FailureDetector {
    fn default() -> Self {
        FailureDetector {
            probe_interval_us: 2_000_000,
            suspicion_threshold: 3,
            repair: true,
        }
    }
}

/// Tunable options of the join protocol.
///
/// The defaults reproduce the paper's base protocol exactly; the payload
/// modes are the paper's own §6.2 enhancements, kept optional so their
/// effect can be measured (see the `ablation_msgsize` experiment). The
/// retry, trace, and failure-detection extensions default to off, so a
/// default-configured engine emits exactly the same effect stream as
/// before they existed (the golden tests pin this).
///
/// Fields are private; construct with the builder methods so future knobs
/// do not churn every construction site:
///
/// ```
/// use hyperring_core::{FailureDetector, ProtocolOptions, RetryPolicy};
/// let opts = ProtocolOptions::new()
///     .with_retry(RetryPolicy::default())
///     .with_failure_detector(FailureDetector::default())
///     .with_trace();
/// assert!(opts.retry().is_some());
/// assert!(opts.failure_detector().is_some());
/// assert!(opts.trace());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtocolOptions {
    /// Table-payload reduction mode.
    pub(crate) payload: PayloadMode,
    /// Timeout-and-retry policy; `None` (the default) assumes a reliable
    /// transport and arms no timers.
    pub(crate) retry: Option<RetryPolicy>,
    /// Whether the engine emits [`Effect::Trace`](crate::Effect) events.
    pub(crate) trace: bool,
    /// Crash-failure detection; `None` (the default) assumes crash-free
    /// nodes and sends no probes.
    pub(crate) failure_detector: Option<FailureDetector>,
}

impl ProtocolOptions {
    /// The base protocol (full tables in every message).
    pub fn new() -> Self {
        Self::default()
    }

    /// Base protocol with the given payload mode.
    pub fn with_payload(payload: PayloadMode) -> Self {
        ProtocolOptions {
            payload,
            ..Self::default()
        }
    }

    /// Enables timeout-and-retry with the given policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Enables structured trace emission.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enables crash-failure detection (and, per the config, repair).
    pub fn with_failure_detector(mut self, detector: FailureDetector) -> Self {
        self.failure_detector = Some(detector);
        self
    }

    /// The configured table-payload reduction mode.
    pub fn payload(&self) -> PayloadMode {
        self.payload
    }

    /// The configured timeout-and-retry policy, if any.
    pub fn retry(&self) -> Option<RetryPolicy> {
        self.retry
    }

    /// Whether structured trace emission is on.
    pub fn trace(&self) -> bool {
        self.trace
    }

    /// The configured crash-failure detector, if any.
    pub fn failure_detector(&self) -> Option<FailureDetector> {
        self.failure_detector
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_payload() {
        assert_eq!(ProtocolOptions::new().payload(), PayloadMode::Full);
        assert_eq!(ProtocolOptions::default(), ProtocolOptions::new());
    }

    #[test]
    fn with_payload_sets_mode() {
        let o = ProtocolOptions::with_payload(PayloadMode::BitVector);
        assert_eq!(o.payload(), PayloadMode::BitVector);
    }

    #[test]
    fn retry_and_trace_default_off() {
        let o = ProtocolOptions::new();
        assert!(o.retry().is_none());
        assert!(!o.trace());
        let o = o.with_retry(RetryPolicy::default()).with_trace();
        assert_eq!(o.retry().unwrap().max_retries, 16);
        assert!(o.trace());
    }

    #[test]
    fn failure_detector_defaults_off_and_builds_on() {
        let o = ProtocolOptions::new();
        assert!(o.failure_detector().is_none());
        let o = o.with_failure_detector(FailureDetector::default());
        let fd = o.failure_detector().unwrap();
        assert_eq!(fd.suspicion_threshold, 3);
        assert!(fd.repair);
    }
}
