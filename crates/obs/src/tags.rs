//! The workspace's tag vocabulary.
//!
//! Tag keys are a closed, documented set so exported series stay joinable
//! across pipeline stages: a dashboard can group `sweep.point_seconds`
//! and `serve.request_seconds` by the *same* `platform` key only because
//! every call site spells it identically. Instrumented code should take
//! keys from here rather than inlining string literals.
//!
//! The vocabulary, by layer (every key is used by some series):
//!
//! * pipeline tags: [`PLATFORM`], [`M_COMP`], [`M_COMM`], [`N_CORES`],
//!   [`MODE`], [`RULE`], [`REASON`], [`FIGURE`], [`COMMAND`],
//!   [`WORKERS`], [`PREDICTOR`];
//! * serving tags: [`OP`], [`RESULT`], [`BATCH_SIZE`], [`TENANT`],
//!   [`TRANSPORT`];
//! * replay tags: [`RANKS`], [`RANK`], [`EVENT`];
//! * scheduler tags: [`POLICY`], [`FLEET`], [`NODE`], [`JOB`].

/// Platform name (`henri`, `dahu`, …) or `file:<path>` pseudo-platforms.
pub const PLATFORM: &str = "platform";
/// NUMA node holding computation data.
pub const M_COMP: &str = "m_comp";
/// NUMA node holding communication buffers.
pub const M_COMM: &str = "m_comm";
/// Number of computing cores.
pub const N_CORES: &str = "n_cores";
/// Execution mode of a stage (`sequential`, `parallel`, …).
pub const MODE: &str = "mode";
/// Repair/normalisation rule applied during calibration.
pub const RULE: &str = "rule";
/// Why a fallback or degradation happened.
pub const REASON: &str = "reason";
/// Paper figure number a reproduction stage renders (3–8).
pub const FIGURE: &str = "figure";
/// CLI subcommand being executed.
pub const COMMAND: &str = "command";
/// Worker-pool size.
pub const WORKERS: &str = "workers";
/// Predictor implementation being evaluated.
pub const PREDICTOR: &str = "predictor";

/// Serve-protocol operation (`predict`, `evaluate`, `recommend`,
/// `calibrate`, `batch`).
pub const OP: &str = "op";
/// Outcome of a request: `ok` or the error class (`usage`, `data`, `io`).
pub const RESULT: &str = "result";
/// Number of requests in a batch envelope.
pub const BATCH_SIZE: &str = "batch_size";

/// Number of ranks a replayed trace defines.
pub const RANKS: &str = "ranks";
/// One specific rank of a replayed trace (timeline spans). The chrome
/// exporter maps spans carrying this tag onto a per-rank `tid`.
pub const RANK: &str = "rank";
/// Trace event kind (`compute`, `send`, `recv`, `collective`, `wait`).
pub const EVENT: &str = "event";

/// Authenticated tenant id of a serve connection (`anonymous` for the
/// stdin transport).
pub const TENANT: &str = "tenant";
/// Serve transport a session arrived on (`stdio`, `tcp`).
pub const TRANSPORT: &str = "transport";

/// Cluster scheduling policy (`first_fit`, `round_robin`,
/// `contention_aware`).
pub const POLICY: &str = "policy";
/// Fleet composition a schedule ran against (`henri x2 + dahu x1`).
pub const FLEET: &str = "fleet";
/// One specific fleet node (scheduler placement spans). The chrome
/// exporter maps spans carrying this tag onto a per-node `tid`.
pub const NODE: &str = "node";
/// Job name a scheduler placement span describes.
pub const JOB: &str = "job";

#[cfg(test)]
mod tests {
    #[test]
    fn vocabulary_is_distinct() {
        let all = [
            super::PLATFORM,
            super::M_COMP,
            super::M_COMM,
            super::N_CORES,
            super::MODE,
            super::RULE,
            super::REASON,
            super::FIGURE,
            super::COMMAND,
            super::WORKERS,
            super::PREDICTOR,
            super::OP,
            super::RESULT,
            super::BATCH_SIZE,
            super::RANKS,
            super::RANK,
            super::EVENT,
            super::TENANT,
            super::TRANSPORT,
            super::POLICY,
            super::FLEET,
            super::NODE,
            super::JOB,
        ];
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate tag keys");
    }
}
