#ifndef RELGRAPH_SERVE_COALESCING_SCHEDULER_H_
#define RELGRAPH_SERVE_COALESCING_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/deadline.h"
#include "core/status.h"
#include "serve/inference_engine.h"

namespace relgraph {

/// Knobs of the request-coalescing scheduler.
struct CoalesceOptions {
  /// Unique rows at which a gathering batch closes and flushes. A single
  /// request larger than this still rides in one batch (a member never
  /// splits across batches); the engine's micro_batch_size bounds the
  /// actual GEMM shapes either way.
  int64_t max_batch_rows = 128;

  /// How long the first member of a batch waits (real time) for company
  /// before flushing. 0 disables the gather window; coalescing then
  /// happens only among requests that arrive while the previous batch
  /// executes (classic group commit).
  double wait_window_ms = 0.2;

  /// A member whose deadline slack is at or below this margin flushes the
  /// batch immediately — a near-expiry request must never sit out the
  /// gather window it cannot afford.
  double deadline_margin_ms = 1.0;
};

/// Point-in-time traffic statistics of a CoalescingScheduler.
struct CoalesceStats {
  int64_t requests = 0;            ///< Score() calls
  int64_t coalesced_requests = 0;  ///< requests that shared a batch
  int64_t batches = 0;             ///< engine executions
  int64_t rows_submitted = 0;      ///< ids across all requests
  int64_t rows_executed = 0;       ///< unique rows sent to the engine
  int64_t dedup_rows = 0;          ///< rows saved by (cross-request) dedup
  int64_t near_deadline_flushes = 0;  ///< batches flushed early by margin
};

/// Coalesces concurrent ScoreWithOptions-style calls into shared engine
/// micro-batches.
///
/// Group-commit protocol, no background threads: the first caller into an
/// empty batch becomes its leader and waits up to `wait_window_ms` for
/// company (or until the batch hits `max_batch_rows`, or a member joins
/// with deadline slack under `deadline_margin_ms`); followers joining a
/// gathering batch just park. The leader then executes the merged unique
/// row set through InferenceEngine::ScoreWithOptions — batches are
/// serialized, so callers arriving during an in-flight batch accumulate
/// into the next one, which is where most coalescing comes from under
/// load — and scatters each member's rows back with that member's own
/// status and metadata.
///
/// Cross-request dedup: rows are keyed by the serving sampler's stream
/// fingerprint (ServingSeedFingerprint(salt, id, cutoff)) with an
/// id-equality guard, so two clients asking about the same entity sample
/// and forward ONCE. Because every per-seed score is a pure function of
/// (engine seed, sampler options, id, snapshot, weights), the deduped
/// shared row is bit-identical to what each caller would have computed
/// solo — coalescing is invisible in the scores, by construction and by
/// test.
///
/// Deadlines: the merged batch runs under the LATEST member deadline
/// (Deadline::LaterOf), so one impatient member never truncates a
/// patient one's answer. At scatter each member is judged by its own
/// deadline: under DegradeMode::kFailFast a late answer is refused with
/// DeadlineExceeded (never delivered); under the degrade modes the
/// computed scores are delivered flagged degraded. A request whose
/// deadline is already expired at enqueue is refused before joining.
///
/// Invalid ids: the batch always executes under InvalidIdPolicy::kNanRow
/// so one member's bad id can only NaN its own row; at scatter each
/// member's own ScoreRequest::invalid_id_policy is re-applied (a kReject
/// member with an invalid row gets InvalidArgument, its batch-mates are
/// unaffected).
///
/// Queue wait: each response's queue_wait_ms is the member's time from
/// joining its batch to that batch's execution start (gather window plus
/// waiting behind the in-flight batch), plus the engine's admission wait.
class CoalescingScheduler {
 public:
  /// `engine` must outlive the scheduler and have its checkpoint loaded
  /// by the time requests arrive (an unloaded engine fails requests with
  /// FailedPrecondition, exactly as solo calls would).
  explicit CoalescingScheduler(InferenceEngine* engine,
                               const CoalesceOptions& options = {});

  /// Blocking: joins (or leads) a micro-batch and returns this caller's
  /// own response. Same outcome surface as ScoreWithOptions. Safe to call
  /// from any number of threads.
  Result<ScoreResponse> Score(const ScoreRequest& request);

  CoalesceStats stats() const;
  const CoalesceOptions& options() const { return options_; }

 private:
  /// One caller's slot in a batch; lives on the caller's stack for the
  /// duration of its Score() call, so scatter writes through raw pointers
  /// that are valid until `done` flips (the caller never returns before).
  struct Member {
    const ScoreRequest* request = nullptr;
    std::vector<size_t> row_idx;  // request position -> batch row
    Deadline deadline;
    std::chrono::steady_clock::time_point joined_at;
    bool done = false;
    bool failed = false;
    Status error = Status::OK();
    ScoreResponse response;
  };

  /// One gathering/executing micro-batch. Owned by its leader's stack;
  /// `open_` points at it only while it still accepts joins.
  struct Batch {
    std::vector<int64_t> rows;  // unique ids, arrival order
    std::unordered_map<uint64_t, size_t> row_by_fp;
    std::vector<Member*> members;
    Deadline exec_deadline;  // LaterOf over members
    int64_t dedup = 0;       // rows saved by dedup in this batch
    bool near_deadline = false;
    bool closed = false;  // no more joins; leader is flushing
    std::chrono::steady_clock::time_point opened_at;
    std::chrono::steady_clock::time_point exec_start;  // engine call begins
  };

  /// Registers `member`'s rows into `batch` (mu_ held): dedups by
  /// fingerprint+id, extends the execution deadline, flags near-deadline
  /// members.
  void JoinLocked(Batch* batch, Member* member, uint64_t salt,
                  Timestamp cutoff);

  /// Maps the batch result back onto every member (mu_ held): per-member
  /// row gather, per-member deadline/invalid-id policy, per-member
  /// degrade metadata and queue wait.
  void ScatterLocked(Batch* batch, const Result<ScoreResponse>& result);

  InferenceEngine* engine_;
  CoalesceOptions options_;

  mutable std::mutex mu_;
  std::condition_variable leader_cv_;  // wakes leaders: close / near-deadline
  std::condition_variable exec_cv_;    // wakes leaders: engine slot free
  std::condition_variable done_cv_;    // wakes followers: batch scattered
  Batch* open_ = nullptr;              // gathering batch (leader-owned)
  bool exec_inflight_ = false;         // serializes batch executions

  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> coalesced_requests_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> rows_submitted_{0};
  std::atomic<int64_t> rows_executed_{0};
  std::atomic<int64_t> dedup_rows_{0};
  std::atomic<int64_t> near_deadline_flushes_{0};
};

}  // namespace relgraph

#endif  // RELGRAPH_SERVE_COALESCING_SCHEDULER_H_
