#include "serve/coalescing_scheduler.h"

#include <utility>

#include "core/logging.h"
#include "core/metrics.h"
#include "core/trace.h"

namespace relgraph {

namespace {

inline void NoteBatchRows(int64_t rows) {
#ifndef RELGRAPH_NO_METRICS
  if (!MetricsEnabled()) return;
  static Histogram* hist = MetricsRegistry::Global().GetHistogram(
      "serve_coalesce_batch_rows", BatchRowBuckets());
  hist->Observe(static_cast<double>(rows));
#else
  (void)rows;
#endif
}

}  // namespace

CoalescingScheduler::CoalescingScheduler(InferenceEngine* engine,
                                         const CoalesceOptions& options)
    : engine_(engine), options_(options) {
  RELGRAPH_CHECK(engine_ != nullptr);
  RELGRAPH_CHECK(options_.max_batch_rows > 0);
  RELGRAPH_CHECK(options_.wait_window_ms >= 0.0);
  RELGRAPH_CHECK(options_.deadline_margin_ms >= 0.0);
}

void CoalescingScheduler::JoinLocked(Batch* batch, Member* member,
                                     uint64_t salt, Timestamp cutoff) {
  const std::vector<int64_t>& ids = member->request->entity_ids;
  member->row_idx.resize(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const int64_t id = ids[i];
    const uint64_t fp = ServingSeedFingerprint(salt, id, cutoff);
    auto it = batch->row_by_fp.find(fp);
    if (it != batch->row_by_fp.end() && batch->rows[it->second] == id) {
      member->row_idx[i] = it->second;
      ++batch->dedup;
      dedup_rows_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // New row — or a fingerprint collision with a DIFFERENT id, which
    // rides as its own undeduped row: correctness never depends on the
    // fingerprint, only the dedup rate does.
    const size_t row = batch->rows.size();
    batch->rows.push_back(id);
    if (it == batch->row_by_fp.end()) batch->row_by_fp.emplace(fp, row);
    member->row_idx[i] = row;
  }
  // The execution deadline is the most generous member budget; a member
  // with less slack than the margin cannot afford any gather wait.
  batch->exec_deadline = batch->members.empty()
                             ? member->deadline
                             : Deadline::LaterOf(batch->exec_deadline,
                                                 member->deadline);
  if (!member->deadline.is_infinite() &&
      member->deadline.remaining_millis() <= options_.deadline_margin_ms) {
    batch->near_deadline = true;
  }
  batch->members.push_back(member);
}

void CoalescingScheduler::ScatterLocked(Batch* batch,
                                        const Result<ScoreResponse>& result) {
  for (Member* m : batch->members) {
    if (!result.ok()) {
      // Whole-batch failures (unloaded engine, breaker-open fail_fast
      // shed, admission shed, exec-deadline expiry — which implies every
      // member deadline expired, since exec is the latest) propagate to
      // every member, exactly as each solo call would have failed.
      m->failed = true;
      m->error = result.status();
      m->done = true;
      continue;
    }
    const ScoreResponse& br = result.value();
    if (m->deadline.expired() && br.mode == DegradeMode::kFailFast) {
      // A late answer is refused, never delivered: this member's budget
      // ran out while the batch served a more patient member.
      m->failed = true;
      m->error = Status::DeadlineExceeded(
          "deadline expired before the coalesced batch scattered");
      m->done = true;
      continue;
    }
    const std::vector<int64_t>& ids = m->request->entity_ids;
    const size_t k = ids.size();
    ScoreResponse r;
    r.mode = br.mode;
    r.state = br.state;
    r.snapshot_version = br.snapshot_version;
    r.staleness_s = br.staleness_s;
    // Time spent gathering and waiting behind earlier batches, plus the
    // engine's own admission wait.
    r.queue_wait_ms =
        br.queue_wait_ms +
        std::chrono::duration<double, std::milli>(batch->exec_start -
                                                  m->joined_at)
            .count();
    r.scores.resize(k);
    r.row_flags.resize(k);
    bool reject = false;
    int64_t reject_id = 0;
    for (size_t i = 0; i < k && !reject; ++i) {
      const size_t row = m->row_idx[i];
      r.scores[i] = br.scores[row];
      const uint8_t flag = br.row_flags[row];
      r.row_flags[i] = flag;
      if (flag == kRowInvalid) {
        if (m->request->invalid_id_policy == InvalidIdPolicy::kReject) {
          reject = true;
          reject_id = ids[i];
        } else {
          ++r.rows_invalid;
        }
      } else if (flag == kRowDegraded) {
        ++r.rows_degraded;
      }
    }
    if (reject) {
      m->failed = true;
      m->error = Status::InvalidArgument(
          "entity id " + std::to_string(reject_id) +
          " out of range (rejected per request policy)");
      m->done = true;
      continue;
    }
    r.rows_resolved =
        static_cast<int64_t>(k) - r.rows_degraded - r.rows_invalid;
    const bool breaker_open = br.state == ServeState::kDegraded;
    r.degraded = breaker_open || r.rows_degraded > 0;
    if (r.degraded) {
      r.reason = breaker_open ? DegradeReason::kBreakerOpen : br.reason;
    }
    m->response = std::move(r);
    m->done = true;
  }
}

Result<ScoreResponse> CoalescingScheduler::Score(
    const ScoreRequest& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  rows_submitted_.fetch_add(static_cast<int64_t>(request.entity_ids.size()),
                            std::memory_order_relaxed);
  if (request.deadline.expired()) {
    return Status::DeadlineExceeded(
        "deadline expired before joining a coalesced batch");
  }

  Member member;
  member.request = &request;
  member.deadline = request.deadline;

  std::unique_lock<std::mutex> lock(mu_);
  member.joined_at = std::chrono::steady_clock::now();
  // The fingerprint inputs are pinned once per join; if the snapshot
  // advances between join and execution the batch still executes as one
  // unit against whatever snapshot is then current — identical to what
  // each member would see calling solo at that moment (dedup correctness
  // rests on the id-equality guard, never on the fingerprint).
  const uint64_t salt = engine_->serving_salt();
  const Timestamp cutoff = engine_->now_cutoff();

  std::unique_ptr<Batch> owned;  // non-null iff this member leads
  Batch* batch;
  if (open_ == nullptr) {
    owned = std::make_unique<Batch>();
    owned->opened_at = member.joined_at;
    open_ = owned.get();
    batch = owned.get();
  } else {
    batch = open_;
  }
  JoinLocked(batch, &member, salt, cutoff);
  if (static_cast<int64_t>(batch->rows.size()) >= options_.max_batch_rows) {
    batch->closed = true;
    open_ = nullptr;
    leader_cv_.notify_all();
  } else if (batch->near_deadline) {
    leader_cv_.notify_all();
  }

  if (owned == nullptr) {
    // Follower: park until the leader scatters this batch.
    done_cv_.wait(lock, [&] { return member.done; });
    if (member.failed) return member.error;
    return std::move(member.response);
  }

  // Leader: gather up to the window (cut short by capacity close or a
  // near-deadline member), then flush.
  if (!batch->closed && !batch->near_deadline &&
      options_.wait_window_ms > 0.0) {
    const auto window_end =
        batch->opened_at +
        std::chrono::nanoseconds(
            static_cast<int64_t>(options_.wait_window_ms * 1e6));
    while (!batch->closed && !batch->near_deadline) {
      if (leader_cv_.wait_until(lock, window_end) ==
          std::cv_status::timeout) {
        break;
      }
    }
  }
  if (open_ == batch) open_ = nullptr;
  batch->closed = true;
  if (batch->near_deadline) {
    near_deadline_flushes_.fetch_add(1, std::memory_order_relaxed);
  }

  // One batch executes at a time: arrivals during the in-flight batch
  // gather into the next one (group commit), which is where coalescing
  // comes from even with a zero gather window.
  exec_cv_.wait(lock, [&] { return !exec_inflight_; });
  exec_inflight_ = true;
  batch->exec_start = std::chrono::steady_clock::now();
  // kNanRow: an invalid row must NaN only itself, never fail its
  // batch-mates; each member's own policy is re-applied at scatter.
  ScoreRequest exec;
  exec.entity_ids = batch->rows;
  exec.deadline = batch->exec_deadline;
  exec.invalid_id_policy = InvalidIdPolicy::kNanRow;
  lock.unlock();
  Result<ScoreResponse> result = [&] {
    RELGRAPH_TRACE_SPAN("serve/score_coalesced");
    return engine_->ScoreWithOptions(exec);
  }();
  lock.lock();
  exec_inflight_ = false;
  exec_cv_.notify_one();

  ScatterLocked(batch, result);
  const int64_t rows = static_cast<int64_t>(exec.entity_ids.size());
  batches_.fetch_add(1, std::memory_order_relaxed);
  rows_executed_.fetch_add(rows, std::memory_order_relaxed);
  if (batch->members.size() > 1) {
    coalesced_requests_.fetch_add(
        static_cast<int64_t>(batch->members.size()),
        std::memory_order_relaxed);
    RELGRAPH_COUNTER_ADD("serve_coalesced_requests_total",
                         static_cast<int64_t>(batch->members.size()));
  }
  RELGRAPH_COUNTER_INC("serve_coalesce_batches_total");
  RELGRAPH_COUNTER_ADD("serve_coalesce_dedup_rows_total", batch->dedup);
  NoteBatchRows(rows);
  done_cv_.notify_all();

  if (member.failed) return member.error;
  return std::move(member.response);
}

CoalesceStats CoalescingScheduler::stats() const {
  CoalesceStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.coalesced_requests = coalesced_requests_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.rows_submitted = rows_submitted_.load(std::memory_order_relaxed);
  s.rows_executed = rows_executed_.load(std::memory_order_relaxed);
  s.dedup_rows = dedup_rows_.load(std::memory_order_relaxed);
  s.near_deadline_flushes =
      near_deadline_flushes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace relgraph
