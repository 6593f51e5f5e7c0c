#ifndef RELGRAPH_DB2GRAPH_STREAMING_H_
#define RELGRAPH_DB2GRAPH_STREAMING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db2graph/graph_builder.h"
#include "graph/hetero_graph.h"
#include "relational/append_log.h"
#include "relational/database.h"

namespace relgraph {

/// Knobs for incremental DB→graph maintenance.
struct StreamingOptions {
  /// Conversion options for the base build. `frozen_plans` is ignored on
  /// input: Create() fits plans on the base tables and freezes them for
  /// the stream's lifetime.
  GraphBuilderOptions build;

  /// Validation knobs applied to every Apply() batch (mode, timestamp
  /// bounds, monotonicity).
  IngestOptions ingest;

  /// An edge type holding more than this many CSR segments is compacted
  /// after an apply, size-tiered (see HeteroGraph::CompactSegments): its
  /// tails merge into one, which folds into the base once it is as large.
  /// Every reader iterates every segment, and a tail merge costs only the
  /// tails, so the default keeps the count low: 2 to 4 segments, 3 on
  /// average. Compaction never changes observable neighbor order, so a
  /// deferred (e.g. fault-injected) compaction is harmless.
  int64_t compact_threshold = 4;
};

/// Result of one streamed batch.
struct StreamingApplyResult {
  /// What the relational layer accepted/quarantined.
  AppendOutcome outcome;

  /// Node-level summary of the graph change, for precise cache
  /// invalidation in the serving layer. Empty (all-zero touched) when no
  /// rows were accepted.
  GraphDelta delta;

  /// The newly published graph epoch (== graph() right after Apply).
  std::shared_ptr<const HeteroGraph> graph;

  /// Edge types compacted during this apply (0 when under threshold or
  /// when a fault deferred compaction).
  int64_t compacted_edge_types = 0;

  /// Lenient builds: dangling-FK edges skipped among the NEW rows, per
  /// edge type.
  std::map<std::string, int64_t> skipped_dangling_fks;

  /// True when an injected/internal failure aborted the incremental path
  /// and the epoch was recovered by a from-scratch rebuild (bit-identical
  /// contents, single-segment layout).
  bool recovered = false;
};

/// Incrementally maintained DB→graph conversion.
///
/// Create() performs the base BuildDbGraph and freezes the feature-encoder
/// plans; Apply() pushes an AppendBatch through Database::ApplyAppend and
/// folds the accepted rows into a NEW graph epoch: appended node rows are
/// encoded under the frozen plans, appended FK edges land as CSR tail
/// segments, and the epoch is published as a shared_ptr snapshot. Existing
/// epochs are never mutated — readers holding graph() keep a consistent
/// graph for as long as they keep the pointer, which is what the serving
/// engine's lock-free snapshot path relies on.
///
/// Determinism contract (enforced by tests/incremental_graph_test.cc): at
/// any point, *graph() is bit-identical in content to
/// BuildDbGraph(db, RebuildOptions()) — same node features, node times,
/// per-node neighbor order and edge times — regardless of how appends were
/// batched, whether compaction ran, or whether a mid-apply fault forced
/// the rebuild recovery path.
///
/// Concurrency: Apply() is single-writer (callers serialize); graph() may
/// be called from any thread.
class StreamingDbGraph {
 public:
  /// Builds the base graph and freezes encoder plans. `db` must outlive
  /// the stream and must not be mutated behind its back.
  static Result<std::unique_ptr<StreamingDbGraph>> Create(
      Database* db, StreamingOptions options = {});

  /// Applies one batch (see StreamingApplyResult). On a validation error
  /// (strict mode, unknown table) neither the database nor the graph is
  /// touched. After the database accepts rows, any failure in the graph
  /// update — including the kAppendApply fault site — triggers the rebuild
  /// recovery path instead of erroring, so database and graph never
  /// diverge.
  Result<StreamingApplyResult> Apply(const AppendBatch& batch);

  /// Current graph epoch (never null after Create).
  std::shared_ptr<const HeteroGraph> graph() const;

  /// table name -> node type id (fixed at Create).
  const std::map<std::string, NodeTypeId>& table_type() const {
    return table_type_;
  }

  /// Frozen encoder plans (fixed at Create).
  const std::map<std::string, EncoderPlan>& plans() const { return plans_; }

  /// Per node type, feature names (aligned with node_features columns).
  const std::map<std::string, std::vector<std::string>>& feature_names()
      const {
    return feature_names_;
  }

  /// Builder options that make a from-scratch BuildDbGraph of the current
  /// database bit-comparable to graph(): the stream's build options with
  /// the frozen plans filled in. This is the differential-test oracle.
  GraphBuilderOptions RebuildOptions() const;

  int64_t epochs_published() const;

 private:
  StreamingDbGraph() = default;

  /// Incremental fold of accepted rows into a copy of the current epoch.
  /// Fills result.delta / compacted / skipped; returns non-OK to request
  /// the rebuild recovery path.
  Status ApplyToGraph(HeteroGraph* g, const AppendOutcome& outcome,
                      StreamingApplyResult* result);

  Database* db_ = nullptr;
  StreamingOptions options_;
  std::map<std::string, EncoderPlan> plans_;
  std::map<std::string, NodeTypeId> table_type_;
  std::map<std::string, std::vector<std::string>> feature_names_;

  mutable std::mutex mu_;  // guards epoch_ / epochs_published_
  std::shared_ptr<const HeteroGraph> epoch_;
  int64_t epochs_published_ = 0;
};

}  // namespace relgraph

#endif  // RELGRAPH_DB2GRAPH_STREAMING_H_
