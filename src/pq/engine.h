#ifndef RELGRAPH_PQ_ENGINE_H_
#define RELGRAPH_PQ_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "db2graph/graph_builder.h"
#include "pq/analyzer.h"
#include "pq/label_builder.h"
#include "train/task.h"
#include "train/trainer.h"

namespace relgraph {

/// A predictive query compiled for online serving: everything an
/// InferenceEngine needs to answer Score() requests for a trained
/// checkpoint of the same query — task kind, resolved entity type, the
/// graph view, and the GNN/sampler configuration the checkpoint was
/// trained with. No training table or split is materialized.
struct ServePlan {
  ParsedQuery parsed;
  TaskKind kind = TaskKind::kBinaryClassification;
  int64_t num_classes = 2;

  /// FOR EACH table and its node type in `graph`.
  std::string entity_table;
  NodeTypeId entity_type = 0;

  /// The engine's lazily-built graph view. Shares ownership with the
  /// PredictiveQueryEngine, so the plan (and every InferenceEngine built
  /// from it) stays valid after the query engine is gone.
  std::shared_ptr<const HeteroGraph> graph;

  GnnConfig gnn;
  SamplerOptions sampler;
  uint64_t seed = 1;

  /// Serving-time cutoff: one past the database's max event time, so
  /// every recorded event is visible to feature sampling.
  Timestamp now_cutoff = 0;

  /// Numeric precision the InferenceEngine serves this query at
  /// (WITH precision='fp32'|'bf16'|'int8'; default fp32). Like `seed`,
  /// the plan's value overrides ServeOptions when an engine is built from
  /// the plan; the RELGRAPH_PRECISION env var overrides both.
  Precision precision = Precision::kFp32;
};

/// Everything a predictive query returns: the materialized task, the
/// temporal split, the trained model's scores on the held-out test
/// cutoff, and the headline metrics.
struct QueryResult {
  ParsedQuery parsed;
  TaskKind kind = TaskKind::kBinaryClassification;
  std::string model;

  TrainingTable table;
  Split split;

  /// "AUC", "MAE" or "MAP@10" depending on the task.
  std::string metric_name;
  double train_metric = 0.0;
  double val_metric = 0.0;
  double test_metric = 0.0;

  /// Scores aligned with split.test (probability / value); empty for
  /// ranking.
  std::vector<double> test_scores;

  /// Ranking: top-10 target rows per test example.
  std::vector<std::vector<int64_t>> test_rankings;

  double seconds = 0.0;

  /// One-paragraph human-readable report.
  std::string Summary() const;
};

/// Writes the held-out (test-cutoff) predictions of a query result as CSV:
/// `entity_pk,cutoff,label,score` for scalar tasks, or
/// `entity_pk,cutoff,rank,target_pk` rows for ranking tasks.
Status ExportTestPredictionsCsv(const QueryResult& result,
                                const Database& db,
                                const std::string& path);

/// Engine configuration.
struct EngineOptions {
  GraphBuilderOptions graph;
  uint64_t seed = 1;
  bool verbose = false;

  /// Validate the database once before the first query runs (PK
  /// uniqueness, FK resolution). Strongly recommended: every downstream
  /// stage assumes a consistent DB.
  bool validate_db = true;

  /// When validation fails, degrade gracefully instead of erroring: the
  /// audit report is logged and kept (see audit()), and the DB→graph
  /// conversion skips dangling FKs. Off by default — dirty data should be
  /// an explicit decision.
  bool allow_degraded = false;

  /// Default training-checkpoint path for GNN queries (overridable per
  /// query via WITH checkpoint='path'); empty disables checkpointing.
  std::string checkpoint_path;

  /// Resume GNN training from `checkpoint_path` when the file exists
  /// (overridable per query via WITH resume=true|false).
  bool resume = false;
};

/// Executes predictive queries against one database: parse → analyze →
/// materialize training table → temporal split → train the requested
/// model → evaluate. The DB→graph conversion is done lazily once and
/// shared across queries.
///
/// Supported models (USING clause):
///   GNN        heterogeneous GraphSAGE over the DB-as-graph (default)
///   GBDT       gradient-boosted trees on hand-engineered temporal
///              aggregates (WITH hops=0|1|2 controls the ladder)
///   MLP        tabular MLP (default hops=0: entity columns only)
///   LINEAR     logistic/linear model (default hops=0)
///   CONSTANT   majority/mean predictor
///   POPULAR    (ranking) rank targets by pre-cutoff global popularity
///   COOCCUR    (ranking) rank targets by co-occurrence with the
///              entity's own history
///
/// Common WITH options: epochs, lr, batch, seed; GNN adds layers, hidden,
/// fanout, dropout, patience, agg=mean|sum|max, policy=uniform|recent,
/// temporal=true|false; tabular adds hops.
class PredictiveQueryEngine {
 public:
  explicit PredictiveQueryEngine(const Database* db,
                                 EngineOptions options = {});

  /// Parses and runs a query end to end.
  Result<QueryResult> Execute(const std::string& query_text);

  /// Runs an already-parsed query.
  Result<QueryResult> ExecuteParsed(const ParsedQuery& parsed);

  /// Compiles the query without training and returns a human-readable
  /// execution plan: resolved schema objects, task kind, cutoff schedule,
  /// example counts per split, label statistics, and the model plan.
  /// (`Execute` also accepts queries prefixed with the EXPLAIN keyword and
  /// is then equivalent to calling this.)
  Result<std::string> Explain(const std::string& query_text);

  /// The lazily-built graph view of the database.
  Result<const DbGraph*> Graph();

  /// Compiles a query for online serving (no training): resolves the
  /// schema, builds the graph view, and returns the ServePlan an
  /// InferenceEngine consumes together with a checkpoint trained by the
  /// same query (same WITH options). Ranking queries are not servable
  /// through this path.
  Result<ServePlan> CompileForServing(const std::string& query_text);

  const Database& db() const { return *db_; }

  /// True when the DB failed validation and the engine is running in the
  /// explicitly-degraded (lenient) mode permitted by allow_degraded.
  bool degraded() const { return degraded_; }

  /// Integrity audit of a degraded database (empty for a clean DB).
  const DatabaseIntegrityReport& audit() const { return audit_; }

 private:
  /// Runs Database::Validate() once, lazily, before the first query. A
  /// clean DB validates silently; a dirty one either fails every query
  /// (default) or, with allow_degraded, flips the engine into lenient
  /// graph construction and records the audit report.
  Status EnsureValidated();

  /// ExecuteParsed body; the public wrapper adds the pq/execute span and
  /// the query/error counters around it.
  Result<QueryResult> ExecuteParsedImpl(const ParsedQuery& parsed);

  Result<QueryResult> RunGnn(const ResolvedQuery& rq, QueryResult* result);
  Result<QueryResult> RunTabular(const ResolvedQuery& rq,
                                 QueryResult* result);
  Result<QueryResult> RunRankingHeuristic(const ResolvedQuery& rq,
                                          QueryResult* result);

  const Database* db_;
  EngineOptions options_;
  std::shared_ptr<DbGraph> graph_;
  bool validated_ = false;
  bool degraded_ = false;
  Status db_status_;
  DatabaseIntegrityReport audit_;
};

}  // namespace relgraph

#endif  // RELGRAPH_PQ_ENGINE_H_
