#include "pq/engine.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_map>

#include "baselines/feature_aggregator.h"
#include "core/csv.h"
#include "baselines/tabular.h"
#include "core/logging.h"
#include "core/metrics.h"
#include "core/string_util.h"
#include "core/timer.h"
#include "core/trace.h"
#include "pq/parser.h"
#include "train/metrics.h"
#include "train/recommender.h"
#include "train/trainer.h"

namespace relgraph {

namespace {

/// Computes the task metric for a subset of examples given scores.
double ScoreMetric(TaskKind kind, const TrainingTable& table,
                   const std::vector<int64_t>& indices,
                   const std::vector<double>& scores) {
  std::vector<double> truth;
  truth.reserve(indices.size());
  for (int64_t i : indices) {
    truth.push_back(table.labels[static_cast<size_t>(i)]);
  }
  switch (kind) {
    case TaskKind::kBinaryClassification:
      return RocAuc(scores, truth);
    case TaskKind::kRegression:
      return MeanAbsoluteError(scores, truth);
    case TaskKind::kMulticlassClassification: {
      std::vector<int64_t> classes;
      classes.reserve(scores.size());
      for (double s : scores) classes.push_back(static_cast<int64_t>(s));
      return MulticlassAccuracy(classes, truth);
    }
    case TaskKind::kRanking:
      return 0.0;
  }
  return 0.0;
}

const char* MetricName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kBinaryClassification:
      return "AUC";
    case TaskKind::kMulticlassClassification:
      return "ACC";
    case TaskKind::kRegression:
      return "MAE";
    case TaskKind::kRanking:
      return "MAP@10";
  }
  return "?";
}

double RankingMetric(const TrainingTable& table,
                     const std::vector<int64_t>& indices,
                     const std::vector<std::vector<int64_t>>& rankings,
                     int64_t k) {
  std::vector<std::vector<int64_t>> relevant;
  relevant.reserve(indices.size());
  for (int64_t i : indices) {
    relevant.push_back(table.target_lists[static_cast<size_t>(i)]);
  }
  return MeanAveragePrecisionAtK(rankings, relevant, k);
}

}  // namespace

std::string QueryResult::Summary() const {
  std::string s = "query:  " + parsed.ToString() + "\n";
  s += StrFormat("task:   %s over %lld examples (%zu train / %zu val / %zu "
                 "test)\n",
                 TaskKindName(kind), static_cast<long long>(table.size()),
                 split.train.size(), split.val.size(), split.test.size());
  if (kind == TaskKind::kBinaryClassification) {
    s += StrFormat("base:   positive rate %.3f\n", table.PositiveRate());
  }
  s += StrFormat("model:  %s\n", model.c_str());
  s += StrFormat("%s:    train %.4f | val %.4f | test %.4f  (%.2fs)\n",
                 metric_name.c_str(), train_metric, val_metric, test_metric,
                 seconds);
  return s;
}

Status ExportTestPredictionsCsv(const QueryResult& result,
                                const Database& db,
                                const std::string& path) {
  const Table* entity = db.FindTable(result.table.entity_table);
  if (entity == nullptr) {
    return Status::NotFound("entity table '" + result.table.entity_table +
                            "' not in database");
  }
  CsvDocument doc;
  if (result.kind == TaskKind::kRanking) {
    const Table* target = db.FindTable(result.table.target_table);
    if (target == nullptr) {
      return Status::NotFound("target table '" + result.table.target_table +
                              "' not in database");
    }
    doc.header = {"entity_pk", "cutoff", "rank", "target_pk"};
    for (size_t i = 0; i < result.split.test.size(); ++i) {
      const int64_t example = result.split.test[i];
      const int64_t pk = entity->PrimaryKey(
          result.table.entity_rows[static_cast<size_t>(example)]);
      if (i >= result.test_rankings.size()) break;
      for (size_t rank = 0; rank < result.test_rankings[i].size(); ++rank) {
        doc.rows.push_back(
            {StrFormat("%lld", static_cast<long long>(pk)),
             StrFormat("%lld",
                       static_cast<long long>(result.table.cutoffs
                                                  [static_cast<size_t>(
                                                      example)])),
             StrFormat("%zu", rank + 1),
             StrFormat("%lld", static_cast<long long>(target->PrimaryKey(
                                   result.test_rankings[i][rank])))});
      }
    }
  } else {
    if (result.test_scores.size() != result.split.test.size()) {
      return Status::FailedPrecondition(
          "result has no test scores (was the query executed?)");
    }
    doc.header = {"entity_pk", "cutoff", "label", "score"};
    for (size_t i = 0; i < result.split.test.size(); ++i) {
      const int64_t example = result.split.test[i];
      const int64_t pk = entity->PrimaryKey(
          result.table.entity_rows[static_cast<size_t>(example)]);
      doc.rows.push_back(
          {StrFormat("%lld", static_cast<long long>(pk)),
           StrFormat("%lld", static_cast<long long>(
                                 result.table.cutoffs[static_cast<size_t>(
                                     example)])),
           FormatDouble(result.table.labels[static_cast<size_t>(example)],
                        10),
           FormatDouble(result.test_scores[i], 10)});
    }
  }
  return WriteCsvFile(path, doc);
}

PredictiveQueryEngine::PredictiveQueryEngine(const Database* db,
                                             EngineOptions options)
    : db_(db), options_(std::move(options)) {}

Status PredictiveQueryEngine::EnsureValidated() {
  if (validated_) return db_status_;
  validated_ = true;
  if (!options_.validate_db) return Status::OK();
  Status st = db_->Validate();
  if (st.ok()) return Status::OK();
  if (!options_.allow_degraded) {
    db_status_ = Status(st.code(),
                        "database failed validation (set "
                        "EngineOptions::allow_degraded to run anyway): " +
                            st.message());
    return db_status_;
  }
  degraded_ = true;
  options_.graph.lenient = true;
  audit_ = db_->Audit();
  RELGRAPH_LOG(Warning) << "database failed validation; running degraded ("
                        << audit_.TotalIssues()
                        << " integrity issue(s)): " << st.message();
  return Status::OK();
}

Result<const DbGraph*> PredictiveQueryEngine::Graph() {
  RELGRAPH_RETURN_IF_ERROR(EnsureValidated());
  if (!graph_) {
    RELGRAPH_TRACE_SPAN("pq/graph_build");
    RELGRAPH_ASSIGN_OR_RETURN(DbGraph g, BuildDbGraph(*db_, options_.graph));
    graph_ = std::make_shared<DbGraph>(std::move(g));
  }
  return static_cast<const DbGraph*>(graph_.get());
}

Result<QueryResult> PredictiveQueryEngine::Execute(
    const std::string& query_text) {
  std::string_view trimmed = Trim(query_text);
  if (trimmed.size() > 7 && EqualsIgnoreCase(trimmed.substr(0, 7),
                                             "EXPLAIN")) {
    return Status::InvalidArgument(
        "EXPLAIN queries return a plan string; call Explain() instead");
  }
  Result<ParsedQuery> parsed = [&] {
    RELGRAPH_TRACE_SPAN("pq/parse");
    return ParseQuery(query_text);
  }();
  if (!parsed.ok()) {
    RELGRAPH_COUNTER_INC("pq_parse_errors_total");
    return parsed.status();
  }
  return ExecuteParsed(parsed.value());
}

Result<std::string> PredictiveQueryEngine::Explain(
    const std::string& query_text) {
  std::string_view text = Trim(query_text);
  if (text.size() > 7 && EqualsIgnoreCase(text.substr(0, 7), "EXPLAIN")) {
    text = Trim(text.substr(7));
  }
  RELGRAPH_RETURN_IF_ERROR(EnsureValidated());
  RELGRAPH_ASSIGN_OR_RETURN(ParsedQuery parsed,
                            ParseQuery(std::string(text)));
  RELGRAPH_ASSIGN_OR_RETURN(ResolvedQuery rq, AnalyzeQuery(parsed, *db_));
  RELGRAPH_ASSIGN_OR_RETURN(std::vector<Timestamp> cutoffs,
                            MakeCutoffs(rq, *db_));
  RELGRAPH_ASSIGN_OR_RETURN(TrainingTable table,
                            BuildTrainingTable(rq, *db_, cutoffs));
  RELGRAPH_ASSIGN_OR_RETURN(Split split, MakeSplit(rq, table, cutoffs));

  std::string out = "plan for: " + parsed.ToString() + "\n";
  out += StrFormat("  task          %s\n", TaskKindName(rq.kind));
  out += StrFormat("  entity        %s (%lld rows)\n",
                   rq.entity->name().c_str(),
                   static_cast<long long>(rq.entity->num_rows()));
  out += StrFormat("  fact table    %s via FK %s (%lld rows)\n",
                   rq.fact->name().c_str(), rq.fact_fk_column.c_str(),
                   static_cast<long long>(rq.fact->num_rows()));
  if (rq.kind == TaskKind::kRanking) {
    out += StrFormat("  rank targets  %s (%lld rows)\n",
                     rq.ranking_target->name().c_str(),
                     static_cast<long long>(
                         rq.ranking_target->num_rows()));
  }
  out += StrFormat("  label window  %s, stride %s\n",
                   FormatDuration(parsed.window).c_str(),
                   FormatDuration(parsed.stride.value_or(parsed.window))
                       .c_str());
  out += StrFormat("  cutoffs       %zu (%s .. %s)\n", cutoffs.size(),
                   FormatTimestamp(cutoffs.front()).c_str(),
                   FormatTimestamp(cutoffs.back()).c_str());
  out += StrFormat("  examples      %lld (train %zu / val %zu / test %zu)\n",
                   static_cast<long long>(table.size()),
                   split.train.size(), split.val.size(), split.test.size());
  if (rq.kind == TaskKind::kBinaryClassification) {
    out += StrFormat("  positive rate %.4f\n", table.PositiveRate());
  }
  if (!rq.history.empty()) {
    out += StrFormat("  cohort        %zu history predicate(s) applied\n",
                     rq.history.size());
  }
  out += StrFormat("  model         %s", parsed.model.c_str());
  if (!parsed.model_options.entries().empty()) {
    out += " WITH " + parsed.model_options.ToString();
  }
  out += "\n";
  if (parsed.model == "GNN") {
    RELGRAPH_ASSIGN_OR_RETURN(const DbGraph* dbg, Graph());
    out += StrFormat("  graph         %lld nodes / %lld edges, %d node "
                     "types, %d edge types\n",
                     static_cast<long long>(dbg->graph.TotalNodes()),
                     static_cast<long long>(dbg->graph.TotalEdges()),
                     dbg->graph.num_node_types(),
                     dbg->graph.num_edge_types());
  }
  return out;
}

Result<QueryResult> PredictiveQueryEngine::ExecuteParsed(
    const ParsedQuery& parsed) {
  RELGRAPH_TRACE_SPAN("pq/execute");
  RELGRAPH_COUNTER_INC("pq_queries_total");
  Result<QueryResult> out = ExecuteParsedImpl(parsed);
  if (!out.ok()) RELGRAPH_COUNTER_INC("pq_query_errors_total");
  return out;
}

Result<QueryResult> PredictiveQueryEngine::ExecuteParsedImpl(
    const ParsedQuery& parsed) {
  Timer timer;
  RELGRAPH_RETURN_IF_ERROR(EnsureValidated());
  auto analyze = [&] {
    RELGRAPH_TRACE_SPAN("pq/analyze");
    return AnalyzeQuery(parsed, *db_);
  };
  RELGRAPH_ASSIGN_OR_RETURN(ResolvedQuery rq, analyze());
  QueryResult result;
  result.parsed = parsed;
  result.kind = rq.kind;
  result.model = parsed.model;
  result.metric_name = MetricName(rq.kind);
  std::vector<Timestamp> cutoffs;
  {
    RELGRAPH_TRACE_SPAN("pq/label_build");
    RELGRAPH_ASSIGN_OR_RETURN(std::vector<Timestamp> c,
                              MakeCutoffs(rq, *db_));
    cutoffs = std::move(c);
    RELGRAPH_ASSIGN_OR_RETURN(result.table,
                              BuildTrainingTable(rq, *db_, cutoffs));
  }
  {
    RELGRAPH_TRACE_SPAN("pq/split");
    RELGRAPH_ASSIGN_OR_RETURN(result.split,
                              MakeSplit(rq, result.table, cutoffs));
  }

  Result<QueryResult> out = Status::Internal("unset");
  {
    RELGRAPH_TRACE_SPAN("pq/train");
    if (parsed.model == "GNN") {
      out = RunGnn(rq, &result);
    } else if (parsed.model == "POPULAR" || parsed.model == "COOCCUR") {
      out = RunRankingHeuristic(rq, &result);
    } else {
      out = RunTabular(rq, &result);
    }
  }
  if (!out.ok()) return out.status();
  QueryResult final = std::move(out).value();
  final.seconds = timer.Seconds();
  return final;
}

namespace {

/// Parses the GNN-specific WITH options shared by training (RunGnn) and
/// serving (CompileForServing). Serving must reproduce the exact
/// architecture and sampling semantics of the training run, so both paths
/// go through this single reading of the options.
Status ParseGnnOptions(const Options& opts, const EngineOptions& engine_opts,
                       GnnConfig* gnn, SamplerOptions* sampler,
                       TrainerConfig* tc) {
  gnn->hidden_dim = opts.GetInt("hidden", 64);
  gnn->num_layers = opts.GetInt("layers", 2);
  gnn->dropout = static_cast<float>(opts.GetDouble("dropout", 0.0));
  const std::string agg = ToLower(opts.GetString("agg", "mean"));
  if (agg == "sum") {
    gnn->aggregation = GnnAggregation::kSum;
  } else if (agg == "max") {
    gnn->aggregation = GnnAggregation::kMax;
  } else if (agg == "mean") {
    gnn->aggregation = GnnAggregation::kMean;
  } else {
    return Status::InvalidArgument("unknown agg option: " + agg);
  }
  const std::string conv = ToLower(opts.GetString("conv", "sage"));
  if (conv == "gat" || conv == "attention") {
    gnn->conv = GnnConv::kAttention;
  } else if (conv != "sage") {
    return Status::InvalidArgument("unknown conv option: " + conv);
  }
  gnn->time_encoding = opts.GetBool("time_enc", true);
  gnn->degree_encoding = opts.GetBool("degree_enc", true);
  gnn->layer_norm = opts.GetBool("norm", false);
  if (gnn->num_layers < 1) {
    return Status::InvalidArgument(
        "USING GNN needs layers >= 1; for an entity-columns-only baseline "
        "use USING MLP WITH hops=0");
  }
  sampler->fanouts.assign(static_cast<size_t>(gnn->num_layers),
                          opts.GetInt("fanout", 10));
  sampler->temporal = opts.GetBool("temporal", true);
  const std::string policy = ToLower(opts.GetString("policy", "uniform"));
  if (policy == "recent") {
    sampler->policy = SamplePolicy::kMostRecent;
  } else if (policy != "uniform") {
    return Status::InvalidArgument("unknown policy option: " + policy);
  }
  tc->epochs = opts.GetInt("epochs", 8);
  tc->batch_size = opts.GetInt("batch", 128);
  tc->lr = static_cast<float>(opts.GetDouble("lr", 0.01));
  tc->patience = opts.GetInt("patience", 3);
  tc->seed = static_cast<uint64_t>(
      opts.GetInt("seed", static_cast<int64_t>(engine_opts.seed)));
  tc->verbose = engine_opts.verbose;
  tc->checkpoint_path =
      opts.GetString("checkpoint", engine_opts.checkpoint_path);
  tc->resume = opts.GetBool("resume", engine_opts.resume);
  return Status::OK();
}

}  // namespace

Result<ServePlan> PredictiveQueryEngine::CompileForServing(
    const std::string& query_text) {
  RELGRAPH_TRACE_SPAN("pq/compile_for_serving");
  RELGRAPH_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(query_text));
  RELGRAPH_RETURN_IF_ERROR(EnsureValidated());
  RELGRAPH_ASSIGN_OR_RETURN(ResolvedQuery rq, AnalyzeQuery(parsed, *db_));
  if (rq.kind == TaskKind::kRanking) {
    return Status::InvalidArgument(
        "ranking queries are not servable through CompileForServing; "
        "scalar Score() serving needs a node-level task");
  }
  if (parsed.model != "GNN") {
    return Status::InvalidArgument(
        "CompileForServing supports USING GNN only, got " + parsed.model);
  }
  RELGRAPH_ASSIGN_OR_RETURN(const DbGraph* dbg, Graph());
  ServePlan plan;
  plan.parsed = parsed;
  plan.kind = rq.kind;
  plan.num_classes = rq.num_classes;
  plan.entity_table = rq.entity->name();
  plan.entity_type = dbg->type_of(rq.entity->name());
  plan.graph = SharedGraph(graph_);
  TrainerConfig tc;
  RELGRAPH_RETURN_IF_ERROR(ParseGnnOptions(parsed.model_options, options_,
                                           &plan.gnn, &plan.sampler, &tc));
  plan.seed = tc.seed;
  RELGRAPH_ASSIGN_OR_RETURN(
      plan.precision,
      ParsePrecision(
          ToLower(parsed.model_options.GetString("precision", "fp32"))));
  // One past the last recorded event: serving predicts "from now on", so
  // every event in the snapshot is legitimate input.
  plan.now_cutoff = db_->TimeRange().second + 1;
  return plan;
}

Result<QueryResult> PredictiveQueryEngine::RunGnn(const ResolvedQuery& rq,
                                                  QueryResult* result) {
  RELGRAPH_ASSIGN_OR_RETURN(const DbGraph* dbg, Graph());
  GnnConfig gnn;
  SamplerOptions sampler;
  TrainerConfig tc;
  RELGRAPH_RETURN_IF_ERROR(ParseGnnOptions(rq.parsed.model_options, options_,
                                           &gnn, &sampler, &tc));

  const NodeTypeId entity_type = dbg->type_of(rq.entity->name());
  if (rq.kind == TaskKind::kRanking) {
    const NodeTypeId target_type = dbg->type_of(rq.ranking_target->name());
    GnnRecommender rec(&dbg->graph, entity_type, target_type, gnn, sampler,
                       tc, rq.parsed.model_options.GetBool("id_emb", true));
    RELGRAPH_RETURN_IF_ERROR(rec.Fit(result->table, result->split));
    result->train_metric =
        rec.EvaluateMapAtK(result->table, result->split.train, 10);
    result->val_metric =
        rec.EvaluateMapAtK(result->table, result->split.val, 10);
    result->test_rankings =
        rec.RankTargets(result->table, result->split.test, 10);
    result->test_metric = RankingMetric(result->table, result->split.test,
                                        result->test_rankings, 10);
    return std::move(*result);
  }
  GnnNodePredictor predictor(&dbg->graph, entity_type, rq.kind,
                             result->table.num_classes, gnn, sampler, tc);
  RELGRAPH_RETURN_IF_ERROR(predictor.Fit(result->table, result->split));
  auto train_scores =
      predictor.PredictScores(result->table, result->split.train);
  auto val_scores = predictor.PredictScores(result->table,
                                            result->split.val);
  result->test_scores =
      predictor.PredictScores(result->table, result->split.test);
  result->train_metric = ScoreMetric(rq.kind, result->table,
                                     result->split.train, train_scores);
  result->val_metric =
      ScoreMetric(rq.kind, result->table, result->split.val, val_scores);
  result->test_metric = ScoreMetric(rq.kind, result->table,
                                    result->split.test,
                                    result->test_scores);
  return std::move(*result);
}

Result<QueryResult> PredictiveQueryEngine::RunTabular(
    const ResolvedQuery& rq, QueryResult* result) {
  if (rq.kind == TaskKind::kRanking) {
    return Status::InvalidArgument(
        "model " + rq.parsed.model +
        " does not support ranking; use GNN, POPULAR or COOCCUR");
  }
  const Options& opts = rq.parsed.model_options;
  const std::string model_name = ToLower(rq.parsed.model);
  // GBDT defaults to the full feature-engineering ladder; the simple
  // single-table models default to entity columns only.
  const int64_t default_hops = model_name == "gbdt" ? 2 : 0;
  FeatureAggregatorOptions agg_opts;
  agg_opts.max_hops = static_cast<int>(opts.GetInt("hops", default_hops));
  if (agg_opts.max_hops < 0 || agg_opts.max_hops > 2) {
    return Status::InvalidArgument("hops must be 0, 1 or 2");
  }
  agg_opts.recency_features = agg_opts.max_hops >= 1;
  RELGRAPH_ASSIGN_OR_RETURN(
      FeatureAggregator aggregator,
      FeatureAggregator::Build(*db_, rq.entity->name(), agg_opts));
  Tensor features =
      aggregator.Compute(result->table.entity_rows, result->table.cutoffs);

  RELGRAPH_ASSIGN_OR_RETURN(
      std::unique_ptr<TabularModel> model,
      MakeTabularModel(model_name, static_cast<uint64_t>(opts.GetInt(
                                       "seed", static_cast<int64_t>(
                                                   options_.seed)))));
  RELGRAPH_RETURN_IF_ERROR(model->Fit(features, result->table.labels,
                                      rq.kind, result->split.train,
                                      result->split.val,
                                      result->table.num_classes));
  auto train_scores = model->Predict(features, result->split.train);
  auto val_scores = model->Predict(features, result->split.val);
  result->test_scores = model->Predict(features, result->split.test);
  result->train_metric = ScoreMetric(rq.kind, result->table,
                                     result->split.train, train_scores);
  result->val_metric =
      ScoreMetric(rq.kind, result->table, result->split.val, val_scores);
  result->test_metric = ScoreMetric(rq.kind, result->table,
                                    result->split.test,
                                    result->test_scores);
  return std::move(*result);
}

Result<QueryResult> PredictiveQueryEngine::RunRankingHeuristic(
    const ResolvedQuery& rq, QueryResult* result) {
  if (rq.kind != TaskKind::kRanking) {
    return Status::InvalidArgument(rq.parsed.model +
                                   " only supports ranking queries");
  }
  const bool cooccur = rq.parsed.model == "COOCCUR";
  const Table& fact = *rq.fact;
  const Column& fk_col = fact.column(rq.fact_fk_column);
  const Column& item_col = fact.column(rq.list_column);
  const Column* time_col = nullptr;  // row time via fact.RowTime
  (void)time_col;
  const Table& target = *rq.ranking_target;
  const int64_t num_targets = target.num_rows();

  // Pre-resolve fact rows to (entity_pk, target_row, time).
  struct Event {
    int64_t entity_pk;
    int64_t target_row;
    Timestamp time;
  };
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(fact.num_rows()));
  for (int64_t r = 0; r < fact.num_rows(); ++r) {
    if (fk_col.IsNull(r) || item_col.IsNull(r)) continue;
    auto trow = target.FindByPrimaryKey(item_col.Int(r));
    if (!trow.ok()) continue;
    events.push_back({fk_col.Int(r), trow.value(), fact.RowTime(r)});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.time < b.time; });

  auto rank_for = [&](const std::vector<int64_t>& indices) {
    std::vector<std::vector<int64_t>> rankings(indices.size());
    // Group by cutoff to reuse the popularity/co-occurrence state.
    std::map<Timestamp, std::vector<size_t>> by_cutoff;
    for (size_t i = 0; i < indices.size(); ++i) {
      by_cutoff[result->table.cutoffs[static_cast<size_t>(indices[i])]]
          .push_back(i);
    }
    for (const auto& [cutoff, group] : by_cutoff) {
      // Popularity counts before the cutoff.
      std::vector<double> popularity(static_cast<size_t>(num_targets), 0.0);
      std::unordered_map<int64_t, std::vector<int64_t>> history;
      for (const Event& e : events) {
        if (e.time != kNoTimestamp && e.time >= cutoff) break;
        popularity[static_cast<size_t>(e.target_row)] += 1.0;
        if (cooccur) history[e.entity_pk].push_back(e.target_row);
      }
      // Co-occurrence counts (item, item) within entity histories.
      std::unordered_map<int64_t, std::unordered_map<int64_t, double>> co;
      if (cooccur) {
        for (const auto& [pk, items] : history) {
          for (size_t a = 0; a < items.size(); ++a) {
            for (size_t b = 0; b < items.size(); ++b) {
              if (a != b) co[items[a]][items[b]] += 1.0;
            }
          }
        }
      }
      for (size_t gi : group) {
        const int64_t example = indices[gi];
        std::vector<double> score = popularity;
        if (cooccur) {
          const int64_t pk = rq.entity->PrimaryKey(
              result->table.entity_rows[static_cast<size_t>(example)]);
          auto it = history.find(pk);
          if (it != history.end()) {
            for (int64_t h : it->second) {
              auto cit = co.find(h);
              if (cit == co.end()) continue;
              for (const auto& [t, c] : cit->second) {
                score[static_cast<size_t>(t)] += 10.0 * c;
              }
            }
          }
        }
        std::vector<int64_t> order(static_cast<size_t>(num_targets));
        std::iota(order.begin(), order.end(), 0);
        const int64_t top = std::min<int64_t>(10, num_targets);
        std::partial_sort(order.begin(), order.begin() + top, order.end(),
                          [&score](int64_t a, int64_t b) {
                            return score[static_cast<size_t>(a)] >
                                   score[static_cast<size_t>(b)];
                          });
        order.resize(static_cast<size_t>(top));
        rankings[gi] = std::move(order);
      }
    }
    return rankings;
  };

  result->train_metric = RankingMetric(
      result->table, result->split.train, rank_for(result->split.train), 10);
  result->val_metric = RankingMetric(result->table, result->split.val,
                                     rank_for(result->split.val), 10);
  result->test_rankings = rank_for(result->split.test);
  result->test_metric = RankingMetric(result->table, result->split.test,
                                      result->test_rankings, 10);
  return std::move(*result);
}

}  // namespace relgraph
