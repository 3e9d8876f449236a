// Tracing for the dashboard benchmark's traced run. Spans are recorded in
// the benchmark's own code, around its calls into each layer, kept in memory
// and written out when the run ends. They nest as
//   initialize / interaction -> vdt.query -> engine.replay
// and every span of one operation carries that operation's id.
//
// TracedService sits between the VDTs and a middleware Session. It awaits
// each ticket inside Submit (so the queries of one dataflow wave run one
// after another; the cost shows in trace.overhead_pct), times the round trip
// by answering tier, encodes and decodes the result, and re-runs the bound
// statement straight on a separate replay sql::Engine to time the engine and
// to check cache and tile answers against it.
#ifndef DASHBENCH_TRACE_H_
#define DASHBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rewrite/plan_builder.h"
#include "runtime/middleware.h"
#include "runtime/plan_executor.h"
#include "sql/engine.h"
#include "storage/reader.h"

namespace dashbench {

/// Monotonic wall clock in milliseconds.
double NowMs();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;     // 0 = root
  uint64_t operation = 0;  // shared by every span of one operation
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
};

/// Per-layer sums over a traced phase. Times in milliseconds.
struct LayerTotals {
  // dataflow / rewrite, from the traced executors
  size_t inits = 0;
  double plan_build_ms = 0;
  size_t interactions = 0;
  double interaction_ms = 0;
  double client_ms = 0;  // interaction self time outside vdt.query spans
  size_t ops_evaluated = 0;
  size_t rows_processed = 0;
  // runtime, observed at the service boundary
  size_t responses = 0;
  size_t dbms_responses = 0, tile_responses = 0, cache_responses = 0;
  double dbms_roundtrip_ms = 0, tile_roundtrip_ms = 0, cache_roundtrip_ms = 0;
  double middleware_ms = 0;  // DBMS round trip minus engine replay
  size_t queue_depth_max = 0;
  // runtime / tiles, folded from Middleware::stats() and TileStore::stats()
  size_t mw_queries = 0, mw_client_cache_hits = 0, mw_server_cache_hits = 0;
  size_t mw_tile_hits = 0, mw_dbms_executions = 0;
  size_t tiles_hits = 0, tiles_builds = 0, tiles_coverage_misses = 0;
  // sql / kernels, from replays of DBMS-answered statements
  double sql_exec_ms = 0;
  size_t sql_rows_scanned = 0, sql_rows_processed = 0;
  uint64_t kernel_bitmap = 0, kernel_index = 0, kernel_scalar = 0;
  uint64_t dbms_chunks_considered = 0, dbms_chunks_pruned = 0;
  // storage work done by every replay (subtracted from process counters)
  uint64_t replay_chunks_pruned = 0, replay_chunks_paged_in = 0;
  uint64_t replay_morsels_pruned = 0;
  uint64_t resident_bytes_max = 0;
  // data: wire encoding of every response
  size_t result_bytes = 0;
  double encode_ms = 0, decode_ms = 0;
  // check (c) failures
  std::vector<std::string> mismatches;
};

/// Span store, replay engine and per-layer sums shared by every traced
/// client of one phase. Thread-safe.
class Tracer {
 public:
  /// `replay` runs captured statements; `serving_readers` are the shard
  /// readers behind the middleware's engine (sampled for residency).
  Tracer(const vegaplus::sql::Engine* replay,
         std::vector<std::shared_ptr<vegaplus::storage::Reader>> serving_readers);

  uint64_t NewId();
  void AddSpan(Span span);

  struct Replay {
    vegaplus::data::TablePtr table;
    double exec_ms = 0;
  };
  /// Re-run one bound statement on the replay engine, one replay at a time,
  /// adding its work to the totals. `dbms` marks statements the middleware
  /// answered from the DBMS (their work is what sql.* and kernels.* report).
  vegaplus::Result<Replay> ReplayStatement(
      const std::string& sql_template,
      const std::vector<vegaplus::rewrite::QueryParam>& params, bool dbms);

  /// Apply `fn` to the totals under the lock.
  template <typename Fn>
  void Update(Fn fn) {
    std::lock_guard<std::mutex> lock(mu_);
    fn(&totals_);
  }

  uint64_t SampleResidentBytes() const;

  LayerTotals totals() const;
  /// Write every span as one JSON object per line.
  vegaplus::Status WriteSpans(const std::string& path) const;

 private:
  const vegaplus::sql::Engine* replay_;
  std::vector<std::shared_ptr<vegaplus::storage::Reader>> serving_readers_;
  std::mutex replay_mu_;  // serializes replays, guards prepared_
  std::map<std::string, vegaplus::sql::PreparedPtr> prepared_;
  mutable std::mutex mu_;  // guards next_id_, spans_, totals_
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  LayerTotals totals_;
};

/// QueryService wrapper between the VDTs and one middleware Session.
class TracedService : public vegaplus::rewrite::QueryService {
 public:
  TracedService(std::shared_ptr<vegaplus::runtime::Session> session,
                const vegaplus::runtime::Middleware* middleware, Tracer* tracer);

  vegaplus::Result<vegaplus::rewrite::PreparedHandle> Prepare(
      const std::string& sql_template) override;
  vegaplus::rewrite::QueryTicketPtr Submit(
      const vegaplus::rewrite::QueryRequest& request) override;

  vegaplus::runtime::Session& session() { return *session_; }

 private:
  std::shared_ptr<vegaplus::runtime::Session> session_;
  const vegaplus::runtime::Middleware* middleware_;
  Tracer* tracer_;
  std::map<vegaplus::rewrite::PreparedHandle, std::string> templates_;
};

/// PlanExecutor's Initialize/Interact, with the plan built over a
/// TracedService and each operation wrapped in a span.
class TracedExecutor {
 public:
  TracedExecutor(const vegaplus::spec::VegaSpec& spec,
                 std::shared_ptr<vegaplus::runtime::Middleware> middleware,
                 Tracer* tracer);
  TracedExecutor(const TracedExecutor&) = delete;
  TracedExecutor& operator=(const TracedExecutor&) = delete;

  vegaplus::Status Initialize(const vegaplus::rewrite::ExecutionPlan& plan);
  vegaplus::Status Interact(const std::vector<vegaplus::runtime::SignalUpdate>& updates);
  vegaplus::data::TablePtr EntryOutput(const std::string& entry) const;
  vegaplus::runtime::Session& session() { return service_.session(); }

 private:
  vegaplus::rewrite::PlanBuilder builder_;
  Tracer* tracer_;
  TracedService service_;
  vegaplus::rewrite::PlanDataflow flow_;
};

}  // namespace dashbench

#endif  // DASHBENCH_TRACE_H_
