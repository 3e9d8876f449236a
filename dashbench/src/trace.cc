#include "trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "checks.h"
#include "data/ipc.h"
#include "expr/kernels/kernels.h"
#include "storage/stats.h"

namespace dashbench {

namespace vp = vegaplus;
using vp::rewrite::QueryResponse;

namespace {

// The operation (initial render or interaction) running on this thread.
struct OperationContext {
  uint64_t operation = 0;
  uint64_t span = 0;
  double vdt_ms = 0;  // time inside vdt.query spans of this operation
};
thread_local OperationContext tls_op;

// Chunks a shard-backed statement considers: every chunk of every shard
// table named in a FROM clause, subqueries included.
uint64_t ChunksConsidered(const vp::sql::SelectStmt& stmt, const vp::sql::Catalog& catalog) {
  if (stmt.from.subquery) return ChunksConsidered(*stmt.from.subquery, catalog);
  if (stmt.from.table_name.empty()) return 0;
  auto shard = catalog.GetShard(stmt.from.table_name);
  return shard == nullptr ? 0 : shard->num_chunks();
}

std::string ParamsToString(const std::vector<vp::rewrite::QueryParam>& params) {
  std::string out;
  for (const auto& p : params) {
    if (!out.empty()) out += ", ";
    out += p.name + "=" + p.value.ToString();
  }
  return out;
}

}  // namespace

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(const vp::sql::Engine* replay,
               std::vector<std::shared_ptr<vp::storage::Reader>> serving_readers)
    : replay_(replay), serving_readers_(std::move(serving_readers)) {}

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::AddSpan(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

vp::Result<Tracer::Replay> Tracer::ReplayStatement(
    const std::string& sql_template, const std::vector<vp::rewrite::QueryParam>& params,
    bool dbms) {
  std::lock_guard<std::mutex> lock(replay_mu_);
  auto it = prepared_.find(sql_template);
  if (it == prepared_.end()) {
    VP_ASSIGN_OR_RETURN(vp::sql::PreparedPtr p, replay_->Prepare(sql_template));
    it = prepared_.emplace(sql_template, std::move(p)).first;
  }
  const vp::sql::PreparedStatement& stmt = *it->second;
  const vp::sql::ExecStats before = replay_->lifetime_stats();
  const uint64_t bitmap0 = vp::kernels::BitmapSelections();
  const uint64_t index0 = vp::kernels::IndexSelections();
  const uint64_t scalar0 = vp::kernels::ScalarFallbacks();
  const uint64_t pruned0 = vp::storage::ChunksPruned();
  const uint64_t paged0 = vp::storage::ChunksPagedIn();
  const uint64_t morsels0 = vp::storage::MorselsPruned();

  const double t0 = NowMs();
  VP_ASSIGN_OR_RETURN(vp::sql::QueryResult result,
                      replay_->ExecuteBound(stmt, vp::rewrite::ParamResolver(params)));
  const double t1 = NowMs();

  const vp::sql::ExecStats after = replay_->lifetime_stats();
  const uint64_t pruned = vp::storage::ChunksPruned() - pruned0;
  Update([&](LayerTotals* t) {
    t->replay_chunks_pruned += pruned;
    t->replay_chunks_paged_in += vp::storage::ChunksPagedIn() - paged0;
    t->replay_morsels_pruned += vp::storage::MorselsPruned() - morsels0;
    if (!dbms) return;
    t->sql_exec_ms += t1 - t0;
    t->sql_rows_scanned += after.rows_scanned - before.rows_scanned;
    t->sql_rows_processed += after.rows_processed - before.rows_processed;
    t->kernel_bitmap += vp::kernels::BitmapSelections() - bitmap0;
    t->kernel_index += vp::kernels::IndexSelections() - index0;
    t->kernel_scalar += vp::kernels::ScalarFallbacks() - scalar0;
    t->dbms_chunks_considered += ChunksConsidered(*stmt.stmt, replay_->catalog());
    t->dbms_chunks_pruned += pruned;
  });
  return Replay{result.table, t1 - t0};
}

uint64_t Tracer::SampleResidentBytes() const {
  uint64_t bytes = 0;
  for (const auto& reader : serving_readers_) bytes += reader->resident_bytes();
  return bytes;
}

LayerTotals Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

vp::Status Tracer::WriteSpans(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%llu,\"parent\":%llu,\"operation\":%llu,\"name\":\"%s\","
                  "\"start_ms\":%.4f,\"end_ms\":%.4f}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.operation), s.name.c_str(), s.start_ms,
                  s.end_ms);
    out << buf;
  }
  out.flush();
  if (!out.good()) return vp::Status::IOError("cannot write trace " + path);
  return vp::Status::OK();
}

// ---- TracedService ----

TracedService::TracedService(std::shared_ptr<vp::runtime::Session> session,
                             const vp::runtime::Middleware* middleware, Tracer* tracer)
    : session_(std::move(session)), middleware_(middleware), tracer_(tracer) {}

vp::Result<vp::rewrite::PreparedHandle> TracedService::Prepare(
    const std::string& sql_template) {
  VP_ASSIGN_OR_RETURN(vp::rewrite::PreparedHandle handle, session_->Prepare(sql_template));
  templates_[handle] = sql_template;
  return handle;
}

vp::rewrite::QueryTicketPtr TracedService::Submit(
    const vp::rewrite::QueryRequest& request) {
  const size_t queue_depth = middleware_->worker_pool().queue_depth();
  const uint64_t resident = tracer_->SampleResidentBytes();
  Span query;
  query.id = tracer_->NewId();
  query.parent = tls_op.span;
  query.operation = tls_op.operation;
  query.name = "vdt.query";
  query.start_ms = NowMs();
  vp::Result<QueryResponse> response = session_->Submit(request)->Await();
  const double roundtrip_end = NowMs();
  const double roundtrip = roundtrip_end - query.start_ms;

  if (response.ok() && response->table != nullptr) {
    const QueryResponse& r = *response;
    const bool dbms = r.source == QueryResponse::Source::kDbms;
    const bool tile = r.source == QueryResponse::Source::kTileStore;

    const double e0 = NowMs();
    const std::string wire = vp::data::SerializeBinary(*r.table);
    const double e1 = NowMs();
    vp::Result<vp::data::TablePtr> decoded = vp::data::DeserializeBinary(wire);
    const double e2 = NowMs();

    Span replay_span;
    replay_span.id = tracer_->NewId();
    replay_span.parent = query.id;
    replay_span.operation = query.operation;
    replay_span.name = "engine.replay";
    replay_span.start_ms = NowMs();
    const std::string& tmpl = templates_[request.handle];
    vp::Result<Tracer::Replay> replay = tracer_->ReplayStatement(tmpl, request.params, dbms);
    replay_span.end_ms = NowMs();
    tracer_->AddSpan(replay_span);

    std::string mismatch;
    if (!decoded.ok()) {
      mismatch = "wire decode failed: " + decoded.status().ToString();
    } else if (!replay.ok()) {
      mismatch = "replay failed: " + replay.status().ToString();
    } else {
      std::string diff = CompareTables(*replay->table, *r.table);
      if (diff.empty()) diff = CompareTables(*r.table, **decoded);
      if (!diff.empty()) mismatch = diff;
    }
    tracer_->Update([&](LayerTotals* t) {
      ++t->responses;
      if (dbms) {
        ++t->dbms_responses;
        t->dbms_roundtrip_ms += roundtrip;
        if (replay.ok()) t->middleware_ms += roundtrip - replay->exec_ms;
      } else if (tile) {
        ++t->tile_responses;
        t->tile_roundtrip_ms += roundtrip;
      } else {
        ++t->cache_responses;
        t->cache_roundtrip_ms += roundtrip;
      }
      t->queue_depth_max = std::max(t->queue_depth_max, queue_depth);
      t->resident_bytes_max = std::max(t->resident_bytes_max, resident);
      t->result_bytes += wire.size();
      t->encode_ms += e1 - e0;
      t->decode_ms += e2 - e1;
      if (!mismatch.empty()) {
        t->mismatches.push_back("statement " + tmpl + " [" +
                                ParamsToString(request.params) + "]: " + mismatch);
      }
    });
  }
  query.end_ms = NowMs();
  tls_op.vdt_ms += query.end_ms - query.start_ms;
  tracer_->AddSpan(query);
  return vp::rewrite::QueryTicket::Ready(std::move(response), request.generation);
}

// ---- TracedExecutor ----

TracedExecutor::TracedExecutor(const vp::spec::VegaSpec& spec,
                               std::shared_ptr<vp::runtime::Middleware> middleware,
                               Tracer* tracer)
    : builder_(spec), tracer_(tracer),
      service_(middleware->CreateSession(), middleware.get(), tracer) {}

vp::Status TracedExecutor::Initialize(const vp::rewrite::ExecutionPlan& plan) {
  Span op;
  op.id = op.operation = tracer_->NewId();
  op.name = "initialize";
  op.start_ms = NowMs();
  tls_op = OperationContext{op.operation, op.id, 0};
  vp::Result<vp::rewrite::PlanDataflow> flow = builder_.Build(plan, &service_);
  const double built = NowMs();
  tracer_->AddSpan(Span{tracer_->NewId(), op.id, op.operation, "rewrite.plan_build",
                        op.start_ms, built});
  vp::Status status = flow.status();
  if (status.ok()) {
    flow_ = std::move(*flow);
    status = flow_.graph->Run().status();
  }
  op.end_ms = NowMs();
  tracer_->AddSpan(op);
  tls_op = OperationContext{};
  tracer_->Update([&](LayerTotals* t) {
    ++t->inits;
    t->plan_build_ms += built - op.start_ms;
  });
  return status;
}

vp::Status TracedExecutor::Interact(const std::vector<vp::runtime::SignalUpdate>& updates) {
  if (flow_.graph == nullptr) return vp::Status::InvalidArgument("traced: not initialized");
  Span op;
  op.id = op.operation = tracer_->NewId();
  op.name = "interaction";
  op.start_ms = NowMs();
  tls_op = OperationContext{op.operation, op.id, 0};
  vp::Result<vp::dataflow::RunStats> stats = flow_.graph->Update(updates);
  op.end_ms = NowMs();
  const double vdt_ms = tls_op.vdt_ms;
  tls_op = OperationContext{};
  tracer_->AddSpan(op);
  if (!stats.ok()) return stats.status();
  tracer_->Update([&](LayerTotals* t) {
    ++t->interactions;
    t->interaction_ms += op.end_ms - op.start_ms;
    t->client_ms += op.end_ms - op.start_ms - vdt_ms;
    t->ops_evaluated += static_cast<size_t>(stats->ops_evaluated);
    t->rows_processed += stats->rows_processed;
  });
  return vp::Status::OK();
}

vp::data::TablePtr TracedExecutor::EntryOutput(const std::string& entry) const {
  auto it = flow_.entry_tails.find(entry);
  return it == flow_.entry_tails.end() ? nullptr : it->second->output;
}

}  // namespace dashbench
