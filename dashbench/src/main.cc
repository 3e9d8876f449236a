// dashbench: wall-clock benchmark of whole dashboard interactions.
//
// Replays sessions of the seven §6 dashboard templates over the generated
// datasets through the public API (benchdata -> optimizer plan choice ->
// runtime::PlanExecutor on a runtime::Middleware), times every initial
// render and every interaction by the wall clock, checks every mark against
// an all-client execution, and prints one JSON line of metrics.
//
//   dashbench --workload explore|shared|out-of-core --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// --trace 1 runs an untraced and a traced phase of S/2 seconds each and
// prints the per-layer metrics instead of the end-to-end ones.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "benchdata/templates.h"
#include "benchdata/workload.h"
#include "checks.h"
#include "optimizer/comparator.h"
#include "optimizer/trainer.h"
#include "runtime/plan_executor.h"
#include "storage/stats.h"
#include "storage/table_shard.h"
#include "trace.h"

namespace vp = vegaplus;
using dashbench::LayerTotals;
using dashbench::NowMs;
using dashbench::Tracer;
using vp::benchdata::TemplateId;

namespace {

const double g_process_start_ms = NowMs();

/// Clients run whole rounds until the time is up and, together, they have
/// made at least this many interactions with DBMS or tile work, so the 95th
/// percentile has ten samples beyond it.
constexpr size_t kMinInteractions = 200;

/// Seed of the generated data, the template field choices and the
/// optimizer's training sessions. Fixed, so every run serves the same
/// dashboards with the same plans; --seed drives the interactions.
constexpr uint64_t kDataSeed = 2024;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".dashbench";
};

struct WorkloadConfig {
  std::vector<TemplateId> dashboards;
  size_t rows = 0;
  size_t clients = 1;
  /// Interactions per session of an interactive dashboard.
  size_t session_interactions = 0;
  /// Base tables as VPS1 shards under a residency budget.
  bool shards = false;
  /// One middleware for the whole phase (else a fresh one per round).
  bool shared_middleware = false;
};

const std::vector<TemplateId> kInteractive = {
    TemplateId::kInteractiveHistogram, TemplateId::kZoomableHeatmap,
    TemplateId::kCrossfilter, TemplateId::kHeatmapBarChart, TemplateId::kOverviewDetail};

bool ConfigFor(const std::string& name, WorkloadConfig* out) {
  WorkloadConfig c;
  c.rows = 200000;
  if (name == "explore") {
    c.dashboards = vp::benchdata::AllTemplates();
    c.session_interactions = 20;
  } else if (name == "shared") {
    c.dashboards = kInteractive;
    c.clients = 4;
    c.session_interactions = 20;
    c.shared_middleware = true;
  } else if (name == "out-of-core") {
    c.dashboards = kInteractive;
    c.rows = 100000;
    c.session_interactions = 10;
    c.shards = true;
  } else {
    return false;
  }
  *out = c;
  return true;
}

/// The dataset each template runs on (the five datasets in rotation, as in
/// the paper-figure benches).
std::string DatasetFor(TemplateId id) {
  auto names = vp::benchdata::DatasetNames();
  return names[static_cast<size_t>(id) % names.size()];
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

[[noreturn]] void Fail(const std::string& what, const vp::Status& status) {
  std::fprintf(stderr, "dashbench: %s: %s\n", what.c_str(), status.ToString().c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Set-up: data, plans, engines
// ---------------------------------------------------------------------------

struct Dashboard {
  TemplateId id = TemplateId::kTrellisStackedBar;
  std::string table_name;
  vp::data::TablePtr table;  // the generated table, for the checks (see RestoreTables)
  vp::spec::VegaSpec spec;
  vp::rewrite::ExecutionPlan plan;
  std::vector<std::string> marks;  // distinct data entries rendered by marks
};

struct Setup {
  std::vector<Dashboard> dashboards;
  std::unique_ptr<vp::sql::Engine> serving;  // behind the middleware
  std::unique_ptr<vp::sql::Engine> replay;   // traced statement replays
  std::vector<std::shared_ptr<vp::storage::Reader>> serving_readers;
  double generate_s = 0;
  double plan_choice_s = 0;
  double shard_write_s = 0;
  uint64_t encoded_bytes = 0;  // shard chunk payloads, as residency counts them
  uint64_t residency_budget = 0;
};

/// The optimizer's plan for one dashboard: collect one training session of
/// labeled episodes at the dashboard's own row count, train RankSVM on its
/// plan pairs, and consolidate over the session (§5.4).
vp::Result<vp::rewrite::ExecutionPlan> ChoosePlan(const Dashboard& d,
                                                  const vp::sql::Engine* engine) {
  vp::optimizer::CollectorOptions copts;
  copts.max_plans = 192;
  copts.seed = kDataSeed;
  vp::optimizer::EpisodeCollector collector(d.spec, engine, copts);
  VP_RETURN_IF_ERROR(collector.Start());
  std::vector<vp::optimizer::EpisodeRecord> episodes;
  VP_ASSIGN_OR_RETURN(vp::optimizer::EpisodeRecord initial, collector.Collect());
  episodes.push_back(std::move(initial));
  if (vp::benchdata::IsInteractive(d.id)) {
    vp::benchdata::WorkloadGenerator training(d.spec, kDataSeed * 31);
    for (int i = 0; i < 4; ++i) {
      VP_RETURN_IF_ERROR(collector.ApplyInteraction(training.Next().updates));
      VP_ASSIGN_OR_RETURN(vp::optimizer::EpisodeRecord ep, collector.Collect());
      episodes.push_back(std::move(ep));
    }
  }
  vp::ml::RankSvm svm;
  svm.Train(vp::optimizer::MakePairs(episodes, 12000, kDataSeed));
  vp::optimizer::RankSvmComparator ranker(std::move(svm));
  const size_t pick = vp::optimizer::ConsolidateSession(ranker, episodes);
  return collector.enumeration().plans[pick];
}

/// Rows of `table` in the order of `column` (nulls last, ties stable): the
/// natural order of an append-only log keyed by time.
vp::data::TablePtr SortedBy(const vp::data::Table& table, const std::string& column) {
  const vp::data::Column* col = table.ColumnByName(column);
  std::vector<int32_t> order(table.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  if (col != nullptr) {
    std::stable_sort(order.begin(), order.end(), [col](int32_t a, int32_t b) {
      const bool na = col->IsNull(static_cast<size_t>(a));
      const bool nb = col->IsNull(static_cast<size_t>(b));
      if (na || nb) return !na && nb;
      return col->NumericAt(static_cast<size_t>(a)) < col->NumericAt(static_cast<size_t>(b));
    });
  }
  return table.Take(order);
}

uint64_t GenerationSeed(const WorkloadConfig& config) { return kDataSeed ^ config.rows; }

/// Every dataset the workload's dashboards use, each generated once.
std::map<std::string, vp::benchdata::Dataset> MakeDatasets(const WorkloadConfig& config) {
  std::map<std::string, vp::benchdata::Dataset> datasets;
  for (TemplateId id : config.dashboards) {
    const std::string name = DatasetFor(id);
    if (datasets.count(name) != 0) continue;
    auto ds = vp::benchdata::MakeDataset(name, config.rows, GenerationSeed(config));
    if (!ds.ok()) Fail("generate " + name, ds.status());
    datasets.emplace(name, std::move(*ds));
  }
  return datasets;
}

/// Shard-backed set-ups drop the generated tables before the timed phase, so
/// they do not count in its memory. The checks regenerate them (generation is
/// deterministic) once peak RSS has been read.
void RestoreTables(const WorkloadConfig& config, Setup* setup) {
  if (!config.shards) return;
  const auto datasets = MakeDatasets(config);
  for (Dashboard& d : setup->dashboards) d.table = datasets.at(d.table_name).table;
}

void BuildSetup(const WorkloadConfig& config, const std::string& shard_dir, Setup* setup) {
  // Datasets and templates: the two halves of MakeBenchCase(id, dataset,
  // rows, seed), so a dataset shared by two templates is generated once.
  double t0 = NowMs();
  std::map<std::string, vp::benchdata::Dataset> datasets = MakeDatasets(config);
  for (TemplateId id : config.dashboards) {
    const std::string name = DatasetFor(id);
    vp::Rng rng(GenerationSeed(config) ^ 0xBEEF);
    auto spec = vp::benchdata::BuildTemplate(id, datasets.at(name), &rng);
    if (!spec.ok()) Fail(vp::benchdata::TemplateName(id), spec.status());
    Dashboard d;
    d.id = id;
    d.table_name = name;
    d.table = datasets.at(name).table;
    d.spec = std::move(*spec);
    std::set<std::string> seen;
    for (const auto& mark : d.spec.marks) {
      if (seen.insert(mark.from_data).second) d.marks.push_back(mark.from_data);
    }
    setup->dashboards.push_back(std::move(d));
  }
  setup->generate_s = (NowMs() - t0) / 1000;

  // Plan choice runs on in-memory tables; the optimizer's labels come from
  // its cost model, so the pick does not depend on the storage backing.
  t0 = NowMs();
  vp::sql::Engine memory;
  for (const auto& [name, ds] : datasets) memory.RegisterTable(name, ds.table);
  for (Dashboard& d : setup->dashboards) {
    auto plan = ChoosePlan(d, &memory);
    if (!plan.ok()) Fail(std::string("plan choice ") + vp::benchdata::TemplateName(d.id),
                         plan.status());
    d.plan = std::move(*plan);
  }
  setup->plan_choice_s = (NowMs() - t0) / 1000;

  setup->serving = std::make_unique<vp::sql::Engine>();
  setup->replay = std::make_unique<vp::sql::Engine>();
  if (!config.shards) {
    for (const auto& [name, ds] : datasets) {
      setup->serving->RegisterTable(name, ds.table);
      setup->replay->RegisterTable(name, ds.table);
    }
    return;
  }

  // Out-of-core: each base table as a VPS1 shard in the order of its
  // temporal column, under a residency budget of a quarter of its encoded
  // chunk size. The replay engine reads the same files through its own
  // readers.
  t0 = NowMs();
  std::error_code ec;
  std::filesystem::create_directories(shard_dir, ec);
  if (ec) Fail("create " + shard_dir, vp::Status::IOError(ec.message()));
  for (const auto& [name, ds] : datasets) {
    const std::string path = shard_dir + "/" + name + ".vps";
    vp::Status written =
        vp::storage::TableShard::Write(path, *SortedBy(*ds.table, ds.temporal.front()));
    if (!written.ok()) Fail("write shard " + path, written);
    auto serving = vp::storage::Reader::Open(path);
    auto replay = vp::storage::Reader::Open(path);
    if (!serving.ok()) Fail("open shard " + path, serving.status());
    if (!replay.ok()) Fail("open shard " + path, replay.status());
    const vp::storage::ColumnFile& file = (*serving)->file();
    uint64_t encoded = 0;
    for (size_t i = 0; i < file.num_chunks(); ++i) encoded += file.chunk(i).payload_size;
    const uint64_t budget = std::max<uint64_t>(encoded / 4, 1);
    (*serving)->set_residency_budget(budget);
    (*replay)->set_residency_budget(budget);
    setup->encoded_bytes += encoded;
    setup->residency_budget += budget;
    vp::Status s1 = setup->serving->RegisterShardTable(name, *serving);
    vp::Status s2 = setup->replay->RegisterShardTable(name, *replay);
    if (!s1.ok()) Fail("register shard " + name, s1);
    if (!s2.ok()) Fail("register shard " + name, s2);
    setup->serving_readers.push_back(*serving);
  }
  for (Dashboard& d : setup->dashboards) d.table = nullptr;
  setup->shard_write_s = (NowMs() - t0) / 1000;
}

// ---------------------------------------------------------------------------
// Measured phase: closed-loop clients replaying sessions
// ---------------------------------------------------------------------------

struct OpRecord {
  double ms = 0;
  bool ok = false;
  /// Every query of the operation was answered from the client or server
  /// cache, with no DBMS or tile work.
  bool cached = false;
  std::vector<vp::data::TablePtr> marks;  // parallel to Dashboard::marks
};

struct SessionRecord {
  size_t client = 0;
  size_t round = 0;
  size_t dashboard = 0;
  std::vector<vp::benchdata::Interaction> interactions;
  std::vector<OpRecord> ops;  // ops[0] is the initial render
  std::string error;
};

struct ClientRecord {
  std::vector<SessionRecord> sessions;
  double elapsed_ms = 0;
};

vp::Status StatusOf(const vp::Status& s) { return s; }
template <typename T>
vp::Status StatusOf(const vp::Result<T>& r) {
  return r.status();
}

/// Initial render plus every interaction of one session, each timed by the
/// wall clock. A failed operation ends the session; the rest of it is
/// recorded as failed too, so every session attempts the same operations.
template <typename Exec>
void Drive(Exec& exec, const Dashboard& d, SessionRecord* rec) {
  const size_t total = 1 + rec->interactions.size();
  for (size_t i = 0; i < total; ++i) {
    OpRecord op;
    if (rec->error.empty()) {
      const vp::runtime::SessionStats before = exec.session().stats();
      const double t0 = NowMs();
      vp::Status s = i == 0 ? StatusOf(exec.Initialize(d.plan))
                            : StatusOf(exec.Interact(rec->interactions[i - 1].updates));
      op.ms = NowMs() - t0;
      op.ok = s.ok();
      const vp::runtime::SessionStats after = exec.session().stats();
      op.cached = s.ok() && after.queries > before.queries &&
                  after.dbms_executions == before.dbms_executions &&
                  after.tile_hits == before.tile_hits;
      if (s.ok()) {
        for (const std::string& mark : d.marks) op.marks.push_back(exec.EntryOutput(mark));
      } else {
        rec->error = (i == 0 ? std::string("initialize") : "interaction " + std::to_string(i)) +
                     ": " + s.ToString();
      }
    }
    rec->ops.push_back(std::move(op));
  }
}

/// The program's own counters of one middleware, read from outside.
struct MiddlewareCounters {
  vp::runtime::Middleware::Stats runtime;
  vp::tiles::TileStoreStats tiles;
};

MiddlewareCounters ReadCounters(const vp::runtime::Middleware& mw) {
  MiddlewareCounters c;
  c.runtime = mw.stats();
  if (mw.tile_store() != nullptr) c.tiles = mw.tile_store()->stats();
  return c;
}

/// Add what `mw` counted since `base` to the traced totals.
void FoldMiddleware(const vp::runtime::Middleware& mw, const MiddlewareCounters& base,
                    Tracer* tracer) {
  const MiddlewareCounters now = ReadCounters(mw);
  tracer->Update([&](LayerTotals* t) {
    t->mw_queries += now.runtime.queries - base.runtime.queries;
    t->mw_client_cache_hits += now.runtime.client_cache_hits - base.runtime.client_cache_hits;
    t->mw_server_cache_hits += now.runtime.server_cache_hits - base.runtime.server_cache_hits;
    t->mw_tile_hits += now.runtime.tile_hits - base.runtime.tile_hits;
    t->mw_dbms_executions += now.runtime.dbms_executions - base.runtime.dbms_executions;
    t->tiles_hits += now.tiles.hits - base.tiles.hits;
    t->tiles_builds += now.tiles.builds - base.tiles.builds;
    t->tiles_coverage_misses += now.tiles.coverage_misses - base.tiles.coverage_misses;
  });
}

/// Process-wide storage counters.
struct StorageCounters {
  uint64_t chunks_pruned = 0;
  uint64_t chunks_paged_in = 0;
  uint64_t morsels_pruned = 0;
};

StorageCounters ReadStorageCounters() {
  return {vp::storage::ChunksPruned(), vp::storage::ChunksPagedIn(),
          vp::storage::MorselsPruned()};
}

struct Phase {
  std::vector<ClientRecord> clients;
  StorageCounters storage_start;  // after the warm-up
  StorageCounters storage_end;
};

/// Run every client until `seconds` have passed, in whole rounds. A round is
/// one session per dashboard, in the same order for every client, on a fresh
/// middleware unless it is shared, so every dashboard contributes the same
/// number of samples. The clients start together and then go at their own
/// pace, each with its own interactions; on a shared middleware, repeated
/// queries can hit across sessions.
Phase RunPhase(const Setup& setup, const WorkloadConfig& config, uint64_t seed,
               double seconds, Tracer* tracer) {
  Phase phase;
  phase.clients.resize(config.clients);
  std::shared_ptr<vp::runtime::Middleware> shared;
  if (config.shared_middleware) {
    shared = std::make_shared<vp::runtime::Middleware>(setup.serving.get(),
                                                       vp::runtime::MiddlewareOptions{});
  }
  // One round of one client.
  auto run_round = [&](size_t client, size_t round, uint64_t round_seed, size_t interactions,
                       Tracer* t, std::vector<SessionRecord>* out) {
    std::shared_ptr<vp::runtime::Middleware> mw =
        shared != nullptr ? shared
                          : std::make_shared<vp::runtime::Middleware>(
                                setup.serving.get(), vp::runtime::MiddlewareOptions{});
    for (size_t k = 0; k < setup.dashboards.size(); ++k) {
      SessionRecord rec;
      rec.client = client;
      rec.round = round;
      rec.dashboard = k;
      const Dashboard& d = setup.dashboards[k];
      if (vp::benchdata::IsInteractive(d.id)) {
        vp::benchdata::WorkloadGenerator gen(d.spec, Mix(round_seed, k));
        rec.interactions = gen.Session(interactions);
      }
      if (t != nullptr) {
        dashbench::TracedExecutor exec(d.spec, mw, t);
        Drive(exec, d, &rec);
      } else {
        vp::runtime::PlanExecutor exec(d.spec, mw);
        Drive(exec, d, &rec);
      }
      out->push_back(std::move(rec));
    }
    if (shared == nullptr && t != nullptr) FoldMiddleware(*mw, MiddlewareCounters{}, t);
  };
  auto run_clients = [&](const std::function<void(size_t)>& fn) {
    std::vector<std::thread> threads;
    for (size_t c = 1; c < config.clients; ++c) threads.emplace_back(fn, c);
    fn(0);
    for (auto& t : threads) t.join();
  };
  // One untimed pass of every client over every dashboard with fixed
  // interactions first, so first-touch costs of the process (allocator
  // growth, page faults, pool start-up) and, on a shared middleware, the
  // first tile builds are not in the samples.
  run_clients([&](size_t client) {
    std::vector<SessionRecord> warmup;
    run_round(client, 0, Mix(kDataSeed, client), 3, nullptr, &warmup);
  });
  const MiddlewareCounters base = shared != nullptr ? ReadCounters(*shared)
                                                    : MiddlewareCounters{};
  phase.storage_start = ReadStorageCounters();
  // Each client stops at the first end of one of its rounds after the
  // deadline at which the clients have made kMinInteractions together
  // (counted as in the metrics: those with DBMS or tile work).
  std::mutex start_mu;
  std::condition_variable start_cv;
  size_t waiting = config.clients;
  double start = 0;
  std::atomic<size_t> interactions{0};
  run_clients([&](size_t client) {
    {
      std::unique_lock<std::mutex> lock(start_mu);
      if (--waiting == 0) {
        start = NowMs();
        start_cv.notify_all();
      } else {
        start_cv.wait(lock, [&] { return waiting == 0; });
      }
    }
    ClientRecord& out = phase.clients[client];
    for (size_t round = 0;; ++round) {
      const size_t before = out.sessions.size();
      run_round(client, round, Mix(Mix(seed, client), round), config.session_interactions,
                tracer, &out.sessions);
      for (size_t i = before; i < out.sessions.size(); ++i) {
        const std::vector<OpRecord>& ops = out.sessions[i].ops;
        interactions += std::count_if(ops.begin() + 1, ops.end(),
                                      [](const OpRecord& op) { return op.ok && !op.cached; });
      }
      if (NowMs() >= start + seconds * 1000 && interactions >= kMinInteractions) break;
    }
    out.elapsed_ms = NowMs() - start;
  });
  phase.storage_end = ReadStorageCounters();
  if (shared != nullptr && tracer != nullptr) FoldMiddleware(*shared, base, tracer);
  return phase;
}

// ---------------------------------------------------------------------------
// Output checks (a) and (b), after the measured phase
// ---------------------------------------------------------------------------

dashbench::Brush BrushFromSignal(const std::string& field, const vp::expr::EvalValue& v) {
  return dashbench::Brush{field, v.At(0).AsDouble(), v.At(1).AsDouble()};
}

/// Expected row count behind each binned count mark of `d` under the current
/// brush values, counted by a plain loop over the generated table.
class CountOracle {
 public:
  explicit CountOracle(const Dashboard& d) : d_(d) {
    for (const auto& s : d.spec.signals) {
      if (s.bind == vp::spec::BindKind::kInterval) {
        fields_[s.name] = s.bound_field;
        values_[s.name] = vp::expr::EvalValue::FromJson(s.init);
      }
    }
  }

  void Apply(const std::vector<vp::runtime::SignalUpdate>& updates) {
    for (const auto& [name, value] : updates) {
      if (fields_.count(name) != 0) values_[name] = value;
    }
  }

  /// Rows that should be counted in `mark`, or -1 when it is not checked.
  int64_t Expected(const std::string& mark) const {
    const size_t all = d_.table->num_rows();
    if (d_.id == TemplateId::kInteractiveHistogram && mark == "binned") {
      return static_cast<int64_t>(all);
    }
    if (d_.id != TemplateId::kCrossfilter) return -1;
    if (mark.rfind("gray_", 0) == 0) return static_cast<int64_t>(all);
    if (mark.rfind("hist_", 0) != 0) return -1;
    const int i = std::atoi(mark.c_str() + 5);
    std::vector<dashbench::Brush> brushes;
    for (int other : {(i + 1) % 3, (i + 2) % 3}) {
      const std::string sig = "brush_" + std::to_string(other);
      brushes.push_back(BrushFromSignal(fields_.at(sig), values_.at(sig)));
    }
    return static_cast<int64_t>(dashbench::CountRowsInBrushes(*d_.table, brushes));
  }

 private:
  const Dashboard& d_;
  std::map<std::string, std::string> fields_;
  std::map<std::string, vp::expr::EvalValue> values_;
};

struct Verification {
  std::vector<std::string> errors;
  size_t marks_checked = 0;
  size_t counts_checked = 0;
  std::string self_test;  // empty when the checker caught every perturbation
  bool self_test_ran = false;
};

std::string Where(const Dashboard& d, const SessionRecord& rec, const std::string& mark,
                  size_t op) {
  std::string s = std::string(vp::benchdata::TemplateName(d.id)) + ", mark '" + mark +
                  "', client " + std::to_string(rec.client) + " round " +
                  std::to_string(rec.round) + ", ";
  if (op == 0) return s + "initial render";
  return s + "interaction " + std::to_string(op) + " (" +
         rec.interactions[op - 1].description + ")";
}

void VerifySession(const Dashboard& d, const SessionRecord& rec, Verification* v,
                   std::mutex* mu) {
  std::vector<std::string> errors;
  size_t marks = 0, counts = 0;
  std::map<std::string, vp::data::TablePtr> tables{{d.table_name, d.table}};
  vp::runtime::VegaBaselineExecutor baseline(d.spec, tables);
  CountOracle oracle(d);
  vp::data::TablePtr self_test_mark;
  int64_t self_test_rows = -1;
  for (size_t op = 0; op < rec.ops.size() && rec.ops[op].ok; ++op) {
    vp::Status s;
    if (op == 0) {
      s = baseline.Initialize().status();
    } else {
      s = baseline.Interact(rec.interactions[op - 1].updates).status();
      oracle.Apply(rec.interactions[op - 1].updates);
    }
    if (!s.ok()) {
      errors.push_back(Where(d, rec, "*", op) + ": all-client run failed: " + s.ToString());
      break;
    }
    for (size_t m = 0; m < d.marks.size(); ++m) {
      const std::string& mark = d.marks[m];
      const vp::data::TablePtr& got = rec.ops[op].marks[m];
      vp::data::TablePtr want = baseline.EntryOutput(mark);
      if (got == nullptr || want == nullptr) {
        errors.push_back(Where(d, rec, mark, op) + ": no output");
        continue;
      }
      ++marks;
      std::string diff = dashbench::CompareTables(*want, *got);
      if (!diff.empty()) errors.push_back(Where(d, rec, mark, op) + ": " + diff);
      const int64_t rows = oracle.Expected(mark);
      if (rows >= 0) {
        ++counts;
        diff = dashbench::CheckCountSum(*got, static_cast<size_t>(rows));
        if (!diff.empty()) errors.push_back(Where(d, rec, mark, op) + ": " + diff);
        if (self_test_mark == nullptr && got->num_rows() > 1) {
          self_test_mark = got;
          self_test_rows = rows;
        }
      }
    }
  }
  std::lock_guard<std::mutex> lock(*mu);
  v->errors.insert(v->errors.end(), errors.begin(), errors.end());
  v->marks_checked += marks;
  v->counts_checked += counts;
  if (!v->self_test_ran && self_test_mark != nullptr) {
    // The checker must reject a perturbed copy of a real mark.
    v->self_test = dashbench::SelfTest(*self_test_mark, static_cast<size_t>(self_test_rows));
    v->self_test_ran = true;
  }
}

Verification Verify(const Setup& setup, const std::vector<const Phase*>& phases) {
  std::vector<const SessionRecord*> sessions;
  for (const Phase* p : phases) {
    for (const ClientRecord& c : p->clients) {
      for (const SessionRecord& s : c.sessions) sessions.push_back(&s);
    }
  }
  Verification v;
  std::mutex mu;
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < sessions.size(); i = next++) {
      VerifySession(setup.dashboards[sessions[i]->dashboard], *sessions[i], &v, &mu);
    }
  };
  const size_t n = std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (size_t i = 1; i < n; ++i) threads.emplace_back(worker);
  worker();
  for (auto& t : threads) t.join();
  return v;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Timings of one phase per dashboard (indexed like Setup::dashboards), split
/// into operations that did DBMS or tile work and operations whose every
/// query was answered from a cache.
struct Counts {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::vector<double>> render_ms;
  std::vector<std::vector<double>> cached_render_ms;
  std::vector<std::vector<double>> interaction_ms;
  std::vector<std::vector<double>> cached_interaction_ms;
  double interactions_per_s = 0;  // every completed interaction
};

Counts CountPhase(const Phase& phase, size_t dashboards) {
  Counts c;
  for (auto* v : {&c.render_ms, &c.cached_render_ms, &c.interaction_ms, &c.cached_interaction_ms}) {
    v->resize(dashboards);
  }
  for (const ClientRecord& client : phase.clients) {
    size_t done = 0;
    for (const SessionRecord& s : client.sessions) {
      for (size_t i = 0; i < s.ops.size(); ++i) {
        const OpRecord& op = s.ops[i];
        ++c.attempted;
        if (!op.ok) {
          ++c.failed;
          continue;
        }
        auto& renders = op.cached ? c.cached_render_ms : c.render_ms;
        auto& interactions = op.cached ? c.cached_interaction_ms : c.interaction_ms;
        (i == 0 ? renders : interactions)[s.dashboard].push_back(op.ms);
        if (i > 0) ++done;
      }
    }
    if (client.elapsed_ms > 0) c.interactions_per_s += done * 1000.0 / client.elapsed_ms;
  }
  return c;
}

std::vector<double> Pooled(const std::vector<std::vector<double>>& per_dashboard) {
  std::vector<double> all;
  for (const auto& v : per_dashboard) all.insert(all.end(), v.begin(), v.end());
  return all;
}

/// Geometric mean, over the dashboards that have samples, of each one's
/// median, so every dashboard weighs the same whatever its sample count. A
/// pooled median falls in a gap between two dashboards' latency levels and
/// jumps with a small shift in their shares.
double GeoMeanOfMedians(const std::vector<std::vector<double>>& per_dashboard) {
  double log_sum = 0;
  size_t n = 0;
  for (const auto& v : per_dashboard) {
    if (v.empty()) continue;
    log_sum += std::log(std::max(Quantile(v, 0.5), 1e-6));
    ++n;
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

/// Sum of interaction times over the sessions both phases ran (same client,
/// round and dashboard, hence the same interactions).
double OverheadPct(const Phase& untraced, const Phase& traced) {
  std::map<std::tuple<size_t, size_t, size_t>, const SessionRecord*> base;
  for (const auto& c : untraced.clients) {
    for (const auto& s : c.sessions) base[{s.client, s.round, s.dashboard}] = &s;
  }
  double sum_u = 0, sum_t = 0;
  for (const auto& c : traced.clients) {
    for (const auto& s : c.sessions) {
      auto it = base.find({s.client, s.round, s.dashboard});
      if (it == base.end()) continue;
      for (size_t i = 1; i < s.ops.size() && i < it->second->ops.size(); ++i) {
        if (!s.ops[i].ok || !it->second->ops[i].ok) continue;
        sum_t += s.ops[i].ms;
        sum_u += it->second->ops[i].ms;
      }
    }
  }
  return sum_u > 0 ? (sum_t / sum_u - 1) * 100 : 0;
}

/// Per-dashboard timings, to stderr.
void PrintPerDashboard(const Setup& setup, const Counts& c) {
  for (size_t d = 0; d < setup.dashboards.size(); ++d) {
    const std::vector<double>& inter = c.interaction_ms[d];
    std::fprintf(stderr,
                 "  %-42s render p50 %7.2f ms (%3zu; %3zu cached, p50 %6.2f) | interactions "
                 "p50 %7.2f p95 %7.2f ms (%4zu; %4zu cached, p50 %6.3f)\n",
                 vp::benchdata::TemplateName(setup.dashboards[d].id), Quantile(c.render_ms[d], 0.5),
                 c.render_ms[d].size(), c.cached_render_ms[d].size(),
                 Quantile(c.cached_render_ms[d], 0.5), Quantile(inter, 0.5), Quantile(inter, 0.95),
                 inter.size(), c.cached_interaction_ms[d].size(),
                 Quantile(c.cached_interaction_ms[d], 0.5));
  }
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Per(double x, size_t n) { return n == 0 ? 0 : x / static_cast<double>(n); }

std::vector<Metric> LayerMetrics(const Setup& setup, const LayerTotals& t,
                                 uint64_t chunks_pruned, uint64_t chunks_paged_in,
                                 uint64_t morsels_pruned, double overhead_pct) {
  const size_t ops = t.inits + t.interactions;
  const size_t non_dbms = t.mw_client_cache_hits + t.mw_server_cache_hits + t.mw_tile_hits;
  return {
      {"benchdata.generate_s", setup.generate_s, "s"},
      {"optimizer.plan_choice_s", setup.plan_choice_s, "s"},
      {"storage.shard_write_s", setup.shard_write_s, "s"},
      {"rewrite.plan_build_ms", Per(t.plan_build_ms, t.inits), "ms"},
      {"dataflow.client_ms", Per(t.client_ms, t.interactions), "ms"},
      {"dataflow.ops_evaluated", Per(t.ops_evaluated, t.interactions), "ops/interaction"},
      {"dataflow.rows_processed", Per(t.rows_processed, t.interactions), "rows/interaction"},
      {"runtime.queries", Per(t.mw_queries, ops), "count/op"},
      {"runtime.client_cache_hits", Per(t.mw_client_cache_hits, ops), "count/op"},
      {"runtime.server_cache_hits", Per(t.mw_server_cache_hits, ops), "count/op"},
      {"runtime.tile_hits", Per(t.mw_tile_hits, ops), "count/op"},
      {"runtime.dbms_executions", Per(t.mw_dbms_executions, ops), "count/op"},
      {"runtime.hit_ratio", Per(non_dbms, t.mw_queries), "ratio"},
      {"runtime.dbms_roundtrip_ms", Per(t.dbms_roundtrip_ms, t.dbms_responses), "ms"},
      {"runtime.tile_roundtrip_ms", Per(t.tile_roundtrip_ms, t.tile_responses), "ms"},
      {"runtime.cache_roundtrip_ms", Per(t.cache_roundtrip_ms, t.cache_responses), "ms"},
      {"runtime.middleware_ms", Per(t.middleware_ms, t.dbms_responses), "ms"},
      {"runtime.queue_depth_max", static_cast<double>(t.queue_depth_max), "count"},
      {"sql.exec_ms", Per(t.sql_exec_ms, t.dbms_responses), "ms"},
      {"sql.rows_scanned", Per(t.sql_rows_scanned, t.dbms_responses), "rows/query"},
      {"sql.rows_processed", Per(t.sql_rows_processed, t.dbms_responses), "rows/query"},
      {"kernels.bitmap_selections", Per(t.kernel_bitmap, t.dbms_responses), "count/query"},
      {"kernels.index_selections", Per(t.kernel_index, t.dbms_responses), "count/query"},
      {"kernels.scalar_fallbacks", Per(t.kernel_scalar, t.dbms_responses), "count/query"},
      {"tiles.hits", Per(t.tiles_hits, ops), "count/op"},
      {"tiles.builds", Per(t.tiles_builds, ops), "count/op"},
      {"tiles.coverage_misses", Per(t.tiles_coverage_misses, ops), "count/op"},
      {"storage.chunks_paged_in", Per(chunks_paged_in, ops), "count/op"},
      {"storage.chunks_pruned", Per(chunks_pruned, ops), "count/op"},
      {"storage.morsels_pruned", Per(morsels_pruned, ops), "count/op"},
      {"storage.pruned_ratio", Per(t.dbms_chunks_pruned, t.dbms_chunks_considered), "ratio"},
      {"storage.resident_bytes_max", static_cast<double>(t.resident_bytes_max), "bytes"},
      {"data.result_bytes", Per(t.result_bytes, t.responses), "bytes"},
      {"data.encode_ms", Per(t.encode_ms, t.responses), "ms"},
      {"data.decode_ms", Per(t.decode_ms, t.responses), "ms"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--workload" && value(&v)) {
      opts->workload = v;
    } else if (arg == "--seed" && value(&v)) {
      opts->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds" && value(&v)) {
      opts->seconds = std::atof(v.c_str());
    } else if (arg == "--trace" && value(&v)) {
      opts->trace = v == "1";
    } else if (arg == "--work-dir" && value(&v)) {
      opts->work_dir = v;
    } else {
      return false;
    }
  }
  return !opts->workload.empty() && opts->seconds > 0;
}

/// Remove the shard directory on every exit path of a run.
class WorkDirGuard {
 public:
  explicit WorkDirGuard(std::string dir) : dir_(std::move(dir)) {}
  ~WorkDirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  WorkDirGuard(const WorkDirGuard&) = delete;
  WorkDirGuard& operator=(const WorkDirGuard&) = delete;

 private:
  std::string dir_;
};

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  WorkloadConfig config;
  if (!ParseArgs(argc, argv, &opts) || !ConfigFor(opts.workload, &config)) {
    std::fprintf(stderr,
                 "usage: dashbench --workload explore|shared|out-of-core --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  const std::string synthetic = dashbench::SyntheticSelfTest();

  const std::string shard_dir = opts.work_dir + "/shards-" + std::to_string(getpid());
  WorkDirGuard guard(shard_dir);
  Setup setup;
  BuildSetup(config, shard_dir, &setup);
  const double setup_s = (NowMs() - g_process_start_ms) / 1000;
  std::fprintf(stderr, "dashbench: peak RSS after set-up %.1f MB\n", PeakRssMb());
  std::fprintf(stderr, "dashbench: workload %s, %zu rows, seed %" PRIu64 ", setup %.2f s\n",
               opts.workload.c_str(), config.rows, opts.seed, setup_s);
  for (const Dashboard& d : setup.dashboards) {
    std::fprintf(stderr, "  plan %-42s %s\n", vp::benchdata::TemplateName(d.id),
                 d.plan.Key().c_str());
  }
  if (config.shards) {
    std::fprintf(stderr, "  shards: %.1f MB encoded chunks, residency budget %.1f MB\n",
                 setup.encoded_bytes / 1048576.0, setup.residency_budget / 1048576.0);
  }

  std::vector<Metric> metrics;
  std::vector<const Phase*> phases;
  Phase untraced, traced;
  std::vector<std::string> trace_mismatches;
  if (!opts.trace) {
    untraced = RunPhase(setup, config, opts.seed, opts.seconds, nullptr);
    const double rss = PeakRssMb();
    phases.push_back(&untraced);
    Counts c = CountPhase(untraced, setup.dashboards.size());
    const std::vector<double> interactions = Pooled(c.interaction_ms);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"first_render_ms", GeoMeanOfMedians(c.render_ms), "ms"},
        {"interaction_p50_ms", GeoMeanOfMedians(c.interaction_ms), "ms"},
        {"interaction_p95_ms", Quantile(interactions, 0.95), "ms"},
        {"interactions_per_s", c.interactions_per_s, "1/s"},
        {"peak_rss_mb", rss, "MB"},
    };
    std::fprintf(stderr,
                 "dashbench: %zu initial renders and %zu interactions with DBMS or tile work "
                 "(%zu beyond p95); %zu renders and %zu interactions answered from caches\n",
                 Pooled(c.render_ms).size(), interactions.size(),
                 interactions.size() - static_cast<size_t>(std::ceil(0.95 * interactions.size())),
                 Pooled(c.cached_render_ms).size(), Pooled(c.cached_interaction_ms).size());
    PrintPerDashboard(setup, c);
  } else {
    untraced = RunPhase(setup, config, opts.seed, opts.seconds / 2, nullptr);
    Tracer tracer(setup.replay.get(), setup.serving_readers);
    traced = RunPhase(setup, config, opts.seed, opts.seconds / 2, &tracer);
    const LayerTotals t = tracer.totals();
    phases.push_back(&untraced);
    phases.push_back(&traced);
    // Storage work of the serving path: the process counters over the traced
    // phase, less what the replays did.
    const StorageCounters& a = traced.storage_start;
    const StorageCounters& b = traced.storage_end;
    metrics = LayerMetrics(
        setup, t, b.chunks_pruned - a.chunks_pruned - t.replay_chunks_pruned,
        b.chunks_paged_in - a.chunks_paged_in - t.replay_chunks_paged_in,
        b.morsels_pruned - a.morsels_pruned - t.replay_morsels_pruned,
        OverheadPct(untraced, traced));
    trace_mismatches = t.mismatches;
    std::error_code ec;
    std::filesystem::create_directories(opts.work_dir, ec);
    const std::string path = opts.work_dir + "/trace_" + opts.workload + "_" +
                             std::to_string(opts.seed) + ".jsonl";
    vp::Status written = tracer.WriteSpans(path);
    std::fprintf(stderr, "dashbench: spans %s %s\n", written.ok() ? "written to" : "NOT written to",
                 path.c_str());
  }

  const double v0 = NowMs();
  RestoreTables(config, &setup);
  Verification v = Verify(setup, phases);
  std::fprintf(stderr,
               "dashbench: checked %zu marks against the all-client run and %zu count "
               "sums in %.1f s; %zu mismatches\n",
               v.marks_checked, v.counts_checked, (NowMs() - v0) / 1000, v.errors.size());
  std::vector<std::string> problems = v.errors;
  problems.insert(problems.end(), trace_mismatches.begin(), trace_mismatches.end());
  if (!synthetic.empty()) problems.push_back("checker self-test (synthetic): " + synthetic);
  if (!v.self_test_ran) problems.push_back("checker self-test did not run");
  if (!v.self_test.empty()) problems.push_back("checker self-test (real mark): " + v.self_test);
  for (size_t i = 0; i < problems.size() && i < 20; ++i) {
    std::fprintf(stderr, "MISMATCH %s\n", problems[i].c_str());
  }

  size_t attempted = 0, failed = 0;
  for (const Phase* p : phases) {
    Counts c = CountPhase(*p, setup.dashboards.size());
    attempted += c.attempted;
    failed += c.failed;
    for (const auto& client : p->clients) {
      for (const auto& s : client.sessions) {
        if (!s.error.empty()) {
          std::fprintf(stderr, "FAILED %s: %s\n",
                       vp::benchdata::TemplateName(setup.dashboards[s.dashboard].id),
                       s.error.c_str());
        }
      }
    }
  }
  PrintResult(problems.empty(), attempted, failed, metrics);
  return 0;
}
