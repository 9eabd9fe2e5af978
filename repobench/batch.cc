// The batch workloads: cli_warm, suite_hot and cold_start. One op is
// one validated job, driven through the same public calls that
// BenchmarkRunner::Run makes — runner construction, DatasetRegistry::Load,
// Platform::RunJob, reference::Run, ValidateOutput — plus
// DatasetCache::Store for the first-run user, so that each call can be
// timed from outside as a layer span.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "algo/reference.h"
#include "harness/runner.h"
#include "platforms/platform.h"
#include "store/dataset_cache.h"
#include "workloads.h"

namespace repobench {
namespace {

using ga::Algorithm;

constexpr int kBatchThreads = 4;

struct BatchConfig {
  std::int64_t divisor = 64;
  std::vector<Cell> cells;
  /// Every op constructs its own BenchmarkRunner, so the in-RAM dataset
  /// and reference caches start empty, as in a new CLI process.
  bool fresh_runner = false;
  /// Set-up stores the datasets as snapshots; every op maps them back.
  bool warm_data_dir = false;
  /// Every op generates its dataset and stores it into an empty cache
  /// directory: the first-run user.
  bool generate_and_store = false;
  /// Ops run once in set-up so that first-touch costs stay out of the
  /// timed phase.
  int warmup_ops = 2;
};

std::string GeneratorOf(ga::harness::DatasetSource source) {
  switch (source) {
    case ga::harness::DatasetSource::kRealProxy:
      return "realproxy";
    case ga::harness::DatasetSource::kDatagen:
      return "datagen";
    case ga::harness::DatasetSource::kGraph500:
      return "graph500";
  }
  return "unknown";
}

class BatchWorkload : public Workload {
 public:
  BatchWorkload(std::string name, BatchConfig config,
                const BenchContext& context)
      : name_(std::move(name)),
        config_(std::move(config)),
        work_dir_(context.work_dir + "/" + name_) {
    bench_.scale_divisor = config_.divisor;
    bench_.host_jobs = kBatchThreads;
  }

  ~BatchWorkload() override {
    runner_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(work_dir_, ignored);
  }

  const std::vector<Cell>& cells() const override { return config_.cells; }

  ga::Status Setup() override {
    runner_.reset();
    references_.clear();
    snapshot_bytes_.clear();
    std::error_code error;
    std::filesystem::remove_all(work_dir_, error);
    std::filesystem::create_directories(work_dir_, error);
    if (error) return ga::Status::IoError("cannot create " + work_dir_);

    if (config_.warm_data_dir) {
      bench_.data_dir = work_dir_ + "/data";
      ga::harness::DatasetRegistry registry(bench_);
      ga::exec::ThreadPool pool(kBatchThreads);
      registry.set_host_pool(&pool);
      for (const std::string& id : Datasets()) {
        GA_RETURN_IF_ERROR(registry.Load(id).status());
        GA_ASSIGN_OR_RETURN(std::string path, registry.SnapshotPathFor(id));
        snapshot_bytes_[id] = FileBytes(path);
        if (snapshot_bytes_[id] <= 0) {
          return ga::Status::IoError("snapshot not stored: " + path);
        }
      }
    }
    if (!config_.fresh_runner) {
      // The suite user: one long-lived runner whose datasets and
      // references are resident before the first timed job.
      runner_ = std::make_unique<ga::harness::BenchmarkRunner>(bench_);
      for (const Cell& cell : config_.cells) {
        GA_ASSIGN_OR_RETURN(const ga::Graph* graph,
                            runner_->registry().Load(cell.dataset));
        const std::string key = ReferenceKey(cell);
        if (references_.count(key) != 0) continue;
        GA_ASSIGN_OR_RETURN(ga::AlgorithmParams params,
                            runner_->registry().ParamsFor(cell.dataset));
        GA_ASSIGN_OR_RETURN(
            ga::AlgorithmOutput reference,
            ga::reference::Run(*graph, cell.algorithm, params,
                               runner_->host_pool()));
        references_[key] = std::move(reference);
      }
    }
    SpanLog untraced(false, Clock::now());
    const int warmups =
        std::min<int>(config_.warmup_ops, static_cast<int>(cells().size()));
    for (int i = 0; i < warmups; ++i) RunOp(i, -1 - i, false, untraced);
    return ga::Status::Ok();
  }

  PhaseResult RunPhase(OpPlan& plan, bool traced) override {
    PhaseResult result;
    const Clock::time_point start = Clock::now();
    SpanLog log(traced, start);
    for (std::int64_t i = 0;; ++i) {
      const std::optional<int> cell =
          plan.CellAt(i, SecondsBetween(start, Clock::now()));
      if (!cell.has_value()) break;
      result.ops.push_back(RunOp(*cell, static_cast<int>(i), traced, log));
    }
    result.wall_s = SecondsBetween(start, Clock::now());
    result.spans = std::move(log.spans());
    return result;
  }

  double PeakRssMb() override { return PeakRssMbOf(::getpid()); }

 private:
  static std::string ReferenceKey(const Cell& cell) {
    return cell.dataset + "/" + std::string(ga::AlgorithmName(cell.algorithm));
  }

  std::vector<std::string> Datasets() const {
    std::vector<std::string> ids;
    for (const Cell& cell : config_.cells) {
      if (std::find(ids.begin(), ids.end(), cell.dataset) == ids.end()) {
        ids.push_back(cell.dataset);
      }
    }
    return ids;
  }

  /// One validated job. Everything between the op span's ends is what
  /// the user waits for; the digest is computed after it closes.
  OpSample RunOp(int cell_index, int op, bool traced, SpanLog& log) {
    const Cell& cell = config_.cells[static_cast<std::size_t>(cell_index)];
    OpSample sample;
    sample.cell = cell_index;
    const Clock::time_point begin = Clock::now();
    const int root = log.Begin("op", op, -1, cell.Name());
    auto fail = [&](const std::string& why) {
      log.End(root);
      sample.wall_s = SecondsBetween(begin, Clock::now());
      sample.failure = why;
      return sample;
    };

    std::unique_ptr<ga::harness::BenchmarkRunner> fresh;
    ga::harness::BenchmarkRunner* runner = runner_.get();
    ga::harness::BenchmarkConfig bench = bench_;
    if (config_.generate_and_store) bench.data_dir.clear();
    if (config_.fresh_runner) {
      fresh = Timed(log, "harness.runner_init", op, root, [&] {
        return std::make_unique<ga::harness::BenchmarkRunner>(bench);
      });
      runner = fresh.get();
    }

    // A fresh runner generates (no data dir) or maps a snapshot; the
    // long-lived runner serves its resident copy, which is no layer call.
    auto load = [&] { return runner->registry().Load(cell.dataset); };
    ga::Result<const ga::Graph*> graph =
        !config_.fresh_runner ? load()
        : Timed(log,
                config_.generate_and_store ? "datagen.generate" : "store.read",
                op, root, load);
    if (!graph.ok()) return fail("load: " + graph.status().ToString());
    if (config_.warm_data_dir) {
      sample.bytes_read = snapshot_bytes_[cell.dataset];
    }

    std::string op_dir;
    if (config_.generate_and_store) {
      auto spec = runner->registry().Find(cell.dataset);
      if (!spec.ok()) return fail("dataset: " + spec.status().ToString());
      op_dir = work_dir_ + "/op-" + std::to_string(op);
      ga::store::DatasetCache cache(op_dir);
      ga::store::CacheKey key;
      key.generator = GeneratorOf(spec->source);
      key.dataset_id = cell.dataset;
      key.params = "repobench-cold-start";
      key.scale_divisor = bench.scale_divisor;
      const ga::Status stored = Timed(log, "store.write", op, root, [&] {
        return cache.Store(**graph, key);
      });
      if (!stored.ok()) return fail("store: " + stored.ToString());
      sample.bytes_written = FileBytes(cache.PathFor(key));
    }

    auto params = runner->registry().ParamsFor(cell.dataset);
    if (!params.ok()) return fail("params: " + params.status().ToString());
    auto platform = ga::platform::CreatePlatform(cell.engine);
    if (!platform.ok()) return fail(platform.status().ToString());

    // The environment BenchmarkRunner::Run builds for a default JobSpec.
    ga::platform::ExecutionEnvironment env;
    env.memory_budget_bytes = bench.ScaledMemoryBudget();
    env.overhead_scale = 1.0 / static_cast<double>(bench.scale_divisor);
    env.host_pool = runner->host_pool();
    env.trace_enabled = traced;
    auto run = Timed(
        log, "platforms.run_job", op, root,
        [&] {
          return (*platform)->RunJob(**graph, cell.algorithm, *params, env);
        },
        cell.engine);
    if (!run.ok()) return fail(run.status().ToString());
    if (bench.Project(run->metrics.makespan_sim_seconds) >
        bench.sla_projected_seconds) {
      return fail("SLA breach");
    }

    const ga::AlgorithmOutput* reference = nullptr;
    ga::Result<ga::AlgorithmOutput> computed = ga::AlgorithmOutput{};
    if (config_.fresh_runner) {
      computed = Timed(
          log, "algo.reference", op, root,
          [&] {
            return ga::reference::Run(**graph, cell.algorithm, *params,
                                      runner->host_pool());
          },
          std::string(ga::AlgorithmName(cell.algorithm)));
      if (!computed.ok()) {
        return fail("reference: " + computed.status().ToString());
      }
      reference = &*computed;
    } else {
      reference = &references_.at(ReferenceKey(cell));
    }
    const ga::Status valid = Timed(log, "harness.validate", op, root, [&] {
      return ga::ValidateOutput(**graph, *reference, run->output);
    });
    fresh.reset();
    log.End(root);
    sample.wall_s = SecondsBetween(begin, Clock::now());
    if (!op_dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(op_dir, ignored);
    }
    if (!valid.ok()) {
      sample.mismatch = true;
      sample.failure = "validation: " + valid.ToString();
      return sample;
    }

    sample.completed = true;
    const ga::platform::RunMetrics& metrics = run->metrics;
    sample.supersteps = metrics.supersteps;
    sample.parallel_chunks = metrics.trace.parallel_chunks;
    sample.steals = metrics.trace.steal_count;
    sample.chunk_busy_ns = metrics.trace.chunk_busy_ns;
    Digest digest;
    digest.Add(cell.Name());
    digest.Add(metrics.upload_sim_seconds);
    digest.Add(metrics.makespan_sim_seconds);
    digest.Add(metrics.processing_sim_seconds);
    digest.Add(static_cast<std::uint64_t>(metrics.supersteps));
    digest.Add(metrics.ledger.compute_ops);
    digest.Add(metrics.ledger.messages);
    digest.Add(metrics.ledger.remote_bytes);
    digest.Add(metrics.ledger.allocations);
    digest.Add(metrics.ledger.rows_materialized);
    const ga::AlgorithmOutput& output = run->output;
    digest.Add(output.int_values.data(),
               output.int_values.size() * sizeof(std::int64_t));
    digest.Add(output.double_values.data(),
               output.double_values.size() * sizeof(double));
    sample.digest = digest.value();
    return sample;
  }

  std::string name_;
  BatchConfig config_;
  std::string work_dir_;
  ga::harness::BenchmarkConfig bench_;
  std::unique_ptr<ga::harness::BenchmarkRunner> runner_;
  std::map<std::string, ga::AlgorithmOutput> references_;
  std::map<std::string, std::int64_t> snapshot_bytes_;
};

Cell C(const char* engine, const char* dataset, Algorithm algorithm) {
  return Cell{engine, dataset, algorithm};
}

}  // namespace

std::unique_ptr<Workload> MakeBatchWorkload(const std::string& name,
                                            const BenchContext& context,
                                            WorkloadInfo* info) {
  constexpr Algorithm kBfs = Algorithm::kBfs, kPr = Algorithm::kPageRank,
                      kWcc = Algorithm::kWcc, kCdlp = Algorithm::kCdlp,
                      kLcc = Algorithm::kLcc, kSssp = Algorithm::kSssp;
  BatchConfig config;
  info->name = name;
  info->host_threads = kBatchThreads;
  info->clients = 1;
  if (name == "cli_warm") {
    // Each engine at least once per dataset, the algorithms rotated so
    // all six appear; every cell completes at HEAD. An odd cell count
    // keeps the median inside one cell's samples rather than on the gap
    // between two. Snapshot load, reference and validation carry most of
    // the op.
    config.divisor = 64;
    config.cells = {
        C("bsplite", "R2", kBfs),    C("dataflow", "R2", kCdlp),
        C("gaslite", "R2", kLcc),    C("spmat", "R2", kPr),
        C("nativekernel", "R2", kWcc), C("pushpull", "R2", kCdlp),
        C("bsplite", "R4", kSssp),   C("dataflow", "R4", kWcc),
        C("dataflow", "R4", kBfs),
        C("gaslite", "R4", kPr),     C("spmat", "R4", kCdlp),
        C("nativekernel", "R4", kLcc), C("pushpull", "R4", kBfs),
    };
    config.fresh_runner = true;
    config.warm_data_dir = true;
    info->tail_percentile = 75.0;
  } else if (name == "suite_hot") {
    // The engine x algorithm matrix on R4 that completes at HEAD, minus
    // dataflow PR and SSSP, which alone take 1-5 s each.
    config.divisor = 32;
    const std::pair<const char*, std::vector<Algorithm>> matrix[] = {
        {"bsplite", {kBfs, kPr, kWcc, kCdlp, kSssp}},
        {"dataflow", {kBfs, kWcc}},
        {"gaslite", {kBfs, kPr, kWcc, kCdlp, kLcc, kSssp}},
        {"spmat", {kBfs, kPr, kWcc, kCdlp, kSssp}},
        {"nativekernel", {kBfs, kPr, kWcc, kCdlp, kLcc, kSssp}},
        {"pushpull", {kBfs, kPr, kWcc, kCdlp, kSssp}},
    };
    for (const auto& [engine, algorithms] : matrix) {
      for (Algorithm algorithm : algorithms) {
        config.cells.push_back(C(engine, "R4", algorithm));
      }
    }
    config.warmup_ops = 6;
    info->tail_percentile = 90.0;
  } else if (name == "cold_start") {
    // One cheap validated job per dataset, rotating over the three
    // generator families; generation, graph build and the snapshot write
    // carry the op.
    config.divisor = 128;
    config.cells = {C("spmat", "R1", kBfs), C("spmat", "R2", kBfs),
                    C("spmat", "R4", kBfs), C("spmat", "D100", kBfs),
                    C("spmat", "G22", kBfs)};
    config.fresh_runner = true;
    config.generate_and_store = true;
    config.warmup_ops = 5;
    info->tail_percentile = 65.0;
  } else {
    return nullptr;
  }
  info->divisors = std::to_string(config.divisor);
  return std::make_unique<BatchWorkload>(name, std::move(config), context);
}

}  // namespace repobench
