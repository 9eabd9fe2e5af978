// repobench: the repository benchmark driver (README.md).
//
//   repobench --workload <name|all> --seed N --seconds S --trace 0|1
//             --cli PATH --work-dir DIR --out-dir DIR
//             [--commit ID] [--source-digest HEX]
//
// Prints every end-to-end metric by name and unit (--trace 0), or the
// traced run's per-layer table (--trace 1), and as its last line one
// JSON object {"correct","attempted","failed","metrics"}. Exits 1 when
// any output, simulated metric or digest disagrees with its reference,
// or when the traced and untraced runs disagree.
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/json_writer.h"
#include "workloads.h"

namespace repobench {
namespace {

/// Set-ups per run; set-up time is reported as their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli_path;
  std::string work_dir;
  std::string out_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload produced: its metrics and its verdicts.
struct WorkloadReport {
  WorkloadInfo info;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
};

double Percentile(std::vector<double> values, double percentile) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position =
      percentile / 100.0 * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  utsname name{};
  return ::uname(&name) == 0 ? name.machine : "unknown";
}

void WriteFingerprint(ga::JsonWriter& json, const Args& args,
                      const WorkloadInfo& info) {
  json.Key("fingerprint").BeginObject();
  json.Field("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  json.Field("cpu_model", CpuModel());
  json.Field("build_type", REPOBENCH_BUILD_TYPE);
  json.Field("compiler", REPOBENCH_COMPILER);
  json.Field("commit", args.commit);
  json.Field("source_digest", args.source_digest);
  json.Field("scale_divisors", info.divisors);
  json.Field("host_threads", info.host_threads);
  json.Field("clients", info.clients);
  json.Field("seed", static_cast<std::int64_t>(args.seed));
  json.Field("seconds", args.seconds);
  json.EndObject();
}

/// Checks that repeated ops of a cell agree and folds one digest per
/// cell, in cell order, into the workload digest. Marks disagreeing
/// ops as mismatches.
std::uint64_t FoldDigests(PhaseResult& phase, int num_cells,
                          std::map<int, std::uint64_t>* per_cell) {
  for (OpSample& op : phase.ops) {
    if (!op.completed || op.mismatch) continue;
    auto [it, inserted] = per_cell->emplace(op.cell, op.digest);
    if (!inserted && it->second != op.digest) {
      op.mismatch = true;
      op.failure = "digest " + Hex(op.digest) +
                   " differs from an earlier op of the same cell (" +
                   Hex(it->second) + ")";
    }
  }
  Digest digest;
  for (int cell = 0; cell < num_cells; ++cell) {
    auto it = per_cell->find(cell);
    digest.Add(it == per_cell->end() ? std::uint64_t{0} : it->second);
  }
  return digest.value();
}

void PrintFailures(const PhaseResult& phase, const std::vector<Cell>& cells) {
  std::map<int, std::pair<int, std::string>> by_cell;
  for (const OpSample& op : phase.ops) {
    if (op.completed && !op.mismatch) continue;
    auto& entry = by_cell[op.cell];
    if (entry.first++ == 0) entry.second = op.failure;
  }
  if (by_cell.empty()) {
    std::printf("  failed ops by cell: none\n");
    return;
  }
  for (const auto& [cell, entry] : by_cell) {
    std::printf("  FAILED %-28s x%d  %s\n",
                cells[static_cast<std::size_t>(cell)].Name().c_str(),
                entry.first, entry.second.c_str());
  }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.
std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_s, span.end_s);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = spans[i].start_s;
    for (auto [start, end] : intervals) {
      start = std::max(start, reach);
      end = std::min(end, spans[i].end_s);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = (spans[i].end_s - spans[i].start_s) - covered;
  }
  return self;
}

void WriteChromeTrace(const std::string& path, const PhaseResult& phase,
                      const std::string& workload) {
  ga::JsonWriter json;
  json.BeginObject();
  json.Key("traceEvents").BeginArray();
  for (const Span& span : phase.spans) {
    json.BeginObject();
    json.Field("name", span.parent < 0 ? span.detail : span.layer);
    json.Field("cat", span.layer);
    json.Field("ph", "X");
    json.Field("pid", 1);
    json.Field("tid", span.track);
    json.Field("ts", span.start_s * 1e6);
    json.Field("dur", (span.end_s - span.start_s) * 1e6);
    json.Key("args").BeginObject();
    json.Field("op", span.op);
    json.Field("parent", span.parent);
    if (!span.detail.empty()) json.Field("detail", span.detail);
    json.EndObject();
    json.EndObject();
  }
  json.BeginObject();
  json.Field("name", "process_name");
  json.Field("ph", "M");
  json.Field("pid", 1);
  json.Key("args").BeginObject().Field("name", "repobench " + workload);
  json.EndObject().EndObject();
  json.EndArray();
  json.Field("displayTimeUnit", "ms");
  json.EndObject();
  std::ofstream(path) << json.str() << "\n";
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("    %-30s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

/// Per-layer metrics of the traced phase, plus the self-time table.
std::vector<Metric> LayerMetrics(const PhaseResult& traced,
                                 const WorkloadInfo& info,
                                 double untraced_throughput) {
  const std::vector<double> self = SelfTimes(traced.spans);
  std::map<std::string, double> layer_s;       // self time by layer
  std::map<std::string, double> detail_s;      // by layer + detail
  std::map<std::string, int> detail_calls;
  double op_wall_s = 0.0;
  for (std::size_t i = 0; i < traced.spans.size(); ++i) {
    const Span& span = traced.spans[i];
    if (span.parent < 0) {
      op_wall_s += span.end_s - span.start_s;
      layer_s["harness.unattributed"] += self[i];
      continue;
    }
    layer_s[span.layer] += self[i];
    if (!span.detail.empty()) {
      detail_s[span.layer + "." + span.detail] += self[i];
      ++detail_calls[span.layer + "." + span.detail];
    }
  }

  const double ops =
      std::max<double>(1.0, static_cast<double>(traced.ops.size()));
  double bytes_read = 0, bytes_written = 0, busy_s = 0, chunks = 0,
         steals = 0, supersteps = 0;
  for (const OpSample& op : traced.ops) {
    bytes_read += static_cast<double>(op.bytes_read);
    bytes_written += static_cast<double>(op.bytes_written);
    busy_s += static_cast<double>(op.chunk_busy_ns) / 1e9;
    chunks += static_cast<double>(op.parallel_chunks);
    steals += static_cast<double>(op.steals);
    supersteps += op.supersteps;
  }
  const double traced_throughput =
      static_cast<double>(std::count_if(
          traced.ops.begin(), traced.ops.end(),
          [](const OpSample& op) { return op.completed && !op.mismatch; })) /
      traced.wall_s;
  auto total = [&](const std::string& layer) {
    auto it = layer_s.find(layer);
    return it == layer_s.end() ? 0.0 : it->second;
  };
  auto per_op = [&](const char* layer) { return total(layer) / ops; };
  auto rate = [](double bytes, double seconds) {
    return seconds > 0 ? bytes / seconds / (1 << 20) : 0.0;
  };
  auto per_call = [&](const std::string& key) {
    auto it = detail_calls.find(key);
    return it == detail_calls.end() ? 0.0 : detail_s[key] / it->second;
  };

  std::vector<Metric> metrics = {
      {"store.read_s", per_op("store.read"), "s"},
      {"store.read_MBps", rate(bytes_read, total("store.read")), "MiB/s"},
      {"store.write_s", per_op("store.write"), "s"},
      {"store.write_MBps", rate(bytes_written, total("store.write")),
       "MiB/s"},
      {"datagen.generate_s", per_op("datagen.generate"), "s"},
      {"harness.runner_init_s", per_op("harness.runner_init"), "s"},
      {"harness.validate_s", per_op("harness.validate"), "s"},
      {"algo.reference_s", per_op("algo.reference"), "s"},
  };
  for (const char* algorithm : {"bfs", "pr", "wcc", "cdlp", "lcc", "sssp"}) {
    metrics.push_back({std::string("algo.reference.") + algorithm + "_s",
                       per_call(std::string("algo.reference.") + algorithm),
                       "s"});
  }
  metrics.push_back(
      {"platforms.run_job_s", per_op("platforms.run_job"), "s"});
  for (const char* engine : {"bsplite", "dataflow", "gaslite", "spmat",
                             "nativekernel", "pushpull"}) {
    metrics.push_back(
        {std::string("platforms.") + engine + ".run_job_s",
         per_call(std::string("platforms.run_job.") + engine), "s"});
  }
  const double run_job_s = total("platforms.run_job");
  const std::int64_t residency_total =
      traced.residency_hits + traced.residency_misses;
  const std::vector<Metric> tail = {
      {"platforms.supersteps", supersteps / ops, "count"},
      {"exec.chunk_busy_s", busy_s / ops, "s"},
      {"exec.utilization",
       run_job_s > 0 ? busy_s / (info.host_threads * run_job_s) : 0.0,
       "fraction"},
      {"exec.parallel_chunks", chunks / ops, "count"},
      {"exec.steals", steals / ops, "count"},
      {"serve.queue_wait_ms", per_op("serve.queue_wait") * 1e3, "ms"},
      {"serve.load_ms", per_op("serve.load") * 1e3, "ms"},
      {"serve.exec_ms", per_op("serve.exec") * 1e3, "ms"},
      {"serve.overhead_ms", per_op("serve.overhead") * 1e3, "ms"},
      {"serve.residency_hit_ratio",
       residency_total > 0
           ? static_cast<double>(traced.residency_hits) / residency_total
           : 0.0,
       "fraction"},
      {"serve.evictions", static_cast<double>(traced.evictions), "count"},
      {"serve.shed", static_cast<double>(traced.shed), "count"},
      {"harness.unattributed_s", per_op("harness.unattributed"), "s"},
      {"harness.unattributed_share",
       op_wall_s > 0 ? total("harness.unattributed") / op_wall_s : 0.0,
       "fraction"},
      {"harness.trace_overhead",
       traced_throughput > 0 ? untraced_throughput / traced_throughput - 1.0
                             : 0.0,
       "fraction"},
  };
  metrics.insert(metrics.end(), tail.begin(), tail.end());

  // The self-time table: every layer's share of op wall time, and the
  // check that the shares and the remainder add up to the op wall.
  std::printf("  per-layer self time over %zu traced ops (mean op wall "
              "%.3f ms):\n",
              traced.ops.size(), op_wall_s / ops * 1e3);
  std::printf("    %-24s %12s %8s\n", "layer", "ms/op", "share");
  double attributed = 0.0;
  for (const auto& [layer, seconds] : layer_s) {
    attributed += seconds;
    std::printf("    %-24s %12.4f %7.2f%%\n", layer.c_str(),
                seconds / ops * 1e3,
                op_wall_s > 0 ? 100.0 * seconds / op_wall_s : 0.0);
  }
  std::printf("    %-24s %12.4f  (op wall %.4f, difference %.2e ms/op)\n",
              "sum", attributed / ops * 1e3, op_wall_s / ops * 1e3,
              (attributed - op_wall_s) / ops * 1e3);
  std::printf("  unattributed share %.2f%%, tracing overhead %+.2f%% "
              "(untraced %.3f ops/s, traced %.3f ops/s)\n",
              op_wall_s > 0 ? 100.0 * total("harness.unattributed") / op_wall_s
                            : 0.0,
              traced_throughput > 0
                  ? 100.0 * (untraced_throughput / traced_throughput - 1.0)
                  : 0.0,
              untraced_throughput, traced_throughput);
  std::printf("  per-layer metrics (the others are 0: layer not called):\n");
  std::vector<Metric> called;
  for (const Metric& metric : metrics) {
    if (metric.value != 0.0) called.push_back(metric);
  }
  PrintMetrics(called);
  return metrics;
}

void WriteMetrics(ga::JsonWriter& json, const std::vector<Metric>& metrics,
                  const std::string& prefix = "") {
  for (const Metric& metric : metrics) {
    json.Key(prefix + metric.name).BeginObject();
    json.Field("value", metric.value);
    json.Field("unit", metric.unit);
    json.EndObject();
  }
}

WorkloadReport RunWorkload(const std::string& name, const Args& args,
                           bool traced) {
  WorkloadReport report;
  BenchContext context{args.work_dir, args.cli_path};
  std::unique_ptr<Workload> workload =
      MakeBatchWorkload(name, context, &report.info);
  if (workload == nullptr) {
    workload = MakeServeWorkload(name, context, &report.info);
  }
  const WorkloadInfo& info = report.info;
  const std::vector<Cell>& cells = workload->cells();
  std::printf("== %s: %zu cells, divisor %s, %d host threads, %d client(s), "
              "seed %llu\n",
              name.c_str(), cells.size(), info.divisors.c_str(),
              info.host_threads, info.clients,
              static_cast<unsigned long long>(args.seed));
  std::fflush(stdout);

  ResetPeakRss();
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point begin = Clock::now();
    const ga::Status status = workload->Setup();
    setups.push_back(SecondsBetween(begin, Clock::now()));
    if (!status.ok()) {
      std::fprintf(stderr, "%s: set-up failed: %s\n", name.c_str(),
                   status.ToString().c_str());
      workload->Teardown();
      std::exit(1);
    }
  }

  OpPlan timed_plan(static_cast<int>(cells.size()), args.seed, args.seconds);
  PhaseResult phase = workload->RunPhase(timed_plan, /*traced=*/false);
  const double peak_rss_mb = workload->PeakRssMb();
  std::map<int, std::uint64_t> untraced_cells;
  const std::uint64_t digest =
      FoldDigests(phase, static_cast<int>(cells.size()), &untraced_cells);

  std::vector<double> latencies;
  std::int64_t failed = 0;
  bool correct = true;
  for (const OpSample& op : phase.ops) {
    if (op.completed && !op.mismatch) {
      latencies.push_back(op.wall_s * 1e3);
    } else {
      ++failed;
    }
    if (op.mismatch) correct = false;
  }
  const auto attempted = static_cast<std::int64_t>(phase.ops.size());
  const double tail = Percentile(latencies, info.tail_percentile);
  const auto beyond = std::count_if(latencies.begin(), latencies.end(),
                                    [&](double v) { return v > tail; });
  const double throughput =
      static_cast<double>(latencies.size()) / phase.wall_s;
  report.end_to_end = {
      {"throughput_ops_s", throughput, "ops/s"},
      {"latency_p50_ms", Percentile(latencies, 50.0), "ms"},
      {"latency_tail_ms", tail, "ms"},
      {"setup_s", Percentile(setups, 50.0), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
  std::printf("  end-to-end (untraced, %lld ops in %.2f s):\n",
              static_cast<long long>(attempted), phase.wall_s);
  PrintMetrics(report.end_to_end);
  // Gated through the result's failed/attempted counts: a relative bound
  // cannot be put on a rate that is 0 at HEAD.
  const Metric error_rate = {
      "error_rate",
      attempted > 0 ? static_cast<double>(failed) / attempted : 1.0,
      "fraction"};
  PrintMetrics({error_rate});
  std::printf("  tail = p%.0f with %lld of %zu samples beyond it; set-ups "
              "%.3f %.3f %.3f s\n",
              info.tail_percentile, static_cast<long long>(beyond),
              latencies.size(), setups[0], setups[1], setups[2]);
  std::printf("  digest %s over %zu of %zu cells\n", Hex(digest).c_str(),
              untraced_cells.size(), cells.size());
  PrintFailures(phase, cells);
  report.attempted = attempted;
  report.failed = failed;

  PhaseResult traced_phase;
  if (traced) {
    OpPlan replay(static_cast<int>(cells.size()), args.seed, attempted);
    traced_phase = workload->RunPhase(replay, /*traced=*/true);
    std::map<int, std::uint64_t> traced_cells;
    const std::uint64_t traced_digest = FoldDigests(
        traced_phase, static_cast<int>(cells.size()), &traced_cells);
    std::int64_t traced_failed = 0;
    for (const OpSample& op : traced_phase.ops) {
      if (!op.completed || op.mismatch) ++traced_failed;
      if (op.mismatch) correct = false;
    }
    std::printf("  traced run: %zu ops in %.2f s, digest %s\n",
                traced_phase.ops.size(), traced_phase.wall_s,
                Hex(traced_digest).c_str());
    if (traced_digest != digest) {
      std::printf("  MISMATCH: traced and untraced digests differ\n");
      correct = false;
    }
    PrintFailures(traced_phase, cells);
    report.per_layer = LayerMetrics(traced_phase, info, throughput);
    report.attempted += static_cast<std::int64_t>(traced_phase.ops.size());
    report.failed += traced_failed;
    WriteChromeTrace(args.out_dir + "/" + name + "-seed" +
                         std::to_string(args.seed) + ".trace.json",
                     traced_phase, name);
  }
  workload->Teardown();
  report.correct = correct;

  // The full record of the run, with the host fingerprint, for A/B use.
  ga::JsonWriter json;
  json.BeginObject();
  json.Field("workload", name);
  WriteFingerprint(json, args, info);
  json.Field("digest", Hex(digest));
  json.Field("correct", correct);
  json.Field("attempted", report.attempted);
  json.Field("failed", report.failed);
  json.Field("tail_percentile", info.tail_percentile);
  json.Field("phase_wall_s", phase.wall_s);
  json.Key("setup_samples_s").BeginArray();
  for (double s : setups) json.Value(s);
  json.EndArray();
  json.Key("end_to_end").BeginObject();
  WriteMetrics(json, report.end_to_end);
  WriteMetrics(json, {error_rate});
  json.EndObject();
  json.Key("per_layer").BeginObject();
  WriteMetrics(json, report.per_layer);
  json.EndObject();
  json.Key("cells").BeginArray();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::vector<double> cell_ms;
    for (const OpSample& op : phase.ops) {
      if (op.cell == static_cast<int>(c) && op.completed) {
        cell_ms.push_back(op.wall_s * 1e3);
      }
    }
    json.BeginObject();
    json.Field("cell", cells[c].Name());
    json.Field("ops", static_cast<int>(cell_ms.size()));
    json.Field("p50_ms", Percentile(cell_ms, 50.0));
    json.EndObject();
  }
  json.EndArray();
  json.Key("failures").BeginArray();
  for (const PhaseResult* result : {&phase, &traced_phase}) {
    for (const OpSample& op : result->ops) {
      if (op.completed && !op.mismatch) continue;
      json.BeginObject();
      json.Field("cell", cells[static_cast<std::size_t>(op.cell)].Name());
      json.Field("failure", op.failure);
      json.EndObject();
    }
  }
  json.EndArray();
  json.EndObject();
  std::ofstream(args.out_dir + "/" + name + "-seed" +
                std::to_string(args.seed) + "-trace" +
                (traced ? "1" : "0") + ".json")
      << json.str() << "\n";
  std::fflush(stdout);
  return report;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--cli") {
      args->cli_path = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  const std::vector<std::string> names = {"cli_warm", "suite_hot",
                                          "cold_start", "serve_mixed", "all"};
  if (std::find(names.begin(), names.end(), args->workload) == names.end()) {
    std::fprintf(stderr, "--workload must be one of cli_warm, suite_hot, "
                         "cold_start, serve_mixed, all\n");
    return false;
  }
  if (args->cli_path.empty() || args->work_dir.empty() ||
      args->out_dir.empty() || args->seconds <= 0) {
    std::fprintf(stderr, "--cli, --work-dir, --out-dir and a positive "
                         "--seconds are required\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace repobench

int main(int argc, char** argv) {
  using namespace repobench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  const bool all = args.workload == "all";
  const std::vector<std::string> names =
      all ? std::vector<std::string>{"cli_warm", "suite_hot", "cold_start",
                                     "serve_mixed"}
          : std::vector<std::string>{args.workload};
  std::printf("# host: nproc %u, cpu \"%s\", %s build, %s, commit %s, "
              "source %s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              REPOBENCH_BUILD_TYPE, REPOBENCH_COMPILER, args.commit.c_str(),
              args.source_digest.c_str());
  std::vector<WorkloadReport> reports;
  for (const std::string& name : names) {
    reports.push_back(RunWorkload(name, args, all || args.trace));
  }

  bool correct = true;
  std::int64_t attempted = 0, failed = 0;
  ga::JsonWriter json;
  json.BeginObject();
  for (const WorkloadReport& report : reports) {
    correct = correct && report.correct;
    attempted += report.attempted;
    failed += report.failed;
  }
  json.Field("correct", correct);
  json.Field("attempted", attempted);
  json.Field("failed", failed);
  json.Key("metrics").BeginObject();
  for (const WorkloadReport& report : reports) {
    const std::string prefix = all ? report.info.name + "." : "";
    if (all || !args.trace) WriteMetrics(json, report.end_to_end, prefix);
    if (all || args.trace) WriteMetrics(json, report.per_layer, prefix);
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return correct ? 0 : 1;
}
