// The served workload, serve_mixed: a closed loop of clients that talk
// the daemon's line-JSON protocol over its unix socket. The daemon is
// the repository's own `graphalytics_cli serve`, started in set-up as a
// child process and stopped with SIGTERM (its drain path).
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "algo/output.h"
#include "core/json_reader.h"
#include "harness/dataset_registry.h"
#include "platforms/platform.h"
#include "store/snapshot.h"
#include "workloads.h"

namespace repobench {
namespace {

using ga::Algorithm;

constexpr std::int64_t kDivisor = 128;
constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr int kThreadsPerWorker = 2;
/// Below the ~96 MiB the four datasets occupy at this divisor, so the
/// residency layer evicts and reloads during the run.
constexpr int kMemoryBudgetMib = 72;

/// A blocking line-oriented client of one daemon connection.
class LineClient {
 public:
  LineClient() = default;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  ga::Status Connect(const std::string& path) {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (path.size() >= sizeof(address.sun_path)) {
      return ga::Status::InvalidArgument("socket path too long: " + path);
    }
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return ga::Status::IoError("socket()");
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                  sizeof(address)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return ga::Status::IoError("connect " + path);
    }
    return ga::Status::Ok();
  }

  ga::Status Send(const std::string& line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return ga::Status::IoError("send to daemon failed");
      sent += static_cast<std::size_t>(n);
    }
    return ga::Status::Ok();
  }

  ga::Result<std::string> ReadLine() {
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return ga::Status::IoError("daemon closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  ga::Result<ga::json::Value> Call(const std::string& request) {
    GA_RETURN_IF_ERROR(Send(request + "\n"));
    GA_ASSIGN_OR_RETURN(std::string line, ReadLine());
    return ga::json::Parse(line);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// What batch mode produces for a cell; every served response must match.
struct Expected {
  std::string output_fnv;
  int supersteps = 0;
  double tproc_seconds = 0.0;
  double makespan_seconds = 0.0;
};

struct StatsCounters {
  std::int64_t hits = 0, misses = 0, evictions = 0, shed = 0;
};

std::string RunRequest(const Cell& cell, const std::string& id) {
  return "{\"op\":\"run\",\"id\":\"" + id + "\",\"algorithm\":\"" +
         std::string(ga::AlgorithmName(cell.algorithm)) +
         "\",\"dataset\":\"" + cell.dataset + "\",\"platform\":\"" +
         cell.engine + "\"}";
}

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const BenchContext& context)
      : cli_path_(context.cli_path),
        work_dir_(context.work_dir + "/serve_mixed") {
    // Each engine once per dataset, algorithms rotated; dataflow PR and
    // SSSP on the larger graphs (1-2 s each) are left out, and every
    // cell completes at HEAD.
    const Algorithm kBfs = Algorithm::kBfs, kPr = Algorithm::kPageRank,
                    kWcc = Algorithm::kWcc, kCdlp = Algorithm::kCdlp,
                    kLcc = Algorithm::kLcc, kSssp = Algorithm::kSssp;
    cells_ = {
        {"bsplite", "R2", kCdlp},      {"dataflow", "R2", kPr},
        {"gaslite", "R2", kBfs},       {"spmat", "R2", kWcc},
        {"nativekernel", "R2", kLcc},  {"pushpull", "R2", kPr},
        {"bsplite", "R4", kPr},        {"dataflow", "R4", kWcc},
        {"gaslite", "R4", kLcc},       {"spmat", "R4", kSssp},
        {"nativekernel", "R4", kCdlp}, {"pushpull", "R4", kBfs},
        {"bsplite", "D100", kWcc},     {"dataflow", "D100", kBfs},
        {"gaslite", "D100", kCdlp},    {"spmat", "D100", kPr},
        {"nativekernel", "D100", kSssp}, {"pushpull", "D100", kCdlp},
        {"bsplite", "G22", kBfs},      {"dataflow", "G22", kWcc},
        {"gaslite", "G22", kPr},       {"spmat", "G22", kCdlp},
        {"nativekernel", "G22", kLcc}, {"pushpull", "G22", kWcc},
    };
  }

  ~ServeWorkload() override {
    Teardown();
    std::error_code ignored;
    std::filesystem::remove_all(work_dir_, ignored);
  }

  const std::vector<Cell>& cells() const override { return cells_; }

  ga::Status Setup() override {
    Teardown();
    std::error_code error;
    std::filesystem::remove_all(work_dir_, error);
    std::filesystem::create_directories(work_dir_, error);
    if (error) return ga::Status::IoError("cannot create " + work_dir_);

    const std::string data_dir = work_dir_ + "/data";
    GA_RETURN_IF_ERROR(PrepareDatasets(data_dir));
    GA_RETURN_IF_ERROR(StartDaemon(data_dir));
    // Warm-up: one request per dataset, so the daemon's first touches
    // happen before timing.
    LineClient client;
    GA_RETURN_IF_ERROR(client.Connect(socket_path_));
    std::vector<std::string> warmed;
    for (const Cell& cell : cells_) {
      if (std::find(warmed.begin(), warmed.end(), cell.dataset) !=
          warmed.end()) {
        continue;
      }
      warmed.push_back(cell.dataset);
      GA_ASSIGN_OR_RETURN(
          ga::json::Value response,
          client.Call(RunRequest(cell, "warmup-" + std::to_string(
                                                       warmed.size()))));
      if (response.GetString("status") != "completed") {
        return ga::Status::Internal("warm-up request for " + cell.Name() +
                                    " returned " +
                                    response.GetString("status"));
      }
    }
    return ga::Status::Ok();
  }

  PhaseResult RunPhase(OpPlan& plan, bool traced) override {
    ++phase_;
    PhaseResult result;
    const StatsCounters before = ReadStats();
    const Clock::time_point start = Clock::now();

    std::mutex plan_mutex;
    std::int64_t next_op = 0;
    auto next = [&]() -> std::optional<std::pair<std::int64_t, int>> {
      std::lock_guard<std::mutex> lock(plan_mutex);
      const std::optional<int> cell =
          plan.CellAt(next_op, SecondsBetween(start, Clock::now()));
      if (!cell.has_value()) return std::nullopt;
      return std::make_pair(next_op++, *cell);
    };

    std::vector<std::vector<OpSample>> samples(kClients);
    std::vector<std::vector<std::int64_t>> indices(kClients);
    std::vector<SpanLog> logs;
    for (int c = 0; c < kClients; ++c) logs.emplace_back(traced, start, c);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        LineClient client;
        bool connected = client.Connect(socket_path_).ok();
        while (auto op = next()) {
          OpSample sample;
          sample.cell = op->second;
          if (connected) {
            sample = Request(client, op->first, op->second,
                             logs[static_cast<std::size_t>(c)], &connected);
          } else {
            sample.failure = "no connection to the daemon";
          }
          samples[static_cast<std::size_t>(c)].push_back(std::move(sample));
          indices[static_cast<std::size_t>(c)].push_back(op->first);
          // A client whose connection broke records one failure and
          // stops, so a dead daemon cannot spin the loop.
          if (!connected) break;
        }
      });
    }
    for (std::thread& client : clients) client.join();
    result.wall_s = SecondsBetween(start, Clock::now());

    // Merge in op order; span parents are re-based per client log.
    std::map<std::int64_t, OpSample> ordered;
    for (int c = 0; c < kClients; ++c) {
      for (std::size_t i = 0; i < samples[static_cast<std::size_t>(c)].size();
           ++i) {
        ordered[indices[static_cast<std::size_t>(c)][i]] =
            std::move(samples[static_cast<std::size_t>(c)][i]);
      }
      const int base = static_cast<int>(result.spans.size());
      for (Span& span : logs[static_cast<std::size_t>(c)].spans()) {
        if (span.parent >= 0) span.parent += base;
        result.spans.push_back(std::move(span));
      }
    }
    for (auto& [index, sample] : ordered) result.ops.push_back(sample);

    const StatsCounters after = ReadStats();
    result.residency_hits = after.hits - before.hits;
    result.residency_misses = after.misses - before.misses;
    result.evictions = after.evictions - before.evictions;
    result.shed = after.shed - before.shed;
    return result;
  }

  double PeakRssMb() override { return pid_ > 0 ? PeakRssMbOf(pid_) : 0.0; }

  void Teardown() override {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int waited_ms = 0; waited_ms < 20000; waited_ms += 10) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  /// Generates the datasets into the daemon's cache directory and runs
  /// every cell once in batch mode; served outputs are checked against
  /// these results.
  ga::Status PrepareDatasets(const std::string& data_dir) {
    ga::harness::BenchmarkConfig bench;
    bench.scale_divisor = kDivisor;
    bench.data_dir = data_dir;
    ga::harness::DatasetRegistry registry(bench);
    ga::exec::ThreadPool pool(kWorkers * kThreadsPerWorker);
    registry.set_host_pool(&pool);
    expected_.clear();
    for (const Cell& cell : cells_) {
      GA_ASSIGN_OR_RETURN(const ga::Graph* graph,
                          registry.Load(cell.dataset));
      GA_ASSIGN_OR_RETURN(ga::AlgorithmParams params,
                          registry.ParamsFor(cell.dataset));
      GA_ASSIGN_OR_RETURN(auto platform,
                          ga::platform::CreatePlatform(cell.engine));
      ga::platform::ExecutionEnvironment env;
      env.memory_budget_bytes = bench.ScaledMemoryBudget();
      env.overhead_scale = 1.0 / static_cast<double>(kDivisor);
      env.host_pool = &pool;
      auto run = platform->RunJob(*graph, cell.algorithm, params, env);
      if (!run.ok()) {
        return ga::Status::Internal("batch run of " + cell.Name() + ": " +
                                    run.status().ToString());
      }
      const std::string text = ga::FormatOutput(*graph, run->output);
      Expected& expected = expected_[cell.Name()];
      expected.output_fnv = Hex(ga::store::Fnv1a64(text.data(), text.size()));
      expected.supersteps = run->metrics.supersteps;
      expected.tproc_seconds =
          bench.Project(run->metrics.processing_sim_seconds);
      expected.makespan_seconds =
          bench.Project(run->metrics.makespan_sim_seconds);
    }
    return ga::Status::Ok();
  }

  /// One closed-loop request: the op span covers formatting, the socket
  /// round trip and parsing; the response's stage fields and the
  /// remainder of the round trip become its child spans.
  OpSample Request(LineClient& client, std::int64_t index, int cell_index,
                   SpanLog& log, bool* connected) {
    const Cell& cell = cells_[static_cast<std::size_t>(cell_index)];
    OpSample sample;
    sample.cell = cell_index;
    const int op = static_cast<int>(index);
    const Clock::time_point begin = Clock::now();
    const int root = log.Begin("op", op, -1, cell.Name());
    const std::string request = RunRequest(
        cell, "p" + std::to_string(phase_) + "-" + std::to_string(index)) +
        "\n";
    const double send_s = log.enabled() ? log.Now() : 0.0;
    ga::Status sent = client.Send(request);
    ga::Result<std::string> line =
        sent.ok() ? client.ReadLine() : ga::Result<std::string>(sent);
    const double receive_s = log.enabled() ? log.Now() : 0.0;
    ga::Result<ga::json::Value> response =
        line.ok() ? ga::json::Parse(*line)
                  : ga::Result<ga::json::Value>(line.status());
    log.End(root);
    sample.wall_s = SecondsBetween(begin, Clock::now());
    if (!line.ok()) *connected = false;
    if (!response.ok()) {
      sample.failure = response.status().ToString();
      return sample;
    }
    const std::string status = response->GetString("status");
    if (status != "completed") {
      sample.failure = status + " " + response->GetString("code") + " " +
                       response->GetString("message");
      return sample;
    }
    if (log.enabled()) {
      // Stage spans are laid out back to back from the send: the daemon
      // reports their durations, not their clock positions.
      double at = send_s;
      for (const char* stage : {"queue_wait", "load", "exec"}) {
        const double ms = response->GetNumber(std::string(stage) + "_ms");
        log.Add(std::string("serve.") + stage, op, root, at, at + ms / 1e3);
        at += ms / 1e3;
      }
      log.Add("serve.overhead", op, root, std::min(at, receive_s),
              receive_s);
    }

    sample.completed = true;
    sample.supersteps = static_cast<int>(response->GetNumber("supersteps"));
    const Expected& expected = expected_.at(cell.Name());
    const std::string fnv = response->GetString("output_fnv");
    const double tproc = response->GetNumber("tproc_seconds");
    const double makespan = response->GetNumber("makespan_seconds");
    if (fnv != expected.output_fnv ||
        sample.supersteps != expected.supersteps ||
        tproc != expected.tproc_seconds ||
        makespan != expected.makespan_seconds) {
      sample.mismatch = true;
      sample.failure = "served output differs from batch mode (fnv " + fnv +
                       " vs " + expected.output_fnv + ")";
    }
    Digest digest;
    digest.Add(cell.Name());
    digest.Add(fnv);
    digest.Add(static_cast<std::uint64_t>(sample.supersteps));
    digest.Add(tproc);
    digest.Add(makespan);
    sample.digest = digest.value();
    return sample;
  }

  StatsCounters ReadStats() {
    StatsCounters counters;
    LineClient client;
    if (!client.Connect(socket_path_).ok()) return counters;
    auto response = client.Call("{\"op\":\"stats\"}");
    if (!response.ok()) return counters;
    const ga::json::Value* stats = response->Find("stats");
    if (stats == nullptr) return counters;
    auto count = [&](const char* key) {
      return static_cast<std::int64_t>(stats->GetNumber(key));
    };
    counters.hits = count("residency_hits");
    counters.misses = count("residency_misses");
    counters.evictions = count("evictions");
    counters.shed = count("shed_arrivals") + count("shed_victims");
    return counters;
  }

  ga::Status StartDaemon(const std::string& data_dir) {
    socket_path_ = work_dir_ + "/serve.sock";
    const std::string log_path = work_dir_ + "/daemon.log";
    const std::vector<std::string> args = {
        cli_path_, "serve", "--socket", socket_path_,
        "--workers", std::to_string(kWorkers),
        "--jobs", std::to_string(kThreadsPerWorker),
        "--memory-budget", std::to_string(kMemoryBudgetMib),
        "--data-dir", data_dir};
    const pid_t pid = ::fork();
    if (pid < 0) return ga::Status::Internal("fork failed");
    if (pid == 0) {
      // The daemon must not outlive the benchmark, even if it crashes.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int log_fd =
          ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
        ::close(log_fd);
      }
      ::setenv("GA_SCALE_DIVISOR", std::to_string(kDivisor).c_str(), 1);
      for (const char* name : {"GA_SEED", "GA_JOBS", "GA_DATA_DIR",
                               "GA_FAULTS", "GA_CHECKPOINT_DIR"}) {
        ::unsetenv(name);
      }
      std::vector<char*> argv;
      for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(cli_path_.c_str(), argv.data());
      ::_exit(127);
    }
    pid_ = pid;
    for (int waited_ms = 0; waited_ms < 30000; waited_ms += 10) {
      LineClient probe;
      if (probe.Connect(socket_path_).ok()) return ga::Status::Ok();
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return ga::Status::Internal("serve daemon exited during start-up; "
                                    "see " + log_path);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return ga::Status::Internal("serve daemon did not listen on " +
                                socket_path_);
  }

  std::string cli_path_;
  std::string work_dir_;
  std::string socket_path_;
  std::vector<Cell> cells_;
  std::map<std::string, Expected> expected_;
  pid_t pid_ = -1;
  int phase_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(const std::string& name,
                                            const BenchContext& context,
                                            WorkloadInfo* info) {
  if (name != "serve_mixed") return nullptr;
  info->name = name;
  info->divisors = std::to_string(kDivisor);
  info->host_threads = kWorkers * kThreadsPerWorker;
  info->clients = kClients;
  info->tail_percentile = 90.0;
  return std::make_unique<ServeWorkload>(context);
}

}  // namespace repobench
