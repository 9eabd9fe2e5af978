// Shared machinery of the repository benchmark (README.md): workload
// cells, op samples, the span log the traced run records, and the
// interface every workload implements. The benchmark drives the library
// only through its public calls and times each call from outside.
#ifndef REPOBENCH_BENCH_H_
#define REPOBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/types.h"

namespace repobench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One engine x dataset x algorithm combination of a workload's mix.
struct Cell {
  std::string engine;
  std::string dataset;
  ga::Algorithm algorithm = ga::Algorithm::kBfs;
  std::string Name() const;  // "engine/dataset/algorithm"
};

/// FNV-1a 64 folding, used for per-op and per-workload digests.
class Digest {
 public:
  void Add(const void* data, std::size_t size);
  void Add(std::uint64_t value) { Add(&value, sizeof(value)); }
  void Add(double value);  // by bit pattern
  void Add(const std::string& text) { Add(text.data(), text.size()); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::string Hex(std::uint64_t value);

/// One timed op: a validated batch job or one served request.
struct OpSample {
  int cell = 0;
  double wall_s = 0.0;  // the latency sample
  bool completed = false;
  /// The op completed but its output, simulated metrics or digest
  /// disagree with the reference: a correctness failure, not noise.
  bool mismatch = false;
  std::string failure;  // why the op did not complete (empty if it did)
  std::uint64_t digest = 0;

  // Counters the program already exposes, read per op.
  int supersteps = 0;
  std::uint64_t parallel_chunks = 0;  // TraceCounters (traced run only)
  std::uint64_t steals = 0;
  std::int64_t chunk_busy_ns = 0;
  std::int64_t bytes_read = 0;     // snapshot bytes mapped by the op
  std::int64_t bytes_written = 0;  // snapshot bytes the op stored
};

/// One span of the traced run: a layer call timed from outside.
struct Span {
  std::string layer;   // module-named layer, e.g. "store.read"
  std::string detail;  // engine / algorithm / cell, for breakdowns
  int op = -1;
  int parent = -1;  // index into the same log; -1 for an op root
  int track = 0;    // client or thread, for the Chrome trace
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span recorder. Disabled logs record nothing and read no
/// clock, so the untimed bookkeeping of the untraced run stays minimal.
class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point epoch, int track = 0)
      : enabled_(enabled), epoch_(epoch), track_(track) {}

  bool enabled() const { return enabled_; }
  /// Opens a span; returns its index (-1 when disabled).
  int Begin(const std::string& layer, int op, int parent,
            std::string detail = {});
  void End(int index);
  /// Records a span whose interval was measured elsewhere.
  void Add(const std::string& layer, int op, int parent, double start_s,
           double end_s, std::string detail = {});
  double Now() const { return SecondsBetween(epoch_, Clock::now()); }

  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  int track_;
  std::vector<Span> spans_;
};

/// Times `fn` as a child span of `parent` when the log is enabled.
template <typename Fn>
auto Timed(SpanLog& log, const std::string& layer, int op, int parent,
           Fn&& fn, std::string detail = {}) {
  const int span = log.Begin(layer, op, parent, std::move(detail));
  auto result = fn();
  log.End(span);
  return result;
}

/// Which ops a phase runs. The sequence is whole rounds, each a seeded
/// permutation of the mix, so every cell is sampled equally often.
class OpPlan {
 public:
  /// Time-bounded plan: rounds continue until `seconds` have passed,
  /// checked only at round boundaries.
  OpPlan(int num_cells, std::uint64_t seed, double seconds);
  /// Replays exactly the first `count` ops of the same sequence.
  OpPlan(int num_cells, std::uint64_t seed, std::int64_t count);

  /// The cell of op `index`, or nullopt when the plan stops there.
  std::optional<int> CellAt(std::int64_t index, double elapsed_s);

 private:
  int num_cells_;
  std::uint64_t seed_;
  double seconds_ = 0.0;
  std::int64_t count_ = -1;
  std::vector<std::vector<int>> rounds_;
};

/// What one timed phase produced.
struct PhaseResult {
  std::vector<OpSample> ops;
  double wall_s = 0.0;
  std::vector<Span> spans;  // traced phase only
  /// Served workloads: deltas of the daemon's stats op over the phase.
  std::int64_t residency_hits = 0;
  std::int64_t residency_misses = 0;
  std::int64_t evictions = 0;
  std::int64_t shed = 0;
};

/// A workload: a mix of cells plus how to prepare and run them.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const std::vector<Cell>& cells() const = 0;
  /// Prepares the inputs; everything it does counts as set-up time.
  virtual ga::Status Setup() = 0;
  /// Runs the plan's ops; spans (traced only) are relative to the
  /// phase start.
  virtual PhaseResult RunPhase(OpPlan& plan, bool traced) = 0;
  /// Peak resident set, MiB, of the process that ran the workload.
  virtual double PeakRssMb() = 0;
  /// Stops whatever Setup started (daemons); safe to call twice.
  virtual void Teardown() {}
};

/// Static description of a workload, for the report and fingerprint.
struct WorkloadInfo {
  std::string name;
  std::string divisors;  // scale divisors of its datasets
  int host_threads = 0;
  int clients = 1;
  /// Fixed tail percentile, chosen so that at least ten samples lie
  /// beyond it in a run of the benchmark's length.
  double tail_percentile = 90.0;
};

struct BenchContext {
  std::string work_dir;  // scratch space inside the checkout
  std::string cli_path;  // graphalytics_cli, for the serve daemon
};

// --- helpers shared by the workloads -----------------------------------

/// Peak RSS (VmHWM) of `pid` in MiB, read from procfs; 0 if unreadable.
double PeakRssMbOf(int pid);
/// Resets this process's VmHWM so a later read covers only what follows.
void ResetPeakRss();
std::int64_t FileBytes(const std::string& path);

}  // namespace repobench

#endif  // REPOBENCH_BENCH_H_
