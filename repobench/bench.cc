#include "bench.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

#include "core/rng.h"
#include "store/snapshot.h"

namespace repobench {

std::string Cell::Name() const {
  return engine + "/" + dataset + "/" +
         std::string(ga::AlgorithmName(algorithm));
}

void Digest::Add(const void* data, std::size_t size) {
  hash_ = ga::store::Fnv1a64(data, size, hash_);
}

void Digest::Add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

std::string Hex(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

int SpanLog::Begin(const std::string& layer, int op, int parent,
                   std::string detail) {
  if (!enabled_) return -1;
  Span span;
  span.layer = layer;
  span.detail = std::move(detail);
  span.op = op;
  span.parent = parent;
  span.track = track_;
  span.start_s = Now();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s = Now();
}

void SpanLog::Add(const std::string& layer, int op, int parent,
                  double start_s, double end_s, std::string detail) {
  if (!enabled_) return;
  Span span;
  span.layer = layer;
  span.detail = std::move(detail);
  span.op = op;
  span.parent = parent;
  span.track = track_;
  span.start_s = start_s;
  span.end_s = end_s;
  spans_.push_back(std::move(span));
}

OpPlan::OpPlan(int num_cells, std::uint64_t seed, double seconds)
    : num_cells_(num_cells), seed_(seed), seconds_(seconds) {}

OpPlan::OpPlan(int num_cells, std::uint64_t seed, std::int64_t count)
    : num_cells_(num_cells), seed_(seed), count_(count) {}

std::optional<int> OpPlan::CellAt(std::int64_t index, double elapsed_s) {
  const std::int64_t round = index / num_cells_;
  const std::int64_t slot = index % num_cells_;
  if (count_ >= 0 ? index >= count_ : (slot == 0 && elapsed_s >= seconds_)) {
    return std::nullopt;
  }
  while (static_cast<std::int64_t>(rounds_.size()) <= round) {
    // Fisher-Yates over a SplitMix64 stream: the order is a function of
    // the seed and the round alone, on every platform.
    std::vector<int> order(static_cast<std::size_t>(num_cells_));
    std::iota(order.begin(), order.end(), 0);
    ga::SplitMix64 rng(ga::Mix64(seed_ + 0x9E3779B97F4A7C15ULL *
                                             (rounds_.size() + 1)));
    for (int i = num_cells_ - 1; i > 0; --i) {
      const auto j = static_cast<int>(rng.NextBounded(
          static_cast<std::uint64_t>(i) + 1));
      std::swap(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(j)]);
    }
    rounds_.push_back(std::move(order));
  }
  return rounds_[static_cast<std::size_t>(round)]
                [static_cast<std::size_t>(slot)];
}

double PeakRssMbOf(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  // "5" resets the peak RSS counter (Linux >= 4.0).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

std::int64_t FileBytes(const std::string& path) {
  struct stat info {};
  if (::stat(path.c_str(), &info) != 0) return 0;
  return static_cast<std::int64_t>(info.st_size);
}

}  // namespace repobench
