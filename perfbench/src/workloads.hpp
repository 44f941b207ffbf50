// The benchmark's workloads (README.md in this directory says why each
// exists and which layer it stresses).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Population scale (GridConfig::scale); 1 is the benchmark, the smoke
  /// test runs far below it.
  double scale = 1;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one invocation measured. `failed` counts operations whose result
/// failed a correctness check; requests the modeled grid rejects are
/// outcomes, reported through psi and the per-cause failure counts.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument on an unknown name.
[[nodiscard]] Report run_workload(const Options& options);

/// Heap allocations made so far by this process (counted by the
/// operator new replacement in main.cpp).
[[nodiscard]] std::uint64_t heap_allocations() noexcept;

}  // namespace perfbench
