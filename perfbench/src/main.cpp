// qsabench: runs one benchmark workload and prints, as the last line of
// standard output, one JSON object
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Usage:
//   qsabench --workload NAME --seed N --seconds S --trace 0|1
//            [--scale F] [--spans-out FILE]
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on bad arguments.
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

// --- heap allocation counter ---------------------------------------------
// The whole binary's operator new counts into one relaxed atomic, so the
// traced run can report allocations made inside the serving hot path
// (engine.steady_allocs) without instrumenting the library.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

std::uint64_t perfbench::heap_allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "qsabench: %s\nusage: qsabench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale F] [--spans-out FILE]\n"
               "workloads:",
               why);
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    usage((flag + " needs a number, got '" + text + "'").c_str());
  }
  return v;
}

/// Shortest decimal that reads back as the same double: every digit the
/// measurement has, and no invented ones.
std::string number(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage((flag + " needs a value").c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, opt.seed);
      if (ec != std::errc() || ptr != end) {
        usage("--seed must be a non-negative integer");
      }
    } else if (flag == "--seconds") {
      opt.seconds = parse_number(flag, value);
      if (!(opt.seconds > 0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--scale") {
      opt.scale = parse_number(flag, value);
      if (!(opt.scale > 0 && opt.scale <= 1)) usage("--scale must be in (0, 1]");
    } else if (flag == "--spans-out") {
      opt.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  perfbench::Report report;
  try {
    report = perfbench::run_workload(opt);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qsabench: %s\n", e.what());
    return 1;
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "qsabench: check failed: %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += quoted(m.name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + quoted(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
