// Shared pieces of the benchmark driver: clock, exact order statistics,
// the in-memory span recorder, and the per-run report every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Nearest-rank q-quantile of the samples: the ceil(q*n)-th smallest. An
/// exact order statistic, never an interpolation or a bucket edge.
inline double order_stat(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Samples strictly above the nearest-rank q-quantile's position.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

inline double median(const std::vector<double>& v) { return order_stat(v, 0.5); }

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Spans of one traced run, kept in memory and written out at the end. A
/// span names the layer call it wraps; `parent` is the index of the span
/// that was open when it began (-1 at top level) and `id` the batch or
/// experience it belongs to.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::int64_t id;
  };

  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::int64_t id) : t_(t) {
      if (t_ != nullptr) idx_ = t_->begin(name, id);
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// End the span now; returns its duration in ns (0 when untraced).
    std::int64_t close() {
      if (t_ == nullptr || idx_ < 0) return 0;
      const std::int64_t d = t_->end(idx_);
      idx_ = -1;
      return d;
    }

   private:
    Tracer* t_;
    std::int32_t idx_ = -1;
  };

  Tracer() { spans_.reserve(1 << 16); }

  std::int32_t begin(const char* name, std::int64_t id) {
    spans_.push_back({name, now_ns(), 0, open_, id});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }

  /// Record an already-timed call as a child of the open span.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t id) {
    spans_.push_back({name, start_ns, end_ns, open_, id});
  }

  std::int64_t end(std::int32_t idx) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end_ns = now_ns();
    open_ = s.parent;
    return s.end_ns - s.start_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration (ms) and count of the spans called `name`.
  std::pair<double, std::size_t> total_ms(const std::string& name) const {
    double ms = 0.0;
    std::size_t n = 0;
    for (const Span& s : spans_)
      if (name == s.name) {
        ms += ns_to_ms(s.end_ns - s.start_ns);
        ++n;
      }
    return {ms, n};
  }

  /// Write every span as one JSON line. Returns false when the file cannot
  /// be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"span\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"id\":%lld}\n",
                   i, s.name, static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.parent,
                   static_cast<long long>(s.id));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// Traced serve_replay and protocol_run runs check that the stages they
/// time add up to the end-to-end figure they decompose. That figure comes
/// from another execution of the same work (untraced blocks or passes), so
/// the tolerance allows for tracing overhead and execution-to-execution
/// variation as well as for untimed gaps. The self-test's inputs are too
/// small for timings to compare across executions, so it prints the ratio
/// without checking it.
inline constexpr double kStageTolerance = 0.20;
inline constexpr const char* kReplayStageCheck =
    "trace: producer stage sum per traced block within 20% of the untraced block "
    "wall time";
inline constexpr const char* kProtocolStageCheck =
    "trace: traced stage sum within 20% of the untraced protocol wall time";

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Short run: every metric and check, on small inputs.
  bool self_test = false;
  /// Directory for the packed flow files and the span file.
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one workload run produces. Checks that fail make the run
/// incorrect; the driver then exits non-zero.
struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  /// Every check that ran, once per name, with the number of times it ran.
  std::vector<std::pair<std::string, std::size_t>> checks_run;
  std::vector<std::string> failed_checks;
  /// Workload parameters and run conditions: key -> JSON value text.
  std::vector<std::pair<std::string, std::string>> meta;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(const std::string& name, bool ok, const std::string& detail = "") {
    auto it = std::find_if(checks_run.begin(), checks_run.end(),
                           [&](const auto& c) { return c.first == name; });
    if (it == checks_run.end())
      checks_run.emplace_back(name, 1);
    else
      ++it->second;
    if (!ok) failed_checks.push_back(detail.empty() ? name : name + ": " + detail);
  }
  void put(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    meta.emplace_back(key, buf);
  }
  void put(const std::string& key, const std::string& s) {
    meta.emplace_back(key, "\"" + s + "\"");
  }
};

/// Peak resident set size of this process in MiB (VmHWM), or 0 when
/// /proc is unavailable.
inline double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

Report run_serve_replay(const RunOptions& opt);
Report run_serve_adapt(const RunOptions& opt);
Report run_protocol(const RunOptions& opt);

}  // namespace perfbench
