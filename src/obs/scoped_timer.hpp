// Wall-clock timing: the one sanctioned clock read in the tree, and the RAII
// phase timer built on it.
//
// Stopwatch is the timing surface for everything that reports durations —
// Table IV's fit/infer overhead, bench and CLI throughput, obs histograms.
// Durations are telemetry: they feed timing fields and histograms, never a
// score, so the clock is a sanctioned nondeterminism source here and
// nowhere else.
//
// ScopedTimer checks obs::enabled() once at construction: when
// observability is off the timer never reads the clock or touches the
// registry, so instrumenting a hot path costs a single relaxed atomic load.
// When on, the destructor (or an explicit stop_ms()) records the elapsed
// milliseconds into the named histogram of the given registry.
#pragma once

#include <chrono>
#include <string_view>

#include "obs/metrics.hpp"

namespace cnd::obs {

class Stopwatch {
 public:
  /// Starts timing now; `Stopwatch(false)` reads no clock until start().
  explicit Stopwatch(bool running = true) {
    if (running) start();
  }

  /// (Re)start timing from now.
  void start() { start_ = now(); }

  /// Milliseconds since the last start().
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  // cnd-det-ok(write-only telemetry — durations feed timing fields and obs histograms, never scores)
  static clock::time_point now() { return clock::now(); }
  clock::time_point start_{};
};

class ScopedTimer {
 public:
  /// Times into `registry.histogram(name)` (default ms buckets).
  ScopedTimer(MetricsRegistry& registry, std::string_view name) {
    if (enabled()) {
      hist_ = &registry.histogram(name);
      watch_.start();
    }
  }

  /// Times into an already-resolved histogram (for per-call hot paths that
  /// cache the handle).
  explicit ScopedTimer(Histogram& hist) {
    if (enabled()) {
      hist_ = &hist;
      watch_.start();
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Record now instead of at scope exit. Returns the elapsed milliseconds
  /// (0.0 when observability is off).
  double stop_ms() {
    if (!hist_) return 0.0;
    const double ms = watch_.elapsed_ms();
    hist_->record(ms);
    hist_ = nullptr;
    return ms;
  }

  ~ScopedTimer() {
    if (hist_) stop_ms();
  }

 private:
  Histogram* hist_ = nullptr;
  Stopwatch watch_{false};
};

}  // namespace cnd::obs
