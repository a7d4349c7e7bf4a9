// In-memory span recorder of the traced run. Spans are recorded from the
// benchmark's own files around the calls it makes into each layer (the
// program under test is not instrumented), kept in memory, and written
// out as Chrome trace-event JSON when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace perfbench {

/// One timed interval. Times are seconds from the tracer's epoch.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t id = 0;       ///< 1-based; 0 is "no span".
  int64_t parent = 0;   ///< id of the span that caused this one, or 0.
  int64_t request = 0;  ///< shared by every span of one request, or 0.
};

/// Thread-safe span store. A disabled tracer records nothing and every
/// call returns at once, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Seconds since the tracer's epoch on the steady clock.
  double Now() const;
  /// Converts a steady-clock time point to tracer seconds.
  double ToSeconds(std::chrono::steady_clock::time_point t) const;

  /// Records a finished span; returns its id (0 when disabled).
  int64_t Add(std::string name, double start, double end, int64_t parent,
              int64_t request);
  /// Opens a span now; close it with End. Returns 0 when disabled.
  int64_t Begin(std::string name, int64_t parent, int64_t request);
  void End(int64_t id);

  /// Copy of every recorded span.
  std::vector<Span> spans() const;

  /// Self time per span name, summed over spans: each span's duration
  /// minus the part of it that its children cover.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// args carry the span id, parent id and request id. Returns false on an
  /// IO error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable camal::Mutex mu_;
  std::vector<Span> spans_ CAMAL_GUARDED_BY(mu_);  ///< index = id - 1.
};

/// RAII span: opened at construction, closed at destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t parent = 0,
             int64_t request = 0)
      : tracer_(tracer),
        id_(tracer->Begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Self time of each span given all spans: duration minus the union of
/// its children's intervals clipped to it. Exposed for tests.
std::vector<double> ComputeSelfSeconds(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
