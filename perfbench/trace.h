// In-memory span tracing around the benchmark's calls into the library.
//
// A span is (name, start, end, parent, request id). The benchmark opens a
// root span per operation ("op.validate", "op.request", ...) and a child
// span around each public library call the operation blocks on. A
// request's steps run on the daemon's threads, so its root span
// ("op.request", or "op.drift_request" on the drift leg) has no children;
// the daemon's own clock splits it (see ReportRequestSplit). Spans are
// appended to one in-memory list and written out when the run ends; while
// the tracer is disarmed a ScopedSpan costs one relaxed atomic load.
//
// A span's self time is its duration minus the time its child spans
// cover. Children are opened on the thread of their parent and never
// overlap, so the covered time is the sum of their durations.

#ifndef DQUAG_PERFBENCH_TRACE_H_
#define DQUAG_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the span list; -1 for a root
  uint64_t request = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  void Arm(bool armed) { armed_.store(armed, std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Opens a span under the calling thread's innermost open span.
  int64_t Begin(const std::string& name, uint64_t request);
  void End(int64_t id);

  /// For every root span named `op`: the self time of each span name in
  /// its subtree, summed per root, as samples over the roots (ms). The
  /// root's own self time is reported under `op` itself.
  std::map<std::string, Samples> SelfTimes(const std::string& op) const;

  /// Durations (ms) of every span named `name`.
  Samples Durations(const std::string& name) const;

  /// Writes every span as JSON lines to `path`; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Adds "trace.<name>.{untraced_ms,traced_ms,overhead_pct}": the untraced
/// and traced medians of one op and the tracing overhead between them.
void ReportOverhead(const std::string& name, const Samples& untraced_ms,
                    const Samples& traced_ms, Report& report);

/// Adds one op's traced-run report: ReportOverhead, the median self time
/// of each span in the op's subtree ("self.<name>.<span>_ms"; the root's
/// own as "self.<name>.glue_ms"), and the share of the untraced median the
/// child spans account for. `op` is the root span name, "op.<name>".
void ReportOpTrace(const std::string& op, const Samples& untraced_ms,
                   const Samples& traced_ms, Report& report);

/// RAII span; a no-op while the tracer is disarmed.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_ = -1;
};

}  // namespace perfbench

#endif  // DQUAG_PERFBENCH_TRACE_H_
