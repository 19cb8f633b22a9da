#include "trace.h"

#include <fstream>

#include "util/check.h"

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> open_spans;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::Begin(const std::string& name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.request = request;
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (span.parent >= 0 && request == 0) {
      span.request = spans_[static_cast<size_t>(span.parent)].request;
    }
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  open_spans.push_back(id);
  // Stamp the start last so the bookkeeping above is not inside the span.
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].start_ns = start;
  return id;
}

void Tracer::End(int64_t id) {
  const int64_t end = NowNs();
  DQUAG_CHECK(!open_spans.empty() && open_spans.back() == id);
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = end;
}

std::map<std::string, Samples> Tracer::SelfTimes(const std::string& op) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t n = spans_.size();
  // Child time per span, and the root each span belongs to.
  std::vector<int64_t> child_ns(n, 0);
  std::vector<int64_t> root(n, -1);
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    // Parents always precede their children in the list.
    root[i] = span.parent < 0 ? static_cast<int64_t>(i)
                              : root[static_cast<size_t>(span.parent)];
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  // Per root named `op`: summed self time per span name.
  std::map<int64_t, std::map<std::string, double>> per_root;
  for (size_t i = 0; i < n; ++i) {
    const Span& root_span = spans_[static_cast<size_t>(root[i])];
    if (root_span.name != op || root_span.end_ns == 0) continue;
    const Span& span = spans_[i];
    per_root[root[i]][span.name] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e6;
  }
  std::map<std::string, Samples> out;
  for (const auto& [root_id, names] : per_root) {
    for (const auto& [name, ms] : names) out[name].Add(ms);
  }
  return out;
}

Samples Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Samples samples;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_ns != 0) {
      samples.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return samples;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << ", \"parent\": " << span.parent
        << ", \"request\": " << span.request << "}\n";
  }
  return out.good();
}

void ReportOverhead(const std::string& name, const Samples& untraced_ms,
                    const Samples& traced_ms, Report& report) {
  if (untraced_ms.empty() || traced_ms.empty()) return;
  const double untraced = untraced_ms.Median();
  const double traced = traced_ms.Median();
  report.Set("trace." + name + ".untraced_ms", untraced, "ms",
             untraced_ms.count());
  report.Set("trace." + name + ".traced_ms", traced, "ms", traced_ms.count());
  report.Set("trace." + name + ".overhead_pct",
             100.0 * (traced - untraced) / untraced, "%", traced_ms.count());
}

void ReportOpTrace(const std::string& op, const Samples& untraced_ms,
                   const Samples& traced_ms, Report& report) {
  if (untraced_ms.empty() || traced_ms.empty()) return;
  const std::string name = op.substr(op.find('.') + 1);
  const double untraced = untraced_ms.Median();
  ReportOverhead(name, untraced_ms, traced_ms, report);
  double accounted = 0.0;
  for (const auto& [span, self_ms] : Tracer::Get().SelfTimes(op)) {
    const bool root = span == op;
    report.Set("self." + name + "." + (root ? "glue" : span) + "_ms",
               self_ms.Median(), "ms", self_ms.count());
    if (!root) accounted += self_ms.Median();
  }
  report.Set("trace." + name + ".accounted_share", accounted / untraced,
             "ratio", traced_ms.count());
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (tracer.armed()) id_ = tracer.Begin(name, request);
}

ScopedSpan::~ScopedSpan() {
  if (id_ >= 0) Tracer::Get().End(id_);
}

}  // namespace perfbench
