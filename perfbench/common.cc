#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include "data/error_injector.h"
#include "data/generators.h"
#include "serve/wire.h"
#include "tensor/simd.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/rng.h"

namespace perfbench {

using namespace dquag;

namespace {

// Why each workload exists is recorded in BENCHMARK.json; the shares here
// put most of --seconds on the leg the workload is named after.
const Profile kProfiles[] = {
    {.name = "batch_csv",
     .batch_rows = 100000,
     .batch_share = 0.45,
     .serve_share = 0.1,
     .fit_share = 0.25,
     .drift_share = 0.15},
    {.name = "serve_closed",
     .batch_rows = 30000,
     .batch_share = 0.2,
     .serve_share = 0.35,
     .fit_share = 0.2,
     .drift_share = 0.2,
     .max_episodes = 30},
};

}  // namespace

const Profile* FindProfile(const std::string& name) {
  for (const Profile& profile : kProfiles) {
    if (profile.name == name) return &profile;
  }
  return nullptr;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  DQUAG_CHECK(!values_.empty());
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double position = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(position));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  DQUAG_CHECK(it != metrics_.end());
  return it->second.value;
}

void Ledger::Fail(const std::string& what) {
  failed_.fetch_add(1);
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock(mutex);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

DirtyTable MakeDirtyHotel(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  Table clean = datasets::GenerateHotelBooking(rows, rng);
  // Explicit errors (numeric anomalies, typos) and the hidden one (the
  // group-booking conflict), each on a few percent of the rows.
  ErrorInjector injector(seed ^ 0x5eedULL);
  InjectionResult numeric =
      injector.InjectNumericAnomalies(clean, {"lead_time", "adr"}, 0.03);
  InjectionResult typos =
      injector.InjectTypos(numeric.table, {"meal", "arrival_month"}, 0.03);
  InjectionResult conflict =
      injector.InjectHotelGroupConflict(typos.table, 0.03);
  DirtyTable dirty;
  dirty.table = std::move(conflict.table);
  dirty.corrupted.resize(static_cast<size_t>(rows));
  for (size_t i = 0; i < dirty.corrupted.size(); ++i) {
    dirty.corrupted[i] = numeric.row_corrupted[i] || typos.row_corrupted[i] ||
                         conflict.row_corrupted[i];
  }
  return dirty;
}

Table ShiftNumericColumns(const Table& table, double fraction) {
  Table shifted = table;
  for (int64_t c = 0; c < table.num_columns(); ++c) {
    if (table.schema().column(c).type != ColumnType::kNumeric) continue;
    std::vector<double>& column = shifted.Numeric(c);
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (double v : column) {
      if (IsMissing(v)) continue;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const double span = hi > lo ? hi - lo : 1.0;
    for (double& value : column) {
      if (!IsMissing(value)) value += fraction * span;
    }
  }
  return shifted;
}

std::vector<std::string> MakeBodies(const Table& table, int64_t rows,
                                    int64_t count) {
  std::vector<std::string> bodies;
  bodies.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const int64_t start = (i * rows) % std::max<int64_t>(1, table.num_rows());
    const int64_t take = std::min(rows, table.num_rows() - start);
    Table slice = table.SliceRows(start, take);
    if (take < rows) slice.AppendRows(table, 0, rows - take);
    bodies.push_back(WriteCsvString(slice.ToCsv()));
  }
  return bodies;
}

BatchVerdict ValidateBody(const ValidationService& service,
                          const std::string& body) {
  auto csv = ParseCsv(body);
  DQUAG_CHECK(csv.ok());
  auto table =
      Table::FromCsv(service.pipeline().preprocessor().schema(), *csv);
  DQUAG_CHECK(table.ok());
  auto verdict = service.TryValidate(*table);
  DQUAG_CHECK(verdict.ok());
  return *std::move(verdict);
}

bool SameVerdict(const WireVerdict& remote, const BatchVerdict& local,
                 int64_t total_rows) {
  if (remote.total_rows != total_rows) return false;
  if (remote.threshold != local.threshold) return false;
  if (remote.is_dirty != local.is_dirty) return false;
  if (remote.flagged.size() != local.flagged_rows.size()) return false;
  for (size_t i = 0; i < remote.flagged.size(); ++i) {
    const size_t row = local.flagged_rows[i];
    const InstanceVerdict& instance = local.instances[row];
    if (remote.flagged[i].row != row) return false;
    if (remote.flagged[i].error != instance.error) return false;
    if (remote.flagged[i].suspect_features != instance.suspect_features) {
      return false;
    }
  }
  return true;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void MoveToCpu(int64_t k) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    DQUAG_CHECK(sched_getaffinity(0, sizeof(set), &set) == 0);
    return set;
  }();
  const int count = CPU_COUNT(&allowed);
  int64_t index = k % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || index-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    // Returns once the thread runs on `cpu`.
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    break;
  }
  pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string HostBlock() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::ostringstream out;
  out << "{\"cpu\": \"" << cpu << "\", \"nproc\": "
      << std::thread::hardware_concurrency() << ", \"build_type\": \""
      << DQUAG_PERFBENCH_BUILD_TYPE << "\", \"native_arch\": "
      << (DQUAG_PERFBENCH_NATIVE_ARCH ? "true" : "false") << ", \"kernel_table\": \""
      << simd::ActiveKernels().name << "\"}";
  return out.str();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DQUAG_CHECK(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace perfbench
