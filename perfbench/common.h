// Shared pieces of the repository benchmark: run options, workload
// profiles, exact sample statistics, the metric report, the generated
// inputs and the correctness ledger.
//
// Every input is generated from the --seed argument; the library only ever
// sees the generated tables, CSV files and request bodies.

#ifndef DQUAG_PERFBENCH_COMMON_H_
#define DQUAG_PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/validation_service.h"
#include "data/table.h"
#include "serve/wire.h"

namespace perfbench {

using dquag::BatchVerdict;
using dquag::Table;

/// How much of each leg a workload runs. Every workload runs every leg so
/// that every metric named in BENCHMARK.json is measured on it; the
/// profile decides which leg gets most of the time and the large inputs.
struct Profile {
  std::string name;
  /// Clean Hotel Booking rows the model is fitted on, and its epochs.
  int64_t train_rows = 2000;
  int64_t epochs = 20;
  /// Rows of the dirty CSV file the offline jobs read.
  int64_t batch_rows = 10000;
  /// Share of --seconds each leg runs for, split evenly over the passes.
  double batch_share = 0.1;
  double serve_share = 0.1;
  double fit_share = 0.1;
  double drift_share = 0.1;
  /// Drift episodes a run may run at most (one tenant each).
  int max_episodes = 20;
};

/// Returns the profile for a workload name, or nullptr if unknown.
const Profile* FindProfile(const std::string& name);

struct RunOptions {
  Profile profile;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Directory for the run's own files (CSV, checkpoints, trace dump).
  std::string workdir;
  /// Minimal sizes for the benchmark's smoke test.
  bool smoke = false;
};

/// Raw samples with exact order statistics (no bucketing).
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  int64_t count() const { return static_cast<int64_t>(values_.size()); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }
  /// Linear interpolation between the two closest order statistics;
  /// q in [0, 1]. Requires at least one sample.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// One reported metric: value, unit, and how many raw samples it rests on.
struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

/// Ordered metric report (name -> metric).
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples);
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  double Get(const std::string& name) const;

 private:
  std::map<std::string, Metric> metrics_;
};

/// Operations attempted and failed across all legs. A failed operation is
/// one that returned an error, was refused, or whose output failed a
/// correctness check; each failure is also logged to stderr.
class Ledger {
 public:
  void Attempt(int64_t n = 1) { attempted_.fetch_add(n); }
  void Fail(const std::string& what);
  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
};

/// A dirty Hotel Booking table with row-level truth: rows touched by the
/// numeric-anomaly, typo or group-booking-conflict injections.
struct DirtyTable {
  Table table;
  std::vector<bool> corrupted;
};
DirtyTable MakeDirtyHotel(int64_t rows, uint64_t seed);

/// Benign covariate shift: every numeric column moves up by `fraction` of
/// its observed span.
Table ShiftNumericColumns(const Table& table, double fraction);

/// Splits `table` into `count` CSV request bodies of `rows` rows each
/// (wrapping around the table).
std::vector<std::string> MakeBodies(const Table& table, int64_t rows,
                                    int64_t count);

/// Validates a CSV body the way the daemon does (ParseCsv, FromCsv,
/// TryValidate); aborts on malformed input, which the benchmark generated.
BatchVerdict ValidateBody(const dquag::ValidationService& service,
                          const std::string& body);

/// Exact equality of a remote verdict with a local one: rows, threshold,
/// flagged rows, their errors (bit for bit) and suspect features.
bool SameVerdict(const dquag::WireVerdict& remote, const BatchVerdict& local,
                 int64_t total_rows);

/// Monotonic nanoseconds.
int64_t NowNs();

/// Moves the calling thread onto the k-th CPU it may run on (mod their
/// count), then lets it run on all of them again. On a shared VM the vCPUs
/// run at different speeds, and a thread tends to stay where it started,
/// so a serial stage's speed depends on where the process landed. The
/// offline jobs and fits start on each CPU in turn, so every run's
/// samples cover every CPU.
void MoveToCpu(int64_t k);

/// Process peak resident set size in MiB.
double PeakRssMiB();

/// The host block printed with every result.
std::string HostBlock();

/// Reads a whole file into a string (aborts on I/O failure).
std::string ReadFile(const std::string& path);

}  // namespace perfbench

#endif  // DQUAG_PERFBENCH_COMMON_H_
