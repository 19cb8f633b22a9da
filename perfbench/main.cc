// dquag_perfbench: the repository benchmark.
//
//   dquag_perfbench --workload batch_csv|serve_closed
//                   --seed N --seconds S --trace 0|1 --workdir DIR [--smoke]
//
// Set-up (inputs from --seed, model fit, checkpoints, daemon start) runs
// three times and is reported as its median. Then every leg runs for its
// workload's share of --seconds: first the offline jobs on a dirty CSV
// file, then, in three passes, closed-loop validate callers, repeated
// fits, and drift episodes against an auto-retraining daemon (see legs.h).
// Outputs are checked as they are produced; a failed check counts against
// ok_rate and makes the exit code 1.
//
// Stdout: a host block, one line per metric ("metric", name, value, unit,
// sample count), and last a JSON object {correct, attempted, failed,
// metrics} with every metric measured. perfbench/run.py keeps the
// end-to-end (--trace 0) or per-layer (--trace 1) ones BENCHMARK.json
// names. A traced run alternates untraced and traced repetitions of each
// op, so its overhead is measured in the same process. The raw timing
// samples are written to DIR/samples.json, and a traced run's spans to
// DIR/trace.jsonl.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "legs.h"
#include "trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

using dquag::Stopwatch;

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: dquag_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--smoke]\n",
               message);
  return 2;
}

void WriteSamples(
    const std::string& path,
    const std::vector<std::pair<std::string, Samples>>& sets) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "{");
  for (size_t i = 0; i < sets.size(); ++i) {
    std::fprintf(out, "%s\"%s\": [", i ? ", " : "", sets[i].first.c_str());
    const std::vector<double>& values = sets[i].second.values();
    for (size_t j = 0; j < values.size(); ++j) {
      std::fprintf(out, "%s%.17g", j ? ", " : "", values[j]);
    }
    std::fprintf(out, "]");
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
}

void PrintResult(const Report& report, const Ledger& ledger) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              ledger.failed() == 0 ? "true" : "false",
              static_cast<long long>(ledger.attempted()),
              static_cast<long long>(ledger.failed()));
  bool first = true;
  for (const auto& [name, metric] : report.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Run(RunOptions options) {
  namespace fs = std::filesystem;
  const std::string workdir = options.workdir;
  fs::remove_all(workdir);
  fs::create_directories(workdir);
  std::printf("host: %s\n", HostBlock().c_str());
  std::printf("workload: %s seed %llu seconds %.0f trace %d\n",
              options.profile.name.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  Ledger ledger;
  Report report;
  const Profile& profile = options.profile;

  Samples setup_s;
  std::unique_ptr<Fixture> fixture;
  for (int rep = 0; rep < (options.smoke ? 1 : 3); ++rep) {
    fixture.reset();  // stops the previous set-up's daemons
    Stopwatch timer;
    fixture = SetUp(options, ledger);
    setup_s.Add(timer.ElapsedSeconds());
  }

  // The measured phase: the offline jobs and fits, then the socket legs,
  // each in passes (see legs.h).
  BatchResults batch;
  RequestResults requests;
  DriftResults drift;
  Samples fit_ms;
  const int passes = options.smoke ? 1 : 3;
  const double slice = options.seconds / passes;
  for (int pass = 0; pass < passes; ++pass) {
    RunBatchLeg(options, *fixture, slice * profile.batch_share, batch, ledger);
    RunFitLeg(*fixture, slice * profile.fit_share, fit_ms, ledger);
  }
  for (int pass = 0; pass < passes; ++pass) {
    RunServeLeg(options, *fixture, slice * profile.serve_share, requests,
                ledger);
    RunDriftLeg(options, *fixture, slice * profile.drift_share, drift, ledger);
  }
  ReportBatch(options, *fixture, batch, report);
  ReportRequests(options, *fixture->serve_daemon, requests, ledger, report);
  ReportDrift(options, *fixture, drift, ledger, report);
  if (options.trace) {
    RunLayerProbes(options, *fixture, ledger, report);
    ReportRequestSplit(report);
    // A retrain's blocking steps after detection: load the serving
    // checkpoint, fine-tune, save, and the registry's hot swap. The rest
    // of a retrain's median time is detection (the drifted requests the
    // monitor needs).
    if (report.Has("retrain.median_s")) {
      const double steps_ms =
          report.Get("ckpt.load_ms") + report.Get("train.finetune_ms") +
          report.Get("ckpt.save_ms") + report.Get("registry.deploy_ms");
      report.Set("trace.retrain.accounted_share",
                 steps_ms / (report.Get("retrain.median_s") * 1e3), "ratio",
                 1);
    }
  }
  fixture.reset();

  const double train_rows = static_cast<double>(profile.train_rows);
  report.Set("setup_s", setup_s.Median(), "s", setup_s.count());
  // train_rows_per_s rests on the first quartile of the fit-leg fit
  // times, not their median: a fit is seconds of barrier-synchronised
  // sharded steps, the op most exposed to CPU time a shared host takes
  // away, and interference only adds time. The first quartile tracks the
  // undisturbed cost; from run to run it spread about half as much as the
  // median did. It also damps a change that only adds contention or
  // barrier waits inside Fit; train.fit_ms, the median, shows those.
  if (!fit_ms.empty()) {
    report.Set("train_rows_per_s",
               train_rows * static_cast<double>(profile.epochs) /
                   (fit_ms.Quantile(0.25) / 1e3),
               "rows/s", fit_ms.count());
    report.Set("train.fit_ms", fit_ms.Median(), "ms", fit_ms.count());
  }
  report.Set("peak_rss_mb", PeakRssMiB(), "MiB", 1);
  report.Set("ok_rate",
             static_cast<double>(ledger.attempted() - ledger.failed()) /
                 static_cast<double>(ledger.attempted()),
             "ratio", ledger.attempted());

  // Keep the raw samples (and the spans of a traced run); remove the
  // run's inputs and checkpoints.
  for (const auto& entry : fs::directory_iterator(workdir)) {
    fs::remove_all(entry.path());
  }
  WriteSamples(workdir + "/samples.json",
               {{"setup_s", setup_s},
                {"fit_ms", fit_ms},
                {"validate_ms", batch.validate.untraced_ms},
                {"stream_ms", batch.stream.untraced_ms},
                {"repair_ms", batch.repair.untraced_ms},
                {"request_ms", requests.latency.untraced_ms},
                {"retrain_ms", drift.retrain_ms},
                {"chained_retrain_ms", drift.chained_retrain_ms}});
  if (options.trace && !Tracer::Get().Write(workdir + "/trace.jsonl")) {
    std::fprintf(stderr, "warning: could not write %s/trace.jsonl\n",
                 workdir.c_str());
  }

  for (const auto& [name, metric] : report.metrics()) {
    std::printf("metric %-40s %16.6g %-8s n=%lld\n", name.c_str(),
                metric.value, metric.unit.c_str(),
                static_cast<long long>(metric.samples));
  }
  PrintResult(report, ledger);
  return ledger.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Usage;
  dquag::SetLogLevel(dquag::LogLevel::kWarning);
  perfbench::RunOptions options;
  std::string workload;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (value == nullptr) return Usage(("missing value for " + arg).c_str());
    ++i;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const perfbench::Profile* profile = perfbench::FindProfile(workload);
  if (profile == nullptr) return Usage("unknown --workload");
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  if (options.workdir.empty()) return Usage("--workdir is required");
  options.profile = *profile;
  options.trace = trace == 1;
  if (options.smoke) {
    options.profile.train_rows = 600;
    options.profile.epochs = 3;
    options.profile.batch_rows = 2000;
    options.profile.max_episodes = 2;
  }
  return perfbench::Run(std::move(options));
}
