// The benchmark's legs. Set-up builds one Fixture (inputs, fitted model,
// checkpoints, running daemons); each leg then drives one user path
// through the library's public API for its share of --seconds, records
// raw samples and checks outputs; its Report function turns the samples
// into metrics.

#ifndef DQUAG_PERFBENCH_LEGS_H_
#define DQUAG_PERFBENCH_LEGS_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/pipeline.h"
#include "core/streaming_validator.h"
#include "core/validation_service.h"
#include "serve/server.h"

namespace perfbench {

/// Closed-loop callers (one connection each) on the serve leg, and on the
/// drift leg, whose reads run beside the retrains and swaps.
inline constexpr int kServeCallers = 4;
inline constexpr int kDriftCallers = 2;
/// Rows per validate request: an ETL batch handed to the daemon.
inline constexpr int64_t kRequestRows = 64;
/// Distinct request bodies per pool.
inline constexpr int64_t kBodies = 32;
/// Chunk size of the streamed validate job (the CLI's default).
inline constexpr int64_t kStreamChunkRows = 4096;
/// Serve-leg tenants: one float, one on the int8 engine.
inline constexpr const char* kFloatTenant = "acme";
inline constexpr const char* kQuantTenant = "globex";
/// Drift episode e runs on its own tenant, DriftTenant(e), deployed from
/// its own copy of the fitted model, so every episode starts from the same
/// model and the same retrain-controller state.
std::string DriftTenant(int episode);
/// Drifted traffic moves every numeric column up by this fraction of its
/// span; a chained episode then moves it twice as far.
inline constexpr double kDriftShift = 0.25;
/// The drift monitor's window (and warm-up), in requests.
inline constexpr int64_t kDriftWindowRequests = 6;
/// Fine-tune epochs per drift-triggered retrain.
inline constexpr int64_t kFinetuneEpochs = 2;
/// Accepted-clean rows a retrain fine-tunes on at most. Less than a
/// drift window of clean requests leaves accepted, so the buffer is full
/// when an episode's drift starts and every timed retrain fine-tunes on
/// the same number of rows.
inline constexpr int64_t kRetrainBufferRows = 5 * kRequestRows;

struct Fixture {
  dquag::Schema schema;
  Table clean;  // training table
  dquag::DquagPipelineOptions pipeline_options;
  std::string checkpoint;  // the fitted model

  // Offline jobs: the dirty CSV file and its row-level truth.
  std::string batch_csv;
  int64_t batch_rows = 0;
  // The repair job's file: the first quarter of the same rows. A repair
  // costs about three validates, so the shorter file gives it as many
  // samples per round as the validate jobs.
  std::string repair_csv;
  int64_t repair_rows = 0;
  std::vector<bool> corrupted;
  std::unique_ptr<dquag::ValidationService> service;  // float, local

  // Serve leg: request bodies and the local verdict of each, per tenant.
  std::vector<std::string> bodies;
  std::vector<BatchVerdict> float_verdicts;
  std::vector<BatchVerdict> quant_verdicts;
  std::unique_ptr<dquag::ServeDaemon> serve_daemon;

  // Drift leg bodies, [phase][e - 1] for episode e: phase 0 held-out
  // clean rows, phase 1 the same rows shifted by kDriftShift, phase 2 by
  // twice that (the chained retrain).
  std::array<std::vector<std::vector<std::string>>, 3> drift_bodies;
  std::unique_ptr<dquag::ServeDaemon> drift_daemon;
};

/// Builds the fixture (timed as set-up by the caller).
std::unique_ptr<Fixture> SetUp(const RunOptions& options, Ledger& ledger);

// The measured phase runs in passes: each pass runs a leg for its share
// of the pass, so the leg's samples come from several stretches of the
// run, not one slice of it. The offline jobs and the fits go first, in
// passes of their own, and the socket legs after them: a user runs an
// offline job in a fresh process, and in this one the streamed validate
// ran up to ~40% slower once the socket and drift legs had run (on a
// 4-vCPU VM; likely its calling thread moving to a slower vCPU, see
// MoveToCpu). A leg's results accumulate over the passes and
// become metrics once, at the end.

/// One op's latencies, split by whether the tracer was armed.
struct OpSamples {
  Samples untraced_ms;
  Samples traced_ms;
};

struct BatchResults {
  int64_t rounds = 0;
  int64_t jobs = 0;
  OpSamples validate, stream, repair;
  BatchVerdict reference;  // the first whole-table verdict
  bool have_reference = false;
  int64_t reference_cells = -1;
  dquag::StreamVerdict last_stream;
};

struct RequestResults {
  OpSamples latency;
  int64_t rows = 0;
  double wall_s = 0.0;
  int64_t retries = 0;
  int64_t reconnects = 0;
};

struct DriftResults {
  int episodes = 0;  // completed
  Samples retrain_ms;  // first retrain of each episode (from the fit model)
  Samples chained_retrain_ms;  // second retrain of a chained episode
  Samples detect_requests;
  /// Retrains a fresh tenant started on its clean warm-up traffic, before
  /// the traffic drifted.
  int64_t clean_triggered = 0;
};

/// Whole-table validate, streamed validate and repair of the CSV file.
void RunBatchLeg(const RunOptions& options, Fixture& fixture, double budget_s,
                 BatchResults& results, Ledger& ledger);
void ReportBatch(const RunOptions& options, const Fixture& fixture,
                 const BatchResults& results, Report& report);

/// Closed-loop callers sending validate requests to two tenants.
void RunServeLeg(const RunOptions& options, Fixture& fixture,
                 double budget_s, RequestResults& results, Ledger& ledger);

/// Request metrics, plus (traced) the daemon's own view of the traffic.
void ReportRequests(const RunOptions& options, dquag::ServeDaemon& daemon,
                    const RequestResults& results, Ledger& ledger,
                    Report& report);

/// Traced runs, after ReportRequests and RunLayerProbes: splits a request
/// along its blocking steps with the daemon's own clock. The accounted
/// share is the daemon's p50 over the client's; the shortfall is time
/// outside the daemon (wire, and the delayed-ACK stall).
void ReportRequestSplit(Report& report);

/// Repeated from-scratch fits of the served model's table and options.
void RunFitLeg(Fixture& fixture, double budget_s, Samples& fit_ms,
               Ledger& ledger);

/// Drift episodes against the auto-retraining daemon under closed-loop
/// callers. The first episode of each pass is chained: once its retrained
/// model serves, the shift doubles, so a retrain of a retrained model is
/// timed too.
void RunDriftLeg(const RunOptions& options, Fixture& fixture,
                 double budget_s, DriftResults& results, Ledger& ledger);
void ReportDrift(const RunOptions& options, Fixture& fixture,
                 const DriftResults& results, Ledger& ledger,
                 Report& report);

/// Traced runs only: single-layer timings outside the ops (engine kernels,
/// serial vs parallel validation, inverse transform, request parsing,
/// relationship mining, fine-tune, checkpoint I/O, hot-swap deploy).
void RunLayerProbes(const RunOptions& options, Fixture& fixture,
                    Ledger& ledger, Report& report);

}  // namespace perfbench

#endif  // DQUAG_PERFBENCH_LEGS_H_
