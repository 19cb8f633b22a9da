// Concurrent Phase-2 serving layer over a fitted pipeline.
//
// A ValidationService owns a fitted (typically checkpoint-loaded) pipeline
// and exposes thread-safe Validate / Repair / Observe entry points for
// serving many concurrent callers. Incoming batches are micro-batched: rows
// split into fixed-size chunks that fan out across the process-wide
// ThreadPool, each chunk running the tape-free inference engine with its
// worker thread's private workspace. Chunk workers write into disjoint
// slices of the verdict, so they never contend; and because instances are
// independent along the batch axis, the parallel verdict is identical to
// serial validation.
//
//   auto service = ValidationService::FromCheckpoint("model.ckpt");
//   // from any number of threads:
//   BatchVerdict v = (*service)->Validate(incoming);
//   RepairResult r = (*service)->Repair(incoming, v);
//   MonitorObservation o = (*service)->Observe(incoming);  // streamed

#ifndef DQUAG_CORE_VALIDATION_SERVICE_H_
#define DQUAG_CORE_VALIDATION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "core/pipeline.h"
#include "core/streaming_validator.h"

namespace dquag {

struct ValidationServiceOptions {
  /// Rows per fan-out chunk. Smaller chunks parallelize better and stay
  /// cache-resident; larger chunks amortize dispatch. 512 rows of a
  /// hidden-64 model keep every workspace comfortably inside L2.
  int64_t micro_batch_rows = 512;
  /// Stream-monitoring knobs for Observe().
  MonitorOptions monitor;
  /// Serve validation on the int8 quantized engine (see ValidationMode).
  /// Repair always runs on the float path.
  bool quantized = false;
  /// Margin-band width for the quantized float re-check, as a fraction of
  /// the threshold.
  double quantized_margin = 0.25;
};

/// Monotonic service counters (atomically maintained; read with stats()).
struct ValidationServiceStats {
  int64_t batches_validated = 0;
  int64_t rows_validated = 0;
  int64_t rows_flagged = 0;
  int64_t dirty_batches = 0;
  int64_t batches_repaired = 0;
  int64_t cells_repaired = 0;
};

class ValidationService {
 public:
  /// Takes ownership of a fitted pipeline (checked).
  explicit ValidationService(DquagPipeline pipeline,
                             ValidationServiceOptions options = {});

  /// Loads a checkpoint written by DquagPipeline::Save and serves it.
  static StatusOr<std::unique_ptr<ValidationService>> FromCheckpoint(
      const std::string& path, ValidationServiceOptions options = {});

  ValidationService(const ValidationService&) = delete;
  ValidationService& operator=(const ValidationService&) = delete;

  /// Thread-safe batch validation (preprocess + parallel engine inference).
  BatchVerdict Validate(const Table& batch) const;

  /// Status-checked dispatch for externally-sourced batches — the serving
  /// daemon's entry point. Verifies the batch schema matches the fitted
  /// preprocessor so malformed client input surfaces as InvalidArgument
  /// instead of a checked abort; an empty batch is a valid clean verdict.
  StatusOr<BatchVerdict> TryValidate(const Table& batch) const;

  /// Status-checked Validate + Repair (see TryValidate).
  StatusOr<RepairResult> TryValidateAndRepair(const Table& batch) const;

  /// Thread-safe validation of an already-preprocessed [B, d] matrix.
  BatchVerdict ValidateMatrix(const Tensor& matrix) const;

  /// Thread-safe repair of the cells flagged by `verdict`.
  RepairResult Repair(const Table& batch, const BatchVerdict& verdict) const;

  /// Streaming, out-of-core validation: drains `reader` chunk by chunk
  /// through the StreamingValidator (bounded in-flight pipeline over the
  /// process pool, ordered per-chunk callbacks on the calling thread).
  /// Bit-identical to Validate on the fully materialized table; memory
  /// stays O(chunks in flight * chunk_rows). Thread-safe; counts the whole
  /// stream as one batch in stats().
  StatusOr<StreamVerdict> ValidateStream(
      TableChunkReader& reader,
      const StreamingValidator::ChunkCallback& callback = nullptr,
      StreamingValidatorOptions stream_options = {}) const;

  /// Validates the batch and feeds the verdict into the streaming quality
  /// monitor (EWMA over flagged fractions; see core/monitor.h). Inference
  /// runs in parallel; only the monitor update itself is serialized.
  MonitorObservation Observe(const Table& batch);

  /// Streaming Observe: validates the stream out-of-core, then feeds the
  /// whole-stream per-row flag sequence to the monitor as ONE row-weighted
  /// observation — identical monitor state to Observe on the materialized
  /// table (and to observing the same rows as N chunks).
  StatusOr<MonitorObservation> ObserveStream(TableChunkReader& reader);

  /// Feeds an already-computed verdict into the monitor without
  /// re-validating. Const (the monitor is internally synchronized) so the
  /// serving daemon can feed verdicts through its
  /// shared_ptr<const ValidationService> without double inference.
  MonitorObservation ObserveVerdict(const BatchVerdict& verdict) const;

  /// True if the monitor's last observation raised the sustained-degradation
  /// alarm.
  bool alarming() const;

  /// Snapshot of the monitor's recent observation ring, oldest first (at
  /// most MonitorOptions::history_capacity entries).
  std::vector<MonitorObservation> monitor_history() const;

  /// Point-in-time monitor aggregates for stats reporting.
  struct MonitorSnapshot {
    int64_t observations = 0;
    int64_t rows_observed = 0;
    double smoothed_fraction = 0.0;
    bool alarming = false;
    std::vector<int64_t> drifting_columns;
  };
  MonitorSnapshot monitor_snapshot() const;

  ValidationServiceStats stats() const;

  const DquagPipeline& pipeline() const { return pipeline_; }
  const ValidationServiceOptions& options() const { return options_; }

  /// The forward-pass mode derived from the service options.
  ValidationMode validation_mode() const {
    return {options_.quantized, options_.quantized_margin};
  }

 private:
  DquagPipeline pipeline_;
  ValidationServiceOptions options_;

  mutable std::mutex monitor_mutex_;
  mutable QualityMonitor monitor_;  // guarded by monitor_mutex_

  mutable std::atomic<int64_t> batches_validated_{0};
  mutable std::atomic<int64_t> rows_validated_{0};
  mutable std::atomic<int64_t> rows_flagged_{0};
  mutable std::atomic<int64_t> dirty_batches_{0};
  mutable std::atomic<int64_t> batches_repaired_{0};
  mutable std::atomic<int64_t> cells_repaired_{0};
};

}  // namespace dquag

#endif  // DQUAG_CORE_VALIDATION_SERVICE_H_
