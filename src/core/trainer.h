// Phase 1: training DQuaG on clean data (paper §3.1.3 / §3.1.4).

#ifndef DQUAG_CORE_TRAINER_H_
#define DQUAG_CORE_TRAINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "autograd/grad_arena.h"
#include "core/error_stats.h"
#include "core/model.h"
#include "nn/adam.h"
#include "util/thread_pool.h"

namespace dquag {

struct TrainingReport {
  std::vector<double> epoch_losses;        // total loss per epoch
  std::vector<double> clean_errors;        // final per-instance errors
  ErrorStatistics error_statistics;        // incl. e_threshold
  int64_t epochs_run = 0;
  /// Drift profile: per-schema-column rate at which CLEAN rows were flagged
  /// with that column suspect, measured right after fitting (the monitor's
  /// per-column drift baseline). Empty for checkpoints predating the
  /// profile.
  std::vector<double> column_clean_suspect_rate;
  /// Fraction of clean rows flagged at the fitted threshold (by
  /// construction near 1 - threshold_percentile).
  double clean_flag_rate = 0.0;
};

/// Random-access provider of preprocessed training rows. Fit() never sees
/// the whole matrix — it asks for one batch of rows at a time (by global
/// row index, any order), so implementations can stream from disk with
/// O(batch) memory. The in-memory Tensor overload of Fit() goes through
/// this same interface; a source that produces the same floats per row
/// yields bit-identical training (losses, threshold, weights).
class TrainingRowSource {
 public:
  virtual ~TrainingRowSource() = default;

  virtual int64_t num_rows() const = 0;
  virtual int64_t num_features() const = 0;

  /// Writes `count` rows, row-major [count, num_features()], into `out`.
  /// `rows[i]` are global row indices in [0, num_rows()), any order,
  /// duplicates allowed.
  virtual Status GatherRows(const size_t* rows, int64_t count,
                            float* out) = 0;
};

/// Minimizes L = alpha * L_validation + beta * L_repair with Adam over the
/// clean preprocessed matrix [N, d]. The validation loss uses per-sample
/// weights recomputed each step from detached reconstruction errors
/// (smaller error -> larger weight); inputs are denoise-masked with
/// probability `input_mask_prob` while targets stay clean.
///
/// Training fast path: with config.train_shards > 1 each mini-batch is
/// split into shards whose tape forward/backward run concurrently on the
/// worker pool against shared weights. Every shard accumulates into its own
/// gradient buffers (autograd/grad_arena.h sinks), combined by a
/// fixed-order tree reduction before one Adam step — so a given seed
/// produces identical epoch losses and threshold on 1, 2, or N threads.
/// Tape payloads (op outputs, node gradients, backward scratch) recycle
/// through per-shard arenas: steady-state steps perform no tensor
/// allocations (see arena_allocations()).
class Trainer {
 public:
  Trainer(DquagModel* model, const DquagConfig& config);

  /// Trains on `clean_matrix` and collects the final reconstruction-error
  /// statistics on the unmasked clean data. Mini-batches are gathered
  /// straight from `clean_matrix` through the composed shuffle permutation
  /// (one copy per row per epoch).
  TrainingReport Fit(const Tensor& clean_matrix);

  /// Out-of-core variant: identical math, but rows are pulled on demand
  /// from `source` (one batch in memory at a time, plus the calibration
  /// split). Given a source that reproduces the in-memory rows exactly —
  /// e.g. ColumnarTrainingSource over a .dqc written from the same table —
  /// epoch losses and the threshold are bit-identical to the Tensor
  /// overload.
  StatusOr<TrainingReport> Fit(TrainingRowSource& source);

  /// Per-instance validation-head errors on a matrix (no masking): the
  /// RowReconstructionError values the Validator compares against the
  /// threshold. Runs on the tape-free inference engine, chunked across the
  /// worker pool.
  std::vector<double> ComputeErrors(const Tensor& matrix) const;

  /// One optimization step over a batch; returns the total loss value.
  /// Public so benches and tests can drive steady-state stepping directly.
  double Step(const Tensor& batch);

  /// Overrides the pool used for shard fan-out and the optimizer's
  /// parameter fan-out (nullptr = the process-wide pool). Tests drive
  /// 1/2/8-thread pools through this; results are identical by
  /// construction.
  void set_thread_pool(ThreadPool* pool) {
    pool_ = pool;
    optimizer_.set_thread_pool(pool);
  }

  /// Payload allocations performed by the training arenas so far, summed
  /// over the serial arena and every shard arena. Stable across steps after
  /// warm-up == the hot path stopped allocating.
  int64_t arena_allocations() const;

  /// Total floats those allocations created (the arenas' high-water mark).
  int64_t arena_allocated_floats() const;

 private:
  /// Per-shard training state, alive between the forward and backward
  /// phases of one parallel step.
  struct ShardState {
    VarPtr input;
    VarPtr target;
    DquagForward out;
    double loss = 0.0;
    int64_t begin = 0;
    int64_t end = 0;
  };

  /// Copies `batch` into masked_buffer_ and applies the denoising mask
  /// (single rng_ stream, so results are shard- and thread-independent).
  void ApplyDenoiseMask(const Tensor& batch);

  /// Shards for a batch of `rows`: a pure function of the row count and
  /// config (never the machine), which is what keeps training reproducible.
  int64_t ShardCountForRows(int64_t rows) const;

  /// Grows per-shard arenas / gradient sinks up to `num_shards`.
  void EnsureShardState(int64_t num_shards);

  /// Runs fn(0..count) on the shard pool through RunTasksAndWait.
  void RunShardTasks(int64_t count,
                     const std::function<void(int64_t)>& fn) const;

  double StepSerial(const Tensor& batch);
  double StepParallel(const Tensor& batch, int64_t num_shards);

  DquagModel* model_;
  DquagConfig config_;
  Adam optimizer_;
  Rng rng_;
  ThreadPool* pool_ = nullptr;

  std::vector<VarPtr> parameters_;
  GradArena serial_arena_;  // no sinks: gradients land in the parameters
  std::vector<std::unique_ptr<GradArena>> shard_arenas_;
  std::vector<std::vector<Tensor>> shard_grads_;  // [shard][param]
  std::vector<ShardState> shard_states_;

  // Persistent step buffers (capacity survives across steps).
  Tensor masked_buffer_;
  Tensor batch_buffer_;
  Tensor weights_buffer_;
  std::vector<float> errors_buffer_;
};

}  // namespace dquag

#endif  // DQUAG_CORE_TRAINER_H_
