#include "core/validation_service.h"

#include <algorithm>

#include "engine/inference_context.h"
#include "util/thread_pool.h"

namespace dquag {

ValidationService::ValidationService(DquagPipeline pipeline,
                                     ValidationServiceOptions options)
    : pipeline_(std::move(pipeline)),
      options_(options),
      monitor_(&pipeline_, options.monitor) {
  DQUAG_CHECK(pipeline_.fitted());
  DQUAG_CHECK_GT(options_.micro_batch_rows, 0);
}

StatusOr<std::unique_ptr<ValidationService>> ValidationService::FromCheckpoint(
    const std::string& path, ValidationServiceOptions options) {
  auto pipeline = DquagPipeline::Load(path);
  if (!pipeline.ok()) return pipeline.status();
  return std::make_unique<ValidationService>(std::move(pipeline).value(),
                                             options);
}

BatchVerdict ValidationService::Validate(const Table& batch) const {
  return ValidateMatrix(pipeline_.preprocessor().Transform(batch));
}

BatchVerdict ValidationService::ValidateMatrix(const Tensor& matrix) const {
  DQUAG_CHECK_EQ(matrix.ndim(), 2);
  const int64_t rows = matrix.dim(0);
  const Validator& validator = pipeline_.validator();

  BatchVerdict verdict;
  verdict.threshold = validator.threshold();
  verdict.instances.resize(static_cast<size_t>(rows));

  const ValidationMode mode = validation_mode();
  const int64_t micro = options_.micro_batch_rows;
  // One task per micro-batch; RunTasksAndWait runs them inline for a single
  // chunk or a caller that is itself a pool worker.
  RunTasksAndWait(GlobalThreadPool(), (rows + micro - 1) / micro,
                  [&](int64_t c) {
                    const int64_t lo = c * micro;
                    const int64_t hi = std::min(rows, lo + micro);
                    validator.ValidateRowsInto(
                        matrix, lo, hi, InferenceContext::ThreadLocal(),
                        verdict.instances.data() + lo, mode);
                  });

  validator.FinalizeVerdict(verdict);

  batches_validated_.fetch_add(1, std::memory_order_relaxed);
  rows_validated_.fetch_add(rows, std::memory_order_relaxed);
  rows_flagged_.fetch_add(static_cast<int64_t>(verdict.flagged_rows.size()),
                          std::memory_order_relaxed);
  if (verdict.is_dirty) dirty_batches_.fetch_add(1, std::memory_order_relaxed);
  return verdict;
}

StatusOr<BatchVerdict> ValidationService::TryValidate(
    const Table& batch) const {
  if (!(batch.schema() == pipeline_.preprocessor().schema())) {
    return Status::InvalidArgument(
        "batch schema does not match the deployed model's schema");
  }
  return Validate(batch);
}

StatusOr<RepairResult> ValidationService::TryValidateAndRepair(
    const Table& batch) const {
  DQUAG_ASSIGN_OR_RETURN(BatchVerdict verdict, TryValidate(batch));
  return Repair(batch, verdict);
}

RepairResult ValidationService::Repair(const Table& batch,
                                       const BatchVerdict& verdict) const {
  RepairResult result = pipeline_.Repair(batch, verdict);
  batches_repaired_.fetch_add(1, std::memory_order_relaxed);
  cells_repaired_.fetch_add(result.cells_repaired, std::memory_order_relaxed);
  return result;
}

StatusOr<StreamVerdict> ValidationService::ValidateStream(
    TableChunkReader& reader,
    const StreamingValidator::ChunkCallback& callback,
    StreamingValidatorOptions stream_options) const {
  if (options_.quantized) stream_options.mode = validation_mode();
  StreamingValidator streamer(&pipeline_, stream_options);
  auto verdict = streamer.Run(reader, callback);
  if (!verdict.ok()) return verdict.status();

  batches_validated_.fetch_add(1, std::memory_order_relaxed);
  rows_validated_.fetch_add(verdict->total_rows, std::memory_order_relaxed);
  rows_flagged_.fetch_add(
      static_cast<int64_t>(verdict->flagged_rows.size()),
      std::memory_order_relaxed);
  if (verdict->is_dirty) {
    dirty_batches_.fetch_add(1, std::memory_order_relaxed);
  }
  if (stream_options.repair) {
    batches_repaired_.fetch_add(1, std::memory_order_relaxed);
    cells_repaired_.fetch_add(verdict->cells_repaired,
                              std::memory_order_relaxed);
  }
  return verdict;
}

MonitorObservation ValidationService::Observe(const Table& batch) {
  return ObserveVerdict(Validate(batch));
}

MonitorObservation ValidationService::ObserveVerdict(
    const BatchVerdict& verdict) const {
  std::lock_guard<std::mutex> lock(monitor_mutex_);
  return monitor_.ObserveVerdict(verdict);
}

StatusOr<MonitorObservation> ValidationService::ObserveStream(
    TableChunkReader& reader) {
  auto verdict = ValidateStream(reader);
  if (!verdict.ok()) return verdict.status();
  std::lock_guard<std::mutex> lock(monitor_mutex_);
  return monitor_.ObserveStreamVerdict(*verdict);
}

bool ValidationService::alarming() const {
  std::lock_guard<std::mutex> lock(monitor_mutex_);
  return monitor_.alarming();
}

std::vector<MonitorObservation> ValidationService::monitor_history() const {
  std::lock_guard<std::mutex> lock(monitor_mutex_);
  return {monitor_.history().begin(), monitor_.history().end()};
}

ValidationService::MonitorSnapshot ValidationService::monitor_snapshot()
    const {
  std::lock_guard<std::mutex> lock(monitor_mutex_);
  MonitorSnapshot s;
  s.observations = monitor_.observation_count();
  s.rows_observed = monitor_.rows_observed();
  s.smoothed_fraction = monitor_.smoothed_fraction();
  s.alarming = monitor_.alarming();
  s.drifting_columns = monitor_.drifting_columns();
  return s;
}

ValidationServiceStats ValidationService::stats() const {
  ValidationServiceStats s;
  s.batches_validated = batches_validated_.load(std::memory_order_relaxed);
  s.rows_validated = rows_validated_.load(std::memory_order_relaxed);
  s.rows_flagged = rows_flagged_.load(std::memory_order_relaxed);
  s.dirty_batches = dirty_batches_.load(std::memory_order_relaxed);
  s.batches_repaired = batches_repaired_.load(std::memory_order_relaxed);
  s.cells_repaired = cells_repaired_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dquag
