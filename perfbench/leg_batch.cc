// Offline jobs on one dirty CSV file: whole-table validate, streamed
// validate and repair, repeated round-robin for the leg's budget.
//
// An untraced job makes the calls a user of the library (or the CLI)
// makes. A traced job makes the same work in its public steps — read,
// ParseCsv + Table::FromCsv, TablePreprocessor::Transform,
// ValidationService::ValidateMatrix (and ::Repair) — with a span around
// each, which is how the per-layer self times are split.

#include <algorithm>
#include <cstring>
#include <functional>

#include "data/table_chunk_reader.h"
#include "legs.h"
#include "trace.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/stopwatch.h"

namespace perfbench {

using namespace dquag;

namespace {

// Spans each CsvChunkReader::Next the streamer makes (on the calling
// thread, inside ValidateStream).
class TracedChunkReader final : public TableChunkReader {
 public:
  explicit TracedChunkReader(TableChunkReader* inner) : inner_(inner) {}
  StatusOr<int64_t> Next(Table& chunk) override {
    ScopedSpan span("data.chunk_read");
    return inner_->Next(chunk);
  }
  const Schema& schema() const override { return inner_->schema(); }
  int64_t rows_delivered() const override { return inner_->rows_delivered(); }
  int64_t chunk_rows() const override { return inner_->chunk_rows(); }

 private:
  TableChunkReader* inner_;
};

// True when `part`, the verdict on the first rows of a table, equals the
// whole table's verdict on those rows: flagged rows, and every row's
// error bit for bit.
bool SamePrefix(const BatchVerdict& part, const BatchVerdict& whole) {
  const size_t rows = part.instances.size();
  if (rows > whole.instances.size()) return false;
  const auto end = std::lower_bound(whole.flagged_rows.begin(),
                                    whole.flagged_rows.end(), rows);
  if (!std::equal(part.flagged_rows.begin(), part.flagged_rows.end(),
                  whole.flagged_rows.begin(), end)) {
    return false;
  }
  for (size_t i = 0; i < rows; ++i) {
    if (std::memcmp(&part.instances[i].error, &whole.instances[i].error,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

Table ParseTable(const Schema& schema, const std::string& text) {
  ScopedSpan span("data.parse");
  auto doc = ParseCsv(text);
  DQUAG_CHECK(doc.ok());
  auto table = Table::FromCsv(schema, *doc);
  DQUAG_CHECK(table.ok());
  return *std::move(table);
}

std::string Read(const std::string& path) {
  ScopedSpan span("data.read");
  return ReadFile(path);
}

// The whole-table verdict: Validate, or its two public steps when traced.
BatchVerdict ValidateTable(const ValidationService& service,
                           const Table& table, bool traced) {
  if (!traced) return service.Validate(table);
  Tensor matrix;
  {
    ScopedSpan span("data.transform");
    matrix = service.pipeline().preprocessor().Transform(table);
  }
  ScopedSpan span("service.validate_matrix");
  return service.ValidateMatrix(matrix);
}

}  // namespace

void RunBatchLeg(const RunOptions& options, Fixture& fixture, double budget_s,
                 BatchResults& results, Ledger& ledger) {
  const ValidationService& service = *fixture.service;
  BatchResults& r = results;

  auto run_validate = [&](bool traced) {
    ScopedSpan op("op.validate");
    Table table = ParseTable(fixture.schema, Read(fixture.batch_csv));
    BatchVerdict verdict = ValidateTable(service, table, traced);
    if (!r.have_reference) {
      r.reference = std::move(verdict);
      r.have_reference = true;
    } else if (verdict.instances.size() != r.reference.instances.size() ||
               !SamePrefix(verdict, r.reference)) {
      ledger.Fail("validate: verdict differs between repetitions");
    }
  };

  auto run_stream = [&](bool traced) {
    ScopedSpan op("op.stream");
    std::unique_ptr<CsvChunkReader> reader;
    {
      ScopedSpan span("data.open");
      auto opened = CsvChunkReader::Open(fixture.batch_csv, fixture.schema,
                                         {.chunk_rows = kStreamChunkRows});
      DQUAG_CHECK(opened.ok());
      reader = std::move(*opened);
    }
    TracedChunkReader traced_reader(reader.get());
    auto verdict = [&] {
      ScopedSpan span("stream.run");
      return traced ? service.ValidateStream(traced_reader)
                    : service.ValidateStream(*reader);
    }();
    if (!verdict.ok()) {
      ledger.Fail("stream: " + verdict.status().ToString());
      return;
    }
    // Streamed flagged rows and their errors must be bit-identical to
    // the whole-table verdict.
    bool same = r.have_reference &&
                verdict->flagged_rows == r.reference.flagged_rows &&
                verdict->total_rows == fixture.batch_rows;
    for (size_t i = 0; same && i < verdict->flagged_rows.size(); ++i) {
      const double a = verdict->flagged_instances[i].error;
      const double b = r.reference.instances[verdict->flagged_rows[i]].error;
      same = std::memcmp(&a, &b, sizeof(double)) == 0;
    }
    if (!same) ledger.Fail("stream: flagged rows differ from whole-table");
    r.last_stream = *std::move(verdict);
  };

  auto run_repair = [&](bool traced) {
    ScopedSpan op("op.repair");
    Table table = ParseTable(fixture.schema, Read(fixture.repair_csv));
    BatchVerdict verdict = ValidateTable(service, table, traced);
    if (static_cast<int64_t>(verdict.instances.size()) != fixture.repair_rows ||
        !SamePrefix(verdict, r.reference)) {
      ledger.Fail("repair: verdict differs from the whole-table one");
    }
    RepairResult result;
    {
      ScopedSpan span("service.repair");
      result = service.Repair(table, verdict);
    }
    if (r.reference_cells < 0) {
      r.reference_cells = result.cells_repaired;
    } else if (result.cells_repaired != r.reference_cells) {
      ledger.Fail("repair: repaired cells differ between repetitions");
    }
  };

  // Validate runs first: it sets the reference verdict the others are
  // checked against.
  const std::pair<OpSamples*, std::function<void(bool)>> jobs[] = {
      {&r.validate, run_validate},
      {&r.stream, run_stream},
      {&r.repair, run_repair}};
  // A round starts only if it should end within the budget (the first
  // always runs), so the leg does not overrun by most of a round.
  Stopwatch leg;
  double round_s = 0.0;
  do {
    Stopwatch round;
    // Traced runs alternate untraced and traced rounds, so the tracing
    // overhead is measured on the same input in the same process.
    const bool traced = options.trace && r.rounds % 2 == 1;
    for (const auto& [samples, run] : jobs) {
      MoveToCpu(r.jobs++);
      ledger.Attempt();
      Tracer::Get().Arm(traced);
      Stopwatch timer;
      run(traced);
      const double ms = timer.ElapsedMillis();
      Tracer::Get().Arm(false);
      (traced ? samples->traced_ms : samples->untraced_ms).Add(ms);
    }
    ++r.rounds;
    round_s = round.ElapsedSeconds();
  } while (leg.ElapsedSeconds() + round_s <= budget_s);
}

void ReportBatch(const RunOptions& options, const Fixture& fixture,
                 const BatchResults& r, Report& report) {
  const ValidationService& service = *fixture.service;
  const double rows = static_cast<double>(fixture.batch_rows);

  // The paper's error rate after repair: the whole file repaired (untimed;
  // the timed repairs read the shorter file) and validated again.
  const Table table = ParseTable(fixture.schema, Read(fixture.batch_csv));
  const double residual =
      service.Validate(service.Repair(table, r.reference).repaired)
          .flagged_fraction;

  // Row-level detection quality against the injected truth.
  int64_t tp = 0, fp = 0, fn = 0;
  std::vector<bool> flagged(fixture.corrupted.size(), false);
  for (size_t row : r.reference.flagged_rows) flagged[row] = true;
  for (size_t i = 0; i < flagged.size(); ++i) {
    if (flagged[i] && fixture.corrupted[i]) ++tp;
    if (flagged[i] && !fixture.corrupted[i]) ++fp;
    if (!flagged[i] && fixture.corrupted[i]) ++fn;
  }
  const double f1 = 2.0 * tp / std::max<double>(1.0, 2.0 * tp + fp + fn);

  auto rate = [&](const char* name, int64_t file_rows, const OpSamples& op) {
    report.Set(name,
               static_cast<double>(file_rows) / (op.untraced_ms.Median() / 1e3),
               "rows/s", op.untraced_ms.count());
  };
  rate("validate_rows_per_s", fixture.batch_rows, r.validate);
  rate("stream_rows_per_s", fixture.batch_rows, r.stream);
  rate("repair_rows_per_s", fixture.repair_rows, r.repair);
  report.Set("detect_f1", f1, "ratio", fixture.batch_rows);
  report.Set("repair_residual", residual, "ratio", fixture.batch_rows);

  if (!options.trace) return;
  Tracer& tracer = Tracer::Get();
  // Per-layer times come from one op each, so they describe one input
  // size: parse, transform and validate from the whole-table validate.
  auto median_of = [&](const std::string& op, const std::string& span,
                       const char* metric) {
    auto self = tracer.SelfTimes(op);
    if (self.count(span)) {
      report.Set(metric, self[span].Median(), "ms", self[span].count());
    }
  };
  median_of("op.validate", "data.parse", "data.parse_ms");
  median_of("op.validate", "data.transform", "data.transform_ms");
  median_of("op.validate", "service.validate_matrix",
            "service.validate_matrix_ms");
  median_of("op.repair", "service.repair", "repair.ms");
  median_of("op.stream", "data.chunk_read", "data.chunk_read_ms");
  const Samples stream_run = tracer.Durations("stream.run");
  if (!stream_run.empty()) {
    report.Set("stream.run_ms", stream_run.Median(), "ms", stream_run.count());
  }
  report.Set("stream.peak_buffered_rows",
             static_cast<double>(r.last_stream.peak_buffered_rows), "rows", 1);
  report.Set("stream.chunks", static_cast<double>(r.last_stream.total_chunks),
             "count", 1);
  report.Set("repair.cells", static_cast<double>(r.reference_cells), "count",
             1);
  report.Set("repair.flagged_share",
             static_cast<double>(r.reference.flagged_rows.size()) / rows,
             "ratio", 1);
  ReportOpTrace("op.validate", r.validate.untraced_ms, r.validate.traced_ms,
                report);
  ReportOpTrace("op.stream", r.stream.untraced_ms, r.stream.traced_ms, report);
  ReportOpTrace("op.repair", r.repair.untraced_ms, r.repair.traced_ms, report);
}

}  // namespace perfbench
