// Single-layer timings for the traced run, each a public call timed on its
// own (medians of repetitions): the engine at a fixed 2048-row block on
// one thread, serial vs pooled validation of the same matrix, the inverse
// transform, one request body's parse, relationship mining, a retrain's
// fine-tune, checkpoint save/load and a registry hot swap.

#include <algorithm>
#include <cstdio>

#include "core/pipeline.h"
#include "engine/inference_context.h"
#include "legs.h"
#include "serve/model_registry.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/stopwatch.h"

namespace perfbench {

using namespace dquag;

namespace {

constexpr int64_t kEngineRows = 2048;
constexpr int64_t kParallelRows = 16384;

template <typename Fn>
Samples TimeMs(int reps, Fn fn) {
  Samples samples;
  for (int i = 0; i < reps; ++i) {
    Stopwatch timer;
    fn();
    samples.Add(timer.ElapsedMillis());
  }
  return samples;
}

// FLOPs of one validation forward pass per row, counted from the layer
// shapes (2 per multiply-add): the tokenizer, each GAT layer (projection,
// attention logits, message passing over the self-looped graph), each GIN
// layer (message passing, two-layer MLP), and the decoder (MLP, read-out).
// Elementwise activations are not counted.
double ForwardFlopsPerRow(const DquagPipeline& pipeline,
                          const GnnEncoderConfig& encoder) {
  const double d = static_cast<double>(pipeline.graph().num_nodes());
  const double arcs = static_cast<double>(pipeline.graph().num_arcs());
  const double h = static_cast<double>(encoder.hidden_dim);
  double flops = 2 * d * h;  // tokenizer
  for (int64_t layer = 0; layer < encoder.num_layers; ++layer) {
    if (layer % 2 == 0) {
      flops += 2 * d * h * h + 4 * d * h + 2 * (arcs + d) * h;  // GAT
    } else {
      flops += 2 * (arcs + d) * h + 4 * d * h * h;  // GIN
    }
  }
  return flops + 2 * d * h * h + 2 * d * h;  // decoder
}

void Set(Report& report, const char* name, const Samples& ms) {
  report.Set(name, ms.Median(), "ms", ms.count());
}

}  // namespace

void RunLayerProbes(const RunOptions& options, Fixture& fixture,
                    Ledger& ledger, Report& report) {
  const ValidationService& service = *fixture.service;
  const DquagPipeline& pipeline = service.pipeline();
  const TablePreprocessor& preprocessor = pipeline.preprocessor();
  auto doc = ParseCsv(ReadFile(fixture.batch_csv));
  DQUAG_CHECK(doc.ok());
  auto table = Table::FromCsv(fixture.schema, *doc);
  DQUAG_CHECK(table.ok());

  // Engine: one thread, one private workspace.
  const Tensor block = preprocessor.Transform(
      table->SliceRows(0, std::min(kEngineRows, table->num_rows())));
  InferenceContext ctx;
  const Samples reconstruct = TimeMs(15, [&] {
    ctx.Rewind();
    pipeline.model().InferValidation(block, ctx);
  });
  const Samples repair_infer = TimeMs(15, [&] {
    ctx.Rewind();
    pipeline.model().InferRepair(block, ctx);
  });
  Set(report, "engine.reconstruct_ms", reconstruct);
  Set(report, "engine.repair_infer_ms", repair_infer);
  const double flops =
      ForwardFlopsPerRow(pipeline, fixture.pipeline_options.config.encoder) *
      static_cast<double>(block.dim(0));
  report.Set("engine.gflops", flops / (reconstruct.Median() / 1e3) / 1e9,
             "GFLOP/s", reconstruct.count());

  // Serial Validator vs the service's pooled fan-out on the same matrix;
  // the verdicts must agree.
  const Tensor matrix = preprocessor.Transform(
      table->SliceRows(0, std::min(kParallelRows, table->num_rows())));
  BatchVerdict serial_verdict, pooled_verdict;
  const Samples serial = TimeMs(3, [&] {
    serial_verdict = pipeline.validator().ValidateMatrix(matrix);
  });
  const Samples pooled =
      TimeMs(3, [&] { pooled_verdict = service.ValidateMatrix(matrix); });
  ledger.Attempt();
  if (serial_verdict.flagged_rows != pooled_verdict.flagged_rows) {
    ledger.Fail("serial and pooled validation flag different rows");
  }
  report.Set("service.parallel_speedup", serial.Median() / pooled.Median(),
             "x", pooled.count());

  const Tensor full = preprocessor.Transform(*table);
  Set(report, "data.inverse_ms",
      TimeMs(3, [&] { preprocessor.InverseTransform(full); }));

  const std::string& body = fixture.bodies[0];
  const Samples parse = TimeMs(200, [&] {
    auto parsed = ParseCsv(body);
    DQUAG_CHECK(parsed.ok());
    DQUAG_CHECK(Table::FromCsv(fixture.schema, *parsed).ok());
  });
  report.Set("data.request_parse_us", parse.Median() * 1e3, "us",
             parse.count());

  Set(report, "train.mine_ms", TimeMs(5, [&] {
        MineRelationships(TableToMinerColumns(fixture.clean),
                          fixture.pipeline_options.miner);
      }));

  // Checkpoint I/O (Save is fsync'd through the atomic writer).
  const std::string probe = options.workdir + "/probe.ckpt";
  Set(report, "ckpt.save_ms",
      TimeMs(5, [&] { DQUAG_CHECK(pipeline.Save(probe).ok()); }));
  Set(report, "ckpt.load_ms",
      TimeMs(5, [&] { DQUAG_CHECK(DquagPipeline::Load(probe).ok()); }));

  // A retrain's fine-tune: warm start on a buffer-sized clean table.
  const Table buffer = fixture.clean.SliceRows(
      0, std::min(kRetrainBufferRows, fixture.clean.num_rows()));
  Samples finetune;
  for (int i = 0; i < 3; ++i) {
    auto loaded = DquagPipeline::Load(fixture.checkpoint);
    DQUAG_CHECK(loaded.ok());
    FineTuneOptions tune;
    tune.epochs = kFinetuneEpochs;
    Stopwatch timer;
    ledger.Attempt();
    if (!loaded->FineTune(buffer, tune).ok()) ledger.Fail("fine-tune");
    finetune.Add(timer.ElapsedMillis());
  }
  Set(report, "train.finetune_ms", finetune);

  // Hot swap of a resident tenant: load the new checkpoint, swap pointers.
  ModelRegistry registry;
  DQUAG_CHECK(registry.Deploy("probe", probe).ok());
  DQUAG_CHECK(registry.Acquire("probe").ok());
  Set(report, "registry.deploy_ms", TimeMs(5, [&] {
        DQUAG_CHECK(registry.Deploy("probe", probe).ok());
      }));
  std::remove(probe.c_str());
}

}  // namespace perfbench
