// Set-up (inputs, model fit, checkpoints, daemon start) and the repeated
// from-scratch fit.

#include <cstdio>

#include "data/generators.h"
#include "legs.h"
#include "serve/client.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/stopwatch.h"

namespace perfbench {

using namespace dquag;

namespace {

// The clean reference table the model is fitted on is generated from this
// fixed seed, not from --seed: every run then fits the same model, so the
// quality metrics (detect_f1, repair_residual) compare code, not training
// samples. --seed varies every table the model validates, repairs or
// serves.
constexpr uint64_t kTrainSeed = 20250317;

DquagPipelineOptions PipelineOptions(const RunOptions& options) {
  DquagPipelineOptions pipeline_options;
  // Hidden width 32 keeps a fit near a second, so set-up can run several
  // times per run; the architecture is otherwise the paper's default.
  pipeline_options.config.encoder.hidden_dim = 32;
  pipeline_options.config.epochs = options.profile.epochs;
  return pipeline_options;
}

// Sends one request per tenant so lazy checkpoint loads finish before
// timing; the verdict must equal the local one.
void Warm(const ServeDaemon& daemon, const std::string& tenant,
          const std::string& body, const BatchVerdict& local,
          Ledger& ledger) {
  ledger.Attempt();
  auto client = ServeClient::Connect("127.0.0.1", daemon.port());
  if (!client.ok()) {
    ledger.Fail("warm-up connect: " + client.status().ToString());
    return;
  }
  auto verdict = client->Validate(tenant, body);
  if (!verdict.ok()) {
    ledger.Fail("warm-up " + tenant + ": " + verdict.status().ToString());
  } else if (!SameVerdict(*verdict, local, kRequestRows)) {
    ledger.Fail("warm-up " + tenant + ": remote verdict != local");
  }
}

}  // namespace

std::string DriftTenant(int episode) {
  return "drift-" + std::to_string(episode);
}

std::unique_ptr<Fixture> SetUp(const RunOptions& options, Ledger& ledger) {
  const Profile& profile = options.profile;
  auto fixture = std::make_unique<Fixture>();
  Fixture& f = *fixture;
  const std::string dir = options.workdir + "/";

  Rng rng(kTrainSeed);
  f.clean = datasets::GenerateHotelBooking(profile.train_rows, rng);
  f.schema = f.clean.schema();
  f.pipeline_options = PipelineOptions(options);

  DquagPipeline pipeline(f.pipeline_options);
  DQUAG_CHECK(pipeline.Fit(f.clean).ok());
  f.checkpoint = dir + "model.ckpt";
  DQUAG_CHECK(pipeline.Save(f.checkpoint).ok());

  auto service = ValidationService::FromCheckpoint(f.checkpoint);
  DQUAG_CHECK(service.ok());
  f.service = std::move(*service);
  ValidationServiceOptions quant_options;
  quant_options.quantized = true;
  auto quant = ValidationService::FromCheckpoint(f.checkpoint, quant_options);
  DQUAG_CHECK(quant.ok());

  // The dirty file for the offline jobs.
  DirtyTable dirty = MakeDirtyHotel(profile.batch_rows, options.seed + 1);
  f.batch_csv = dir + "batch.csv";
  f.batch_rows = dirty.table.num_rows();
  f.corrupted = std::move(dirty.corrupted);
  DQUAG_CHECK(WriteCsvFile(dirty.table.ToCsv(), f.batch_csv).ok());
  f.repair_csv = dir + "repair.csv";
  f.repair_rows = f.batch_rows / 4;
  DQUAG_CHECK(WriteCsvFile(dirty.table.SliceRows(0, f.repair_rows).ToCsv(),
                           f.repair_csv)
                  .ok());

  // Request bodies are 64-row slices of the same dirty data, so some
  // requests flag rows and some come back clean.
  f.bodies = MakeBodies(dirty.table, kRequestRows, kBodies);
  for (const std::string& body : f.bodies) {
    f.float_verdicts.push_back(ValidateBody(*f.service, body));
    f.quant_verdicts.push_back(ValidateBody(**quant, body));
  }

  f.serve_daemon = std::make_unique<ServeDaemon>();
  DQUAG_CHECK(f.serve_daemon->Start().ok());
  ModelRegistry& registry = f.serve_daemon->registry();
  DQUAG_CHECK(registry.Deploy(kFloatTenant, f.checkpoint).ok());
  DQUAG_CHECK(
      registry.Deploy(kQuantTenant, f.checkpoint, {.quantized = true}).ok());
  Warm(*f.serve_daemon, kFloatTenant, f.bodies[0], f.float_verdicts[0],
       ledger);
  Warm(*f.serve_daemon, kQuantTenant, f.bodies[0], f.quant_verdicts[0],
       ledger);

  // Drift traffic: per episode, fresh held-out clean rows and the same
  // rows shifted. How soon a monitor calls drift depends on the clean
  // rows it saw first, so every episode draws its own.
  Rng held_out_rng(options.seed + 2);
  for (int e = 1; e <= profile.max_episodes; ++e) {
    Table held_out = datasets::GenerateHotelBooking(kRequestRows * kBodies,
                                                    held_out_rng);
    for (int phase = 0; phase < 3; ++phase) {
      f.drift_bodies[static_cast<size_t>(phase)].push_back(MakeBodies(
          phase == 0 ? held_out
                     : ShiftNumericColumns(held_out, phase * kDriftShift),
          kRequestRows, kBodies));
    }
  }
  ServeOptions drift_options;
  drift_options.auto_retrain = true;
  drift_options.retrain.min_buffer_rows = kRequestRows / 2;
  drift_options.retrain.max_buffer_rows = kRetrainBufferRows;
  drift_options.retrain.trigger_observations = 3;
  drift_options.retrain.finetune_epochs = kFinetuneEpochs;
  // Drift verdicts wait until the window is full: a part-filled window of
  // clean rows drifts by chance.
  MonitorOptions& monitor = drift_options.registry.service.monitor;
  monitor.warmup_rows = kDriftWindowRequests * kRequestRows;
  monitor.drift_window_rows = kDriftWindowRequests * kRequestRows;
  f.drift_daemon = std::make_unique<ServeDaemon>(drift_options);
  DQUAG_CHECK(f.drift_daemon->Start().ok());
  for (int e = 1; e <= profile.max_episodes; ++e) {
    // Retrains write "<checkpoint>.gen<k>" beside each episode's copy.
    const std::string path = dir + DriftTenant(e) + ".ckpt";
    DQUAG_CHECK(pipeline.Save(path).ok());
    DQUAG_CHECK(f.drift_daemon->registry().Deploy(DriftTenant(e), path).ok());
  }
  const std::string& first_body = f.drift_bodies[0][0][0];
  Warm(*f.drift_daemon, DriftTenant(1), first_body,
       ValidateBody(*f.service, first_body), ledger);
  return fixture;
}

void RunFitLeg(Fixture& fixture, double budget_s, Samples& fit_ms,
               Ledger& ledger) {
  if (budget_s <= 0.0) return;
  const double threshold = fixture.service->pipeline().threshold();
  Stopwatch leg;
  do {
    MoveToCpu(static_cast<int64_t>(fit_ms.count()));
    ledger.Attempt();
    DquagPipeline pipeline(fixture.pipeline_options);
    Stopwatch timer;
    const Status status = pipeline.Fit(fixture.clean);
    const double ms = timer.ElapsedMillis();
    if (!status.ok()) {
      ledger.Fail("fit: " + status.ToString());
    } else if (pipeline.threshold() != threshold) {
      // The same table, options and seed must give the same model.
      ledger.Fail("fit: threshold differs between identical fits");
    } else {
      fit_ms.Add(ms);
    }
  } while (leg.ElapsedSeconds() < budget_s);
}

}  // namespace perfbench
