// The continuous pipeline end to end: drift detection, drift-triggered
// incremental retraining, and the zero-drop hot swap.
//
// Scenario shape (all six synthetic generators): a model trained on the
// original distribution serves a stream that shifts to a benign covariate
// regime (numeric columns scaled). The stale model over-flags the new
// regime, the monitor's EWMA/per-column statistics detect it, the
// RetrainController fine-tunes on the accepted-clean buffer (which by then
// is dominated by unflagged new-regime rows) and swaps the new checkpoint
// in; post-swap the flag rate recovers to the clean profile. The chaos
// legs arm every retrain.* failpoint site and assert fail-closed behavior:
// a failure at any protocol step leaves the old model serving. The socket
// leg runs the same story through a live `dquag serve` daemon under
// concurrent client traffic with zero dropped requests.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/tfdv.h"
#include "core/pipeline.h"
#include "core/retrain_controller.h"
#include "core/validation_service.h"
#include "data/batch_sampler.h"
#include "data/generators.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/failpoint.h"

namespace dquag {
namespace {

using failpoint::Action;

// Benign covariate shift: every numeric column moves up by `frac` of its
// observed span — a fleet-wide sensor recalibration. The shifted data is
// NOT corrupt; it is a new clean regime the stale model over-flags.
Table ShiftNumericColumns(const Table& table, double frac) {
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
      if (!IsMissing(value)) value += frac * span;
    }
  }
  return shifted;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

DquagPipelineOptions SmallConfig(uint64_t seed) {
  DquagPipelineOptions options;
  options.config.encoder.hidden_dim = 16;
  options.config.epochs = 4;
  options.config.seed = seed;
  return options;
}

double FlagFraction(const ValidationService& service, const Table& batch) {
  return service.Validate(batch).flagged_fraction;
}

// ---- RetrainCheckpointPath -------------------------------------------------

TEST(RetrainCheckpointPathTest, AppendsAndReplacesGeneration) {
  EXPECT_EQ(RetrainCheckpointPath("m.ckpt", 1), "m.ckpt.gen1");
  EXPECT_EQ(RetrainCheckpointPath("m.ckpt.gen1", 2), "m.ckpt.gen2");
  EXPECT_EQ(RetrainCheckpointPath("m.ckpt.gen12", 13), "m.ckpt.gen13");
  // A ".gen" that is not a generation suffix stays part of the name.
  EXPECT_EQ(RetrainCheckpointPath("m.gen/x.ckpt", 1), "m.gen/x.ckpt.gen1");
  EXPECT_EQ(RetrainCheckpointPath("m.genx", 1), "m.genx.gen1");
}

// ---- Drift -> retrain -> recover, all six generators -----------------------

struct DriftScenario {
  const char* name;
  Table (*generate)(int64_t rows, Rng& rng);
  double shift;
};

const DriftScenario kScenarios[] = {
    {"hotel", +[](int64_t rows, Rng& rng) {
       return datasets::GenerateHotelBooking(rows, rng);
     }, 0.3},
    {"credit", +[](int64_t rows, Rng& rng) {
       return datasets::GenerateCreditCard(rows, rng);
     }, 0.3},
    {"taxi", +[](int64_t rows, Rng& rng) {
       return datasets::GenerateNyTaxi(rows, rng, /*dims=*/8);
     }, 0.25},
    {"airbnb", +[](int64_t rows, Rng& rng) {
       return datasets::GenerateAirbnbClean(rows, rng);
     }, 0.3},
    {"bicycle", +[](int64_t rows, Rng& rng) {
       return datasets::GenerateBicycleClean(rows, rng);
     }, 0.3},
    {"googleplay", +[](int64_t rows, Rng& rng) {
       return datasets::GenerateGooglePlayClean(rows, rng);
     }, 0.3},
};

class DriftRecoveryTest : public ::testing::TestWithParam<DriftScenario> {};

TEST_P(DriftRecoveryTest, StaleModelDetectsRetrainsAndRecovers) {
  const DriftScenario& scenario = GetParam();
  Rng rng(1234);
  Table clean = scenario.generate(600, rng);

  DquagPipeline pipeline(SmallConfig(7));
  ASSERT_TRUE(pipeline.Fit(clean).ok());
  const std::string checkpoint =
      std::string("/tmp/dquag_drift_") + scenario.name + ".ckpt";
  ASSERT_TRUE(pipeline.Save(checkpoint).ok());

  // Test-scale monitor: warm up after 400 rows, drift over a 1200-row
  // window.
  ValidationServiceOptions service_options;
  service_options.monitor.warmup_rows = 400;
  service_options.monitor.drift_window_rows = 1200;
  auto service_or =
      ValidationService::FromCheckpoint(checkpoint, service_options);
  ASSERT_TRUE(service_or.ok());
  std::shared_ptr<ValidationService> service = std::move(*service_or);

  RetrainOptions retrain;
  retrain.min_buffer_rows = 128;
  retrain.max_buffer_rows = 2048;
  retrain.trigger_observations = 3;
  retrain.finetune_epochs = 3;
  int swaps = 0;
  RetrainController controller(
      checkpoint, retrain,
      [&](const std::string& new_path) -> Status {
        auto swapped =
            ValidationService::FromCheckpoint(new_path, service_options);
        if (!swapped.ok()) return swapped.status();
        service = std::move(*swapped);
        ++swaps;
        return Status::Ok();
      });

  auto feed = [&](const Table& source, Rng& batch_rng) {
    Table batch = SampleBatch(source, 200, batch_rng);
    BatchVerdict verdict = service->Validate(batch);
    MonitorObservation observation = service->ObserveVerdict(verdict);
    controller.ObserveBatch(batch, verdict, observation);
    return verdict.flagged_fraction;
  };

  // Phase 1: the original regime stays quiet. Its average flag rate is the
  // steady-state profile recovery is measured against.
  Rng stream_rng(99);
  double clean_fraction = 0.0;
  for (int i = 0; i < 3; ++i) clean_fraction += feed(clean, stream_rng);
  clean_fraction /= 3.0;
  EXPECT_FALSE(controller.ShouldRetrain())
      << scenario.name << ": clean traffic must not trigger a retrain";

  // Phase 2: the regime shifts; the stale model degrades and the loop
  // must detect it within a bounded number of batches.
  Table shifted = ShiftNumericColumns(clean, scenario.shift);
  double degraded_fraction = 0.0;
  int batches_to_detect = 0;
  while (!controller.ShouldRetrain() && batches_to_detect < 30) {
    degraded_fraction = feed(shifted, stream_rng);
    ++batches_to_detect;
  }
  ASSERT_TRUE(controller.ShouldRetrain())
      << scenario.name << ": drift not detected within 30 batches";
  const double cutoff = service->pipeline().validator().batch_cutoff();
  EXPECT_GT(degraded_fraction, cutoff)
      << scenario.name << ": stale model should over-flag the new regime";

  // Phase 3: retrain + swap.
  auto new_path = controller.RetrainAndSwap();
  ASSERT_TRUE(new_path.ok()) << scenario.name << ": "
                             << new_path.status().ToString();
  EXPECT_EQ(*new_path, RetrainCheckpointPath(checkpoint, 1));
  EXPECT_EQ(swaps, 1);
  EXPECT_EQ(controller.snapshot().successes, 1);

  // Phase 4: the swapped model accepts the new regime again — the flag
  // rate drops back to the clean-era steady state (within a tolerance for
  // the held-out-percentile noise floor) or at least halves.
  Rng eval_rng(7);
  const double recovered_fraction =
      FlagFraction(*service, SampleBatch(shifted, 400, eval_rng));
  EXPECT_LT(recovered_fraction,
            std::max(0.5 * degraded_fraction, clean_fraction + 0.08))
      << scenario.name << ": post-swap flag rate did not recover (clean "
      << clean_fraction << ", degraded " << degraded_fraction << " -> "
      << recovered_fraction << ")";

  std::remove(checkpoint.c_str());
  std::remove(new_path->c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, DriftRecoveryTest, ::testing::ValuesIn(kScenarios),
    [](const ::testing::TestParamInfo<DriftScenario>& info) {
      return std::string(info.param.name);
    });

// ---- TFDV baseline on the same scenario ------------------------------------

// Auto-inferred TFDV has NO numeric drift comparator (the user must
// configure one — the paper's Table 1 failure mode), so the covariate
// shift sails straight through it; only the expert-tuned profile, with
// its hand-set L-infinity comparator and range bounds, sees it. This is
// exactly the gap the always-on monitor closes: detection needs no
// per-column hand tuning, and the loop continues into retrain + swap.
TEST(DriftBaselineTest, AutoTfdvMissesTheShiftExpertSeesIt) {
  Rng rng(42);
  for (const DriftScenario& scenario : kScenarios) {
    Table clean = scenario.generate(600, rng);
    Table shifted = ShiftNumericColumns(clean, scenario.shift);

    TfdvValidator auto_tfdv(BaselineMode::kAuto);
    auto_tfdv.Fit(clean);
    EXPECT_FALSE(auto_tfdv.IsDirty(shifted))
        << scenario.name << ": auto TFDV has no drift comparator, yet "
        << "flagged: " << (auto_tfdv.last_anomalies().empty()
                               ? ""
                               : auto_tfdv.last_anomalies()[0]);

    TfdvValidator expert_tfdv(BaselineMode::kExpert);
    expert_tfdv.Fit(clean);
    EXPECT_FALSE(expert_tfdv.IsDirty(clean)) << scenario.name;
    EXPECT_TRUE(expert_tfdv.IsDirty(shifted)) << scenario.name;
  }
}

// ---- Warm-start determinism ------------------------------------------------

// The controller's checkpoint must be byte-identical to a manual
// Load + FineTune + Save over the same buffer snapshot: the retrain
// protocol adds no hidden state.
TEST(RetrainControllerTest, RetrainIsBitIdenticalToManualFineTune) {
  Rng rng(5);
  Table clean = datasets::GenerateCreditCard(600, rng);
  DquagPipeline pipeline(SmallConfig(11));
  ASSERT_TRUE(pipeline.Fit(clean).ok());
  const std::string checkpoint = "/tmp/dquag_drift_bitident.ckpt";
  ASSERT_TRUE(pipeline.Save(checkpoint).ok());

  ValidationServiceOptions service_options;
  service_options.monitor.warmup_rows = 200;
  auto service = ValidationService::FromCheckpoint(checkpoint,
                                                   service_options);
  ASSERT_TRUE(service.ok());

  RetrainOptions retrain;
  retrain.min_buffer_rows = 64;
  retrain.trigger_observations = 2;
  retrain.finetune_epochs = 2;
  RetrainController controller(checkpoint, retrain,
                               [](const std::string&) {
                                 return Status::Ok();
                               });

  Table shifted = ShiftNumericColumns(clean, 0.3);
  Rng stream_rng(3);
  int fed = 0;
  while (!controller.ShouldRetrain() && fed < 30) {
    Table batch = SampleBatch(shifted, 200, stream_rng);
    BatchVerdict verdict = (*service)->Validate(batch);
    controller.ObserveBatch(batch, verdict,
                            (*service)->ObserveVerdict(verdict));
    ++fed;
  }
  ASSERT_TRUE(controller.ShouldRetrain());

  // Snapshot the controller's inputs BEFORE it consumes them.
  Table buffer = controller.BufferSnapshot();
  const double stream_flag_rate = controller.snapshot().stream_flag_rate;
  auto controller_path = controller.RetrainAndSwap();
  ASSERT_TRUE(controller_path.ok()) << controller_path.status().ToString();

  // Manual replica of the protocol on the same inputs.
  auto manual = DquagPipeline::Load(checkpoint);
  ASSERT_TRUE(manual.ok());
  FineTuneOptions finetune;
  finetune.epochs = retrain.finetune_epochs;
  finetune.stream_flag_rate = stream_flag_rate;
  ASSERT_TRUE(manual->FineTune(buffer, finetune).ok());
  const std::string manual_path = "/tmp/dquag_drift_bitident_manual.ckpt";
  ASSERT_TRUE(manual->Save(manual_path).ok());

  const std::string controller_bytes = ReadFileBytes(*controller_path);
  const std::string manual_bytes = ReadFileBytes(manual_path);
  ASSERT_FALSE(controller_bytes.empty());
  EXPECT_EQ(controller_bytes, manual_bytes);

  std::remove(checkpoint.c_str());
  std::remove(controller_path->c_str());
  std::remove(manual_path.c_str());
}

// ---- Chaos: every retrain.* failpoint site fails closed --------------------

class RetrainChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisableAll(); }
  void TearDown() override { failpoint::DisableAll(); }
};

TEST_F(RetrainChaosTest, EveryProtocolStepFailsClosed) {
  Rng rng(8);
  Table clean = datasets::GenerateCreditCard(600, rng);
  DquagPipeline pipeline(SmallConfig(13));
  ASSERT_TRUE(pipeline.Fit(clean).ok());
  const std::string checkpoint = "/tmp/dquag_drift_chaos.ckpt";
  ASSERT_TRUE(pipeline.Save(checkpoint).ok());

  ValidationServiceOptions service_options;
  service_options.monitor.warmup_rows = 200;
  auto service = ValidationService::FromCheckpoint(checkpoint,
                                                   service_options);
  ASSERT_TRUE(service.ok());

  RetrainOptions retrain;
  retrain.min_buffer_rows = 64;
  retrain.trigger_observations = 2;
  retrain.finetune_epochs = 1;
  int swaps = 0;
  RetrainController controller(checkpoint, retrain,
                               [&](const std::string&) {
                                 ++swaps;
                                 return Status::Ok();
                               });

  Table shifted = ShiftNumericColumns(clean, 0.3);
  Rng stream_rng(21);
  int fed = 0;
  while (!controller.ShouldRetrain() && fed < 30) {
    Table batch = SampleBatch(shifted, 200, stream_rng);
    BatchVerdict verdict = (*service)->Validate(batch);
    controller.ObserveBatch(batch, verdict,
                            (*service)->ObserveVerdict(verdict));
    ++fed;
  }
  ASSERT_TRUE(controller.ShouldRetrain());

  // Every site before the swap callback must fail the protocol WITHOUT
  // invoking the swap; the serving model keeps validating throughout.
  const char* sites[] = {failpoint::kRetrainLoad,
                         failpoint::kRetrainFineTune,
                         failpoint::kRetrainSave, failpoint::kRetrainSwap};
  int64_t expected_failures = 0;
  for (const char* site : sites) {
    failpoint::Enable(site, Action::kError);
    auto result = controller.RetrainAndSwap();
    failpoint::Disable(site);
    EXPECT_FALSE(result.ok()) << site;
    EXPECT_EQ(swaps, 0) << site;
    ++expected_failures;
    EXPECT_EQ(controller.snapshot().failures, expected_failures) << site;
    EXPECT_EQ(controller.snapshot().successes, 0) << site;
    // Old model untouched and still serving.
    Table probe = SampleBatch(clean, 100, stream_rng);
    EXPECT_EQ((*service)->Validate(probe).instances.size(), 100u) << site;
    // Drift is still pending, so the trigger stays armed.
    EXPECT_TRUE(controller.ShouldRetrain()) << site;
  }

  // With the chaos cleared, the same pending drift retrains successfully.
  auto result = controller.RetrainAndSwap();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(swaps, 1);
  EXPECT_EQ(controller.snapshot().successes, 1);
  EXPECT_EQ(controller.snapshot().failures, expected_failures);

  std::remove(checkpoint.c_str());
  std::remove(result->c_str());
}

// ---- Headline: live daemon, concurrent traffic, zero drops -----------------

TEST(DriftServeTest, AutoRetrainUnderConcurrentTrafficDropsNothing) {
  Rng rng(17);
  Table clean = datasets::GenerateCreditCard(600, rng);
  DquagPipeline pipeline(SmallConfig(23));
  ASSERT_TRUE(pipeline.Fit(clean).ok());
  const std::string checkpoint = "/tmp/dquag_drift_serve.ckpt";
  ASSERT_TRUE(pipeline.Save(checkpoint).ok());

  ServeOptions options;
  options.auto_retrain = true;
  options.retrain.min_buffer_rows = 128;
  options.retrain.max_buffer_rows = 2048;
  options.retrain.trigger_observations = 3;
  options.retrain.finetune_epochs = 2;
  // One retrain per run: the cooldown never elapses, so no chained retrain
  // can swap in a model with an empty monitor before the stats read below.
  options.retrain.cooldown_rows = int64_t{1} << 40;
  options.registry.service.monitor.warmup_rows = 300;
  options.registry.service.monitor.drift_window_rows = 1200;
  ServeDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  ASSERT_TRUE(daemon.registry().Deploy("acme", checkpoint).ok());

  Rng sample_rng(31);
  const std::string clean_csv =
      WriteCsvString(SampleBatch(clean, 200, sample_rng).ToCsv());
  Table shifted = ShiftNumericColumns(clean, 0.3);
  const std::string shifted_csv =
      WriteCsvString(SampleBatch(shifted, 200, sample_rng).ToCsv());

  // The stale model's flag rate on the shifted regime, measured over the
  // wire before the drift starts — the recovery baseline.
  auto observer = ServeClient::Connect("127.0.0.1", daemon.port());
  ASSERT_TRUE(observer.ok());
  auto degraded = observer->Validate("acme", shifted_csv);
  ASSERT_TRUE(degraded.ok());

  // Concurrent traffic: every response must be kOk end to end — the hot
  // swap may never drop or error a request.
  std::atomic<bool> stop{false};
  std::atomic<bool> drifted{false};
  std::atomic<int64_t> requests{0};
  std::atomic<int64_t> non_ok{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      auto client = ServeClient::Connect("127.0.0.1", daemon.port());
      if (!client.ok()) {
        non_ok.fetch_add(1);
        return;
      }
      while (!stop.load(std::memory_order_acquire)) {
        const std::string& body =
            drifted.load(std::memory_order_acquire) ? shifted_csv
                                                    : clean_csv;
        auto verdict = client->Validate("acme", body);
        requests.fetch_add(1);
        if (!verdict.ok()) non_ok.fetch_add(1);
      }
    });
  }

  // Let some clean traffic flow, then shift the regime and wait for the
  // loop to detect, retrain and swap.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  drifted.store(true, std::memory_order_release);

  int64_t retrains = 0;
  for (int poll = 0; poll < 300 && retrains == 0; ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    auto stats = observer->Stats("acme");
    if (stats.ok() && !stats->empty()) retrains = (*stats)[0].retrains;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();

  EXPECT_GE(retrains, 1) << "drift never triggered a retrain";
  EXPECT_EQ(non_ok.load(), 0) << "requests dropped during retrain/swap";
  EXPECT_GT(requests.load(), 0);

  // Post-swap, the new regime validates clean again: the flag rate drops
  // below what the stale model produced on the same bytes.
  auto recovered = observer->Validate("acme", shifted_csv);
  ASSERT_TRUE(recovered.ok());
  EXPECT_LT(recovered->flagged_fraction, degraded->flagged_fraction);

  // The v3 stats extension carries the monitor/retrain fields. A swapped-in
  // model starts with an empty monitor, so the stats are read only after
  // the `recovered` request, which the swapped-in model observes.
  auto stats = observer->Stats("acme");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), 1u);
  EXPECT_GE((*stats)[0].retrains, 1);
  EXPECT_GT((*stats)[0].monitor_rows, 0);
  EXPECT_EQ((*stats)[0].retrain_failures, 0);

  auto snapshot = daemon.RetrainSnapshot("acme");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_GE(snapshot->successes, 1);

  daemon.Stop();
  std::remove(checkpoint.c_str());
  std::remove(snapshot->current_checkpoint.c_str());
}

}  // namespace
}  // namespace dquag
