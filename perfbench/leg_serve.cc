// Socket legs: closed-loop callers against the in-process daemons.
//
// Each caller owns one connection and sends its next request as soon as
// the previous verdict arrives (no think time): ETL jobs that block on the
// verdict before loading a batch. Latency is the client's clock from send
// to verdict, kept as raw samples.

#include <algorithm>
#include <array>
#include <chrono>
#include <thread>

#include "legs.h"
#include "serve/client.h"
#include "trace.h"
#include "util/stopwatch.h"

namespace perfbench {

using namespace dquag;

namespace {

// An episode whose retrained model has not served after this long fails.
constexpr double kEpisodeTimeoutSeconds = 20.0;
// Longest wait for a fresh tenant's monitor to settle on clean traffic.
constexpr double kSettleTimeoutSeconds = 5.0;

// One validate round trip under a root span `op` per request when the
// tracer is armed. Returns the verdict; `ms` gets the client-observed
// latency.
StatusOr<WireVerdict> Call(ServeClient& client, const char* op,
                           const std::string& tenant, const std::string& body,
                           double* ms) {
  static std::atomic<uint64_t> next_request{1};
  const int64_t start = NowNs();
  auto verdict = [&] {
    ScopedSpan span(op, next_request.fetch_add(1));
    return client.Validate(tenant, body);
  }();
  *ms = static_cast<double>(NowNs() - start) / 1e6;
  return verdict;
}

// Runs `callers` threads, each on its own connection, calling
// `request(caller, k, client)` for k = 0, 1, ... until `stop`; the call
// returns the latency of a successful request, or a negative value.
// Adds the samples, rows and client retry counts to `results`.
template <typename Fn>
void RunCallers(int callers, int port, std::atomic<bool>& stop,
                const std::atomic<bool>& traced, RequestResults& results,
                Ledger& ledger, Fn request) {
  std::vector<RequestResults> per_caller(static_cast<size_t>(callers));
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      auto client = ServeClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ledger.Attempt();
        ledger.Fail("connect: " + client.status().ToString());
        return;
      }
      RequestResults& mine = per_caller[static_cast<size_t>(c)];
      for (int64_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
        const bool armed = traced.load();
        const double ms = request(c, k, *client);
        if (ms < 0) continue;
        mine.rows += kRequestRows;
        (armed ? mine.latency.traced_ms : mine.latency.untraced_ms).Add(ms);
      }
      mine.retries = client->retry_stats().retries;
      mine.reconnects = client->retry_stats().reconnects;
    });
  }
  for (std::thread& thread : threads) thread.join();
  results.wall_s += wall.ElapsedSeconds();
  for (const RequestResults& mine : per_caller) {
    results.latency.untraced_ms.Append(mine.latency.untraced_ms);
    results.latency.traced_ms.Append(mine.latency.traced_ms);
    results.rows += mine.rows;
    results.retries += mine.retries;
    results.reconnects += mine.reconnects;
  }
}

void SleepSeconds(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

void ReportRequests(const RunOptions& options, ServeDaemon& daemon,
                    const RequestResults& results, Ledger& ledger,
                    Report& report) {
  const Samples& latency = results.latency.untraced_ms;
  if (latency.empty()) {
    ledger.Attempt();
    ledger.Fail("no request completed");
    return;
  }
  report.Set("req_p50_ms", latency.Median(), "ms", latency.count());
  report.Set("req_p99_ms", latency.Quantile(0.99), "ms", latency.count());
  report.Set("serve_rows_per_s",
             static_cast<double>(results.rows) / results.wall_s, "rows/s",
             latency.count() + results.latency.traced_ms.count());
  if (!options.trace) return;

  // The daemon's own clock for the same traffic, via the stats verb.
  ledger.Attempt();
  auto client = ServeClient::Connect("127.0.0.1", daemon.port());
  auto stats = client.ok() ? client->Stats() : client.status();
  if (!stats.ok() || stats->empty()) {
    ledger.Fail("stats: " + stats.status().ToString());
    return;
  }
  double p50 = 0.0, p99 = 0.0;
  int64_t rejected = 0, failed = 0, count = 0, tenants = 0;
  for (const TenantStatsSnapshot& tenant : *stats) {
    if (tenant.latency.count == 0) continue;
    p50 += static_cast<double>(tenant.latency.p50_us) / 1e3;
    p99 += static_cast<double>(tenant.latency.p99_us) / 1e3;
    rejected += tenant.requests_rejected;
    failed += tenant.requests_failed;
    count += tenant.latency.count;
    ++tenants;
  }
  p50 /= static_cast<double>(std::max<int64_t>(1, tenants));
  p99 /= static_cast<double>(std::max<int64_t>(1, tenants));
  report.Set("serve.server_p50_ms", p50, "ms", count);
  report.Set("serve.server_p99_ms", p99, "ms", count);
  report.Set("serve.unaccounted_p50_ms", latency.Median() - p50, "ms",
             latency.count());
  report.Set("serve.rejected", static_cast<double>(rejected), "count", 1);
  report.Set("serve.failed", static_cast<double>(failed), "count", 1);
  report.Set("client.retries", static_cast<double>(results.retries), "count",
             1);
  report.Set("client.reconnects", static_cast<double>(results.reconnects),
             "count", 1);
  ReportOverhead("request", latency, results.latency.traced_ms, report);
}

void ReportRequestSplit(Report& report) {
  if (!report.Has("serve.server_p50_ms") ||
      !report.Has("data.request_parse_us")) {
    return;
  }
  const Metric& server = report.metrics().at("serve.server_p50_ms");
  const Metric& client = report.metrics().at("req_p50_ms");
  const Metric& parse = report.metrics().at("data.request_parse_us");
  // The daemon's time covers the registry lookup, parsing the body and
  // validating it.
  report.Set("self.request.data.request_parse_ms", parse.value / 1e3, "ms",
             parse.samples);
  report.Set("self.request.server.validate_ms",
             server.value - parse.value / 1e3, "ms", server.samples);
  report.Set("trace.request.accounted_share", server.value / client.value,
             "ratio", client.samples);
}

void RunServeLeg(const RunOptions& options, Fixture& fixture,
                 double budget_s, RequestResults& results, Ledger& ledger) {
  if (fixture.serve_daemon == nullptr) return;
  const int64_t bodies = static_cast<int64_t>(fixture.bodies.size());
  const int callers = kServeCallers;
  std::atomic<bool> stop{false};
  std::atomic<bool> traced{false};
  std::thread timer([&] {
    // Traced runs trace the second half of the leg.
    SleepSeconds(budget_s / 2);
    if (options.trace) {
      Tracer::Get().Arm(true);
      traced.store(true);
    }
    SleepSeconds(budget_s / 2);
    stop.store(true, std::memory_order_release);
  });
  RunCallers(callers, fixture.serve_daemon->port(), stop, traced, results,
             ledger, [&](int c, int64_t k, ServeClient& client) {
               // Callers alternate tenants and walk the body pool.
               const int64_t n = k * callers + c;
               const bool quant = n % 2 == 1;
               const size_t body = static_cast<size_t>((n / 2) % bodies);
               const char* tenant = quant ? kQuantTenant : kFloatTenant;
               ledger.Attempt();
               double ms = 0.0;
               auto verdict = Call(client, "op.request", tenant,
                                   fixture.bodies[body], &ms);
               if (!verdict.ok()) {
                 ledger.Fail("serve: " + verdict.status().ToString());
                 return -1.0;
               }
               const BatchVerdict& local = quant ? fixture.quant_verdicts[body]
                                                 : fixture.float_verdicts[body];
               if (!SameVerdict(*verdict, local, kRequestRows)) {
                 ledger.Fail(std::string("serve: remote verdict != local for ") +
                             tenant);
                 return -1.0;
               }
               return ms;
             });
  timer.join();
  Tracer::Get().Arm(false);
}

void RunDriftLeg(const RunOptions& options, Fixture& fixture,
                 double budget_s, DriftResults& results, Ledger& ledger) {
  ServeDaemon& daemon = *fixture.drift_daemon;
  const int64_t bodies = kBodies;
  const int first = results.episodes + 1;
  const int last = options.profile.max_episodes;
  if (first > last) return;

  // Each episode sends its bodies in a fixed order: first enough clean
  // requests (phase 0) to fill its fresh tenant's drift window, then
  // drifted ones (phase 1) until the retrained model serves. A chained
  // episode then doubles the shift (phase 2) until a second retrain, of
  // the retrained model, serves.
  struct Phase {
    double base_threshold = 0.0;  // serving when the phase starts
    std::atomic<int64_t> sent{0};
    std::atomic<int64_t> done{0};
    std::atomic<int64_t> first_send_ns{0};
    std::atomic<int64_t> swap_seen_ns{0};  // first new-threshold response
    std::atomic<int64_t> requests{0};      // requests sent before it
  };
  std::vector<std::array<Phase, 3>> episodes(static_cast<size_t>(last) + 1);
  // Stage 3e + p: episode e's tenant gets phase p's bodies.
  std::atomic<int> stage{3 * first};
  std::atomic<bool> stop{false};
  std::atomic<bool> traced{false};

  // Episode e's retrain controller, read in-process (empty until the
  // tenant's first observation creates it).
  auto controller = [&](int e) {
    auto snapshot = daemon.RetrainSnapshot(DriftTenant(e));
    return snapshot.ok() ? *snapshot : RetrainController::Snapshot{};
  };

  // Waits (up to kSettleTimeoutSeconds) until episode e's latest
  // observation did not drift and no retrain is in flight; returns the
  // controller's state then. With `served`, it also waits until the
  // accepted-clean buffer is full and the serving model's monitor has a
  // full window of the current traffic, so every retrain timed as
  // retrain_s starts from the state of a tenant that has served a while:
  // - A retrain fine-tunes on the whole buffer, so its cost grew with the
  //   clean requests that happened to run before the drift (~35 ms at 360
  //   rows, ~55 ms at 640, with a 640-row cap).
  // - A swap starts the new model with an empty monitor. Drifted rows
  //   would first fill its warm-up, so a retrain timed after a retrain on
  //   clean traffic took about twice as long as one on a fresh tenant.
  // The chained retrain starts without `served`, right after the first
  // swap: with it, one chained phase in ~50 runs saw no retrain within
  // kEpisodeTimeoutSeconds.
  auto settle = [&](int e, bool served) {
    Stopwatch wait;
    for (;;) {
      const RetrainController::Snapshot state = controller(e);
      const bool calm = state.drift_streak == 0 &&
                        state.attempts == state.successes + state.failures;
      auto serving = daemon.registry().Acquire(DriftTenant(e));
      const bool warm = !served ||
                        (state.buffer_rows >= kRetrainBufferRows &&
                         serving.ok() &&
                         (*serving)->monitor_snapshot().rows_observed >=
                             kDriftWindowRequests * kRequestRows);
      if ((calm && warm) || wait.ElapsedSeconds() >= kSettleTimeoutSeconds) {
        return state;
      }
      SleepSeconds(0.001);
    }
  };

  // Switches episode e's traffic to phase p and returns the milliseconds
  // from its first request to the swap that raises the model generation
  // past `state` (and any retrain then in flight), or a negative value if
  // no such model served. The swap is timed in-process (polled every
  // millisecond), so the time does not jump by whole request cycles; a
  // response carrying the new model's threshold must then follow.
  auto time_retrain = [&](int e, int p,
                          const RetrainController::Snapshot& state) {
    const std::string label = "drift episode " + std::to_string(e) +
                              " phase " + std::to_string(p);
    Phase& phase = episodes[static_cast<size_t>(e)][static_cast<size_t>(p)];
    auto serving = daemon.registry().Acquire(DriftTenant(e));
    if (!serving.ok()) {
      ledger.Fail(label + ": " + serving.status().ToString());
      return -1.0;
    }
    phase.base_threshold = (*serving)->pipeline().threshold();
    const int64_t target = state.generation + state.attempts -
                           state.successes - state.failures + 1;
    stage.store(3 * e + p, std::memory_order_release);
    Stopwatch wait;
    int64_t swap_ns = 0;
    while (wait.ElapsedSeconds() < kEpisodeTimeoutSeconds) {
      if (swap_ns == 0 && controller(e).generation >= target) {
        swap_ns = NowNs();
      }
      if (swap_ns != 0 && phase.swap_seen_ns.load() != 0) break;
      SleepSeconds(0.001);
    }
    if (swap_ns == 0 || phase.swap_seen_ns.load() == 0) {
      ledger.Fail(label + ": no retrained model served");
      return -1.0;
    }
    return static_cast<double>(swap_ns - phase.first_send_ns.load()) / 1e6;
  };

  std::thread scheduler([&] {
    Stopwatch leg;
    double longest = 0.0;
    for (int e = first; e <= last; ++e) {
      const double elapsed = leg.ElapsedSeconds();
      if (e > first && elapsed + longest > budget_s) break;
      // Traced runs trace the episodes in the second half of the leg (and
      // at least the last one).
      if (options.trace && !traced.load() &&
          (elapsed > budget_s / 2 || e == last)) {
        Tracer::Get().Arm(true);
        traced.store(true);
      }
      Stopwatch episode_timer;
      std::array<Phase, 3>& episode = episodes[static_cast<size_t>(e)];
      ledger.Attempt();
      stage.store(3 * e, std::memory_order_release);
      Stopwatch wait;
      while (episode[0].done.load() < kDriftWindowRequests &&
             wait.ElapsedSeconds() < kEpisodeTimeoutSeconds) {
        SleepSeconds(0.001);
      }
      // Held-out clean traffic can itself look drifted to a fresh
      // tenant's monitor. Drift starts only once the monitor has settled;
      // retrains the clean traffic started are counted, and the drift's
      // retrain is the first one after them.
      const RetrainController::Snapshot before = settle(e, true);
      results.clean_triggered += before.attempts;
      const double ms = time_retrain(e, 1, before);
      if (ms < 0) break;
      results.retrain_ms.Add(ms);
      results.detect_requests.Add(
          static_cast<double>(episode[1].requests.load()));
      // The budget check above needs the longest unchained episode: the
      // chained one runs first in the pass.
      longest = std::max(longest, episode_timer.ElapsedSeconds());
      if (e == first) {
        ledger.Attempt();
        const double chained_ms = time_retrain(e, 2, settle(e, false));
        if (chained_ms < 0) break;
        results.chained_retrain_ms.Add(chained_ms);
      }
      results.episodes = e;
    }
    stop.store(true, std::memory_order_release);
  });

  RequestResults requests;  // the serve leg reports request latency
  RunCallers(
      kDriftCallers, daemon.port(), stop, traced, requests, ledger,
      [&](int, int64_t, ServeClient& client) {
        const int s = stage.load(std::memory_order_acquire);
        const int e = s / 3;
        const int p = s % 3;
        Phase& phase = episodes[static_cast<size_t>(e)][static_cast<size_t>(p)];
        const size_t body = static_cast<size_t>(phase.sent.fetch_add(1) % bodies);
        if (p > 0) {
          int64_t unset = 0;
          phase.first_send_ns.compare_exchange_strong(unset, NowNs());
          if (phase.swap_seen_ns.load() == 0) phase.requests.fetch_add(1);
        }
        ledger.Attempt();
        double ms = 0.0;
        auto verdict = Call(
            client, "op.drift_request", DriftTenant(e),
            fixture.drift_bodies[static_cast<size_t>(p)]
                                [static_cast<size_t>(e - 1)][body],
            &ms);
        if (!verdict.ok()) {
          ledger.Fail("drift: request failed: " + verdict.status().ToString());
          return -1.0;
        }
        if (verdict->total_rows != kRequestRows) {
          ledger.Fail("drift: verdict covers the wrong number of rows");
          return -1.0;
        }
        phase.done.fetch_add(1);
        // The first response to a drifted request that carries a new
        // threshold shows the retrained model serving.
        if (p > 0 && verdict->threshold != phase.base_threshold) {
          int64_t unset = 0;
          phase.swap_seen_ns.compare_exchange_strong(unset, NowNs());
        }
        return ms;
      });
  scheduler.join();
  Tracer::Get().Arm(false);
}

void ReportDrift(const RunOptions& options, Fixture& fixture,
                 const DriftResults& results, Ledger& ledger,
                 Report& report) {
  if (results.retrain_ms.empty()) {
    ledger.Attempt();
    ledger.Fail("drift: no episode completed");
    return;
  }
  // retrain_s rests on the first quartile of the episodes' times, not
  // their median, as train_rows_per_s does: a retrain is a burst of
  // fine-tune work on a shared host, interference only adds time, and
  // over 10 seeds the first quartile spread 0.55-0.75 times as much as
  // the median did. This damps a change that only adds contention to a
  // retrain; retrain.median_s, the median, shows those.
  report.Set("retrain_s", results.retrain_ms.Quantile(0.25) / 1e3, "s",
             results.retrain_ms.count());
  report.Set("retrain.median_s", results.retrain_ms.Median() / 1e3, "s",
             results.retrain_ms.count());

  // Every episode must have retrained, and no request may have failed or
  // been refused across the swaps.
  ledger.Attempt();
  auto client = ServeClient::Connect("127.0.0.1", fixture.drift_daemon->port());
  auto tenants = client.ok() ? client->Stats() : client.status();
  if (!tenants.ok()) {
    ledger.Fail("drift stats: " + tenants.status().ToString());
    return;
  }
  int64_t swaps = 0, retrains = 0, retrain_failures = 0, bad = 0;
  int64_t drifting_columns = 0;
  for (const TenantStatsSnapshot& tenant : *tenants) {
    swaps += tenant.swaps;
    retrains += tenant.retrains;
    retrain_failures += tenant.retrain_failures;
    bad += tenant.requests_failed + tenant.requests_rejected;
    if (tenant.tenant == DriftTenant(results.episodes)) {
      drifting_columns = tenant.drifting_columns;
    }
  }
  if (retrains <
      results.retrain_ms.count() + results.chained_retrain_ms.count()) {
    ledger.Fail("drift: fewer retrains than timed swaps");
  }
  if (bad != 0) ledger.Fail("drift: the daemon failed or refused requests");
  if (!options.trace) return;
  report.Set("registry.swaps", static_cast<double>(swaps), "count", 1);
  report.Set("retrain.count", static_cast<double>(retrains), "count", 1);
  report.Set("retrain.failures", static_cast<double>(retrain_failures),
             "count", 1);
  if (!results.chained_retrain_ms.empty()) {
    report.Set("retrain.chained_s", results.chained_retrain_ms.Median() / 1e3,
               "s", results.chained_retrain_ms.count());
  }
  report.Set("retrain.detect_requests", results.detect_requests.Median(),
             "requests", results.detect_requests.count());
  report.Set("monitor.drifting_columns", static_cast<double>(drifting_columns),
             "count", 1);
  report.Set("retrain.clean_triggered",
             static_cast<double>(results.clean_triggered), "count",
             results.episodes);
}

}  // namespace perfbench
