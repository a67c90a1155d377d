// Concurrent serving throughput: closed-loop client streams submitting the
// figure-8 mixed pool through the QueryService (bounded admission, fair-
// share budgets, deadline-bounded GPU placement with CPU degradation).
// Sweeps the stream count past the service's concurrency limit; the
// oversubscribed points are where admission waits, shedding and
// degradation appear. Both phases run on harness::RunServedAsync: a
// stream is a tenant holding one in-flight slot.
//
// Emits BENCH_serve.json with throughput vs. stream count, then an
// open-arrival async phase: SubmitAsync keeps BLUSIM_SERVE_INFLIGHT
// (default 1000) queries outstanding from ONE client thread across
// BLUSIM_SERVE_TENANTS (default 100) weighted tenants over the same
// 3 device slots, and the per-tenant achieved admission share is gated
// against the configured weights (15% when enough admissions landed).
//
// Env knobs: BLUSIM_SERVE_REPS (default 1), BLUSIM_SERVE_MAX_CONCURRENT
// (default 3), BLUSIM_SERVE_QUEUE (default 16), BLUSIM_SERVE_TENANTS,
// BLUSIM_SERVE_INFLIGHT, BLUSIM_SERVE_TARGET (completions before the
// fairness snapshot, default 4800), BLUSIM_SERVE_DEADLINE_TENANTS
// (default 4), BLUSIM_SERVE_DEADLINE_US (default 250000), plus
// bench_common's BLUSIM_SCALE_ROWS.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/report.h"
#include "harness/serve_driver.h"
#include "serve/query_service.h"

using namespace blusim;

namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

std::vector<workload::WorkloadQuery> MakePool(const workload::Database& db) {
  auto bdi = workload::MakeBdiQueries(db);
  auto rolap_all = workload::MakeRolapQueries(db);
  auto heavy = workload::MakeHandwrittenHeavyQueries(db);
  std::vector<workload::WorkloadQuery> pool;
  const char* kModerate[6] = {"ROLAP-Q15", "ROLAP-Q21", "ROLAP-Q27",
                              "ROLAP-Q29", "ROLAP-Q31", "ROLAP-Q33"};
  for (const auto& q : rolap_all) {
    for (const char* m : kModerate) {
      if (q.spec.name == m) pool.push_back(q);
    }
  }
  pool.push_back(bdi[0]);  // BDI-S1 (non-GPU)
  pool.insert(pool.end(), heavy.begin(), heavy.end());
  return pool;
}

struct SweepPoint {
  int streams = 0;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t degraded = 0;
  int64_t wall_us = 0;
  double queries_per_sec = 0;
  double mean_sim_elapsed_ms = 0;
  // Tail latency (ms): wall-clock submit-to-return and admission wait.
  double e2e_p50_ms = 0, e2e_p95_ms = 0, e2e_p99_ms = 0;
  double wait_p50_ms = 0, wait_p95_ms = 0, wait_p99_ms = 0;
};

// Nearest-rank percentile over an unsorted sample (sorts a copy).
double PercentileMs(std::vector<int64_t> us, double q) {
  if (us.empty()) return 0;
  std::sort(us.begin(), us.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(us.size()) + 0.999999);
  if (rank < 1) rank = 1;
  if (rank > us.size()) rank = us.size();
  return static_cast<double>(us[rank - 1]) / 1000.0;
}

// Wall-clock submit-to-resolve and admission-wait samples of a run.
void LatencySamples(const harness::AsyncRunResult& run,
                    std::vector<int64_t>* e2e_us,
                    std::vector<int64_t>* wait_us) {
  e2e_us->reserve(run.results.size());
  wait_us->reserve(run.results.size());
  for (const auto& r : run.results) {
    e2e_us->push_back(r.wall_e2e_us);
    wait_us->push_back(static_cast<int64_t>(r.admission_wait_us));
  }
}

}  // namespace

int main() {
  bench::BenchSetup setup = bench::MakeSetup();
  harness::PrintExperimentHeader(
      "Serving", "Concurrent streams through admission control");

  const int reps = static_cast<int>(EnvU64("BLUSIM_SERVE_REPS", 1));
  const int max_concurrent =
      static_cast<int>(EnvU64("BLUSIM_SERVE_MAX_CONCURRENT", 3));
  const size_t queue_depth =
      static_cast<size_t>(EnvU64("BLUSIM_SERVE_QUEUE", 16));

  const auto& db = bench::GetDatabase(setup);
  const auto pool = MakePool(db);

  const int kStreams[] = {1, 2, 4, 7};
  std::vector<SweepPoint> points;
  uint64_t device_budget = 0;
  SimTime gpu_deadline = 0;
  for (int streams : kStreams) {
    // Fresh engine per point so metrics and device state do not leak
    // across sweep settings.
    auto engine = bench::MakeBenchEngine(setup, true);
    serve::ServiceOptions sopts;
    sopts.max_concurrent = max_concurrent;
    sopts.max_queue_depth = queue_depth;
    serve::QueryService service(engine.get(), sopts);
    device_budget = service.device_budget_bytes();
    gpu_deadline = service.gpu_deadline();

    harness::AsyncRunOptions ropts;
    ropts.tenants = streams;
    ropts.reps = reps;
    auto run = harness::RunServedAsync(&service, pool, ropts);
    if (!run.ok()) {
      std::fprintf(stderr, "serve run (%d streams) failed: %s\n", streams,
                   run.status().ToString().c_str());
      return 1;
    }

    SweepPoint p;
    p.streams = streams;
    p.submitted = run->submitted;
    p.completed = run->results.size();
    p.shed = run->shed;
    p.degraded = run->degraded;
    p.wall_us = run->wall_us;
    p.queries_per_sec =
        run->wall_us > 0
            ? static_cast<double>(p.completed) * 1e6 /
                  static_cast<double>(run->wall_us)
            : 0;
    const SimTime sim_total = harness::TotalElapsed(run->results);
    std::vector<int64_t> e2e_us, wait_us;
    LatencySamples(*run, &e2e_us, &wait_us);
    p.mean_sim_elapsed_ms =
        p.completed > 0
            ? static_cast<double>(sim_total) / 1000.0 /
                  static_cast<double>(p.completed)
            : 0;
    p.e2e_p50_ms = PercentileMs(e2e_us, 0.50);
    p.e2e_p95_ms = PercentileMs(e2e_us, 0.95);
    p.e2e_p99_ms = PercentileMs(e2e_us, 0.99);
    p.wait_p50_ms = PercentileMs(wait_us, 0.50);
    p.wait_p95_ms = PercentileMs(wait_us, 0.95);
    p.wait_p99_ms = PercentileMs(wait_us, 0.99);
    points.push_back(p);
  }

  // ---- Async multi-tenant phase: one client thread, weighted tenants ----
  harness::AsyncRunOptions aopts;
  aopts.tenants = static_cast<int>(EnvU64("BLUSIM_SERVE_TENANTS", 100));
  aopts.in_flight = static_cast<int>(EnvU64("BLUSIM_SERVE_INFLIGHT", 1000));
  aopts.reps = 0;  // tenants stay backlogged until the target completes
  aopts.target_completions = EnvU64("BLUSIM_SERVE_TARGET", 4800);
  aopts.weights = {1.0, 2.0, 4.0};
  aopts.deadline_tenants =
      static_cast<int>(EnvU64("BLUSIM_SERVE_DEADLINE_TENANTS", 4));
  aopts.deadline_us =
      static_cast<int64_t>(EnvU64("BLUSIM_SERVE_DEADLINE_US", 250000));

  harness::AsyncRunResult arun;
  serve::ServiceStats astats;
  {
    auto engine = bench::MakeBenchEngine(setup, true);
    serve::ServiceOptions sopts;
    sopts.max_concurrent = max_concurrent;
    // The queue must hold the whole open-arrival window.
    sopts.max_queue_depth = static_cast<size_t>(aopts.in_flight);
    sopts.tenant_classes = harness::MakeAsyncTenantClasses(aopts);
    serve::QueryService service(engine.get(), sopts);
    // A failed query fails the run (sheds are policy, not failures).
    auto run = harness::RunServedAsync(&service, pool, aopts);
    if (!run.ok()) {
      std::fprintf(stderr, "FAIL: async serve run: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    arun = std::move(run).value();
    astats = service.stats();
  }

  // Fairness: achieved admission share vs configured weight share at the
  // snapshot instant, over tenants that were never shed. Gated only when
  // a tenant's expected admissions are large enough for the stride
  // quantization (+-1 per tenant) to sit inside the tolerance.
  constexpr double kFairnessTolerance = 0.15;
  constexpr double kMinExpectedAdmissions = 15.0;
  double total_weight = 0;
  for (const auto& t : arun.tenants) total_weight += t.weight;
  double max_rel_err = 0;
  int fairness_checked = 0;
  bool fairness_gated = false;
  for (const auto& t : arun.tenants) {
    if (t.deadline_class || t.shed > 0) continue;
    const double expected_share = t.weight / total_weight;
    const double expected_admissions =
        expected_share * static_cast<double>(arun.total_admitted_at_snapshot);
    const double achieved_share =
        arun.total_admitted_at_snapshot > 0
            ? static_cast<double>(t.admitted_at_snapshot) /
                  static_cast<double>(arun.total_admitted_at_snapshot)
            : 0;
    const double rel_err =
        expected_share > 0
            ? std::abs(achieved_share - expected_share) / expected_share
            : 0;
    ++fairness_checked;
    max_rel_err = std::max(max_rel_err, rel_err);
    if (expected_admissions >= kMinExpectedAdmissions) fairness_gated = true;
  }

  harness::ReportTable table({"Streams", "Completed", "Shed", "Degraded",
                              "Wall q/s", "Mean sim (ms)", "E2E p50/p95/p99",
                              "Wait p50/p95/p99"});
  for (const SweepPoint& p : points) {
    table.AddRow({std::to_string(p.streams), std::to_string(p.completed),
                  std::to_string(p.shed), std::to_string(p.degraded),
                  harness::FormatDouble(p.queries_per_sec),
                  harness::FormatDouble(p.mean_sim_elapsed_ms),
                  harness::FormatDouble(p.e2e_p50_ms) + "/" +
                      harness::FormatDouble(p.e2e_p95_ms) + "/" +
                      harness::FormatDouble(p.e2e_p99_ms),
                  harness::FormatDouble(p.wait_p50_ms) + "/" +
                      harness::FormatDouble(p.wait_p95_ms) + "/" +
                      harness::FormatDouble(p.wait_p99_ms)});
  }
  table.Print();
  std::printf(
      "\nEvery admitted query completes: GPU placements that miss their\n"
      "deadline (%lld us) or budget (%llu bytes) degrade to the CPU path.\n",
      static_cast<long long>(gpu_deadline),
      static_cast<unsigned long long>(device_budget));

  std::vector<int64_t> async_e2e_us, async_wait_us;
  LatencySamples(arun, &async_e2e_us, &async_wait_us);
  const uint64_t async_completed = arun.results.size();
  const double async_qps =
      arun.wall_us > 0 ? static_cast<double>(async_completed) * 1e6 /
                             static_cast<double>(arun.wall_us)
                       : 0;
  const double wakeups_per_submission =
      arun.submitted > 0 ? static_cast<double>(arun.wakeups) /
                               static_cast<double>(arun.submitted)
                         : 0;
  std::printf(
      "\nAsync open-arrival: %d tenants, %d in flight from one client "
      "thread,\n%d slots: %llu completed (%llu shed, %llu degraded),\n"
      "peak in-flight %d, %.2f wakeups/submission, %.1f q/s.\n"
      "Fairness (weights %s): max |achieved-expected|/expected = %.1f%% "
      "over %d tenants%s.\n",
      aopts.tenants, aopts.in_flight, max_concurrent,
      static_cast<unsigned long long>(async_completed),
      static_cast<unsigned long long>(arun.shed),
      static_cast<unsigned long long>(arun.degraded), arun.peak_inflight,
      wakeups_per_submission, async_qps, "1/2/4", max_rel_err * 100.0,
      fairness_checked, fairness_gated ? "" : " (ungated: small sample)");

  FILE* f = std::fopen("BENCH_serve.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serve.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"serve\",\n"
               "  \"max_concurrent\": %d,\n  \"queue_depth\": %zu,\n"
               "  \"reps\": %d,\n"
               "  \"device_budget_bytes\": %llu,\n"
               "  \"gpu_deadline_us\": %lld,\n  \"runs\": [\n",
               max_concurrent, queue_depth, reps,
               static_cast<unsigned long long>(device_budget),
               static_cast<long long>(gpu_deadline));
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(
        f,
        "    {\"streams\": %d, \"submitted\": %llu, \"completed\": %llu,\n"
        "     \"shed\": %llu, \"degraded\": %llu, \"wall_us\": %lld,\n"
        "     \"queries_per_sec\": %.2f, \"mean_sim_elapsed_ms\": %.2f,\n"
        "     \"e2e_p50_ms\": %.2f, \"e2e_p95_ms\": %.2f, "
        "\"e2e_p99_ms\": %.2f,\n"
        "     \"admission_wait_p50_ms\": %.2f, "
        "\"admission_wait_p95_ms\": %.2f, "
        "\"admission_wait_p99_ms\": %.2f}%s\n",
        p.streams, static_cast<unsigned long long>(p.submitted),
        static_cast<unsigned long long>(p.completed),
        static_cast<unsigned long long>(p.shed),
        static_cast<unsigned long long>(p.degraded),
        static_cast<long long>(p.wall_us), p.queries_per_sec,
        p.mean_sim_elapsed_ms, p.e2e_p50_ms, p.e2e_p95_ms, p.e2e_p99_ms,
        p.wait_p50_ms, p.wait_p95_ms, p.wait_p99_ms,
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  std::fprintf(
      f,
      "  \"async\": {\n"
      "    \"tenants\": %d, \"in_flight\": %d, \"device_slots\": %d,\n"
      "    \"target_completions\": %llu,\n"
      "    \"deadline_tenants\": %d, \"deadline_us\": %lld,\n"
      "    \"submitted\": %llu, \"completed\": %llu, \"shed\": %llu,\n"
      "    \"deadline_shed\": %llu, \"degraded\": %llu,\n"
      "    \"wall_us\": %lld, \"wall_to_target_us\": %lld,\n"
      "    \"queries_per_sec\": %.2f,\n"
      "    \"peak_inflight\": %d, \"wakeups\": %llu,\n"
      "    \"wakeups_per_submission\": %.3f,\n"
      "    \"e2e_p50_ms\": %.2f, \"e2e_p95_ms\": %.2f, "
      "\"e2e_p99_ms\": %.2f,\n"
      "    \"admission_wait_p50_ms\": %.2f, "
      "\"admission_wait_p95_ms\": %.2f, "
      "\"admission_wait_p99_ms\": %.2f,\n"
      "    \"fairness\": {\"gated\": %s, \"tolerance\": %.2f,\n"
      "      \"max_rel_err\": %.4f, \"tenants_checked\": %d,\n"
      "      \"total_admitted_at_snapshot\": %llu},\n"
      "    \"per_tenant\": [\n",
      aopts.tenants, aopts.in_flight, max_concurrent,
      static_cast<unsigned long long>(aopts.target_completions),
      aopts.deadline_tenants, static_cast<long long>(aopts.deadline_us),
      static_cast<unsigned long long>(arun.submitted),
      static_cast<unsigned long long>(async_completed),
      static_cast<unsigned long long>(arun.shed),
      static_cast<unsigned long long>(astats.deadline_shed),
      static_cast<unsigned long long>(arun.degraded),
      static_cast<long long>(arun.wall_us),
      static_cast<long long>(arun.wall_to_target_us), async_qps,
      arun.peak_inflight, static_cast<unsigned long long>(arun.wakeups),
      wakeups_per_submission, PercentileMs(async_e2e_us, 0.50),
      PercentileMs(async_e2e_us, 0.95), PercentileMs(async_e2e_us, 0.99),
      PercentileMs(async_wait_us, 0.50), PercentileMs(async_wait_us, 0.95),
      PercentileMs(async_wait_us, 0.99), fairness_gated ? "true" : "false",
      kFairnessTolerance, max_rel_err, fairness_checked,
      static_cast<unsigned long long>(arun.total_admitted_at_snapshot));
  for (size_t i = 0; i < arun.tenants.size(); ++i) {
    const harness::AsyncTenantOutcome& t = arun.tenants[i];
    const double expected_share =
        total_weight > 0 ? t.weight / total_weight : 0;
    const double achieved_share =
        arun.total_admitted_at_snapshot > 0
            ? static_cast<double>(t.admitted_at_snapshot) /
                  static_cast<double>(arun.total_admitted_at_snapshot)
            : 0;
    std::fprintf(
        f,
        "      {\"tenant\": \"%s\", \"weight\": %.1f, "
        "\"deadline_class\": %s,\n"
        "       \"admitted_at_snapshot\": %llu, \"achieved_share\": %.5f, "
        "\"expected_share\": %.5f,\n"
        "       \"admitted\": %llu, \"completed\": %llu, \"shed\": %llu, "
        "\"busy_us\": %llu,\n"
        "       \"device_budget_bytes\": %llu}%s\n",
        t.tenant.c_str(), t.weight, t.deadline_class ? "true" : "false",
        static_cast<unsigned long long>(t.admitted_at_snapshot),
        achieved_share, expected_share,
        static_cast<unsigned long long>(t.admitted),
        static_cast<unsigned long long>(t.completed),
        static_cast<unsigned long long>(t.shed),
        static_cast<unsigned long long>(t.busy_us),
        static_cast<unsigned long long>(t.device_budget_bytes),
        i + 1 < arun.tenants.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_serve.json\n");

  // Acceptance gate (a failed query already failed the run above): when
  // the sample is large enough to gate, achieved tenant shares must track
  // weights within the tolerance.
  if (fairness_gated && max_rel_err > kFairnessTolerance) {
    std::fprintf(stderr,
                 "FAIL: tenant share deviates %.1f%% from weights "
                 "(tolerance %.0f%%)\n",
                 max_rel_err * 100.0, kFairnessTolerance * 100.0);
    return 1;
  }
  return 0;
}
