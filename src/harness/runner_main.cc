// Observability demo driver: runs a mixed CPU/GPU workload with several
// concurrent closed-loop client streams against a deliberately small single
// device (so reservation waits actually happen), then exports the query
// traces and the engine metrics.
//
//   runner --trace-out t.json --metrics-out m.prom [--json-out m.json]
//          [--streams 4] [--reps 2] [--rows 300000] [--device-mem-mb 16]
//
// The streams submit through the admission-controlled QueryService, which
// turns on the serving observability layer: SLO windows, the query flight
// recorder (--flight-out, --sample-every) and the live monitor endpoint
// (--monitor-port; /metrics, /flight, /snapshot). --monitor-hold-ms keeps
// the process alive after the run so scrapers can read the final state.
//
// The trace file loads directly into Perfetto / chrome://tracing; the
// metrics file is Prometheus text exposition format.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/explain.h"
#include "harness/monitor_report.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/serve_driver.h"
#include "obs/export_chrome.h"
#include "obs/export_json.h"
#include "obs/export_prometheus.h"
#include "obs/monitor_server.h"
#include "serve/query_service.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace {

using namespace blusim;  // NOLINT

struct Args {
  std::string trace_out;
  std::string metrics_out;
  std::string json_out;
  std::string flight_out;
  int streams = 4;
  int reps = 2;
  // Defaults picked so the heavy group-by (~13 MB job) fits the device
  // alone but two concurrent streams contend: GPU kernels, transfers AND
  // reservation waits all show up in one run.
  uint64_t rows = 300000;
  uint64_t device_mem_mb = 16;
  bool explain = true;
  bool fusion = true;
  int monitor_port = -1;     // >= 0 starts the monitor (0 = ephemeral)
  int64_t monitor_hold_ms = 0;
  uint64_t sample_every = 8;
};

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [--trace-out PATH] [--metrics-out PATH] [--json-out PATH]\n"
      "          [--streams N] [--reps N] [--rows N] [--device-mem-mb N]\n"
      "          [--no-explain] [--no-fusion]\n"
      "          [--monitor-port N] [--monitor-hold-ms N]\n"
      "          [--flight-out PATH] [--sample-every N]\n"
      "\n"
      "Monitor paths: /metrics (Prometheus text), /flight (anomalous\n"
      "queries, JSON), /snapshot (metrics JSON).\n",
      prog);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string value;
    if (flag == "--trace-out") {
      if (!next(&args->trace_out)) return false;
    } else if (flag == "--metrics-out") {
      if (!next(&args->metrics_out)) return false;
    } else if (flag == "--json-out") {
      if (!next(&args->json_out)) return false;
    } else if (flag == "--flight-out") {
      if (!next(&args->flight_out)) return false;
    } else if (flag == "--streams") {
      if (!next(&value)) return false;
      args->streams = std::atoi(value.c_str());
    } else if (flag == "--reps") {
      if (!next(&value)) return false;
      args->reps = std::atoi(value.c_str());
    } else if (flag == "--rows") {
      if (!next(&value)) return false;
      args->rows = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--device-mem-mb") {
      if (!next(&value)) return false;
      args->device_mem_mb = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--no-explain") {
      args->explain = false;
    } else if (flag == "--no-fusion") {
      args->fusion = false;
    } else if (flag == "--monitor-port") {
      if (!next(&value)) return false;
      args->monitor_port = std::atoi(value.c_str());
    } else if (flag == "--monitor-hold-ms") {
      if (!next(&value)) return false;
      args->monitor_hold_ms = std::atoll(value.c_str());
    } else if (flag == "--sample-every") {
      if (!next(&value)) return false;
      args->sample_every = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

bool WriteStringToFile(const std::string& body, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = (written == body.size()) && (std::fclose(f) == 0);
  if (!ok && written != body.size()) std::fclose(f);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }

  workload::ScaleConfig scale;
  scale.store_sales_rows = args.rows;
  auto db = workload::GenerateDatabase(scale);
  if (!db.ok()) {
    std::fprintf(stderr, "data gen failed: %s\n",
                 db.status().message().c_str());
    return 1;
  }

  // One small device: a heavy group-by's reservation takes most of it, so
  // concurrent streams serialize on device memory and the scheduler's
  // wait path (section 2.1.1) gets exercised.
  core::EngineConfig config;
  config.num_devices = 1;
  config.device_workers = 2;
  config.cpu_threads = 4;
  config.sort_workers = 2;
  config.device_spec =
      config.device_spec.WithMemory(args.device_mem_mb << 20);
  config.pinned_pool_bytes = 64ULL << 20;
  config.enable_fusion = args.fusion;
  auto engine = harness::MakeEngine(*db, config);

  // Mixed workload: figure 8's GPU-heavy group-by/sort pair plus a few
  // CPU-sized dashboard queries.
  std::vector<workload::WorkloadQuery> queries =
      workload::MakeHandwrittenHeavyQueries(*db);
  auto bdi = workload::MakeBdiQueries(*db);
  auto simple = workload::FilterByClass(bdi, workload::QueryClass::kSimple);
  for (size_t i = 0; i < 3 && i < simple.size(); ++i) {
    queries.push_back(simple[i]);
  }

  // Each query may budget one whole device and the whole pinned pool, so
  // the heavy group-bys contend for reservations instead of degrading by
  // budget.
  serve::ServiceOptions sopts;
  sopts.flight.sample_every = args.sample_every;
  sopts.device_budget_bytes = config.device_spec.device_memory_bytes;
  sopts.pinned_budget_bytes = config.pinned_pool_bytes;
  serve::QueryService service(engine.get(), sopts);
  std::unique_ptr<obs::MonitorServer> monitor;
  if (args.monitor_port >= 0) {
    obs::MonitorOptions mopts;
    mopts.port = args.monitor_port;
    monitor = std::make_unique<obs::MonitorServer>(mopts);
    monitor->AttachMetrics(&engine->metrics());
    serve::QueryService* svc = &service;
    core::Engine* eng = engine.get();
    monitor->AddHandler("/metrics", [svc, eng](std::string* content_type) {
      *content_type = "text/plain; version=0.0.4";
      harness::SyncDeviceMetrics(eng);
      return obs::RenderPrometheusText(svc->CollectSamples());
    });
    monitor->AddHandler("/flight", [svc](std::string* content_type) {
      *content_type = "application/json";
      return svc->flight_recorder().RenderJson(/*anomalies_only=*/true);
    });
    monitor->AddHandler("/snapshot", [svc, eng](std::string* content_type) {
      *content_type = "application/json";
      harness::SyncDeviceMetrics(eng);
      return obs::RenderMetricsJson(svc->CollectSamples());
    });
    // Started BEFORE the run: the point of a live monitor is watching the
    // run while it happens, not a post-mortem.
    Status started = monitor->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "monitor start failed: %s\n",
                   started.message().c_str());
      return 1;
    }
    std::printf("monitor listening on http://%s:%d (paths: /metrics "
                "/flight /snapshot)\n",
                mopts.bind_address.c_str(), monitor->port());
    std::fflush(stdout);
  }

  harness::AsyncRunOptions run_options;
  run_options.tenants = args.streams;
  run_options.reps = args.reps;
  auto served = harness::RunServedAsync(&service, queries, run_options);
  if (!served.ok()) {
    std::fprintf(stderr, "serve run failed: %s\n",
                 served.status().message().c_str());
    return 1;
  }
  const std::vector<harness::QueryRunResult>& results = served->results;
  const serve::ServiceStats stats = service.stats();
  std::printf(
      "%zu served queries (%d streams x %d reps x %zu queries): "
      "%llu submitted, %llu shed, %llu degraded, %llu failed, "
      "wall %.1f ms\n",
      results.size(), run_options.tenants, run_options.reps, queries.size(),
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.degraded),
      static_cast<unsigned long long>(stats.failed),
      static_cast<double>(served->wall_us) / 1000.0);
  const obs::FlightRecorder& flight = service.flight_recorder();
  std::printf("flight recorder: %zu records (%zu pinned, ~%zu KiB, "
              "%llu evictions)\n",
              flight.size(), flight.pinned_count(),
              flight.approx_bytes() >> 10,
              static_cast<unsigned long long>(flight.evictions()));
  int gpu_runs = 0;
  for (const auto& r : results) gpu_runs += r.gpu_used ? 1 : 0;
  std::printf("GPU used in %d executions\n", gpu_runs);

  if (args.explain && !results.empty()) {
    // One EXPLAIN ANALYZE sample: the first GPU execution (else the first).
    const harness::QueryRunResult* sample = &results.front();
    for (const auto& r : results) {
      if (r.gpu_used) {
        sample = &r;
        break;
      }
    }
    for (const auto& wq : queries) {
      if (wq.spec.name != sample->name) continue;
      auto fact = engine->GetTable(wq.spec.fact_table);
      if (fact.ok()) {
        std::printf("\n%s\n",
                    core::ExplainAnalyze(wq.spec, **fact, sample->profile)
                        .c_str());
      }
      break;
    }
  }

  harness::PrintDeviceMonitorReport(engine.get());

  if (!args.trace_out.empty()) {
    std::vector<const obs::QueryTrace*> traces;
    traces.reserve(results.size());
    for (const auto& r : results) traces.push_back(&r.profile.trace);
    if (!obs::WriteChromeTrace(traces, args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("\nChrome trace (%zu queries) -> %s\n", traces.size(),
                args.trace_out.c_str());
  }

  harness::SyncDeviceMetrics(engine.get());
  if (!args.metrics_out.empty()) {
    // The snapshot merges the SLO window gauges into the engine metrics --
    // the same body the /metrics endpoint serves.
    if (!WriteStringToFile(obs::RenderPrometheusText(service.CollectSamples()),
                           args.metrics_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_out.c_str());
      return 1;
    }
    std::printf("Prometheus metrics (%zu instruments) -> %s\n",
                engine->metrics().num_instruments(),
                args.metrics_out.c_str());
  }
  if (!args.json_out.empty()) {
    if (!WriteStringToFile(obs::RenderMetricsJson(service.CollectSamples()),
                           args.json_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.json_out.c_str());
      return 1;
    }
    std::printf("JSON metrics -> %s\n", args.json_out.c_str());
  }
  if (!args.flight_out.empty()) {
    if (!service.flight_recorder().DumpChromeTrace(args.flight_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.flight_out.c_str());
      return 1;
    }
    std::printf("Flight recorder trace -> %s\n", args.flight_out.c_str());
  }

  if (monitor != nullptr && args.monitor_hold_ms > 0) {
    std::printf("holding for %lld ms for scrapers (ctrl-c to stop)\n",
                static_cast<long long>(args.monitor_hold_ms));
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(args.monitor_hold_ms));
  }
  if (monitor != nullptr) monitor->Stop();
  return 0;
}
