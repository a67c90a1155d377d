// End-to-end benchmark of BluSim: three workloads against the public API,
// every result checked against a CPU-only reference, end-to-end metrics on
// the host-wall clock and the simulated clock kept apart, and a traced run
// that measures each layer from outside.
//
//   blubench --workload <dashboard|report_batch|tenant_serve> --seed <n>
//            --seconds <s> --trace <0|1> [--out <dir>]
//
// Workloads (the program sees only the generated QuerySpecs):
//   dashboard     closed loop, 3 clients, blocking QueryService::Submit of
//                 the 95 BD Insights simple + intermediate queries in a
//                 seeded order per client. No query routes to the device,
//                 and every query repeats: a GPU-side change must show
//                 nothing here.
//   report_batch  one client calling Engine::Execute serially over the 46
//                 ROLAP, 5 BDI complex and 2 hand-written heavy queries,
//                 each exactly once per engine (no warm-up, nothing
//                 repeats). GPU group-by, staging, estimation, kernel
//                 emulation and the hybrid sort carry the time; 12 queries
//                 exceed the device. No service in front, so its simulated
//                 clock repeats exactly for a seed. Whole passes of the
//                 batch, each on a freshly built system, run until the
//                 window is spent; a traced run's half windows hold one
//                 pass each.
//   tenant_serve  open loop: one generator thread sends the figure-8 pool
//                 through SubmitAsync on a seeded Poisson schedule across
//                 12 weighted tenants, 3 executor slots over 2 devices with
//                 fair-share budgets. Latency runs from each due time.
//
// The last line of standard output is one JSON object with `correct`,
// `attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1). The lines before it print the same
// run for a reader, by metric name and unit. A result that differs from
// the reference makes the run exit 1.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "core/engine.h"
#include "gpusim/kernel.h"
#include "obs/metrics.h"
#include "obs/window.h"
#include "replay.h"
#include "serve/query_service.h"
#include "workload/data_gen.h"

namespace blubench {
namespace {

using blusim::Result;
using blusim::core::Engine;
using blusim::core::QueryProfile;
using blusim::core::QueryResult;
using blusim::obs::MetricSample;
using blusim::obs::WindowSnapshot;
using blusim::serve::QueryService;
using Clock = std::chrono::steady_clock;
using Samples = std::vector<MetricSample>;

constexpr double kTenantWeights[3] = {1.0, 2.0, 4.0};
constexpr int kSetupRepeats = 15;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      const long s = std::strtol(v.c_str(), &end, 10);
      if (*end != '\0' || s < 1 || s > 600) return false;
      a->seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (flag == "--out") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return have_workload;
}

std::string TenantName(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%02d", i);
  return buf;
}

blusim::serve::ServiceOptions MakeServiceOptions(const std::string& workload) {
  blusim::serve::ServiceOptions o;
  o.max_concurrent = 3;
  if (workload == "tenant_serve") {
    // Deep enough that the open loop never sheds at the fixed rate.
    o.max_queue_depth = 512;
    for (int i = 0; i < kTenants; ++i) {
      o.tenant_classes.push_back({TenantName(i), kTenantWeights[i % 3]});
    }
  } else {
    o.max_queue_depth = 16;
  }
  return o;
}

// Engine (and, for the served workloads, the service in front of it) over
// the generated database. The service always stops before its engine: by
// member order on destruction, explicitly on assignment.
struct System {
  System() = default;
  System(System&&) = default;
  System& operator=(System&& other) noexcept {
    service.reset();
    engine = std::move(other.engine);
    service = std::move(other.service);
    return *this;
  }

  std::unique_ptr<Engine> engine;
  std::unique_ptr<QueryService> service;
};

System Build(const blusim::workload::Database& db,
             const std::string& workload) {
  System s;
  s.engine = std::make_unique<Engine>(MakeEngineConfig(true));
  for (const auto& [name, table] : db) {
    BLUSIM_CHECK(s.engine->RegisterTable(name, table).ok());
  }
  if (workload != "report_batch") {
    s.service = std::make_unique<QueryService>(s.engine.get(),
                                               MakeServiceOptions(workload));
  }
  return s;
}

double NowSeconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Host CPU seconds (user + system, all threads) the process has used so
// far. The kernel does not charge a task for time the hypervisor steals
// from its virtual CPU, so on a shared host this clock moves far less
// from run to run than the wall clock does.
double CpuSeconds() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// ---- Per-window recording ----

struct Completion {
  uint32_t spec = 0;
  bool ok = false;       // executed without error (not shed, not failed)
  bool correct = false;  // ok and equal to the reference
  double latency_ms = 0;
  double sim_ms = 0;     // simulated elapsed, admission wait excluded
};

// First profile of each distinct (query, executed path), with its count.
struct PathSample {
  QueryProfile profile;
  uint32_t spec = 0;
  int tenant = -1;
  double count = 0;
  int64_t root_span = -1;
  uint64_t query_id = 0;
};

// Simulated time by phase kind, summed over a window's completions.
enum SimPhase { kScan, kJoin, kStage, kKernel, kCpuGb, kResWait, kSort,
                kProject, kNumSimPhases };
const char* const kSimPhaseNames[kNumSimPhases] = {
    "scan_ms", "join_ms", "groupby_stage_ms", "groupby_kernel_ms",
    "groupby_cpu_ms", "reservation_wait_ms", "sort_ms", "project_ms"};

int SimPhaseOf(const std::string& label) {
  if (label == "scan") return kScan;
  if (label.rfind("join-", 0) == 0) return kJoin;
  if (label == "groupby-stage" || label == "groupby-partition-stage") {
    return kStage;
  }
  if (label == "groupby-kernel") return kKernel;
  if (label == "groupby-cpu") return kCpuGb;
  if (label == "reservation-wait") return kResWait;
  if (label.rfind("sort-", 0) == 0) return kSort;
  if (label == "project") return kProject;
  return -1;
}

class Recorder {
 public:
  // `root_name` names the span around the public entry point; `traced`
  // false records no spans.
  Recorder(const WorkloadSpecs& w,
           const std::vector<std::vector<double>>& refs, SpanLog* log,
           const char* root_name, bool traced)
      : w_(w), refs_(refs), log_(log), root_name_(root_name),
        traced_(traced) {}

  // Checks one resolved query against its reference and records it. Safe
  // from any thread.
  void Record(uint32_t spec, int tenant, const Result<QueryResult>& r,
              int64_t start_ns, int64_t end_ns, double latency_ms) {
    Completion c;
    c.spec = spec;
    c.ok = r.ok();
    c.latency_ms = latency_ms;
    if (c.ok) {
      c.correct = FingerprintsMatch(Fingerprint(*r->table), refs_[spec]);
      double adm_us = 0;
      for (const auto& p : r->profile.phases) {
        if (p.label == "admission-wait") adm_us += static_cast<double>(p.elapsed);
      }
      c.sim_ms =
          (static_cast<double>(r->profile.total_elapsed) - adm_us) / 1000.0;
    }
    const std::string key =
        traced_ && c.ok
            ? std::to_string(spec) + "#" + PathSignature(r->profile)
            : std::string();
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t qid = done_.size();
    if (!c.ok) {
      if (first_error_.empty()) first_error_ = r.status().ToString();
    } else if (!c.correct) {
      mismatched_.insert(w_.specs[spec].name);
    }
    done_.push_back(c);
    if (!c.ok) return;
    for (const auto& p : r->profile.phases) {
      const int k = SimPhaseOf(p.label);
      if (k >= 0 && !p.overlapped) sim_[k] += static_cast<double>(p.elapsed);
    }
    if (!traced_) return;
    const int64_t root =
        log_->Add(Span{root_name_, start_ns, end_ns, -1, qid});
    auto it = paths_.find(key);
    if (it == paths_.end()) {
      PathSample ps;
      ps.profile = r->profile;
      ps.spec = spec;
      ps.tenant = tenant;
      ps.root_span = root;
      ps.query_id = qid;
      it = paths_.emplace(key, std::move(ps)).first;
    }
    it->second.count += 1;
  }

  // Accessors; call only after every recording thread has finished.
  const std::vector<Completion>& done() const { return done_; }
  const std::map<std::string, PathSample>& paths() const { return paths_; }
  const std::set<std::string>& mismatched() const { return mismatched_; }
  const std::string& first_error() const { return first_error_; }
  const double* sim() const { return sim_; }

 private:
  const WorkloadSpecs& w_;
  const std::vector<std::vector<double>>& refs_;
  SpanLog* log_;
  const char* root_name_;
  const bool traced_;
  std::mutex mu_;
  std::vector<Completion> done_;
  std::map<std::string, PathSample> paths_;
  std::set<std::string> mismatched_;
  std::string first_error_;
  double sim_[kNumSimPhases] = {};
};

// One timed window on one System.
struct Window {
  uint64_t sent = 0;
  double wall_s = 0;
  double cpu_s = 0;  // process CPU time spent inside the window
  std::vector<double> late_ms;  // open loop: send time minus due time
  Samples before, after;
  blusim::serve::ServiceStats stats_before, stats_after;
  uint64_t kernels_before = 0, kernels_after = 0;
  std::unique_ptr<Recorder> rec;
};

Samples Snapshot(const System& sys) {
  return sys.service ? sys.service->CollectSamples()
                     : sys.engine->metrics().Snapshot();
}

uint64_t KernelCount(Engine* engine) {
  uint64_t n = 0;
  for (size_t d = 0; d < engine->scheduler().num_devices(); ++d) {
    n += engine->scheduler()
             .device(d)
             ->monitor()
             .stats(blusim::gpusim::GpuEvent::kKernelExec)
             .count;
  }
  return n;
}

void RunDashboard(System* sys, const WorkloadSpecs& w, double seconds,
                  SpanLog* log, Window* win) {
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::atomic<uint64_t> sent{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kDashboardClients; ++c) {
    clients.emplace_back([&, c]() {
      const std::vector<size_t>& order = w.orders[static_cast<size_t>(c)];
      const std::string tenant = "dash" + std::to_string(c);
      for (size_t i = 0; Clock::now() < end; ++i) {
        const uint32_t spec = static_cast<uint32_t>(order[i % order.size()]);
        const int64_t a = log->NowNs();
        auto r = sys->service->Submit(w.specs[spec], tenant);
        const int64_t b = log->NowNs();
        sent.fetch_add(1, std::memory_order_relaxed);
        win->rec->Record(spec, -1, r, a, b, static_cast<double>(b - a) / 1e6);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  win->wall_s = NowSeconds(t0);
  win->sent = sent.load();
}

void RunReportBatch(System* sys, const WorkloadSpecs& w, SpanLog* log,
                    Window* win) {
  const Clock::time_point t0 = Clock::now();
  for (size_t idx : w.orders[0]) {
    const uint32_t spec = static_cast<uint32_t>(idx);
    const int64_t a = log->NowNs();
    auto r = sys->engine->Execute(w.specs[spec]);
    const int64_t b = log->NowNs();
    win->rec->Record(spec, -1, r, a, b, static_cast<double>(b - a) / 1e6);
  }
  win->wall_s = NowSeconds(t0);
  win->sent = w.orders[0].size();
}

void RunTenantServe(System* sys, const WorkloadSpecs& w,
                    const std::vector<Arrival>& schedule, SpanLog* log,
                    Window* win) {
  std::vector<blusim::serve::QueryHandle> handles;
  handles.reserve(schedule.size());
  std::vector<int64_t> ends(schedule.size(), 0);
  std::vector<int64_t> sends(schedule.size(), 0);
  std::vector<int64_t> dues(schedule.size(), 0);
  size_t drained = 0;
  // Checks and records finished queries in submission order, so the run
  // holds only the queries still in flight; `wait` blocks for every one.
  auto record_ready = [&](bool wait) {
    while (drained < handles.size() &&
           (wait || handles[drained].future().wait_for(
                        std::chrono::seconds(0)) ==
                        std::future_status::ready)) {
      const Arrival& a = schedule[drained];
      auto r = handles[drained].Get();
      win->rec->Record(a.query, static_cast<int>(a.tenant), r,
                       sends[drained], ends[drained],
                       static_cast<double>(ends[drained] - dues[drained]) /
                           1e6);
      ++drained;
    }
  };
  const Clock::time_point t0 = Clock::now();
  const int64_t t0_ns = log->NowNs();
  for (const Arrival& a : schedule) {
    const auto due_offset = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(a.due_s));
    std::this_thread::sleep_until(t0 + due_offset);
    const int64_t due_ns =
        t0_ns + std::chrono::duration_cast<std::chrono::nanoseconds>(
                    due_offset)
                    .count();
    const int64_t send_ns = log->NowNs();
    win->late_ms.push_back(static_cast<double>(send_ns - due_ns) / 1e6);
    sends[handles.size()] = send_ns;
    dues[handles.size()] = due_ns;
    blusim::serve::SubmitOptions so;
    const uint32_t spec = a.query;
    const int tenant = static_cast<int>(a.tenant);
    // The callback runs on an executor slot, so it only stamps the end;
    // the result is checked on this thread once its future is ready. The
    // promise resolves after the callback, so the stamp is visible then.
    int64_t* end_ns = &ends[handles.size()];
    so.on_complete = [log, end_ns](const Result<QueryResult>&) {
      *end_ns = log->NowNs();
    };
    handles.push_back(
        sys->service->SubmitAsync(w.specs[spec], TenantName(tenant), so));
    record_ready(false);
  }
  record_ready(true);
  win->wall_s = NowSeconds(t0);
  win->sent = schedule.size();
}

Window RunWindow(System* sys, const std::string& workload,
                 const WorkloadSpecs& w,
                 const std::vector<std::vector<double>>& refs,
                 const std::vector<Arrival>& schedule, double seconds,
                 SpanLog* log, bool traced) {
  Window win;
  win.rec = std::make_unique<Recorder>(
      w, refs, log,
      workload == "report_batch" ? "core.execute" : "serve.submit", traced);
  win.before = Snapshot(*sys);
  if (sys->service) win.stats_before = sys->service->stats();
  win.kernels_before = KernelCount(sys->engine.get());
  const double cpu0 = CpuSeconds();
  if (workload == "dashboard") {
    RunDashboard(sys, w, seconds, log, &win);
  } else if (workload == "report_batch") {
    RunReportBatch(sys, w, log, &win);
  } else {
    RunTenantServe(sys, w, schedule, log, &win);
  }
  win.cpu_s = CpuSeconds() - cpu0;
  win.after = Snapshot(*sys);
  if (sys->service) win.stats_after = sys->service->stats();
  win.kernels_after = KernelCount(sys->engine.get());
  return win;
}

// ---- Registry deltas ----

bool LabelMatches(const MetricSample& s, const char* key,
                  const char* prefix) {
  if (key == nullptr) return true;
  for (const auto& [k, v] : s.labels) {
    if (k == key) return v.rfind(prefix, 0) == 0;
  }
  return false;
}

double Sum(const Samples& samples, const std::string& name,
           const char* key = nullptr, const char* prefix = nullptr) {
  double total = 0;
  for (const MetricSample& s : samples) {
    if (s.name == name && LabelMatches(s, key, prefix)) {
      total += static_cast<double>(s.value);
    }
  }
  return total;
}

double Delta(const Window& win, const std::string& name,
             const char* key = nullptr, const char* prefix = nullptr) {
  return Sum(win.after, name, key, prefix) - Sum(win.before, name, key, prefix);
}

// The window's observations of histogram `name` (summed over its label
// sets), as a snapshot whose QuantileUpperBound answers percentiles.
WindowSnapshot HistDelta(const Window& win, const std::string& name) {
  WindowSnapshot snap;
  snap.buckets.assign(blusim::obs::Histogram::kNumBuckets + 1, 0);
  auto add = [&](const Samples& samples, bool after) {
    for (const MetricSample& s : samples) {
      if (s.name != name) continue;
      for (size_t i = 0; i < s.bucket_counts.size() && i < snap.buckets.size();
           ++i) {
        const uint64_t n = s.bucket_counts[i];
        snap.buckets[i] = after ? snap.buckets[i] + n : snap.buckets[i] - n;
        snap.count = after ? snap.count + n : snap.count - n;
      }
    }
  };
  add(win.after, true);
  add(win.before, false);
  return snap;
}

double Quantile(const WindowSnapshot& snap, double q) {
  return static_cast<double>(snap.QuantileUpperBound(q));
}

// ---- Output ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Median wall time of an empty multi-block launch on the engine's device
// shape (the fixed cost every simulated kernel pays).
double EmptyLaunchUs(const blusim::core::EngineConfig& cfg) {
  blusim::gpusim::KernelLauncher launcher(cfg.device_spec, cfg.device_workers);
  blusim::gpusim::LaunchConfig lc;
  lc.grid_dim = 16;
  lc.block_dim = 32;
  const blusim::gpusim::KernelPhase empty =
      [](const blusim::gpusim::KernelCtx&) {};
  std::vector<double> us;
  for (int i = 0; i < 420; ++i) {
    const Clock::time_point a = Clock::now();
    BLUSIM_CHECK(launcher.Launch(lc, empty).ok());
    const double t =
        std::chrono::duration<double, std::micro>(Clock::now() - a).count();
    if (i >= 20) us.push_back(t);
  }
  return Median(us);
}

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::set<std::string> mismatched;
  std::string first_error;
};

void Account(const Window& win, Outcome* out) {
  out->attempted += win.sent;
  uint64_t failed = 0;
  for (const Completion& c : win.rec->done()) {
    if (!c.correct) ++failed;
  }
  // Sent but never resolved cannot happen (every handle is drained); count
  // it anyway so a lost query cannot pass as success.
  failed += win.sent - std::min<uint64_t>(win.sent, win.rec->done().size());
  out->failed += failed;
  out->mismatched.insert(win.rec->mismatched().begin(),
                         win.rec->mismatched().end());
  if (out->first_error.empty()) out->first_error = win.rec->first_error();
}

double Qps(const Window& win) {
  double ok = 0;
  for (const Completion& c : win.rec->done()) ok += c.ok ? 1 : 0;
  return Ratio(ok, win.wall_s);
}

double RepeatShare(const Window& win, const std::vector<std::string>& digests) {
  std::set<std::string> seen;
  double repeats = 0;
  for (const Completion& c : win.rec->done()) {
    if (!seen.insert(digests[c.spec]).second) repeats += 1;
  }
  return Ratio(repeats, static_cast<double>(win.rec->done().size()));
}

void PrintJson(bool correct, const Outcome& o,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Everything a run needs before its first window: the database and the
// system under test (set up kSetupRepeats times, the last one kept), the
// seeded inputs, and the CPU-only reference results.
struct Prepared {
  blusim::workload::Database db;
  System sys;
  std::vector<double> setup_s;      // wall
  std::vector<double> setup_cpu_s;  // process CPU, the gated set-up time
  WorkloadSpecs w;
  // Spec content with the name left out, for the repeat share.
  std::vector<std::string> digests;
  std::vector<std::vector<double>> refs;
  double reference_s = 0;
  std::vector<Arrival> schedule;
};

bool Prepare(const Args& args, double window_s, Prepared* p) {
  const std::string& wl = args.workload;
  for (int i = 0; i < kSetupRepeats; ++i) {
    p->sys = System{};
    p->db.clear();
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = CpuSeconds();
    auto generated = blusim::workload::GenerateDatabase(MakeScale());
    BLUSIM_CHECK(generated.ok());
    p->db = std::move(generated).value();
    p->sys = Build(p->db, wl);
    p->setup_s.push_back(NowSeconds(t0));
    p->setup_cpu_s.push_back(CpuSeconds() - cpu0);
  }

  BLUSIM_CHECK(MakeWorkloadSpecs(wl, p->db, args.seed, &p->w));
  for (const auto& spec : p->w.specs) {
    QuerySpec anon = spec;
    anon.name.clear();
    p->digests.push_back(SpecDigest(anon));
  }
  if (wl == "tenant_serve") {
    p->schedule = PoissonSchedule(args.seed, kTenantRatePerSec, window_s,
                                  static_cast<uint32_t>(p->w.specs.size()),
                                  kTenants);
  }

  const Clock::time_point t0 = Clock::now();
  Engine cpu(MakeEngineConfig(false));
  for (const auto& [name, table] : p->db) {
    BLUSIM_CHECK(cpu.RegisterTable(name, table).ok());
  }
  for (const auto& spec : p->w.specs) {
    auto r = cpu.Execute(spec);
    if (!r.ok()) {
      std::fprintf(stderr, "reference %s failed: %s\n", spec.name.c_str(),
                   r.status().ToString().c_str());
      return false;
    }
    p->refs.push_back(Fingerprint(*r->table));
  }
  p->reference_s = NowSeconds(t0);
  return true;
}

// End-to-end metrics of one untraced window; prints the readable lines.
//
// The gated metrics read clocks that stolen CPU time does not move: the
// process CPU clock and the simulated clock. On a shared VM whose
// hypervisor steals a fifth of the CPU in phases of minutes, wall-clock
// qps and latency of the same seed moved by a third between runs, so they
// are printed for the reader but not gated.
void EndToEnd(const std::string& wl, const Prepared& p,
              const std::vector<Window>& windows, const Outcome& outcome,
              std::vector<Metric>* metrics) {
  std::vector<double> lat;
  double sim_total = 0;
  double ok = 0;
  double slo_ok = 0;
  double sent = 0;
  double wall_s = 0;
  double cpu_s = 0;
  for (const Window& win : windows) {
    sent += static_cast<double>(win.sent);
    wall_s += win.wall_s;
    cpu_s += win.cpu_s;
    for (const Completion& c : win.rec->done()) {
      if (!c.ok) continue;
      ok += 1;
      lat.push_back(c.latency_ms);
      sim_total += c.sim_ms;
      if (c.correct && c.latency_ms <= kLatencyLimitMs) slo_ok += 1;
    }
  }
  double lat_sum = 0;
  for (double v : lat) lat_sum += v;
  const double setup = Median(p.setup_cpu_s);
  const double cpu_ms = Ratio(cpu_s * 1e3, ok);
  const double rss = PeakRssMb();
  std::printf("# samples=%zu sent=%.0f windows=%zu window_s=%.3f "
              "reference_s=%.3f\n",
              lat.size(), sent, windows.size(), wall_s, p.reference_s);
  std::printf("# setup_s          %.4f s (process CPU; wall %.4f s)\n",
              setup, Median(p.setup_s));
  std::printf("# cpu_ms_per_query %.4f ms\n", cpu_ms);
  std::printf("# qps              %.3f 1/s\n", Ratio(ok, wall_s));
  std::printf("# latency_mean_ms  %.3f ms\n", Ratio(lat_sum, ok));
  // Percentiles are printed only where ten samples lie beyond them.
  for (const double q : {0.50, 0.90, 0.99}) {
    if (const auto v = NearestRank(lat, q)) {
      std::printf("# latency_p%02.0f_ms   %.3f ms\n", q * 100, *v);
    }
  }
  if (wl == "tenant_serve") {
    std::printf("# slo_ok_ratio     %.4f ratio of sent (limit %.0f ms)\n",
                Ratio(slo_ok, sent),
                kLatencyLimitMs);
  }
  if (wl == "report_batch") {
    std::printf("# sim_ms           %.3f simulated ms (sum per pass)\n",
                sim_total / static_cast<double>(windows.size()));
  }
  std::printf("# error_ratio      %.6f ratio of attempted\n",
              Ratio(static_cast<double>(outcome.failed),
                    static_cast<double>(outcome.attempted)));
  std::printf("# peak_rss_mb      %.1f MB\n", rss);
  *metrics = {
      {"setup_s", setup, "s"},
      {"cpu_ms_per_query", cpu_ms, "ms"},
      {"sim_ms_per_query", Ratio(sim_total, ok), "ms"},
      {"peak_rss_mb", rss, "MB"},
  };
}

// Replays every distinct executed path of the traced window on its idle
// engine, under the budgets its query ran with.
bool ReplayWindow(const Prepared& p, System* sys, const Window& win,
                  SpanLog* log, LayerTotals* t) {
  std::vector<blusim::serve::TenantStats> tenants;
  if (sys->service) tenants = sys->service->tenant_stats();
  for (const auto& [key, ps] : win.rec->paths()) {
    ReplayItem item;
    item.spec = &p.w.specs[ps.spec];
    item.profile = &ps.profile;
    item.weight = ps.count;
    item.root_span = ps.root_span;
    item.query_id = ps.query_id;
    if (sys->service) {
      item.opts.device_budget_bytes = sys->service->device_budget_bytes();
      item.opts.pinned_budget_bytes = sys->service->pinned_budget_bytes();
      item.opts.wait.deadline = sys->service->gpu_deadline();
      for (const auto& ts : tenants) {
        if (ps.tenant >= 0 && ts.tenant == TenantName(ps.tenant)) {
          item.opts.device_budget_bytes = ts.device_budget_bytes;
          item.opts.pinned_budget_bytes = ts.pinned_budget_bytes;
        }
      }
    }
    const blusim::Status st = Replay(sys->engine.get(), item, log, t);
    if (!st.ok()) {
      std::fprintf(stderr, "replay of %s failed: %s\n",
                   item.spec->name.c_str(), st.ToString().c_str());
      return false;
    }
  }
  return true;
}

// Per-layer metrics of the traced window `win` (with `plain`, the untraced
// window before it, as the overhead and lateness baseline).
std::vector<Metric> LayerMetrics(const Prepared& p, const Window& plain,
                                 const Window& win, const LayerTotals& t,
                                 double launch_us) {
  std::vector<double> late = plain.late_ms;
  late.insert(late.end(), win.late_ms.begin(), win.late_ms.end());
  double late_p99 = 0;
  if (!late.empty()) {
    late_p99 = NearestRank(late, 0.99)
                   .value_or(*std::max_element(late.begin(), late.end()));
  }
  const auto pool_wait = HistDelta(win, "blusim_thread_pool_task_wait_us");
  const auto sched_wait = HistDelta(win, "blusim_sched_reservation_wait_us");
  const auto adm_wait = HistDelta(win, "blusim_serve_admission_wait_us");
  const double routed = Delta(win, "blusim_router_groupby_total");
  const double submitted = static_cast<double>(win.stats_after.submitted -
                                               win.stats_before.submitted);
  const double mb = 1024.0 * 1024.0;
  std::vector<Metric> metrics = {
      {"runtime.filter_scan.calls", t.scan_calls, "count"},
      {"runtime.filter_scan.wall_ms", t.scan_ns / 1e6, "ms"},
      {"runtime.filter_scan.ns_per_row", Ratio(t.scan_ns, t.scan_rows), "ns"},
      {"runtime.hash_join.calls", t.join_calls, "count"},
      {"runtime.hash_join.wall_ms", t.join_ns / 1e6, "ms"},
      {"runtime.hash_join.ns_per_probe_row",
       Ratio(t.join_ns, t.join_probe_rows), "ns"},
      {"runtime.cpu_groupby.calls", t.cpu_gb_calls, "count"},
      {"runtime.cpu_groupby.wall_ms", t.cpu_gb_ns / 1e6, "ms"},
      {"runtime.cpu_groupby.ns_per_row", Ratio(t.cpu_gb_ns, t.cpu_gb_rows),
       "ns"},
      {"runtime.cpu_groupby.rehashes", t.cpu_gb_rehashes, "count"},
      {"runtime.thread_pool.tasks",
       Delta(win, "blusim_thread_pool_tasks_total"), "count"},
      {"runtime.thread_pool.task_wait_p50_us", Quantile(pool_wait, 0.5),
       "us"},
      {"runtime.thread_pool.task_wait_p99_us",
       Quantile(pool_wait, 0.99), "us"},
      {"common.kmv.calls", t.kmv_calls, "count"},
      {"common.kmv.wall_ms", t.kmv_ns / 1e6, "ms"},
      {"common.kmv.ns_per_row", Ratio(t.kmv_ns, t.kmv_rows), "ns"},
      {"groupby.staging.calls", t.stage_calls, "count"},
      {"groupby.staging.wall_ms", t.stage_ns / 1e6, "ms"},
      {"groupby.staging.bytes_staged_mb", t.stage_bytes / mb, "MB"},
      {"groupby.staging.fused_share", Ratio(t.stage_fused, t.stage_calls),
       "ratio"},
      {"groupby.gpu_groupby.calls", t.gpu_calls, "count"},
      {"groupby.gpu_groupby.wall_ms", t.gpu_ns / 1e6, "ms"},
      {"groupby.gpu_groupby.emul_wall_ms", t.gpu_emul_ns / 1e6, "ms"},
      {"groupby.gpu_groupby.host_us_per_sim_us",
       Ratio(t.gpu_emul_ns / 1e3, t.gpu_kernel_sim_us), "us/us"},
      {"groupby.moderator.kernel_regular",
       Delta(win, "blusim_moderator_kernel_total", "kernel",
             "groupby_regular"),
       "count"},
      {"groupby.moderator.kernel_sharedmem",
       Delta(win, "blusim_moderator_kernel_total", "kernel",
             "groupby_sharedmem"),
       "count"},
      {"groupby.moderator.kernel_rowlock",
       Delta(win, "blusim_moderator_kernel_total", "kernel",
             "groupby_rowlock"),
       "count"},
      {"gpusim.launch_empty_us", launch_us, "us"},
      {"gpusim.kernels",
       static_cast<double>(win.kernels_after - win.kernels_before), "count"},
      {"gpusim.pinned_highwater_mb",
       Sum(win.after, "blusim_pinned_pool_bytes_highwater") / mb, "MB"},
      {"gpusim.pinned_alloc_failures",
       Delta(win, "blusim_pinned_pool_alloc_failures_total"), "count"},
      {"gpusim.bytes_h2d_mb", Delta(win, "blusim_bytes_h2d_total") / mb,
       "MB"},
      {"gpusim.bytes_d2h_mb", Delta(win, "blusim_bytes_d2h_total") / mb,
       "MB"},
      {"sched.picks", Delta(win, "blusim_sched_picks_total"), "count"},
      {"sched.reservation_waits",
       Delta(win, "blusim_sched_reservation_waits_total"), "count"},
      {"sched.denials", Delta(win, "blusim_sched_reservation_denials_total"),
       "count"},
      {"sched.wait_p99_us", Quantile(sched_wait, 0.99), "us"},
      {"sort.hybrid_sort.calls", t.sort_calls, "count"},
      {"sort.hybrid_sort.wall_ms", t.sort_ns / 1e6, "ms"},
      {"sort.hybrid_sort.rows", t.sort_rows, "count"},
      {"sort.hybrid_sort.gpu_job_share", Ratio(t.sort_jobs_gpu, t.sort_jobs),
       "ratio"},
      {"core.execute.wall_ms", t.exec_self_ns / 1e6, "ms"},
      {"core.unattributed_share", Ratio(t.exec_self_ns, t.exec_ns),
       "ratio"},
      {"core.router.gpu_share",
       Ratio(Delta(win, "blusim_router_groupby_total", "path", "GPU"),
             routed),
       "ratio"},
      {"core.degraded", Delta(win, "blusim_queries_degraded_total"),
       "count"},
      {"serve.admission_wait_p50_ms", Quantile(adm_wait, 0.5) / 1e3,
       "ms"},
      {"serve.admission_wait_p99_ms", Quantile(adm_wait, 0.99) / 1e3,
       "ms"},
      {"serve.shed",
       static_cast<double>(win.stats_after.shed - win.stats_before.shed),
       "count"},
      {"serve.degraded",
       static_cast<double>(win.stats_after.degraded -
                           win.stats_before.degraded),
       "count"},
      {"serve.wakeups_per_submission",
       Ratio(static_cast<double>(win.stats_after.wakeups -
                                 win.stats_before.wakeups),
             submitted),
       "ratio"},
      {"serve.peak_inflight",
       static_cast<double>(win.stats_after.peak_inflight), "count"},
  };
  for (int k = 0; k < kNumSimPhases; ++k) {
    metrics.push_back({std::string("sim.") + kSimPhaseNames[k],
                       win.rec->sim()[k] / 1000.0, "ms"});
  }
  metrics.push_back({"harness.generator_late_p99_ms", late_p99, "ms"});
  metrics.push_back(
      {"harness.repeat_share", RepeatShare(win, p.digests), "ratio"});
  metrics.push_back(
      {"harness.trace_overhead", Ratio(Qps(win), Qps(plain)), "ratio"});
  metrics.push_back({"harness.reference_s", p.reference_s, "s"});
  metrics.push_back({"harness.replay_path_mismatches",
                     static_cast<double>(t.path_mismatches), "count"});
  return metrics;
}

int Run(const Args& args) {
  const std::string& wl = args.workload;
  // A traced run splits its time between an untraced and a traced window.
  const double window_s =
      args.trace ? args.seconds / 2.0 : static_cast<double>(args.seconds);
  Prepared p;
  if (!Prepare(args, window_s, &p)) return 1;

  SpanLog log;
  Outcome outcome;
  std::vector<Metric> metrics;
  std::printf("# workload=%s seed=%llu seconds=%d trace=%d\n", wl.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  const Clock::time_point t0 = Clock::now();
  Window plain =
      RunWindow(&p.sys, wl, p.w, p.refs, p.schedule, window_s, &log, false);
  Account(plain, &outcome);
  if (!args.trace) {
    // One report_batch pass is too little work for a steady CPU figure: its
    // five heaviest queries carry most of the time, and each moved by a
    // tenth between runs. More passes run, each on a freshly built system
    // so no query repeats on an engine, until the window is spent.
    std::vector<Window> windows;
    windows.push_back(std::move(plain));
    while (wl == "report_batch" && NowSeconds(t0) < window_s) {
      p.sys = System{};
      p.sys = Build(p.db, wl);
      windows.push_back(RunWindow(&p.sys, wl, p.w, p.refs, p.schedule,
                                  window_s, &log, false));
      Account(windows.back(), &outcome);
    }
    EndToEnd(wl, p, windows, outcome, &metrics);
  } else {
    // The traced window runs on a fresh system, so its registry deltas and
    // caches start where the untraced window's did.
    p.sys = System{};
    System traced = Build(p.db, wl);
    Window win =
        RunWindow(&traced, wl, p.w, p.refs, p.schedule, window_s, &log, true);
    Account(win, &outcome);
    const Clock::time_point replay_t0 = Clock::now();
    LayerTotals t;
    if (!ReplayWindow(p, &traced, win, &log, &t)) return 1;
    const double replay_s = NowSeconds(replay_t0);
    metrics = LayerMetrics(p, plain, win, t,
                           EmptyLaunchUs(traced.engine->config()));
    std::printf("# traced window: %zu completions in %.3f s; untraced: %zu "
                "in %.3f s; replay %.3f s over %zu paths\n",
                win.rec->done().size(), win.wall_s, plain.rec->done().size(),
                plain.wall_s, replay_s, win.rec->paths().size());
    for (const Metric& m : metrics) {
      std::printf("# %-40s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/spans-" + wl + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (!log.WriteJson(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("# spans: %zu written to %s\n", log.spans().size(),
                path.c_str());
  }

  for (const std::string& name : outcome.mismatched) {
    std::printf("# MISMATCH against the CPU reference: %s\n", name.c_str());
  }
  if (!outcome.first_error.empty()) {
    std::printf("# first error: %s\n", outcome.first_error.c_str());
  }
  const bool correct = outcome.failed == 0;
  PrintJson(correct, outcome, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace blubench

int main(int argc, char** argv) {
  blubench::Args args;
  if (!blubench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: blubench --workload <dashboard|report_batch|"
                 "tenant_serve> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out <dir>]\n");
    return 2;
  }
  if (args.workload != "dashboard" && args.workload != "report_batch" &&
      args.workload != "tenant_serve") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return blubench::Run(args);
}
