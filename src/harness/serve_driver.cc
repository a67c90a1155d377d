#include "harness/serve_driver.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>

#include "common/annotations.h"
#include "common/thread.h"

namespace blusim::harness {

std::string AsyncTenantName(int index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%03d", index);
  return buf;
}

std::vector<serve::TenantClassSpec> MakeAsyncTenantClasses(
    const AsyncRunOptions& options) {
  std::vector<serve::TenantClassSpec> classes;
  const int tenants = std::max(1, options.tenants);
  classes.reserve(static_cast<size_t>(tenants));
  for (int i = 0; i < tenants; ++i) {
    serve::TenantClassSpec spec;
    spec.tenant = AsyncTenantName(i);
    spec.weight = options.weights.empty()
                      ? 1.0
                      : options.weights[static_cast<size_t>(i) %
                                        options.weights.size()];
    classes.push_back(std::move(spec));
  }
  return classes;
}

Result<AsyncRunResult> RunServedAsync(
    serve::QueryService* service,
    const std::vector<workload::WorkloadQuery>& queries,
    const AsyncRunOptions& options) {
  if (queries.empty()) {
    return Status::InvalidArgument("RunServedAsync: empty query pool");
  }
  if (options.reps <= 0 && options.target_completions == 0) {
    return Status::InvalidArgument(
        "RunServedAsync: neither reps nor target_completions ends the run");
  }
  const int tenants = std::max(1, options.tenants);
  const int in_flight = std::max(tenants, options.in_flight);
  const int slots_per_tenant = in_flight / tenants;
  const uint64_t per_tenant_limit =
      options.reps > 0
          ? static_cast<uint64_t>(options.reps) * queries.size()
          : std::numeric_limits<uint64_t>::max();

  // One resolved submission, posted by the completion callback (which
  // runs on a service executor, no service locks held) and drained by the
  // single client thread below.
  struct Done {
    int tenant = 0;
    bool shed = false;
    Status error;
    QueryRunResult result;
  };
  struct EventQueue {
    common::Mutex mu{"harness.RunServedAsync.events_mu",
                     common::LockRank::kServe};
    std::condition_variable_any cv;
    std::deque<Done> events GUARDED_BY(mu);
  } eq;

  AsyncRunResult run;
  std::vector<uint64_t> next_query(static_cast<size_t>(tenants), 0);
  uint64_t outstanding = 0;

  auto submit_one = [&](int tenant_idx) {
    uint64_t& next = next_query[static_cast<size_t>(tenant_idx)];
    if (next >= per_tenant_limit) return;
    const workload::WorkloadQuery& wq = queries[next++ % queries.size()];
    serve::SubmitOptions sopts;
    if (tenant_idx < options.deadline_tenants && options.deadline_us > 0) {
      sopts.deadline_us = options.deadline_us;
    }
    std::string tenant = AsyncTenantName(tenant_idx);
    const auto submitted_at = std::chrono::steady_clock::now();
    sopts.on_complete = [&eq, &wq, tenant_idx, tenant, submitted_at](
                            const Result<core::QueryResult>& r) {
      Done d;
      d.tenant = tenant_idx;
      if (r.ok()) {
        QueryRunResult& q = d.result;
        q.name = wq.spec.name;
        q.qclass = wq.qclass;
        q.tenant = tenant;
        q.wall_e2e_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - submitted_at)
                .count();
        q.profile = r->profile;
        q.elapsed = q.profile.total_elapsed;
        q.gpu_used = q.profile.gpu_used;
        for (const core::PhaseRecord& phase : q.profile.phases) {
          if (phase.label == "admission-wait") {
            q.admission_wait_us = phase.cpu_work;
            break;
          }
        }
      } else if (r.status().code() == StatusCode::kOverloaded) {
        d.shed = true;
      } else {
        d.error = Status(r.status().code(), "query '" + wq.spec.name +
                                                "': " + r.status().message());
      }
      common::MutexLock lock(&eq.mu);
      eq.events.push_back(std::move(d));
      // Notified under the lock: once it is released, the client thread
      // may drain its last event and destroy `eq`.
      eq.cv.notify_one();
    };
    service->SubmitAsync(wq.spec, tenant, std::move(sopts));
    ++outstanding;
    ++run.submitted;
  };

  const auto start = std::chrono::steady_clock::now();
  // Prime every tenant's window; from here on the client thread only
  // reacts to completions, keeping in_flight submissions outstanding.
  for (int t = 0; t < tenants; ++t) {
    for (int s = 0; s < slots_per_tenant; ++s) submit_one(t);
  }

  std::vector<serve::TenantStats> snapshot;
  Status first_error;
  uint64_t failed = 0;
  bool refill = true;
  while (outstanding > 0) {
    Done d;
    {
      common::MutexLock lock(&eq.mu);
      // Explicit wait loop for the thread-safety analysis.
      while (eq.events.empty()) eq.cv.wait(lock);
      d = std::move(eq.events.front());
      eq.events.pop_front();
    }
    --outstanding;
    if (!d.error.ok()) {
      ++failed;
      if (first_error.ok()) first_error = std::move(d.error);
      refill = false;
    } else if (d.shed) {
      ++run.shed;
    } else {
      if (d.result.profile.degraded) ++run.degraded;
      run.results.push_back(std::move(d.result));
    }
    if (refill && options.target_completions > 0 &&
        run.results.size() >= options.target_completions) {
      // Fairness basis: every tenant still holds its full window here, so
      // achieved admission shares reflect the scheduler, not the drain.
      refill = false;
      run.wall_to_target_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      snapshot = service->tenant_stats();
    }
    if (refill) submit_one(d.tenant);
  }
  run.wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  if (!first_error.ok()) {
    return Status(first_error.code(),
                  first_error.message() + " (" + std::to_string(failed) +
                      " of " + std::to_string(run.submitted) +
                      " submissions failed)");
  }
  if (snapshot.empty()) snapshot = service->tenant_stats();

  const serve::ServiceStats sstats = service->stats();
  run.peak_inflight = sstats.peak_inflight;
  run.wakeups = sstats.wakeups;

  std::vector<serve::TenantStats> final_stats = service->tenant_stats();
  std::map<std::string, uint64_t> snapshot_admitted;
  for (const serve::TenantStats& ts : snapshot) {
    snapshot_admitted[ts.tenant] = ts.admitted;
    run.total_admitted_at_snapshot += ts.admitted;
  }
  run.tenants.reserve(final_stats.size());
  for (int t = 0; t < tenants; ++t) {
    const std::string name = AsyncTenantName(t);
    AsyncTenantOutcome out;
    out.tenant = name;
    out.deadline_class =
        t < options.deadline_tenants && options.deadline_us > 0;
    for (const serve::TenantStats& ts : final_stats) {
      if (ts.tenant != name) continue;
      out.weight = ts.weight;
      out.submitted = ts.submitted;
      out.admitted = ts.admitted;
      out.completed = ts.completed;
      out.shed = ts.shed;
      out.busy_us = ts.busy_us;
      out.device_budget_bytes = ts.device_budget_bytes;
      break;
    }
    auto snap = snapshot_admitted.find(name);
    if (snap != snapshot_admitted.end()) out.admitted_at_snapshot = snap->second;
    run.tenants.push_back(std::move(out));
  }
  return run;
}

}  // namespace blusim::harness
