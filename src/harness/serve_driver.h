#ifndef BLUSIM_HARNESS_SERVE_DRIVER_H_
#define BLUSIM_HARNESS_SERVE_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "serve/query_service.h"

namespace blusim::harness {

// The real-thread driver over QueryService::SubmitAsync: ONE client thread
// keeps `in_flight` queries outstanding across `tenants` tenants. Each
// tenant holds in_flight/tenants slots, and a completion callback refills
// the same tenant's slot, so the service's weighted stride scheduler
// decides who runs. With one slot per tenant every tenant is a closed-loop
// stream of the paper's figure-8 multi-user experiment: it submits its
// next query only once the previous one has resolved.
struct AsyncRunOptions {
  int tenants = 1;
  // Total outstanding submissions across all tenants (floored to one per
  // tenant). A single client thread sustains all of them.
  int in_flight = 0;
  // Each tenant walks the query list this many times, then stops
  // submitting (0 = no per-tenant limit).
  int reps = 1;
  // Stop refilling once this many queries have completed, then drain. The
  // fairness snapshot is taken at that instant, while every tenant is
  // still backlogged. 0 = no target: the run ends when every tenant has
  // walked its reps.
  uint64_t target_completions = 0;
  // Per-tenant admission weights, cycled by tenant index (empty = 1.0).
  // Pass MakeAsyncTenantClasses(options) as ServiceOptions::tenant_classes
  // when building the service so the two sides agree.
  std::vector<double> weights;
  // The first `deadline_tenants` tenants submit with this queue deadline
  // (microseconds; 0 = none): under saturation their tickets shed instead
  // of waiting, demonstrating deadline-bounded admission.
  int deadline_tenants = 0;
  int64_t deadline_us = 0;
};

// Per-tenant outcome of a run (final counts plus the admission count
// captured at the fairness snapshot).
struct AsyncTenantOutcome {
  std::string tenant;
  double weight = 1.0;
  bool deadline_class = false;
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t busy_us = 0;
  uint64_t device_budget_bytes = 0;
  // Admissions when target_completions was reached -- the fairness basis:
  // achieved share = admitted_at_snapshot / total_admitted_at_snapshot.
  uint64_t admitted_at_snapshot = 0;
};

struct AsyncRunResult {
  // Completed queries in completion order, each with its profile; a
  // tenant's completions arrive in its submission order when it holds one
  // slot.
  std::vector<QueryRunResult> results;
  uint64_t submitted = 0;
  uint64_t shed = 0;      // rejected by admission control (kOverloaded)
  uint64_t degraded = 0;  // completed with a GPU phase degraded to CPU
  int64_t wall_us = 0;            // start -> full drain
  int64_t wall_to_target_us = 0;  // start -> target_completions reached
  int peak_inflight = 0;          // service-side high-water mark
  uint64_t wakeups = 0;           // service-side admission notifications
  uint64_t total_admitted_at_snapshot = 0;
  std::vector<AsyncTenantOutcome> tenants;
};

// Canonical tenant label for tenant `index` ("t000", "t001", ...), shared
// by the driver and the bench/CI configuration.
std::string AsyncTenantName(int index);

// The weighted admission classes matching `options` (weights cycled by
// tenant index), for ServiceOptions::tenant_classes.
std::vector<serve::TenantClassSpec> MakeAsyncTenantClasses(
    const AsyncRunOptions& options);

// Runs the loop. Each tenant draws queries round-robin from `queries`.
// Sheds are policy, not errors: they are counted and the slot is refilled.
// A non-overload failure stops all refilling; the driver drains what is
// outstanding and returns the first failure, prefixed with its query name.
Result<AsyncRunResult> RunServedAsync(
    serve::QueryService* service,
    const std::vector<workload::WorkloadQuery>& queries,
    const AsyncRunOptions& options);

}  // namespace blusim::harness

#endif  // BLUSIM_HARNESS_SERVE_DRIVER_H_
