#ifndef BLUSIM_CORE_ENGINE_H_
#define BLUSIM_CORE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "common/annotations.h"
#include "common/status.h"
#include "core/profile.h"
#include "core/query.h"
#include "core/router.h"
#include "gpusim/cost_model.h"
#include "gpusim/device_check.h"
#include "gpusim/pinned_pool.h"
#include "gpusim/sim_device.h"
#include "groupby/gpu_groupby.h"
#include "groupby/moderator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "sched/gpu_scheduler.h"

namespace blusim::core {

// Engine construction parameters. Defaults model the paper's testbed: an
// IBM Power S824 host with two Tesla K40 devices.
struct EngineConfig {
  gpusim::HostSpec host;
  gpusim::DeviceSpec device_spec;
  int num_devices = 2;
  // Heterogeneous fleet: when non-empty, one device is built per entry
  // (overriding device_spec and num_devices). Lets one engine shard a
  // query across mixed hardware generations (gpusim::K40Spec / HbmSpec /
  // NvlinkSpec).
  std::vector<gpusim::DeviceSpec> device_specs;
  // Host worker threads simulating each device's SMXs (execution fidelity
  // only; modeled kernel times come from the cost model).
  int device_workers = 2;
  // Size of the engine's CPU worker pool (0 = hardware concurrency).
  int cpu_threads = 0;
  // Modeled DB2 degree of parallelism charged to CPU operator phases.
  int query_dop = 24;
  // Single pre-registered pinned segment (section 2.1.2).
  uint64_t pinned_pool_bytes = 256ULL << 20;
  // Master switch: false = baseline DB2 BLU (no GPU anywhere).
  bool gpu_enabled = true;
  // Data-path fusion master switch (--no-fusion): when true, a GPU-routed
  // group-by without joins defers its FilterScan so the staging sweep can
  // fold predicate evaluation, key encoding and validity expansion into
  // one pass over the pinned write, and the kernels consume the compact
  // record stream. false reproduces the unfused SoA pipeline everywhere.
  bool enable_fusion = true;
  // Enables the partitioned multi-device path for inputs above T3
  // (section 2.2) and the router's partitioned upgrade inside the
  // T2 < n < T3 band when the cost model predicts concurrent CPU+GPU
  // execution beats one device. false reproduces the paper's prototype,
  // which ran oversize queries on the CPU.
  bool enable_partitioned_gpu = false;
  // CPU row share for partitioned executions: negative = cost model
  // chooses (CostModel::ChoosePartitionedCpuFraction), otherwise forced.
  double partitioned_cpu_split = -1.0;
  RouterThresholds thresholds;
  groupby::GpuGroupByOptions groupby_options;
  // Sort jobs below this row count stay on the CPU.
  uint32_t sort_min_gpu_rows = 65536;
  // CPU worker threads draining the hybrid sort's job queue.
  int sort_workers = 2;
  // Simulated device-memory checker (redzones, quarantine, per-query
  // ownership; see gpusim/device_check.h): -1 = auto (on in Debug builds
  // or when BLUSIM_CHECK_DEVICE=1), 0 = off, 1 = on.
  int check_device = -1;
};

// A query's result table plus its execution profile.
struct QueryResult {
  std::shared_ptr<columnar::Table> table;
  QueryProfile profile;
};

// Per-execution controls supplied by the serving layer (serve/QueryService).
// Defaults reproduce the unconstrained single-query behavior.
struct ExecOptions {
  // Per-query device-memory budget (0 = unlimited): a GPU placement whose
  // up-front reservation estimate exceeds the budget re-routes to the CPU
  // chain instead of competing for device memory it was not granted. The
  // same estimate gates the pinned staging budget -- staging buffers are
  // bounded by the device footprint they feed.
  uint64_t device_budget_bytes = 0;
  uint64_t pinned_budget_bytes = 0;
  // Reservation wait policy for GPU placements: deadline, backoff, jitter.
  sched::WaitOptions wait;
  // Simulated time this query spent queued for admission before Execute;
  // recorded as a wait phase so traces show end-to-end latency.
  SimTime admission_wait = 0;
};

// The group-by routing decision for one query (figure 3's T1/T2/T3 tree
// plus the partitioned upgrade and the staging plan). Engine::PlanGroupBy
// makes it once from optimizer input; the executor carries it out and
// never decides again.
struct GroupByDecision {
  // Full-pass KMV over the selection, or the sampled KMV when the fact
  // scan is deferred.
  OptimizerEstimates estimates;
  // T3 after capping it by what fits the smallest device.
  uint64_t t3_max_rows = 0;
  ExecutionPath path = ExecutionPath::kCpu;
  // The cost model moved a kGpu route to kPartitioned.
  bool partitioned_upgrade = false;
  // Device staging for the kGpu and kPartitioned paths (StageModeFor).
  groupby::StageMode stage_mode = groupby::StageMode::kSoA;
  // A deferred fact scan runs before the group-by: every path except a
  // fused device run needs explicit row ids.
  bool scan_first = false;
  // kGpu only: the hash-table capacity and the device bytes the scheduler
  // places and the per-query budgets check.
  uint64_t table_capacity = 0;
  uint64_t reservation_bytes = 0;

  bool operator==(const GroupByDecision&) const = default;
};

// Materializes the given rows (in order) of `table` into a new table,
// keeping only `projection` columns (empty = all).
Result<std::shared_ptr<columnar::Table>> MaterializeRows(
    const columnar::Table& table, const std::vector<uint32_t>& rows,
    const std::vector<int>& projection);

// The hybrid CPU/GPU analytic engine: BLU-style columnar operators with
// group-by/aggregation and sort offloaded to simulated GPUs when the
// figure-3 router decides the device pays off. Thread-safe for concurrent
// Execute() calls (the multi-user experiments run many streams).
class Engine {
 public:
  explicit Engine(EngineConfig config);
  // Logs the device checker's final report (leaks and any remaining
  // quarantine damage) before the components tear down.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineConfig& config() const { return config_; }
  const gpusim::CostModel& cost_model() const { return cost_; }
  sched::GpuScheduler& scheduler() { return scheduler_; }
  runtime::ThreadPool& pool() { return pool_; }
  gpusim::PinnedHostPool& pinned_pool() { return pinned_; }
  groupby::GpuModerator& moderator() { return moderator_; }
  // Engine-wide instrument registry: scheduler, pinned pool, thread pool,
  // router and moderator counters all live here. Snapshot it for the
  // Prometheus/JSON exporters.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  // The simulated compute-sanitizer wired into every device's memory
  // manager and the pinned pool (may be disabled; check enabled()).
  gpusim::DeviceChecker& device_checker() { return *checker_; }
  const gpusim::DeviceChecker& device_checker() const { return *checker_; }

  // One-time startup cost of registering the pinned segment with the
  // devices (simulated; section 2.1.2 motivates paying it once).
  SimTime startup_registration_time() const;

  Status RegisterTable(const std::string& name,
                       std::shared_ptr<columnar::Table> table);
  Result<std::shared_ptr<columnar::Table>> GetTable(
      const std::string& name) const;

  // Executes a query; the profile records every resource phase and which
  // paths (CPU/GPU) the group-by and sort took. Re-entrant: concurrent
  // calls share the scheduler, pinned pool and worker pool, and `opts`
  // carries the caller's per-query budgets and wait policy.
  Result<QueryResult> Execute(const QuerySpec& query,
                              const ExecOptions& opts = ExecOptions());

  // Plans `query`'s group-by over `plan` (built on the fact table).
  // `selection` == nullptr means Execute deferred the fact scan
  // (DefersScan). Pure: it reads the configuration and the fact table and
  // calls no scheduler, device, pinned pool, metrics or trace.
  GroupByDecision PlanGroupBy(const QuerySpec& query,
                              const runtime::GroupByPlan& plan,
                              const std::vector<uint32_t>* selection) const;

 private:
  struct GroupByOutcome {
    std::shared_ptr<columnar::Table> table;
    ExecutionPath path = ExecutionPath::kCpu;
    bool gpu_used = false;
  };

  // Estimates the group count for routing (sample-based KMV; a workload
  // hint in the spec would override it in a full optimizer).
  uint64_t EstimateGroups(const runtime::GroupByPlan& plan,
                          const std::vector<uint32_t>& selection) const;

  // Routing estimates without a materialized selection (deferred-scan
  // fusion): a strided sample of the fact table yields the predicate pass
  // ratio and a sampled-KMV distinct count, scaled up when the sampled
  // keys look near-unique (unbounded domain) and taken as-is otherwise.
  OptimizerEstimates SampleEstimates(
      const runtime::GroupByPlan& plan,
      const std::vector<runtime::Predicate>& filters) const;

  // Data-path fusion: a join-free group-by on a fusing GPU engine skips
  // the fact FilterScan so a fused staging sweep can fold the predicates
  // into the pinned write.
  bool DefersScan(const QuerySpec& query) const;

  // Executes the PlanGroupBy decision. `selection` == nullptr means the
  // fact scan was deferred: the executor runs it first when the decision
  // says so, and otherwise only when a fused device run falls back to the
  // CPU chain.
  Result<GroupByOutcome> RunGroupBy(const QuerySpec& query,
                                    const columnar::Table& fact,
                                    const std::vector<uint32_t>* selection,
                                    const ExecOptions& opts,
                                    QueryProfile* profile,
                                    obs::TraceBuilder* trace);

  // Appends `phase` to the profile, stamps its serial elapsed time and
  // mirrors it as one span in the query trace.
  void RecordPhase(PhaseRecord phase, const char* category,
                   QueryProfile* profile, obs::TraceBuilder* trace);

  // Runs the fact-table FilterScan and records its "scan" phase.
  Result<std::vector<uint32_t>> ScanFact(const QuerySpec& query,
                                         const columnar::Table& fact,
                                         QueryProfile* profile,
                                         obs::TraceBuilder* trace);

  // True when a GPU reservation of `bytes` exceeds the query's per-query
  // device or pinned budget (serving layer); counts the re-route in
  // blusim_router_budget_capped_total.
  bool ExceedsBudget(uint64_t bytes, const ExecOptions& opts);

  // Counts one device group-by run (its moderator kernel and PCIe bytes)
  // and returns the kernel's name.
  const char* CountDeviceRun(const groupby::GpuGroupByStats& stats);

  // Re-routes a GPU-routed group-by to the CPU chain: marks the query
  // degraded, annotates `reason` as groupby_fallback and counts it.
  void RecordGroupByFallback(const char* reason, QueryProfile* profile,
                             obs::TraceBuilder* trace,
                             GroupByOutcome* outcome);

  EngineConfig config_;
  // Fusion is on for this engine: enable_fusion and the group-by options'
  // allow_fusion, evaluated once.
  bool fusion_;
  gpusim::CostModel cost_;
  // Declared before the components so they can register instruments.
  obs::MetricsRegistry metrics_;
  // Declared before the devices/pinned pool it is attached to, so it
  // outlives every allocation it tracks.
  std::unique_ptr<gpusim::DeviceChecker> checker_;
  std::vector<std::unique_ptr<gpusim::SimDevice>> devices_;
  // Smallest device memory in the fleet: bounds the T3 cap, partitioned
  // chunk sizing and sort routing on heterogeneous fleets.
  uint64_t min_device_memory_;
  sched::GpuScheduler scheduler_;
  gpusim::PinnedHostPool pinned_;
  runtime::ThreadPool pool_;
  groupby::GpuModerator moderator_;
  std::atomic<uint64_t> next_query_id_{1};

  mutable common::Mutex tables_mu_{"core.Engine.tables_mu",
                                   common::LockRank::kCore};
  std::map<std::string, std::shared_ptr<columnar::Table>> tables_
      GUARDED_BY(tables_mu_);
};

}  // namespace blusim::core

#endif  // BLUSIM_CORE_ENGINE_H_
