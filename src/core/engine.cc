#include "core/engine.h"

#include <algorithm>
#include <numeric>

#include "common/hash.h"
#include "common/kmv.h"
#include "common/logging.h"
#include "groupby/partitioned.h"
#include "runtime/cpu_groupby.h"
#include "runtime/operators.h"
#include "sort/gpu_sort.h"
#include "sort/hybrid_sort.h"

namespace blusim::core {

using columnar::Column;
using columnar::DataType;
using columnar::Table;
using runtime::GroupByPlan;
using runtime::Predicate;

namespace {

std::vector<std::unique_ptr<gpusim::SimDevice>> MakeDevices(
    const EngineConfig& config) {
  std::vector<std::unique_ptr<gpusim::SimDevice>> devices;
  if (!config.gpu_enabled) return devices;
  // device_specs (heterogeneous fleet) overrides the homogeneous pair.
  const int n = config.device_specs.empty()
                    ? config.num_devices
                    : static_cast<int>(config.device_specs.size());
  for (int i = 0; i < n; ++i) {
    const gpusim::DeviceSpec& spec =
        config.device_specs.empty()
            ? config.device_spec
            : config.device_specs[static_cast<size_t>(i)];
    devices.push_back(std::make_unique<gpusim::SimDevice>(
        i, spec, config.host, config.device_workers));
  }
  return devices;
}

// The spec the engine-wide cost model calibrates against: first of the
// heterogeneous fleet, or the homogeneous spec.
const gpusim::DeviceSpec& PrimarySpec(const EngineConfig& config) {
  return config.device_specs.empty() ? config.device_spec
                                     : config.device_specs.front();
}

// Smallest device memory in the fleet (bounds chunk sizing and the T3 cap
// when devices are heterogeneous).
uint64_t MinDeviceMemory(
    const std::vector<std::unique_ptr<gpusim::SimDevice>>& devices) {
  uint64_t m = UINT64_MAX;
  for (const auto& d : devices) {
    m = std::min(m, d->spec().device_memory_bytes);
  }
  return m;
}

std::vector<gpusim::SimDevice*> DevicePointers(
    const std::vector<std::unique_ptr<gpusim::SimDevice>>& devices) {
  std::vector<gpusim::SimDevice*> out;
  out.reserve(devices.size());
  for (const auto& d : devices) out.push_back(d.get());
  return out;
}

// Bytes per row touched by a filter scan (sum of predicate column widths).
int ScanWidth(const Table& table, const std::vector<Predicate>& predicates) {
  int width = 0;
  for (const Predicate& p : predicates) {
    const int w =
        columnar::DataTypeWidth(table.schema().field(
            static_cast<size_t>(p.column)).type);
    width += w == 0 ? 16 : w;
  }
  return std::max(width, 4);
}

// A grouping key's hash as the HASH evaluator computes it: Murmur over a
// wide key's bytes, Mix64 of a packed narrow key.
uint64_t KeyHash(const GroupByPlan& plan, uint32_t row) {
  if (plan.wide_key()) {
    runtime::WideKey wk;
    plan.FillWideKey(row, &wk);
    return Murmur3_64(wk.bytes, wk.len);
  }
  return Mix64(plan.PackKey(row));
}

// LIMIT pushed below a sort: keep only the first `limit` rows of the sorted
// permutation, so the rows the LIMIT drops are never materialized.
void TruncateToLimit(uint64_t limit, std::vector<uint32_t>* perm) {
  if (limit > 0 && perm->size() > limit) perm->resize(limit);
}

void AppendValue(const Column& src, uint32_t row, Column* dst) {
  if (src.IsNull(row)) {
    dst->AppendNull();
    return;
  }
  switch (src.type()) {
    case DataType::kInt32:
    case DataType::kDate:
      dst->AppendInt32(src.int32_data()[row]);
      break;
    case DataType::kInt64:
      dst->AppendInt64(src.int64_data()[row]);
      break;
    case DataType::kFloat64:
      dst->AppendDouble(src.float64_data()[row]);
      break;
    case DataType::kDecimal128:
      dst->AppendDecimal(src.decimal_data()[row]);
      break;
    case DataType::kString:
      dst->AppendString(src.string_data()[row]);
      break;
  }
}

}  // namespace

Result<std::shared_ptr<Table>> MaterializeRows(
    const Table& table, const std::vector<uint32_t>& rows,
    const std::vector<int>& projection) {
  std::vector<int> cols = projection;
  if (cols.empty()) {
    cols.resize(table.num_columns());
    std::iota(cols.begin(), cols.end(), 0);
  }
  columnar::Schema schema;
  for (int c : cols) {
    if (c < 0 || static_cast<size_t>(c) >= table.num_columns()) {
      return Status::InvalidArgument("bad projection column " +
                                     std::to_string(c));
    }
    schema.AddField(table.schema().field(static_cast<size_t>(c)));
  }
  auto out = std::make_shared<Table>(std::move(schema));
  out->Reserve(rows.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    const Column& src = table.column(static_cast<size_t>(cols[i]));
    Column& dst = out->column(i);
    for (uint32_t row : rows) AppendValue(src, row, &dst);
  }
  return out;
}

Engine::Engine(EngineConfig config)
    : config_(config),
      fusion_(config.enable_fusion && config.groupby_options.allow_fusion),
      cost_(config.host, PrimarySpec(config)),
      checker_(std::make_unique<gpusim::DeviceChecker>(
          config.check_device < 0 ? gpusim::DeviceChecker::EnabledByDefault()
                                  : config.check_device != 0)),
      devices_(MakeDevices(config)),
      min_device_memory_(MinDeviceMemory(devices_)),
      scheduler_(DevicePointers(devices_), &metrics_),
      pinned_(config.pinned_pool_bytes, &metrics_),
      pool_(config.cpu_threads, &metrics_) {
  for (auto& device : devices_) {
    device->memory().AttachChecker(checker_.get());
  }
  pinned_.AttachChecker(checker_.get());
}

Engine::~Engine() {
  if (!checker_->enabled()) return;
  const std::vector<gpusim::DeviceIssue> issues = checker_->FinalReport();
  if (!issues.empty()) {
    BLUSIM_LOG(Warning) << "[device-check] engine shutdown: "
                        << issues.size() << " issue(s) recorded (see log)";
  }
}

void Engine::RecordPhase(PhaseRecord phase, const char* category,
                         QueryProfile* profile, obs::TraceBuilder* trace) {
  phase.elapsed = phase.IdleElapsed(cost_.HostParallelFactor(phase.dop));
  if (trace != nullptr) {
    trace->AddPhase(phase.label, category, phase.elapsed, phase.device_id);
  }
  profile->phases.push_back(std::move(phase));
}

Result<std::vector<uint32_t>> Engine::ScanFact(const QuerySpec& query,
                                               const Table& fact,
                                               QueryProfile* profile,
                                               obs::TraceBuilder* trace) {
  BLUSIM_ASSIGN_OR_RETURN(
      std::vector<uint32_t> selection,
      runtime::FilterScan(fact, query.fact_filters, &pool_));
  PhaseRecord scan;
  scan.kind = PhaseRecord::Kind::kCpu;
  scan.label = "scan";
  scan.cpu_work = cost_.HostScanTime(
      fact.num_rows(),
      query.fact_filters.empty() ? 4 : ScanWidth(fact, query.fact_filters),
      1);
  scan.dop = config_.query_dop;
  RecordPhase(std::move(scan), obs::kCatCpu, profile, trace);
  return selection;
}

bool Engine::ExceedsBudget(uint64_t bytes, const ExecOptions& opts) {
  const bool over =
      (opts.device_budget_bytes > 0 && bytes > opts.device_budget_bytes) ||
      (opts.pinned_budget_bytes > 0 && bytes > opts.pinned_budget_bytes);
  if (over) {
    metrics_
        .GetCounter("blusim_router_budget_capped_total", {},
                    "GPU placements re-routed to the CPU by per-query "
                    "memory budgets")
        ->Add(1);
  }
  return over;
}

const char* Engine::CountDeviceRun(const groupby::GpuGroupByStats& stats) {
  const char* kernel_name =
      stats.fused ? gpusim::GroupByKernelKindFusedName(stats.kernel_used)
                  : gpusim::GroupByKernelKindName(stats.kernel_used);
  metrics_
      .GetCounter("blusim_moderator_kernel_total", {{"kernel", kernel_name}},
                  "Group-by kernel executions by moderator choice")
      ->Add(1);
  metrics_
      .GetCounter("blusim_bytes_h2d_total", {{"op", "groupby"}},
                  "Host-to-device bytes moved (true wire sizes)")
      ->Add(stats.bytes_in);
  metrics_
      .GetCounter("blusim_bytes_d2h_total", {{"op", "groupby"}},
                  "Device-to-host bytes moved (true wire sizes)")
      ->Add(stats.bytes_out);
  metrics_
      .GetCounter("blusim_bytes_staged_avoided_total", {{"op", "groupby"}},
                  "Staged bytes data-path fusion avoided shipping "
                  "versus SoA staging of the same survivor rows")
      ->Add(stats.bytes_avoided);
  return kernel_name;
}

void Engine::RecordGroupByFallback(const char* reason, QueryProfile* profile,
                                   obs::TraceBuilder* trace,
                                   GroupByOutcome* outcome) {
  profile->groupby_path = ExecutionPath::kCpu;
  profile->degraded = true;
  outcome->path = ExecutionPath::kCpu;
  trace->Annotate("groupby_fallback", reason);
  metrics_
      .GetCounter("blusim_router_groupby_fallbacks_total", {},
                  "GPU-routed group-bys that fell back to the CPU chain")
      ->Add(1);
}

SimTime Engine::startup_registration_time() const {
  if (devices_.empty()) return 0;
  return cost_.HostRegistrationTime(config_.pinned_pool_bytes);
}

Status Engine::RegisterTable(const std::string& name,
                             std::shared_ptr<Table> table) {
  BLUSIM_RETURN_NOT_OK(table->Validate());
  common::MutexLock lock(&tables_mu_);
  if (!tables_.emplace(name, std::move(table)).second) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }
  return Status::OK();
}

Result<std::shared_ptr<Table>> Engine::GetTable(
    const std::string& name) const {
  common::MutexLock lock(&tables_mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' not registered");
  }
  return it->second;
}

uint64_t Engine::EstimateGroups(const GroupByPlan& plan,
                                const std::vector<uint32_t>& selection) const {
  const uint64_t n = selection.size();
  if (n == 0) return 0;
  // Full-pass KMV sketch over the grouping keys, the same estimate the
  // HASH evaluator produces for the GPU runtime (section 4.2). A sketch
  // cannot be fooled by bounded domains the way sample-extrapolation can.
  // The pass is not cheap: it packs and hashes every selected row one at
  // a time, and on the BD Insights mix it costs more host time than the
  // column-at-a-time FilterScan that produced the selection.
  KmvSketch sketch(512);
  for (uint64_t i = 0; i < n; ++i) {
    sketch.AddHash(KeyHash(plan, selection[i]));
  }
  return std::max<uint64_t>(1, sketch.Estimate());
}

OptimizerEstimates Engine::SampleEstimates(
    const GroupByPlan& plan, const std::vector<Predicate>& filters) const {
  const Table& fact = plan.table();
  OptimizerEstimates est;
  const uint64_t n = fact.num_rows();
  if (n == 0) return est;
  // Sample size scales with the table: a fixed 4096-row sample cannot
  // tell a 64k-group domain from a unique key (every sampled key looks
  // distinct either way), and the near-unique scale-up below would then
  // inflate the estimate by the sampling ratio -- which mis-routes the
  // partitioned upgrade for exactly the T2 < n < T3 inputs it exists for.
  const uint64_t target =
      std::min<uint64_t>(n, std::max<uint64_t>(4096, n / 64));
  const uint64_t step = std::max<uint64_t>(1, n / target);
  std::vector<uint32_t> sample;
  sample.reserve(n / step + 1);
  for (uint64_t row = 0; row < n; row += step) {
    sample.push_back(static_cast<uint32_t>(row));
  }
  const uint64_t examined = sample.size();
  const uint64_t passed = runtime::SelectRows(
      fact, filters, runtime::MorselRange{0, examined}, sample.data(),
      sample.data());
  KmvSketch sketch(512);
  for (uint64_t i = 0; i < passed; ++i) {
    sketch.AddHash(KeyHash(plan, sample[i]));
  }
  est.rows = examined > 0 ? n * passed / examined : n;
  const uint64_t distinct = std::max<uint64_t>(1, sketch.Estimate());
  // Near-unique sampled keys mean the distinct count grows with the input
  // (scale the sampled ratio up); a saturated/bounded key domain shows
  // repeats in the sample and the sketch estimate stands on its own.
  if (passed > 0 && distinct * 4 >= passed * 3) {
    est.groups = std::max<uint64_t>(
        1, est.rows * distinct / std::max<uint64_t>(1, passed));
  } else {
    est.groups = distinct;
  }
  return est;
}

bool Engine::DefersScan(const QuerySpec& query) const {
  return fusion_ && !devices_.empty() && query.groupby.has_value() &&
         query.joins.empty();
}

GroupByDecision Engine::PlanGroupBy(
    const QuerySpec& query, const GroupByPlan& plan,
    const std::vector<uint32_t>* selection) const {
  GroupByDecision d;
  const bool deferred = selection == nullptr;
  if (deferred) {
    d.estimates = SampleEstimates(plan, query.fact_filters);
  } else {
    d.estimates.rows = selection->size();
    d.estimates.groups = EstimateGroups(plan, *selection);
  }

  // Cap T3 by what actually fits on a device (inputs + table).
  RouterThresholds thresholds = config_.thresholds;
  if (!devices_.empty()) {
    const uint64_t per_row = static_cast<uint64_t>(
        8 + 4 + plan.payload_bytes_per_row() + 8);
    thresholds.t3_max_rows =
        std::min<uint64_t>(thresholds.t3_max_rows,
                           min_device_memory_ /
                               std::max<uint64_t>(1, per_row));
  }
  d.t3_max_rows = thresholds.t3_max_rows;
  d.stage_mode = groupby::StageModeFor(plan, fusion_);

  d.path = ChooseGroupByPath(d.estimates, thresholds, !devices_.empty());
  if (d.path == ExecutionPath::kGpu && config_.enable_partitioned_gpu &&
      !devices_.empty()) {
    // T2 < n < T3 upgrade: when the cost model predicts the concurrent
    // partitioned CPU+GPU execution beats both one device and the CPU
    // chain by >= 10%, shard the query instead of running it whole on one
    // device (docs/partitioned_execution.md).
    gpusim::PartitionedShape shape = groupby::PartitionedGroupBy::MakeShape(
        plan, d.estimates.rows, d.estimates.groups, min_device_memory_,
        static_cast<int>(devices_.size()), d.stage_mode, config_.query_dop,
        pool_.num_threads());
    if (shape.max_rows_per_chunk > 0) {
      const double frac =
          config_.partitioned_cpu_split >= 0.0
              ? std::clamp(config_.partitioned_cpu_split, 0.0, 1.0)
              : cost_.ChoosePartitionedCpuFraction(shape);
      const SimTime t_part = cost_.PartitionedTime(shape, frac);
      const SimTime t_single = cost_.SingleDeviceGroupByTime(shape);
      const SimTime t_cpu = static_cast<SimTime>(
          static_cast<double>(cost_.HostGroupByTime(
              d.estimates.rows, d.estimates.groups,
              static_cast<int>(plan.slots().size()), 1)) /
          cost_.HostParallelFactor(config_.query_dop));
      if (t_part * 100 < std::min(t_single, t_cpu) * 90) {
        d.path = ExecutionPath::kPartitioned;
        d.partitioned_upgrade = true;
      }
    }
  }

  const bool fused_device_run = d.path == ExecutionPath::kGpu &&
                                d.stage_mode ==
                                    groupby::StageMode::kFusedRecords;
  d.scan_first = deferred && !fused_device_run;
  if (d.path == ExecutionPath::kGpu) {
    d.table_capacity = groupby::ChooseCapacity(d.estimates.groups);
    d.reservation_bytes = groupby::GpuGroupBy::DeviceBytesNeeded(
        plan, d.stage_mode, d.estimates.rows, d.table_capacity);
  }
  return d;
}

Result<Engine::GroupByOutcome> Engine::RunGroupBy(
    const QuerySpec& query, const Table& fact,
    const std::vector<uint32_t>* selection, const ExecOptions& opts,
    QueryProfile* profile, obs::TraceBuilder* trace) {
  BLUSIM_ASSIGN_OR_RETURN(GroupByPlan plan,
                          GroupByPlan::Make(fact, *query.groupby));
  const GroupByDecision decision = PlanGroupBy(query, plan, selection);
  const ExecutionPath path = decision.path;
  trace->Annotate("kmv_estimate", std::to_string(decision.estimates.groups));
  if (decision.partitioned_upgrade) {
    trace->Annotate("partitioned_upgrade", "modeled");
  }
  profile->groupby_path = path;
  trace->Annotate("groupby_path", ExecutionPathName(path));
  metrics_
      .GetCounter("blusim_router_groupby_total",
                  {{"path", ExecutionPathName(path)}},
                  "Group-by routing decisions by figure-3 outcome")
      ->Add(1);

  // A deferred scan the decision does not fold into a fused staging sweep
  // runs here, once. The only other scan site is the CPU chain's, for a
  // fused device run that fell back.
  std::vector<uint32_t> scanned_rows;
  if (decision.scan_first) {
    BLUSIM_ASSIGN_OR_RETURN(scanned_rows,
                            ScanFact(query, fact, profile, trace));
    selection = &scanned_rows;
  }

  GroupByOutcome outcome;
  outcome.path = path;
  groupby::GpuGroupByOptions gopts = config_.groupby_options;
  gopts.allow_fusion =
      decision.stage_mode == groupby::StageMode::kFusedRecords;
  gopts.estimated_groups = decision.estimates.groups;

  if (path == ExecutionPath::kPartitioned && config_.enable_partitioned_gpu) {
    // Concurrent hash-partitioned CPU+GPU execution (the mechanism of
    // section 2.2 plus the co-execution the paper left as future work):
    // the partition sweep needs explicit row ids, so the decision scans a
    // deferred filter first.
    groupby::PartitionedOptions popts;
    popts.gpu = gopts;
    popts.wait = opts.wait;
    popts.cpu_split_fraction = config_.partitioned_cpu_split;
    popts.cpu_dop = config_.query_dop;
    popts.cost = &cost_;
    groupby::PartitionedStats pstats;
    auto part_out = groupby::PartitionedGroupBy::Execute(
        plan, &scheduler_, &pinned_, &pool_, &moderator_, *selection, popts,
        &pstats);
    if (part_out.ok()) {
      // Phase accounting: the partition sweep and the device chunks' host
      // staging are pool work charged at query dop. The CPU and device
      // lanes run concurrently, so one umbrella phase carries
      // max(CPU lane, slowest device lane) and the per-chunk phases are
      // recorded `overlapped` — visible in ExplainAnalyze for attribution
      // but excluded from elapsed sums and the concurrency replay.
      PhaseRecord part;
      part.kind = PhaseRecord::Kind::kCpu;
      part.label = "groupby-partition-plan";
      part.cpu_work = pstats.partition_time;
      part.dop = config_.query_dop;
      RecordPhase(std::move(part), obs::kCatCpu, profile, trace);

      uint64_t bytes_in = 0;
      uint64_t cpu_chunks = 0;
      uint64_t gpu_chunks = 0;
      uint64_t fallbacks = 0;
      for (const auto& chunk : pstats.chunks) {
        if (chunk.on_gpu) {
          ++gpu_chunks;
          bytes_in += chunk.gpu.bytes_in;
          PhaseRecord gp;
          gp.kind = PhaseRecord::Kind::kGpu;
          gp.label = "groupby-partition";
          gp.overlapped = true;
          gp.device_time =
              chunk.wait_time + chunk.gpu.total() - chunk.gpu.stage_time;
          gp.device_mem = chunk.gpu.device_bytes_reserved;
          gp.device_id = chunk.device_id;
          gp.bytes_moved = chunk.gpu.bytes_in + chunk.gpu.bytes_out;
          RecordPhase(std::move(gp), obs::kCatGpu, profile, trace);
          CountDeviceRun(chunk.gpu);
        } else {
          ++cpu_chunks;
          if (chunk.gpu_fallback) ++fallbacks;
          PhaseRecord cp;
          cp.kind = PhaseRecord::Kind::kCpu;
          cp.label = "groupby-partition-cpu";
          cp.overlapped = true;
          cp.cpu_work = chunk.wait_time + chunk.cpu_time;
          cp.dop = 1;
          RecordPhase(std::move(cp), obs::kCatCpu, profile, trace);
        }
      }
      if (pstats.stage_time > 0) {
        PhaseRecord stage;
        stage.kind = PhaseRecord::Kind::kCpu;
        stage.label = "groupby-partition-stage";
        stage.cpu_work = pstats.stage_time;
        stage.dop = config_.query_dop;
        stage.bytes_moved = bytes_in;
        RecordPhase(std::move(stage), obs::kCatCpu, profile, trace);
      }
      PhaseRecord lanes;
      lanes.kind = PhaseRecord::Kind::kCpu;
      lanes.label = "groupby-partitioned";
      lanes.cpu_work = std::max(pstats.cpu_lane_time, pstats.gpu_lane_time);
      lanes.dop = 1;
      RecordPhase(std::move(lanes), obs::kCatCpu, profile, trace);
      PhaseRecord merge;
      merge.kind = PhaseRecord::Kind::kCpu;
      merge.label = "groupby-merge";
      merge.cpu_work = pstats.merge_time;
      merge.dop = 1;
      RecordPhase(std::move(merge), obs::kCatCpu, profile, trace);

      metrics_
          .GetCounter("blusim_partitioned_queries_total", {},
                      "Queries executed on the partitioned CPU+GPU path")
          ->Add(1);
      metrics_
          .GetCounter("blusim_partitioned_chunks_total", {{"side", "gpu"}},
                      "Partition chunks by executing side")
          ->Add(gpu_chunks);
      metrics_
          .GetCounter("blusim_partitioned_chunks_total", {{"side", "cpu"}},
                      "Partition chunks by executing side")
          ->Add(cpu_chunks);
      metrics_
          .GetCounter("blusim_partitioned_rows_total", {{"side", "gpu"}},
                      "Partitioned group-by input rows by executing side")
          ->Add(pstats.gpu_rows);
      metrics_
          .GetCounter("blusim_partitioned_rows_total", {{"side", "cpu"}},
                      "Partitioned group-by input rows by executing side")
          ->Add(pstats.cpu_rows);
      metrics_
          .GetCounter("blusim_partitioned_gpu_fallbacks_total", {},
                      "Partition chunks whose device attempt retried on the "
                      "CPU lane")
          ->Add(fallbacks);
      metrics_
          .GetHistogram("blusim_partitioned_cpu_split_percent", {},
                        "Target CPU row share per partitioned query "
                        "(percent)")
          ->Observe(static_cast<uint64_t>(pstats.cpu_split_fraction * 100.0));

      trace->Annotate("partitions", std::to_string(pstats.num_partitions));
      trace->Annotate("cpu_split",
                      std::to_string(pstats.cpu_split_fraction));
      trace->Annotate("actual_groups",
                      std::to_string(part_out->table->num_rows()));
      outcome.table = part_out->table;
      outcome.gpu_used = gpu_chunks > 0;
      if (!outcome.gpu_used) profile->degraded = true;
      return outcome;
    }
    // Partitioned path failed outright: degrade to the CPU chain below.
    RecordGroupByFallback("partitioned", profile, trace, &outcome);
  }

  if (path == ExecutionPath::kGpu) {
    // A still-deferred scan folds its predicates into the fused sweep.
    if (selection == nullptr) plan.set_stage_filter(query.fact_filters);
    // Per-query budgets (serving layer): a reservation beyond this query's
    // granted share of device or pinned memory degrades to the CPU chain
    // up front instead of competing for memory it was not allotted.
    const bool over_budget = ExceedsBudget(decision.reservation_bytes, opts);
    SimTime waited = 0;
    auto device = over_budget
                      ? Result<gpusim::SimDevice*>(Status::CapacityExceeded(
                            "reservation exceeds the per-query budget"))
                      : scheduler_.PickDeviceWithWait(
                            decision.reservation_bytes, &waited, opts.wait);
    if (waited > 0) {
      // A blocked agent holds its thread while polling for device memory,
      // so the wait is charged as a dop-1 phase (and shows up as a wait
      // span in the trace).
      PhaseRecord wait;
      wait.kind = PhaseRecord::Kind::kCpu;
      wait.label = "reservation-wait";
      wait.cpu_work = waited;
      wait.dop = 1;
      RecordPhase(std::move(wait), obs::kCatWait, profile, trace);
    }
    if (device.ok()) {
      groupby::GpuGroupByStats stats;
      auto gpu_out = groupby::GpuGroupBy::Execute(
          plan, device.value(), &pinned_, &pool_, &moderator_, selection,
          gopts, &stats);
      if (gpu_out.ok()) {
        // Host staging phase (chain + MEMCPY, or the fused one-sweep scan
        // + encode + pinned write), then the device job. While the kernel
        // runs, the host threads are released (the off-load benefit the
        // concurrency experiments measure).
        PhaseRecord stage;
        stage.kind = PhaseRecord::Kind::kCpu;
        stage.label = "groupby-stage";
        stage.cpu_work = stats.stage_time;
        stage.dop = config_.query_dop;
        stage.bytes_moved = stats.bytes_in;  // pinned staging writes
        RecordPhase(std::move(stage), obs::kCatCpu, profile, trace);

        PhaseRecord gpu;
        gpu.kind = PhaseRecord::Kind::kGpu;
        gpu.label = "groupby-kernel";
        gpu.device_time = stats.transfer_in + stats.table_init +
                          stats.kernel_time + stats.transfer_out;
        gpu.device_mem = stats.device_bytes_reserved;
        gpu.device_id = device.value()->id();
        gpu.bytes_moved = stats.bytes_in + stats.bytes_out;  // PCIe traffic
        // The device job breaks into timestamped sub-spans instead of one
        // opaque trace block (the profile keeps the aggregate phase).
        const char* kernel_name = CountDeviceRun(stats);
        trace->AddPhase("transfer-in", obs::kCatTransfer, stats.transfer_in,
                        gpu.device_id,
                        {{"bytes", std::to_string(stats.bytes_in)}});
        trace->AddPhase("hash-init", obs::kCatGpu, stats.table_init,
                        gpu.device_id);
        trace->AddPhase(std::string("kernel:") + kernel_name,
                        obs::kCatKernel, stats.kernel_time, gpu.device_id,
                        {{"retries", std::to_string(stats.retries)}});
        trace->AddPhase("transfer-out", obs::kCatTransfer,
                        stats.transfer_out, gpu.device_id,
                        {{"bytes", std::to_string(stats.bytes_out)}});
        trace->Annotate("kernel", kernel_name);
        trace->Annotate("fusion", stats.fused ? "on" : "off");
        trace->Annotate("bytes_h2d", std::to_string(stats.bytes_in));
        trace->Annotate("bytes_d2h", std::to_string(stats.bytes_out));
        if (stats.fused) {
          trace->Annotate("bytes_staged_avoided",
                          std::to_string(stats.bytes_avoided));
        }
        gpu.elapsed = gpu.IdleElapsed(cost_.HostParallelFactor(gpu.dop));
        profile->phases.push_back(std::move(gpu));

        trace->Annotate("actual_groups",
                        std::to_string(gpu_out->table->num_rows()));
        outcome.table = gpu_out->table;
        outcome.gpu_used = true;
        return outcome;
      }
      if (!gpu_out.status().IsRecoverableOnHost() &&
          gpu_out.status().code() != StatusCode::kNotSupported &&
          gpu_out.status().code() != StatusCode::kEstimateTooLow) {
        return gpu_out.status();
      }
      // Recoverable device failure: fall through to the CPU chain.
    }
    // GPU-routed but not executed on the device: graceful degradation.
    RecordGroupByFallback(over_budget ? "budget" : "cpu", profile, trace,
                          &outcome);
  }

  // CPU chain (baseline figure-1 path; also the fallback and the
  // "partitioned" case, which the prototype runs on the CPU).
  if (selection == nullptr) {
    // A fused device run fell back: its deferred scan runs now.
    BLUSIM_ASSIGN_OR_RETURN(scanned_rows,
                            ScanFact(query, fact, profile, trace));
    selection = &scanned_rows;
  }
  auto cpu_out = runtime::CpuGroupBy::Execute(plan, &pool_, selection);
  BLUSIM_RETURN_NOT_OK(cpu_out.status());
  trace->Annotate("actual_groups", std::to_string(cpu_out->num_groups));

  PhaseRecord phase;
  phase.kind = PhaseRecord::Kind::kCpu;
  phase.label = "groupby-cpu";
  phase.cpu_work = cost_.HostGroupByTime(
      selection->size(), cpu_out->num_groups,
      static_cast<int>(plan.slots().size()), 1);
  phase.dop = config_.query_dop;
  RecordPhase(std::move(phase), obs::kCatCpu, profile, trace);

  outcome.table = cpu_out->table;
  return outcome;
}

Result<QueryResult> Engine::Execute(const QuerySpec& query,
                                    const ExecOptions& opts) {
  BLUSIM_ASSIGN_OR_RETURN(std::shared_ptr<Table> fact,
                          GetTable(query.fact_table));
  QueryProfile profile;
  profile.query_name = query.name;
  obs::TraceBuilder trace(query.name);
  // Tags every device/pinned allocation this query makes with its id; the
  // scope's destructor runs the end-of-query leak check.
  gpusim::DeviceChecker::ScopedQuery check_scope(
      checker_.get(), next_query_id_.fetch_add(1, std::memory_order_relaxed),
      query.name);

  if (opts.admission_wait > 0) {
    // Time spent queued before admission; charged dop-1 so the trace and
    // profile show end-to-end latency, not just post-admission work.
    PhaseRecord adm;
    adm.kind = PhaseRecord::Kind::kCpu;
    adm.label = "admission-wait";
    adm.cpu_work = opts.admission_wait;
    adm.dop = 1;
    RecordPhase(std::move(adm), obs::kCatWait, &profile, &trace);
  }

  // --- Scan + filter the fact table ---
  // A deferred scan is RunGroupBy's: a fused device run folds the
  // predicates into its staging sweep, so no row ids are built that the
  // device never needs; every other path scans there, once.
  const bool defer_scan = DefersScan(query);
  std::vector<uint32_t> selection;
  if (!defer_scan) {
    BLUSIM_ASSIGN_OR_RETURN(selection,
                            ScanFact(query, *fact, &profile, &trace));
  }

  // --- Star joins (semi-join reduction of the fact selection) ---
  for (const DimJoinSpec& join : query.joins) {
    BLUSIM_ASSIGN_OR_RETURN(std::shared_ptr<Table> dim,
                            GetTable(join.dim_table));
    std::vector<uint32_t> dim_selection;
    const std::vector<uint32_t>* dim_sel_ptr = nullptr;
    if (!join.dim_filters.empty()) {
      BLUSIM_ASSIGN_OR_RETURN(
          dim_selection,
          runtime::FilterScan(*dim, join.dim_filters, &pool_));
      dim_sel_ptr = &dim_selection;
    }
    runtime::JoinSpec spec;
    spec.fact_fk_column = join.fact_fk_column;
    spec.dim_pk_column = join.dim_pk_column;
    BLUSIM_ASSIGN_OR_RETURN(
        runtime::JoinResult joined,
        runtime::HashJoin(*fact, *dim, spec, &pool_, &selection,
                          dim_sel_ptr));
    PhaseRecord jp;
    jp.kind = PhaseRecord::Kind::kCpu;
    jp.label = "join-" + join.dim_table;
    jp.cpu_work = cost_.HostJoinTime(
        dim_sel_ptr ? dim_selection.size() : dim->num_rows(),
        selection.size(), 1);
    jp.dop = config_.query_dop;
    RecordPhase(std::move(jp), obs::kCatCpu, &profile, &trace);
    selection = std::move(joined.fact_rows);
  }

  std::shared_ptr<Table> result;

  // --- Group by / aggregation ---
  if (query.groupby.has_value()) {
    BLUSIM_ASSIGN_OR_RETURN(
        GroupByOutcome outcome,
        RunGroupBy(query, *fact, defer_scan ? nullptr : &selection, opts,
                   &profile, &trace));
    profile.gpu_used = profile.gpu_used || outcome.gpu_used;
    result = outcome.table;
  }

  // --- Order by ---
  if (!query.order_by.empty()) {
    if (result != nullptr) {
      // Sorting the (small) aggregated result: CPU.
      sort::HybridSortOptions options;
      options.num_workers = 1;
      options.pool = &pool_;
      sort::HybridSortStats stats;
      BLUSIM_ASSIGN_OR_RETURN(
          std::vector<uint32_t> perm,
          sort::HybridSorter::Sort(*result, query.order_by, options,
                                   &stats));
      const uint64_t sorted_rows = perm.size();
      TruncateToLimit(query.limit, &perm);
      BLUSIM_ASSIGN_OR_RETURN(result, MaterializeRows(*result, perm, {}));
      PhaseRecord sp;
      sp.kind = PhaseRecord::Kind::kCpu;
      sp.label = "sort-result";
      sp.cpu_work = cost_.HostSortTime(sorted_rows, 1);
      sp.dop = config_.query_dop;
      RecordPhase(std::move(sp), obs::kCatCpu, &profile, &trace);
      profile.sort_path = ExecutionPath::kCpu;
    } else {
      // Sorting the selected fact rows: hybrid CPU/GPU sort.
      BLUSIM_ASSIGN_OR_RETURN(
          std::shared_ptr<Table> base,
          MaterializeRows(*fact, selection, query.projection));
      const uint64_t sort_bytes = sort::GpuSortBytesNeeded(
          static_cast<uint32_t>(base->num_rows()));
      // T3-aware sort routing: inputs that could never reserve device
      // memory (too many rows, or a footprint beyond every device) stay on
      // the CPU instead of failing at reservation time.
      ExecutionPath path = ChooseSortPath(
          base->num_rows(), sort_bytes, config_.thresholds,
          !devices_.empty(),
          devices_.empty() ? 0 : min_device_memory_);
      if (path == ExecutionPath::kGpu && ExceedsBudget(sort_bytes, opts)) {
        // Per-query budget cap (serving layer): degrade to the CPU sort.
        path = ExecutionPath::kCpu;
        profile.degraded = true;
        trace.Annotate("sort_fallback", "budget");
      }
      profile.sort_path = path;
      trace.Annotate("sort_path", ExecutionPathName(path));
      sort::HybridSortOptions options;
      options.min_gpu_rows = config_.sort_min_gpu_rows;
      options.num_workers = config_.sort_workers;
      options.pool = &pool_;
      options.trace = &trace;
      options.metrics = &metrics_;
      bool gpu_possible = false;
      if (path == ExecutionPath::kGpu) {
        // Job-level placement: the hybrid sorter asks the scheduler for a
        // device per job, so concurrent jobs spread across both GPUs.
        if (scheduler_.PickDevice(sort_bytes).ok()) {
          options.scheduler = &scheduler_;
          options.pinned_pool = &pinned_;
          gpu_possible = true;
        } else {
          // GPU-routed but the devices are full right now: degrade.
          profile.sort_path = ExecutionPath::kCpu;
          profile.degraded = true;
          trace.Annotate("sort_fallback", "cpu");
        }
      }
      sort::HybridSortStats stats;
      BLUSIM_ASSIGN_OR_RETURN(
          std::vector<uint32_t> perm,
          sort::HybridSorter::Sort(*base, query.order_by, options, &stats));
      TruncateToLimit(query.limit, &perm);
      BLUSIM_ASSIGN_OR_RETURN(result, MaterializeRows(*base, perm, {}));

      PhaseRecord keygen;
      keygen.kind = PhaseRecord::Kind::kCpu;
      keygen.label = "sort-keygen";
      keygen.cpu_work = cost_.HostKeyGenTime(base->num_rows(), 1) +
                        stats.cpu_sort_time;
      keygen.dop = config_.query_dop;
      RecordPhase(std::move(keygen), obs::kCatCpu, &profile, &trace);
      if (stats.jobs_gpu > 0 && gpu_possible) {
        PhaseRecord gp;
        gp.kind = PhaseRecord::Kind::kGpu;
        gp.label = "sort-kernel";
        gp.device_time = stats.gpu_transfer_time + stats.gpu_kernel_time;
        gp.device_mem = sort::GpuSortBytesNeeded(
            static_cast<uint32_t>(base->num_rows()));
        gp.device_id = 0;  // the DES rebalances devices at replay time
        RecordPhase(std::move(gp), obs::kCatGpu, &profile, &trace);
        profile.gpu_used = true;
      }
    }
  }

  // --- No aggregation / no sort: project the selected rows ---
  if (result == nullptr) {
    BLUSIM_ASSIGN_OR_RETURN(
        result, MaterializeRows(*fact, selection, query.projection));
    PhaseRecord mp;
    mp.kind = PhaseRecord::Kind::kCpu;
    mp.label = "project";
    mp.cpu_work = cost_.HostScanTime(selection.size(), 16, 1);
    mp.dop = config_.query_dop;
    RecordPhase(std::move(mp), obs::kCatCpu, &profile, &trace);
  }

  // --- Limit (the sorting paths already truncated their permutation) ---
  if (query.limit > 0 && result->num_rows() > query.limit) {
    std::vector<uint32_t> head(query.limit);
    std::iota(head.begin(), head.end(), 0);
    BLUSIM_ASSIGN_OR_RETURN(result, MaterializeRows(*result, head, {}));
  }

  profile.result_rows = result->num_rows();
  profile.total_elapsed = 0;
  for (const PhaseRecord& phase : profile.phases) {
    if (phase.overlapped) continue;  // carried by an umbrella phase
    profile.total_elapsed += phase.elapsed;
  }

  metrics_
      .GetCounter("blusim_queries_total",
                  {{"gpu", profile.gpu_used ? "true" : "false"}},
                  "Queries executed, by whether any phase used a device")
      ->Add(1);
  if (profile.degraded) {
    metrics_
        .GetCounter("blusim_queries_degraded_total", {},
                    "Queries that re-routed a GPU-routed phase to the CPU "
                    "after routing (budget, denial, or device failure)")
        ->Add(1);
    trace.Annotate("degraded", "true");
  }
  metrics_
      .GetHistogram("blusim_query_elapsed_us",
                    {{"class", QueryShapeName(query)}},
                    "Serial elapsed time per query (simulated microseconds), "
                    "by query shape class")
      ->Observe(static_cast<uint64_t>(profile.total_elapsed));
  profile.trace = trace.Finish();

  QueryResult qr;
  qr.table = std::move(result);
  qr.profile = std::move(profile);
  return qr;
}

}  // namespace blusim::core
