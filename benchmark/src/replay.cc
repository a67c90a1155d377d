#include "replay.h"

#include <algorithm>
#include <fstream>

#include "common/hash.h"
#include "common/kmv.h"
#include "groupby/gpu_groupby.h"
#include "groupby/staging.h"
#include "runtime/cpu_groupby.h"
#include "runtime/operators.h"
#include "sort/hybrid_sort.h"

namespace blubench {

using blusim::Result;
using blusim::Status;
using blusim::columnar::Table;
using blusim::core::Engine;
using blusim::core::PhaseRecord;
using blusim::core::QueryProfile;
using blusim::core::QuerySpec;

int64_t SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"query_id\":" << s.query_id
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

std::string PathSignature(const QueryProfile& profile) {
  std::string sig;
  for (const PhaseRecord& p : profile.phases) {
    if (p.label == "admission-wait" || p.label == "reservation-wait") continue;
    sig += p.label;
    sig += ',';
  }
  const std::string* fusion = profile.trace.FindAnnotation("fusion");
  sig += fusion != nullptr && *fusion == "on" ? "fused" : "-";
  return sig;
}

namespace {

bool HasPhase(const QueryProfile& profile, const char* label) {
  for (const PhaseRecord& p : profile.phases) {
    if (p.label == label) return true;
  }
  return false;
}

int PhaseDevice(const QueryProfile& profile, const char* label) {
  for (const PhaseRecord& p : profile.phases) {
    if (p.label == label) return p.device_id;
  }
  return -1;
}

// Times one replayed layer call as a child span of the replayed Execute.
class LayerSpan {
 public:
  LayerSpan(SpanLog* log, const char* name, int64_t parent, uint64_t qid)
      : log_(log), name_(name), parent_(parent), qid_(qid),
        start_(log->NowNs()) {}
  // Closes the span and returns its duration in nanoseconds.
  double Stop() {
    const int64_t end = log_->NowNs();
    log_->Add(Span{name_, start_, end, parent_, qid_});
    return static_cast<double>(end - start_);
  }

 private:
  SpanLog* log_;
  const char* name_;
  int64_t parent_;
  uint64_t qid_;
  int64_t start_;
};

uint64_t KeyHash(const blusim::runtime::GroupByPlan& plan, uint32_t row) {
  if (plan.wide_key()) {
    blusim::runtime::WideKey wk;
    plan.FillWideKey(row, &wk);
    return blusim::Murmur3_64(wk.bytes, wk.len);
  }
  return blusim::Mix64(plan.PackKey(row));
}

}  // namespace

Status Replay(Engine* engine, const ReplayItem& item, SpanLog* log,
              LayerTotals* t) {
  const QuerySpec& q = *item.spec;
  const QueryProfile& prof = *item.profile;
  const double w = item.weight;
  const blusim::core::EngineConfig& cfg = engine->config();
  blusim::runtime::ThreadPool* pool = &engine->pool();
  BLUSIM_ASSIGN_OR_RETURN(std::shared_ptr<Table> fact,
                          engine->GetTable(q.fact_table));

  const int64_t exec_start = log->NowNs();
  auto exec = engine->Execute(q, item.opts);
  const int64_t exec_end = log->NowNs();
  BLUSIM_RETURN_NOT_OK(exec.status());
  if (PathSignature(exec->profile) != PathSignature(prof)) {
    ++t->path_mismatches;
  }
  const int64_t parent = log->Add(
      Span{"core.execute", exec_start, exec_end, item.root_span,
           item.query_id});
  double child_ns = 0;
  auto span = [&](const char* name) {
    return LayerSpan(log, name, parent, item.query_id);
  };

  std::vector<uint32_t> selection;
  bool have_selection = false;
  auto scan_fact = [&]() -> Status {
    LayerSpan s = span("runtime.filter_scan");
    BLUSIM_ASSIGN_OR_RETURN(
        selection, blusim::runtime::FilterScan(*fact, q.fact_filters, pool));
    const double ns = s.Stop();
    child_ns += ns;
    t->scan_calls += w;
    t->scan_ns += w * ns;
    t->scan_rows += w * static_cast<double>(fact->num_rows());
    have_selection = true;
    return Status::OK();
  };

  // The engine defers the fact scan exactly when this holds (data-path
  // fusion for join-free group-bys on a GPU engine).
  const bool deferred = cfg.enable_fusion &&
                        cfg.groupby_options.allow_fusion &&
                        engine->scheduler().num_devices() > 0 &&
                        q.groupby.has_value() && q.joins.empty();
  if (!deferred) BLUSIM_RETURN_NOT_OK(scan_fact());

  for (const blusim::core::DimJoinSpec& join : q.joins) {
    BLUSIM_ASSIGN_OR_RETURN(std::shared_ptr<Table> dim,
                            engine->GetTable(join.dim_table));
    std::vector<uint32_t> dim_selection;
    const std::vector<uint32_t>* dim_ptr = nullptr;
    if (!join.dim_filters.empty()) {
      LayerSpan s = span("runtime.filter_scan");
      BLUSIM_ASSIGN_OR_RETURN(
          dim_selection,
          blusim::runtime::FilterScan(*dim, join.dim_filters, pool));
      const double ns = s.Stop();
      child_ns += ns;
      t->scan_calls += w;
      t->scan_ns += w * ns;
      t->scan_rows += w * static_cast<double>(dim->num_rows());
      dim_ptr = &dim_selection;
    }
    blusim::runtime::JoinSpec spec;
    spec.fact_fk_column = join.fact_fk_column;
    spec.dim_pk_column = join.dim_pk_column;
    const double probe_rows = static_cast<double>(selection.size());
    LayerSpan s = span("runtime.hash_join");
    BLUSIM_ASSIGN_OR_RETURN(
        blusim::runtime::JoinResult joined,
        blusim::runtime::HashJoin(*fact, *dim, spec, pool, &selection,
                                  dim_ptr));
    const double ns = s.Stop();
    child_ns += ns;
    t->join_calls += w;
    t->join_ns += w * ns;
    t->join_probe_rows += w * probe_rows;
    selection = std::move(joined.fact_rows);
  }

  std::shared_ptr<Table> result;
  if (q.groupby.has_value()) {
    BLUSIM_ASSIGN_OR_RETURN(
        blusim::runtime::GroupByPlan plan,
        blusim::runtime::GroupByPlan::Make(*fact, *q.groupby));

    // Routing estimate, as Engine::EstimateGroups (full pass over the
    // selection) or Engine::SampleEstimates (strided sample of the fact
    // table when the scan is deferred) computes it.
    uint64_t est_rows = 0;
    uint64_t est_groups = 0;
    {
      LayerSpan s = span("common.kmv");
      blusim::KmvSketch sketch(512);
      uint64_t hashed = 0;
      if (deferred) {
        const uint64_t n = fact->num_rows();
        const uint64_t target =
            std::min<uint64_t>(n, std::max<uint64_t>(4096, n / 64));
        const uint64_t step = std::max<uint64_t>(1, n / target);
        uint64_t examined = 0;
        for (uint64_t row = 0; row < n; row += step) {
          ++examined;
          if (!q.fact_filters.empty() &&
              !blusim::runtime::RowMatchesPredicates(
                  *fact, q.fact_filters, static_cast<uint32_t>(row))) {
            continue;
          }
          ++hashed;
          sketch.AddHash(KeyHash(plan, static_cast<uint32_t>(row)));
        }
        est_rows = examined > 0 ? n * hashed / examined : n;
        const uint64_t distinct = std::max<uint64_t>(1, sketch.Estimate());
        est_groups = hashed > 0 && distinct * 4 >= hashed * 3
                         ? std::max<uint64_t>(1, est_rows * distinct / hashed)
                         : distinct;
      } else {
        for (uint32_t row : selection) sketch.AddHash(KeyHash(plan, row));
        hashed = selection.size();
        est_rows = hashed;
        est_groups = std::max<uint64_t>(1, sketch.Estimate());
      }
      const double ns = s.Stop();
      // This block copies the engine's private estimate; the estimate the
      // query's profile recorded shows when the two drift apart.
      const std::string* recorded = prof.trace.FindAnnotation("kmv_estimate");
      if (recorded == nullptr || *recorded != std::to_string(est_groups)) {
        ++t->path_mismatches;
      }
      child_ns += ns;
      t->kmv_calls += w;
      t->kmv_ns += w * ns;
      t->kmv_rows += w * static_cast<double>(hashed);
    }
    // A deferred scan the engine still materialized (CPU chain or SoA
    // staging) shows as a scan phase in the profile.
    if (deferred && HasPhase(prof, "scan")) {
      BLUSIM_RETURN_NOT_OK(scan_fact());
    }

    if (HasPhase(prof, "groupby-stage")) {
      const std::string* fusion = prof.trace.FindAnnotation("fusion");
      const bool fused = fusion != nullptr && *fusion == "on";
      if (!have_selection) plan.set_stage_filter(q.fact_filters);
      const std::vector<uint32_t>* sel =
          have_selection ? &selection : nullptr;
      const auto mode = fused ? blusim::groupby::StageMode::kFusedRecords
                              : blusim::groupby::StageMode::kSoA;
      double stage_ns = 0;
      {
        LayerSpan s = span("groupby.staging");
        BLUSIM_ASSIGN_OR_RETURN(
            blusim::groupby::StagedInput staged,
            blusim::groupby::StageForDevice(plan, &engine->pinned_pool(),
                                            pool, sel, mode));
        stage_ns = s.Stop();
        t->stage_bytes += w * static_cast<double>(staged.transfer_bytes);
      }
      child_ns += stage_ns;
      t->stage_calls += w;
      t->stage_ns += w * stage_ns;
      t->stage_fused += fused ? w : 0;

      blusim::groupby::GpuGroupByOptions gopts = cfg.groupby_options;
      gopts.allow_fusion = fused;
      gopts.estimated_rows = est_rows;
      gopts.estimated_groups = est_groups;
      const int device_id =
          std::max(0, PhaseDevice(prof, "groupby-kernel"));
      blusim::groupby::GpuGroupByStats stats;
      LayerSpan s = span("groupby.gpu_groupby");
      BLUSIM_ASSIGN_OR_RETURN(
          blusim::runtime::GroupByOutput out,
          blusim::groupby::GpuGroupBy::Execute(
              plan, engine->scheduler().device(static_cast<size_t>(device_id)),
              &engine->pinned_pool(), pool, &engine->moderator(), sel, gopts,
              &stats));
      const double ns = s.Stop();
      // The stage span above re-ran the staging this call repeats inside.
      child_ns += std::max(0.0, ns - stage_ns);
      if (stats.fused != fused) ++t->path_mismatches;
      t->gpu_calls += w;
      t->gpu_ns += w * ns;
      t->gpu_emul_ns += w * std::max(0.0, ns - stage_ns);
      t->gpu_kernel_sim_us += w * static_cast<double>(stats.kernel_time);
      result = out.table;
    } else if (HasPhase(prof, "groupby-cpu")) {
      blusim::runtime::CpuGroupByStats stats;
      LayerSpan s = span("runtime.cpu_groupby");
      BLUSIM_ASSIGN_OR_RETURN(
          blusim::runtime::GroupByOutput out,
          blusim::runtime::CpuGroupBy::Execute(plan, pool, &selection,
                                               &stats));
      const double ns = s.Stop();
      child_ns += ns;
      t->cpu_gb_calls += w;
      t->cpu_gb_ns += w * ns;
      t->cpu_gb_rows += w * static_cast<double>(selection.size());
      t->cpu_gb_rehashes +=
          w * static_cast<double>(stats.local_rehashes + stats.merge_rehashes);
      result = out.table;
    }
  }

  if (!q.order_by.empty()) {
    blusim::sort::HybridSortOptions o;
    o.pool = pool;
    std::shared_ptr<Table> input = result;
    if (input != nullptr) {
      o.num_workers = 1;  // the engine sorts aggregated results on the CPU
    } else {
      BLUSIM_ASSIGN_OR_RETURN(
          input, blusim::core::MaterializeRows(*fact, selection,
                                               q.projection));
      o.min_gpu_rows = cfg.sort_min_gpu_rows;
      o.num_workers = cfg.sort_workers;
      if (prof.sort_path == blusim::core::ExecutionPath::kGpu) {
        o.scheduler = &engine->scheduler();
        o.pinned_pool = &engine->pinned_pool();
      }
    }
    blusim::sort::HybridSortStats stats;
    LayerSpan s = span("sort.hybrid_sort");
    BLUSIM_ASSIGN_OR_RETURN(
        std::vector<uint32_t> perm,
        blusim::sort::HybridSorter::Sort(*input, q.order_by, o, &stats));
    const double ns = s.Stop();
    child_ns += ns;
    t->sort_calls += w;
    t->sort_ns += w * ns;
    t->sort_rows += w * static_cast<double>(perm.size());
    t->sort_jobs_gpu += w * static_cast<double>(stats.jobs_gpu);
    t->sort_jobs += w * static_cast<double>(stats.jobs_total);
  }

  const double exec_ns = static_cast<double>(exec_end - exec_start);
  t->exec_calls += w;
  t->exec_ns += w * exec_ns;
  t->exec_self_ns += w * std::max(0.0, exec_ns - child_ns);
  return Status::OK();
}

}  // namespace blubench
