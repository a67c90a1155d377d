// Ablation studies over the design choices DESIGN.md calls out, reported
// in simulated time from the calibrated cost model:
//   1. pinned vs unpinned transfers (section 2.1.2's ">4x" claim)
//   2. KMV-sized vs rows-sized device hash table (section 4's motivation)
//   3. moderator kernel choice vs each fixed kernel across query shapes
//   4. hybrid sort vs CPU-only sort across input sizes

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "columnar/table.h"
#include "gpusim/cost_model.h"
#include "groupby/kernels.h"
#include "groupby/layout.h"
#include "groupby/moderator.h"
#include "harness/report.h"
#include "runtime/groupby_plan.h"

using namespace blusim;

namespace {

void AblationPinned(const gpusim::CostModel& cost) {
  harness::PrintExperimentHeader(
      "Ablation 1", "Registered (pinned) vs unregistered host memory");
  harness::ReportTable t({"Transfer size", "Unpinned (ms)", "Pinned (ms)",
                          "Speedup"});
  for (uint64_t mb : {1, 8, 64, 256}) {
    const uint64_t bytes = mb << 20;
    const SimTime up = cost.TransferTime(bytes, false);
    const SimTime p = cost.TransferTime(bytes, true);
    t.AddRow({std::to_string(mb) + " MB", harness::FormatMs(up),
              harness::FormatMs(p),
              harness::FormatDouble(static_cast<double>(up) /
                                    static_cast<double>(p)) +
                  "x"});
  }
  t.Print();
  std::printf("Paper section 2.1.2: registered-memory transfers are >4x\n"
              "faster on PCIe gen3; the engine registers one large segment\n"
              "at startup and sub-allocates from it.\n");
}

void AblationTableSizing(const gpusim::CostModel& cost) {
  harness::PrintExperimentHeader(
      "Ablation 2", "KMV-sized vs input-rows-sized device hash table");
  harness::ReportTable t({"Rows", "Groups", "KMV-sized table", "Rows-sized",
                          "Memory saved", "Init time saved"});
  constexpr int kEntryBytes = 48;
  for (auto [rows, groups] : std::initializer_list<std::pair<uint64_t,
                                                             uint64_t>>{
           {1000000, 100}, {1000000, 10000}, {4000000, 50000}}) {
    const uint64_t kmv_cap = groupby::ChooseCapacity(groups);
    const uint64_t naive_cap = groupby::ChooseCapacity(rows);
    const uint64_t kmv_bytes = kmv_cap * kEntryBytes;
    const uint64_t naive_bytes = naive_cap * kEntryBytes;
    t.AddRow({std::to_string(rows), std::to_string(groups),
              harness::FormatDouble(static_cast<double>(kmv_bytes) /
                                    (1 << 20)) + " MB",
              harness::FormatDouble(static_cast<double>(naive_bytes) /
                                    (1 << 20)) + " MB",
              harness::FormatPct(1.0 - static_cast<double>(kmv_bytes) /
                                           static_cast<double>(naive_bytes)),
              harness::FormatMs(cost.HashTableInitTime(naive_bytes) -
                                cost.HashTableInitTime(kmv_bytes))});
  }
  t.Print();
  std::printf("Without the KMV estimate the table must be sized to the\n"
              "input rows (section 4) -- scarce device memory is wasted and\n"
              "initialization cost grows with it.\n");
}

void AblationKernelChoice(const gpusim::CostModel& cost) {
  harness::PrintExperimentHeader(
      "Ablation 3", "Moderator kernel choice vs fixed kernels");
  harness::ReportTable t({"Query shape", "K1 regular (ms)", "K2 shared (ms)",
                          "K3 rowlock (ms)", "Moderator picks"});
  struct Shape {
    const char* name;
    uint64_t rows, groups;
    int aggs;
  };
  const groupby::GpuModerator moderator;
  gpusim::DeviceSpec dev;
  const uint64_t shared_mem = groupby::Kernel2SharedMemBytes(dev);
  for (const Shape& s :
       {Shape{"regular (50k groups, 3 aggs)", 4000000, 50000, 3},
        Shape{"few groups (12 groups)", 4000000, 12, 3},
        Shape{"many aggregates (8 aggs)", 4000000, 50000, 8},
        Shape{"low contention (rows/groups=2)", 4000000, 2000000, 3}}) {
    gpusim::GroupByKernelParams p;
    p.rows = s.rows;
    p.groups = s.groups;
    p.num_aggregates = s.aggs;
    const SimTime k1 =
        cost.GroupByKernelTime(gpusim::GroupByKernelKind::kRegular, p);
    const SimTime k2 =
        cost.GroupByKernelTime(gpusim::GroupByKernelKind::kSharedMem, p);
    const SimTime k3 =
        cost.GroupByKernelTime(gpusim::GroupByKernelKind::kRowLock, p);

    // The hash-table layout of an int64 key with `aggs` int64 SUMs sizes
    // the shared-memory table the moderator's kernel-2 rule checks.
    columnar::Schema schema;
    schema.AddField({"k", columnar::DataType::kInt64, false});
    runtime::GroupBySpec spec;
    spec.key_columns = {0};
    for (int a = 0; a < s.aggs; ++a) {
      const std::string name = "v" + std::to_string(a);
      schema.AddField({name, columnar::DataType::kInt64, false});
      spec.aggregates.push_back({runtime::AggFn::kSum, a + 1, name});
    }
    const columnar::Table table(schema);
    auto plan = runtime::GroupByPlan::Make(table, spec);
    if (!plan.ok()) continue;
    groupby::QueryMetadata m;
    m.rows = s.rows;
    m.estimated_groups = s.groups;
    m.num_aggregates = s.aggs;
    const gpusim::GroupByKernelKind pick = moderator.ChooseKernel(
        m, groupby::HashTableLayout(plan.value()), shared_mem);
    const char* pick_name =
        pick == gpusim::GroupByKernelKind::kRegular     ? "K1"
        : pick == gpusim::GroupByKernelKind::kSharedMem ? "K2"
                                                        : "K3";
    t.AddRow({s.name, harness::FormatMs(k1), harness::FormatMs(k2),
              harness::FormatMs(k3), pick_name});
  }
  t.Print();
  std::printf("The moderator's pick should track the fastest column per\n"
              "row (sections 4.3.1-4.3.3).\n");
}

void AblationHybridSort() {
  harness::PrintExperimentHeader(
      "Ablation 4", "Hybrid CPU+GPU sort vs CPU-only sort (modeled)");
  gpusim::HostSpec host;
  gpusim::DeviceSpec dev;
  gpusim::CostModel cost(host, dev);
  harness::ReportTable t({"Rows", "CPU-only @dop24 (ms)",
                          "GPU keygen+kernel+PCIe (ms)", "GPU speedup"});
  for (uint64_t rows : {50000, 500000, 5000000, 50000000}) {
    const SimTime cpu = cost.HostSortTime(rows, 24);
    const SimTime gpu = cost.HostKeyGenTime(rows, 24) +
                        cost.SortKernelTime(rows) +
                        2 * cost.TransferTime(rows * 8, true);
    t.AddRow({std::to_string(rows), harness::FormatMs(cpu),
              harness::FormatMs(gpu),
              harness::FormatDouble(static_cast<double>(cpu) /
                                    static_cast<double>(gpu)) +
                  "x"});
  }
  t.Print();
  std::printf("Small jobs stay on the CPU (launch+transfer overhead); the\n"
              "job queue sends only large partitions to the device\n"
              "(section 3).\n");
}

}  // namespace

int main() {
  gpusim::HostSpec host;
  gpusim::DeviceSpec dev;
  gpusim::CostModel cost(host, dev);
  AblationPinned(cost);
  AblationTableSizing(cost);
  AblationKernelChoice(cost);
  AblationHybridSort();
  return 0;
}
