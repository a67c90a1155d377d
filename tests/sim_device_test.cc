// Tests for SimDevice: transfers, job tracking, memory sampling — plus
// scheduler-driven multi-GPU sorting.

#include "gpusim/sim_device.h"

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "sort/hybrid_sort.h"
#include "sort/sds.h"

namespace blusim {
namespace {

using gpusim::DeviceSpec;
using gpusim::HostSpec;
using gpusim::SimDevice;

class SimDeviceTest : public ::testing::Test {
 protected:
  HostSpec host_;
  DeviceSpec spec_;
  SimDevice device_{0, spec_, host_, 1};
};

TEST_F(SimDeviceTest, CopyRoundTripPreservesData) {
  auto reservation = device_.memory().Reserve(4096);
  ASSERT_TRUE(reservation.ok());
  auto buf = device_.memory().Alloc(reservation.value(), 4096);
  ASSERT_TRUE(buf.ok());
  std::vector<char> src(4096);
  for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<char>(i);
  const SimTime up = device_.CopyToDevice(src.data(), &buf.value(), 4096,
                                          true);
  std::vector<char> dst(4096);
  const SimTime down = device_.CopyFromDevice(buf.value(), dst.data(), 4096,
                                              true);
  EXPECT_EQ(src, dst);
  EXPECT_GT(up, 0);
  EXPECT_GT(down, 0);
  // Monitor recorded both directions.
  EXPECT_EQ(device_.monitor()
                .stats(gpusim::GpuEvent::kTransferToDevice)
                .total_bytes,
            4096u);
  EXPECT_EQ(device_.monitor()
                .stats(gpusim::GpuEvent::kTransferFromDevice)
                .count,
            1u);
}

TEST_F(SimDeviceTest, UnpinnedTransfersSlower) {
  auto reservation = device_.memory().Reserve(1 << 20);
  auto buf = device_.memory().Alloc(reservation.value(), 1 << 20);
  std::vector<char> src(1 << 20);
  const SimTime pinned =
      device_.CopyToDevice(src.data(), &buf.value(), 1 << 20, true);
  const SimTime unpinned =
      device_.CopyToDevice(src.data(), &buf.value(), 1 << 20, false);
  EXPECT_GT(unpinned, 3 * pinned);
}

TEST_F(SimDeviceTest, JobTracking) {
  EXPECT_EQ(device_.outstanding_jobs(), 0);
  device_.JobStarted();
  device_.JobStarted();
  EXPECT_EQ(device_.outstanding_jobs(), 2);
  device_.JobFinished();
  EXPECT_EQ(device_.outstanding_jobs(), 1);
  device_.JobFinished();
}

TEST_F(SimDeviceTest, MemorySampling) {
  auto r = device_.memory().Reserve(1000);
  device_.SampleMemoryUsage(42);
  auto samples = device_.monitor().memory_samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].time, 42);
  EXPECT_EQ(samples[0].bytes_in_use, 1000u);
}

TEST_F(SimDeviceTest, DefaultSpecMatchesK40) {
  EXPECT_EQ(spec_.total_cores(), 2880);  // "around 3000 cores"
  EXPECT_EQ(spec_.device_memory_bytes, 12ULL << 30);  // "12G of memory"
  EXPECT_EQ(spec_.num_smx * static_cast<int>(spec_.shared_mem_per_smx_bytes),
            15 * 64 * 1024);
  HostSpec host;
  EXPECT_EQ(host.cores, 24);          // S824: 24 cores
  EXPECT_EQ(host.hw_threads(), 96);   // SMT4
}

TEST(MultiGpuSortTest, SchedulerSpreadsJobsAcrossDevices) {
  // Heavy duplicates force many follow-up jobs; with 2 workers and the
  // scheduler option, jobs land on both devices.
  columnar::Schema schema;
  schema.AddField({"a", columnar::DataType::kInt64, false});
  columnar::Table t(schema);
  Rng rng(77);
  for (int i = 0; i < 120000; ++i) {
    t.column(0).AppendInt64(static_cast<int64_t>(rng.Below(6)));
  }
  gpusim::HostSpec host;
  gpusim::DeviceSpec spec;
  gpusim::SimDevice d0(0, spec, host, 1);
  gpusim::SimDevice d1(1, spec, host, 1);
  sched::GpuScheduler scheduler({&d0, &d1});
  gpusim::PinnedHostPool pinned(64ULL << 20);

  sort::HybridSortOptions options;
  options.scheduler = &scheduler;
  options.pinned_pool = &pinned;
  options.min_gpu_rows = 2048;
  options.num_workers = 3;
  sort::HybridSortStats stats;
  auto perm = sort::HybridSorter::Sort(t, {{0, true}}, options, &stats);
  ASSERT_TRUE(perm.ok());
  EXPECT_GE(stats.jobs_gpu, 2u);

  // Verify the ordering.
  auto sds = sort::SortDataStore::Make(t, {{0, true}});
  std::vector<uint32_t> ref(t.num_rows());
  std::iota(ref.begin(), ref.end(), 0);
  std::sort(ref.begin(), ref.end(),
            [&](uint32_t a, uint32_t b) { return sds->RowLess(a, b); });
  EXPECT_EQ(*perm, ref);

  // Both devices saw kernel work (with 3 workers and a job fan-out this
  // is effectively guaranteed: a device already holding a job reports
  // outstanding work and the scheduler prefers the idle one).
  const auto k0 = d0.monitor().kernel_stats();
  const auto k1 = d1.monitor().kernel_stats();
  EXPECT_GE(k0.count("radix_sort") + k1.count("radix_sort"), 1u);
  EXPECT_EQ(d0.memory().reserved(), 0u);
  EXPECT_EQ(d1.memory().reserved(), 0u);
}

}  // namespace
}  // namespace blusim
