// Asynchronous-serving tests: SubmitAsync handles, per-tenant weighted
// fair admission (stride scheduling), deadline shedding, priority
// eviction, the reserved "-" tenant label, queue-depth gauge
// consistency, and the thundering-herd wakeup gate.
//
// Labeled `concurrency` so it runs under the BLUSIM_SANITIZE=thread build.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/query.h"
#include "harness/runner.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/window.h"
#include "serve/query_service.h"
#include "workload/data_gen.h"

namespace blusim {
namespace {

using core::QuerySpec;
using runtime::AggFn;

// CPU-only engine: these tests exercise admission mechanics, not device
// placement, and a deterministic "cpu" mode keeps the SLO-window and
// flight-record assertions exact.
class ServeAsyncTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::ScaleConfig scale;
    scale.store_sales_rows = 40000;
    scale.customers = 2000;
    scale.items = 400;
    auto db = workload::GenerateDatabase(scale);
    ASSERT_TRUE(db.ok());
    db_ = new workload::Database(std::move(db).value());

    core::EngineConfig config;
    config.cpu_threads = 2;
    config.gpu_enabled = false;
    engine_ = harness::MakeEngine(*db_, config).release();
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete db_;
    engine_ = nullptr;
    db_ = nullptr;
  }

  static QuerySpec MakeQuery() {
    const columnar::Table& ss = *db_->at("store_sales");
    QuerySpec q;
    q.name = "async-store";
    q.fact_table = "store_sales";
    runtime::GroupBySpec g;
    g.key_columns = {workload::Col(ss, "ss_store_sk")};
    g.aggregates = {{AggFn::kSum, workload::Col(ss, "ss_net_paid"), "paid"},
                    {AggFn::kCount, -1, "n"}};
    q.groupby = g;
    return q;
  }

  static workload::Database* db_;
  static core::Engine* engine_;
};

workload::Database* ServeAsyncTest::db_ = nullptr;
core::Engine* ServeAsyncTest::engine_ = nullptr;

// The async acceptance bar: one client thread parks hundreds of
// submissions inside the service at once (paused, so nothing drains while
// we count), then everything completes when admission resumes.
TEST_F(ServeAsyncTest, SingleThreadKeepsHundredsInFlight) {
  serve::ServiceOptions sopts;
  sopts.max_concurrent = 2;
  sopts.max_queue_depth = 512;
  serve::QueryService service(engine_, sopts);
  const QuerySpec q = MakeQuery();
  const int kInFlight = 300;

  service.PauseAdmission();
  std::vector<serve::QueryHandle> handles;
  handles.reserve(kInFlight);
  for (int i = 0; i < kInFlight; ++i) {
    handles.push_back(service.SubmitAsync(q, "t" + std::to_string(i % 8)));
    ASSERT_TRUE(handles.back().valid());
  }

  serve::ServiceStats mid = service.stats();
  EXPECT_EQ(mid.queued, static_cast<size_t>(kInFlight));
  EXPECT_EQ(mid.inflight, kInFlight);
  EXPECT_GE(mid.peak_inflight, kInFlight);
  EXPECT_EQ(mid.queue_depth_gauge, static_cast<int64_t>(mid.queued));

  service.ResumeAdmission();
  for (serve::QueryHandle& h : handles) {
    auto r = h.Get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kInFlight));
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_GE(stats.peak_inflight, kInFlight);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.queue_depth_gauge, 0);
  // One targeted wakeup per enqueue plus the single resume broadcast,
  // nothing more.
  EXPECT_EQ(stats.wakeups, stats.submitted + 1);
}

// Stride scheduling under saturation: with one execution slot and three
// backlogged tenants weighted 1/2/4, admissions interleave so each
// tenant's share tracks its weight exactly -- 1/2/4 of the first 7 picks,
// 5/10/20 of the first 35.
TEST_F(ServeAsyncTest, WeightedFairSharesFollowStride) {
  serve::ServiceOptions sopts;
  sopts.max_concurrent = 1;
  sopts.max_queue_depth = 128;
  sopts.tenant_classes = {{"a", 1.0}, {"b", 2.0}, {"c", 4.0}};
  serve::QueryService service(engine_, sopts);
  const QuerySpec q = MakeQuery();
  const int kPerTenant = 20;

  // Single executor: completion callbacks are serialized on it, so the
  // recorded order IS the admission order and a plain vector is safe.
  std::vector<std::string> order;
  order.reserve(3 * kPerTenant);

  service.PauseAdmission();
  std::vector<serve::QueryHandle> handles;
  for (int i = 0; i < kPerTenant; ++i) {
    for (const std::string tenant : {"a", "b", "c"}) {
      serve::SubmitOptions opts;
      opts.on_complete = [&order, tenant](
          const Result<core::QueryResult>& r) {
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        order.push_back(tenant);
      };
      handles.push_back(service.SubmitAsync(q, tenant, opts));
    }
  }
  service.ResumeAdmission();
  for (serve::QueryHandle& h : handles) ASSERT_TRUE(h.Get().ok());

  ASSERT_EQ(order.size(), static_cast<size_t>(3 * kPerTenant));
  auto count = [&order](size_t prefix, const std::string& tenant) {
    size_t n = 0;
    for (size_t i = 0; i < prefix; ++i) n += (order[i] == tenant);
    return n;
  };
  // One full stride cycle (sum of weights = 7 picks)...
  EXPECT_EQ(count(7, "a"), 1u);
  EXPECT_EQ(count(7, "b"), 2u);
  EXPECT_EQ(count(7, "c"), 4u);
  // ...and five cycles, all while every tenant stays backlogged.
  EXPECT_EQ(count(35, "a"), 5u);
  EXPECT_EQ(count(35, "b"), 10u);
  EXPECT_EQ(count(35, "c"), 20u);

  const std::vector<serve::TenantStats> tenants = service.tenant_stats();
  ASSERT_EQ(tenants.size(), 3u);
  for (const serve::TenantStats& t : tenants) {
    EXPECT_EQ(t.admitted, static_cast<uint64_t>(kPerTenant)) << t.tenant;
    EXPECT_EQ(t.shed, 0u) << t.tenant;
  }
  EXPECT_EQ(tenants[0].weight, 1.0);
  EXPECT_EQ(tenants[1].weight, 2.0);
  EXPECT_EQ(tenants[2].weight, 4.0);
  // Weighted budgets never shrink below a lighter tenant's (both may hit
  // the one-device clamp, so >= rather than >).
  EXPECT_GE(tenants[2].device_budget_bytes, tenants[0].device_budget_bytes);
  EXPECT_GE(tenants[2].pinned_budget_bytes, tenants[0].pinned_budget_bytes);
}

// A ticket queued past its deadline is shed with kOverloaded the next
// time the scheduler scans its queue, and the shed is attributed as a
// deadline shed in stats and in its pinned flight record.
TEST_F(ServeAsyncTest, DeadlineShedsWhileQueued) {
  serve::ServiceOptions sopts;
  sopts.max_concurrent = 1;
  sopts.max_queue_depth = 4;
  serve::QueryService service(engine_, sopts);

  service.PauseAdmission();
  serve::SubmitOptions opts;
  opts.deadline_us = 1;
  serve::QueryHandle h = service.SubmitAsync(MakeQuery(), "dl", opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.ResumeAdmission();

  auto r = h.Get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOverloaded);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.deadline_shed, 1u);
  EXPECT_EQ(stats.completed, 0u);

  bool found = false;
  for (const obs::FlightRecord& rec :
       service.flight_recorder().Anomalies()) {
    if (rec.outcome != obs::FlightRecord::Outcome::kShed) continue;
    const std::string* reason = rec.trace.FindAnnotation("shed_reason");
    ASSERT_NE(reason, nullptr);
    EXPECT_EQ(*reason, "deadline");
    EXPECT_EQ(rec.tenant, "dl");
    found = true;
  }
  EXPECT_TRUE(found);
}

// A full queue sheds arrivals -- unless the arrival outranks a queued
// ticket, which is evicted in its place (lowest priority, youngest
// first).
TEST_F(ServeAsyncTest, PriorityEvictsLowerPriorityWhenFull) {
  serve::ServiceOptions sopts;
  sopts.max_concurrent = 1;
  sopts.max_queue_depth = 2;
  serve::QueryService service(engine_, sopts);
  const QuerySpec q = MakeQuery();

  service.PauseAdmission();
  serve::QueryHandle a = service.SubmitAsync(q, "t");
  serve::QueryHandle b = service.SubmitAsync(q, "t");
  EXPECT_EQ(service.stats().queued, 2u);

  // C outranks the queued tickets: the youngest lowest-priority one (b)
  // is evicted to make room.
  serve::SubmitOptions high;
  high.priority = 5;
  serve::QueryHandle c = service.SubmitAsync(q, "t", high);
  auto rb = b.Get();
  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(rb.status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(service.stats().evicted, 1u);
  EXPECT_EQ(service.stats().queued, 2u);

  // D does not outrank anything: it is shed on arrival, queue unchanged.
  serve::QueryHandle d = service.SubmitAsync(q, "t");
  auto rd = d.Get();
  ASSERT_FALSE(rd.ok());
  EXPECT_EQ(rd.status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(service.stats().queued, 2u);

  service.ResumeAdmission();
  ASSERT_TRUE(a.Get().ok());
  ASSERT_TRUE(c.Get().ok());

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.evicted, 1u);
}

// Tenantless submissions map to the reserved "-" label: the SLO window,
// the flight record and every exported Prometheus series carry tenant="-",
// never an empty label value.
TEST_F(ServeAsyncTest, NoTenantAliasesToReservedDash) {
  serve::ServiceOptions sopts;
  sopts.max_concurrent = 1;
  sopts.flight.sample_every = 1;  // record healthy traffic too
  serve::QueryService service(engine_, sopts);
  const QuerySpec q = MakeQuery();

  auto r = service.Submit(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const obs::WindowSnapshot window =
      service.slo().Window(core::QueryShapeName(q), "cpu", serve::kNoTenant);
  EXPECT_EQ(window.count, 1u);

  bool saw_dash_tenant = false;
  for (const obs::MetricSample& s : service.CollectSamples()) {
    for (const auto& [key, value] : s.labels) {
      EXPECT_FALSE(value.empty())
          << s.name << " has an empty value for label " << key;
      if (key == "tenant" && value == serve::kNoTenant) {
        saw_dash_tenant = true;
      }
    }
  }
  EXPECT_TRUE(saw_dash_tenant);

  bool saw_record = false;
  for (const obs::FlightRecord& rec : service.flight_recorder().Snapshot()) {
    EXPECT_EQ(rec.tenant, serve::kNoTenant);
    saw_record = true;
  }
  EXPECT_TRUE(saw_record);
}

// blusim_serve_queue_depth must equal the queue size after every
// transition: stats() reads both under the service lock, so sampling it
// concurrently with churn can never observe a divergence.
TEST_F(ServeAsyncTest, QueueDepthGaugeMatchesQueueSize) {
  serve::ServiceOptions sopts;
  sopts.max_concurrent = 2;
  sopts.max_queue_depth = 8;
  serve::QueryService service(engine_, sopts);
  const QuerySpec q = MakeQuery();

  std::atomic<bool> done{false};
  const int kThreads = 6;
  const int kReps = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &q, t] {
      const std::string tenant = "w" + std::to_string(t);
      for (int rep = 0; rep < kReps; ++rep) {
        auto r = service.Submit(q, tenant);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  uint64_t samples = 0;
  while (!done.load(std::memory_order_relaxed)) {
    const serve::ServiceStats s = service.stats();
    EXPECT_EQ(s.queue_depth_gauge, static_cast<int64_t>(s.queued));
    ++samples;
    if (s.completed >= static_cast<uint64_t>(kThreads * kReps)) {
      done.store(true);
    }
    std::this_thread::yield();
  }
  for (std::thread& w : workers) w.join();
  EXPECT_GT(samples, 0u);

  const serve::ServiceStats s = service.stats();
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.queue_depth_gauge, 0);
  EXPECT_EQ(engine_->metrics().GetGauge("blusim_serve_queue_depth")->Value(),
            0);
}

// The thundering-herd regression gate: 200 threads blocking in Submit
// produce one targeted wakeup per enqueue -- not one broadcast to every
// waiter per queue transition, which is O(waiters) per admit.
TEST_F(ServeAsyncTest, WakeupsStayConstantPerAdmission) {
  serve::ServiceOptions sopts;
  sopts.max_concurrent = 2;
  sopts.max_queue_depth = 256;
  serve::QueryService service(engine_, sopts);
  const QuerySpec q = MakeQuery();
  // The registry counter is shared by every service over this engine
  // (other tests included), so assert on the delta.
  const uint64_t wakeups_before =
      engine_->metrics().GetCounter("blusim_serve_wakeups_total")->Value();

  const int kWaiters = 200;
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&service, &q, t] {
      auto r = service.Submit(q, "w" + std::to_string(t % 16));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    });
  }
  for (std::thread& w : waiters) w.join();

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kWaiters));
  EXPECT_EQ(stats.shed, 0u);
  // ~O(1) wakeups per admitted query. The old broadcast design would have
  // produced O(waiters) notifications per transition -- tens of thousands
  // here.
  EXPECT_LE(stats.wakeups, stats.admitted + 8);
  EXPECT_EQ(engine_->metrics().GetCounter("blusim_serve_wakeups_total")
                    ->Value() -
                wakeups_before,
            stats.wakeups);
}

// The completion callback fires exactly once, before the future becomes
// ready, for completed and shed tickets alike.
TEST_F(ServeAsyncTest, CompletionCallbackFiresExactlyOnce) {
  serve::ServiceOptions sopts;
  sopts.max_concurrent = 1;
  sopts.max_queue_depth = 0;  // collisions shed on arrival
  serve::QueryService service(engine_, sopts);
  const QuerySpec q = MakeQuery();

  std::atomic<int> ok_calls{0};
  std::atomic<int> shed_calls{0};

  serve::SubmitOptions ok_opts;
  ok_opts.on_complete = [&ok_calls](const Result<core::QueryResult>& r) {
    EXPECT_TRUE(r.ok());
    ++ok_calls;
  };
  serve::QueryHandle done = service.SubmitAsync(q, "cb", ok_opts);

  service.PauseAdmission();
  serve::SubmitOptions shed_opts;
  shed_opts.on_complete = [&shed_calls](const Result<core::QueryResult>& r) {
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kOverloaded);
    ++shed_calls;
  };
  // Paused with a zero-depth queue: shed on arrival, callback included.
  serve::QueryHandle shed = service.SubmitAsync(q, "cb", shed_opts);
  EXPECT_EQ(shed.Get().status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(shed_calls.load(), 1);
  service.ResumeAdmission();

  ASSERT_TRUE(done.Get().ok());
  EXPECT_EQ(ok_calls.load(), 1);
  EXPECT_EQ(shed_calls.load(), 1);
}

// CancelIfQueued removes a queued ticket (future resolves kOverloaded)
// and refuses once the ticket has been picked up.
TEST_F(ServeAsyncTest, CancelIfQueuedOnlyWhileQueued) {
  serve::ServiceOptions sopts;
  sopts.max_concurrent = 1;
  sopts.max_queue_depth = 4;
  serve::QueryService service(engine_, sopts);
  const QuerySpec q = MakeQuery();

  service.PauseAdmission();
  serve::QueryHandle h = service.SubmitAsync(q, "t");
  EXPECT_TRUE(h.CancelIfQueued());
  auto r = h.Get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(service.stats().shed, 1u);
  service.ResumeAdmission();

  serve::QueryHandle done = service.SubmitAsync(q, "t");
  ASSERT_TRUE(done.Get().ok());
  EXPECT_FALSE(done.CancelIfQueued());
  EXPECT_EQ(service.stats().shed, 1u);
}

// Destroying the service shelves nothing silently: every still-queued
// ticket is shed and its future resolves kOverloaded before the executor
// pool joins.
TEST_F(ServeAsyncTest, ShutdownShedsQueuedTickets) {
  const QuerySpec q = MakeQuery();
  std::vector<serve::QueryHandle> handles;
  {
    serve::ServiceOptions sopts;
    sopts.max_concurrent = 1;
    sopts.max_queue_depth = 8;
    serve::QueryService service(engine_, sopts);
    service.PauseAdmission();
    for (int i = 0; i < 5; ++i) {
      handles.push_back(service.SubmitAsync(q, "t"));
    }
  }
  for (serve::QueryHandle& h : handles) {
    auto r = h.Get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kOverloaded);
  }
}

}  // namespace
}  // namespace blusim
