// Tests for the harness: serial runner determinism, the served driver's
// closed loop and error propagation, report formatting and the CSV writer.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>

#include "harness/monitor_report.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/serve_driver.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace blusim::harness {
namespace {

TEST(SerialRunnerTest, DeterministicAcrossRunsAndReps) {
  workload::ScaleConfig scale;
  scale.store_sales_rows = 15000;
  scale.customers = 1500;
  scale.items = 300;
  auto db = workload::GenerateDatabase(scale);
  ASSERT_TRUE(db.ok());
  core::EngineConfig config;
  config.cpu_threads = 2;
  config.device_spec = config.device_spec.WithMemory(8ULL << 20);
  config.thresholds.t1_min_rows = 4000;
  auto engine = MakeEngine(*db, config);

  auto queries = workload::FilterByClass(workload::MakeBdiQueries(*db),
                                         workload::QueryClass::kComplex);
  SerialRunOptions options;
  options.reps = 1;
  auto r1 = RunSerial(engine.get(), queries, options);
  ASSERT_TRUE(r1.ok());
  auto r2 = RunSerial(engine.get(), queries, options);
  ASSERT_TRUE(r2.ok());
  options.reps = 3;
  auto r3 = RunSerial(engine.get(), queries, options);
  ASSERT_TRUE(r3.ok());
  for (size_t i = 0; i < r1->size(); ++i) {
    EXPECT_EQ((*r1)[i].elapsed, (*r2)[i].elapsed) << (*r1)[i].name;
    // Simulated time is deterministic, so the rep-average equals a single
    // run exactly.
    EXPECT_EQ((*r1)[i].elapsed, (*r3)[i].elapsed) << (*r1)[i].name;
  }
  EXPECT_EQ(TotalElapsed(*r1), TotalElapsed(*r2));
}

TEST(SerialRunnerTest, UnknownTablePropagatesQueryName) {
  core::EngineConfig config;
  config.cpu_threads = 1;
  core::Engine engine(config);
  workload::WorkloadQuery wq;
  wq.spec.name = "ghost";
  wq.spec.fact_table = "missing";
  auto engine_ptr = &engine;
  auto r = RunSerial(engine_ptr, {wq}, SerialRunOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("ghost"), std::string::npos);
}

// Regression test for the [[nodiscard]] sweep (docs/static_analysis.md
// §5): a query failure resolved on a service executor must surface as the
// run's returned Status, not vanish into a completion callback. Pins the
// first-error plumbing in serve_driver.cc.
TEST(ServeDriverTest, QueryFailurePropagatesAsRunError) {
  core::EngineConfig config;
  config.cpu_threads = 2;
  core::Engine engine(config);  // no tables registered
  serve::ServiceOptions sopts;
  sopts.max_concurrent = 2;
  serve::QueryService service(&engine, sopts);
  workload::WorkloadQuery wq;
  wq.spec.name = "ghost-served";
  wq.spec.fact_table = "missing";
  AsyncRunOptions options;
  options.tenants = 3;
  auto r = RunServedAsync(&service, {wq}, options);
  ASSERT_FALSE(r.ok());
  // Not shed: a real failure, attributed to the query by name.
  EXPECT_NE(r.status().code(), StatusCode::kOverloaded);
  EXPECT_NE(r.status().message().find("ghost-served"), std::string::npos);
  // The service counted it as failed, not completed.
  EXPECT_GE(service.stats().failed, 1u);
  EXPECT_EQ(service.stats().completed, 0u);
}

// Closed loop: each tenant holds one slot and walks the query list `reps`
// times, so it submits its next query only after the previous one
// resolved and its completions arrive in query-list order.
TEST(ServeDriverTest, ClosedLoopStreamsWalkQueryListInOrder) {
  workload::ScaleConfig scale;
  scale.store_sales_rows = 15000;
  scale.customers = 1500;
  scale.items = 300;
  auto db = workload::GenerateDatabase(scale);
  ASSERT_TRUE(db.ok());
  core::EngineConfig config;
  config.cpu_threads = 2;
  config.device_spec = config.device_spec.WithMemory(8ULL << 20);
  config.thresholds.t1_min_rows = 4000;
  auto engine = MakeEngine(*db, config);
  serve::ServiceOptions sopts;
  sopts.max_concurrent = 2;
  serve::QueryService service(engine.get(), sopts);

  const auto queries = workload::FilterByClass(
      workload::MakeBdiQueries(*db), workload::QueryClass::kComplex);
  ASSERT_FALSE(queries.empty());
  AsyncRunOptions options;
  options.tenants = 3;
  options.reps = 2;
  auto r = RunServedAsync(&service, queries, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const size_t per_tenant = 2 * queries.size();
  EXPECT_EQ(r->submitted, 3 * per_tenant);
  EXPECT_EQ(r->shed, 0u);
  ASSERT_EQ(r->results.size(), 3 * per_tenant);

  std::map<std::string, std::vector<std::string>> by_tenant;
  for (const QueryRunResult& q : r->results) {
    by_tenant[q.tenant].push_back(q.name);
  }
  ASSERT_EQ(by_tenant.size(), 3u);
  for (const auto& [tenant, names] : by_tenant) {
    ASSERT_EQ(names.size(), per_tenant) << tenant;
    for (size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(names[i], queries[i % queries.size()].spec.name)
          << tenant << " completion " << i;
    }
  }
}

TEST(ReportTest, Formatters) {
  EXPECT_EQ(FormatMs(1234567, 1), "1234.6");
  EXPECT_EQ(FormatMs(500, 2), "0.50");
  EXPECT_EQ(FormatPct(0.0833, 2), "8.33%");
  EXPECT_EQ(FormatPct(-0.05, 1), "-5.0%");
  EXPECT_EQ(FormatDouble(3.14159, 3), "3.142");
}

TEST(CsvWriterTest, QuotesAndRoundTrips) {
  const std::string path = "/tmp/blusim_csv_test.csv";
  {
    CsvWriter csv(path);
    ASSERT_TRUE(csv.ok());
    csv.Row({"a", "b,with comma", "c\"quoted\""});
    csv.Row({"1", "2", "3"});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,with comma\",\"c\"\"quoted\"\"\"");
  EXPECT_EQ(line2, "1,2,3");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace blusim::harness
