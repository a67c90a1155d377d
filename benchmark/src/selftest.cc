// Checks of the benchmark's own helpers; run.py runs it after each build.
// Exits 1 and names the failed check on the first failure.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "columnar/table.h"
#include "workload/data_gen.h"

namespace blubench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void TestNearestRankRefusesShortTail() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  // 1000 samples: rank 990 leaves exactly ten beyond it.
  const std::optional<double> p99 = NearestRank(v, 0.99);
  Expect(p99.has_value() && *p99 == 990.0, "p99 of 1..1000 is 990");
  v.pop_back();
  // 999 samples: rank 990 leaves nine beyond it.
  Expect(!NearestRank(v, 0.99).has_value(), "p99 refused with 9 beyond");
  Expect(NearestRank(v, 0.5).value_or(-1) == 500.0, "median of 1..999");
  Expect(!NearestRank({}, 0.5).has_value(), "empty sample refused");
  std::vector<double> batch(53, 1.0);
  Expect(NearestRank(batch, 0.80).has_value(), "p80 of 53 has 10 beyond");
  Expect(!NearestRank(batch, 0.90).has_value(), "p90 of 53 refused");
}

void TestFingerprintTolerance() {
  using blusim::columnar::DataType;
  blusim::columnar::Schema schema;
  schema.AddField({"k", DataType::kInt64, false});
  schema.AddField({"v", DataType::kFloat64, false});
  blusim::columnar::Table t(schema);
  t.column(0).AppendInt64(7);
  t.column(1).AppendDouble(1e9);
  t.column(0).AppendInt64(3);
  t.column(1).AppendDouble(0.5);
  const std::vector<double> fp = Fingerprint(t);
  Expect(fp.size() == 3 && fp[0] == 2 && fp[1] == 10, "fingerprint sums");
  std::vector<double> near = fp;
  near[2] *= 1 + 0.5e-7;
  Expect(FingerprintsMatch(near, fp), "within 1e-7 relative matches");
  std::vector<double> far = fp;
  far[2] *= 1 + 2e-7;
  Expect(!FingerprintsMatch(far, fp), "beyond 1e-7 relative mismatches");
  std::vector<double> small = {1, 0.0};
  Expect(FingerprintsMatch({1, 0.5e-7}, small), "floor of 1.0 near zero");
  Expect(!FingerprintsMatch({1, 2e-7}, small), "floor of 1.0 bounds");
  Expect(!FingerprintsMatch({1, 0, 0}, small), "shape must match");
  Expect(!FingerprintsMatch({1, NAN}, small), "NaN never matches");
}

bool SameSpecs(const WorkloadSpecs& a, const WorkloadSpecs& b) {
  if (a.specs.size() != b.specs.size() || a.orders != b.orders) return false;
  for (size_t i = 0; i < a.specs.size(); ++i) {
    if (SpecDigest(a.specs[i]) != SpecDigest(b.specs[i])) return false;
  }
  return true;
}

// Date windows (lo of every fact filter) of a spec list.
std::vector<double> Windows(const WorkloadSpecs& w) {
  std::vector<double> out;
  for (const auto& s : w.specs) {
    for (const auto& p : s.fact_filters) out.push_back(p.lo);
  }
  return out;
}

void TestSeededGeneration() {
  blusim::workload::ScaleConfig scale;
  scale.store_sales_rows = 6000;
  scale.customers = 500;
  scale.items = 100;
  auto db = blusim::workload::GenerateDatabase(scale);
  Expect(db.ok(), "small database generates");
  if (!db.ok()) return;
  for (const char* wl : {"dashboard", "report_batch", "tenant_serve"}) {
    WorkloadSpecs a, b, c, literal;
    Expect(MakeWorkloadSpecs(wl, *db, 7, &a), "workload known");
    MakeWorkloadSpecs(wl, *db, 7, &b);
    MakeWorkloadSpecs(wl, *db, 8, &c);
    MakeWorkloadSpecs(wl, *db, 0, &literal);
    Expect(SameSpecs(a, b), "same seed gives identical specs and orders");
    Expect(Windows(a) != Windows(c), "another seed moves the date windows");
    Expect(Windows(a) != Windows(literal), "seed 7 shifts the windows");
    for (size_t i = 0; i < a.specs.size(); ++i) {
      for (size_t k = 0; k < a.specs[i].fact_filters.size(); ++k) {
        const auto& p = a.specs[i].fact_filters[k];
        const auto& q = literal.specs[i].fact_filters[k];
        Expect(std::fabs((p.hi - p.lo) - (q.hi - q.lo)) < 1e-9,
               "a shift keeps the window width");
        Expect(p.lo >= 1 - 1e-9 || p.lo == q.lo, "a shift stays in domain");
      }
    }
  }
  // Seed 0 leaves the literal queries as the workload library builds them.
  WorkloadSpecs literal;
  MakeWorkloadSpecs("tenant_serve", *db, 0, &literal);
  Expect(literal.specs.back().name == "HW-HEAVY2", "pool order");
  Expect(!MakeWorkloadSpecs("nope", *db, 1, &literal), "unknown workload");

  const auto s1 = PoissonSchedule(5, 30, 20, 9, 12);
  const auto s2 = PoissonSchedule(5, 30, 20, 9, 12);
  const auto s3 = PoissonSchedule(6, 30, 20, 9, 12);
  bool same = s1.size() == s2.size();
  for (size_t i = 0; same && i < s1.size(); ++i) {
    same = s1[i].due_s == s2[i].due_s && s1[i].query == s2[i].query &&
           s1[i].tenant == s2[i].tenant;
  }
  Expect(same, "same seed gives the identical schedule");
  Expect(s1.size() == 600, "rate x seconds arrivals");
  std::vector<int> per_query(9, 0);
  bool sorted = true;
  for (size_t i = 0; i < s1.size(); ++i) {
    ++per_query[s1[i].query];
    if (i > 0 && s1[i].due_s < s1[i - 1].due_s) sorted = false;
    if (s1[i].due_s < 0 || s1[i].due_s >= 20) sorted = false;
  }
  Expect(sorted, "due times sorted inside the window");
  Expect(*std::min_element(per_query.begin(), per_query.end()) >= 66 &&
             *std::max_element(per_query.begin(), per_query.end()) <= 67,
         "every query drawn equally often to within one round");
  Expect(s1.size() != s3.size() || s1.front().due_s != s3.front().due_s,
         "another seed gives another schedule");
}

}  // namespace
}  // namespace blubench

int main() {
  blubench::TestNearestRankRefusesShortTail();
  blubench::TestFingerprintTolerance();
  blubench::TestSeededGeneration();
  if (blubench::failures > 0) return 1;
  std::printf("blubench_selftest: all checks passed\n");
  return 0;
}
