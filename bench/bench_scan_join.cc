// Scan/filter and star-join probe host-wall benchmark: runtime::FilterScan
// and the runtime::HashJoin probe over a store_sales-shaped fact table.
//
// Reports ns per input row (FilterScan) and per probe row (HashJoin),
// serial (no pool) and pooled, for:
//   - FilterScan: int32 BETWEEN at 3%, 50% and 100% selectivity, a
//     two-predicate int32 conjunction (~25%) and a string equality (~10%);
//   - HashJoin: a 50%-selectivity fact selection probing date_dim-, item-
//     and customer-sized int32 primary-key builds.
// Every selection and join result is compared with a per-row reference
// (RowMatchesPredicates; a std::unordered_map join); the binary exits 1 on
// any difference. It uses only the operators' public API, so the same file
// builds against an older tree for before/after numbers on one host.
//
// Emits BENCH_scan_join.json in the working directory.
//
// Env knobs: BLUSIM_BENCH_ROWS (default 2000000), BLUSIM_BENCH_REPS
// (default 5, best-of), BLUSIM_BENCH_THREADS (default hardware, at most 64).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "columnar/table.h"
#include "common/rng.h"
#include "runtime/operators.h"
#include "runtime/thread_pool.h"

namespace blusim::runtime {
namespace {

using columnar::DataType;
using columnar::Table;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

// Dimension sizes of the default BD Insights scale (workload::ScaleConfig).
constexpr int kDates = 1826;
constexpr int kItems = 4000;
constexpr int kCustomers = 20000;

// Fact columns: sel (int32, 0..99), qty (int32, 0..99), tag (string, one of
// ten), date_fk, item_fk, customer_fk (int32, uniform over the dimension).
Table MakeFact(uint64_t rows) {
  columnar::Schema schema;
  schema.AddField({"sel", DataType::kInt32, false});
  schema.AddField({"qty", DataType::kInt32, false});
  schema.AddField({"tag", DataType::kString, false});
  schema.AddField({"date_fk", DataType::kInt32, false});
  schema.AddField({"item_fk", DataType::kInt32, false});
  schema.AddField({"customer_fk", DataType::kInt32, false});
  Table t(schema);
  t.Reserve(rows);
  Rng rng(rows);
  for (uint64_t r = 0; r < rows; ++r) {
    t.column(0).AppendInt32(static_cast<int32_t>(rng.Below(100)));
    t.column(1).AppendInt32(static_cast<int32_t>(rng.Below(100)));
    t.column(2).AppendString("tag" + std::to_string(rng.Below(10)));
    t.column(3).AppendInt32(static_cast<int32_t>(rng.Below(kDates)));
    t.column(4).AppendInt32(static_cast<int32_t>(rng.Below(kItems)));
    t.column(5).AppendInt32(static_cast<int32_t>(rng.Below(kCustomers)));
  }
  return t;
}

// A dimension whose int32 primary keys are a permutation of [0, rows).
Table MakeDim(int rows) {
  columnar::Schema schema;
  schema.AddField({"pk", DataType::kInt32, false});
  Table t(schema);
  for (int i = 0; i < rows; ++i) {
    t.column(0).AppendInt32(static_cast<int32_t>(
        (static_cast<int64_t>(i) * 7919) % rows));
  }
  return t;
}

Predicate Between(int column, double lo, double hi) {
  Predicate p;
  p.column = column;
  p.op = CmpOp::kBetween;
  p.lo = lo;
  p.hi = hi;
  return p;
}

std::vector<uint32_t> ReferenceScan(const Table& t,
                                    const std::vector<Predicate>& preds) {
  std::vector<uint32_t> out;
  for (uint32_t row = 0; row < t.num_rows(); ++row) {
    if (RowMatchesPredicates(t, preds, row)) out.push_back(row);
  }
  return out;
}

JoinResult ReferenceJoin(const Table& fact, const Table& dim, int fk_column,
                         const std::vector<uint32_t>& fact_sel) {
  std::unordered_map<int64_t, uint32_t> build;
  const columnar::Column& pk = dim.column(0);
  for (uint32_t row = 0; row < dim.num_rows(); ++row) {
    build.emplace(pk.GetInt64(row), row);
  }
  const columnar::Column& fk = fact.column(static_cast<size_t>(fk_column));
  JoinResult out;
  for (uint32_t row : fact_sel) {
    auto it = build.find(fk.GetInt64(row));
    if (it == build.end()) continue;
    out.fact_rows.push_back(row);
    out.dim_rows.push_back(it->second);
  }
  return out;
}

// Best-of-`reps` wall time of fn(), in ns.
template <typename Fn>
double BestNs(int reps, Fn fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

struct CaseResult {
  std::string name;
  uint64_t rows = 0;     // input rows (scan) or probe rows (join)
  uint64_t matches = 0;  // selected rows or join pairs
  double serial_ns_per_row = 0;
  double pooled_ns_per_row = 0;
};

}  // namespace
}  // namespace blusim::runtime

int main() {
  using namespace blusim::runtime;
  const uint64_t rows = std::min<uint64_t>(
      std::max<uint64_t>(EnvU64("BLUSIM_BENCH_ROWS", 2000000), 1),
      UINT32_MAX);
  const int reps = std::max<int>(
      static_cast<int>(EnvU64("BLUSIM_BENCH_REPS", 5)), 1);
  const unsigned hc = std::thread::hardware_concurrency();
  const int threads = static_cast<int>(std::clamp<uint64_t>(
      EnvU64("BLUSIM_BENCH_THREADS", hc == 0 ? 4 : hc), 1, 64));

  const blusim::columnar::Table fact = MakeFact(rows);
  ThreadPool pool(threads);
  std::vector<CaseResult> results;
  bool ok = true;

  struct ScanCase {
    const char* name;
    std::vector<Predicate> preds;
  };
  Predicate tag_eq;
  tag_eq.column = 2;
  tag_eq.op = CmpOp::kEq;
  tag_eq.str = "tag3";
  const ScanCase scans[] = {
      {"scan_int32_between_3pct", {Between(0, 0, 2)}},
      {"scan_int32_between_50pct", {Between(0, 0, 49)}},
      {"scan_int32_between_100pct", {Between(0, 0, 99)}},
      {"scan_int32_conjunction_2pred", {Between(0, 0, 49), Between(1, 0, 49)}},
      {"scan_string_eq", {tag_eq}},
  };
  for (const ScanCase& c : scans) {
    const std::vector<uint32_t> expected = ReferenceScan(fact, c.preds);
    CaseResult r;
    r.name = c.name;
    r.rows = rows;
    r.matches = expected.size();
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      std::vector<uint32_t> got;
      const double ns = BestNs(reps, [&] {
        got = FilterScan(fact, c.preds, p).value();
      });
      if (got != expected) {
        std::fprintf(stderr, "%s: selection differs from the reference\n",
                     c.name);
        ok = false;
      }
      (p == nullptr ? r.serial_ns_per_row : r.pooled_ns_per_row) =
          ns / static_cast<double>(rows);
    }
    results.push_back(r);
  }

  const std::vector<uint32_t> probe_sel =
      FilterScan(fact, {Between(0, 0, 49)}, &pool).value();
  struct JoinCase {
    const char* name;
    int fk_column;
    int dim_rows;
  };
  const JoinCase joins[] = {
      {"probe_date_dim", 3, kDates},
      {"probe_item", 4, kItems},
      {"probe_customer", 5, kCustomers},
  };
  for (const JoinCase& c : joins) {
    const blusim::columnar::Table dim = MakeDim(c.dim_rows);
    const JoinResult expected = ReferenceJoin(fact, dim, c.fk_column,
                                              probe_sel);
    CaseResult r;
    r.name = c.name;
    r.rows = probe_sel.size();
    r.matches = expected.size();
    const JoinSpec spec{c.fk_column, 0};
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      JoinResult got;
      const double ns = BestNs(reps, [&] {
        got = HashJoin(fact, dim, spec, p, &probe_sel, nullptr).value();
      });
      if (got.fact_rows != expected.fact_rows ||
          got.dim_rows != expected.dim_rows) {
        std::fprintf(stderr, "%s: join differs from the reference\n",
                     c.name);
        ok = false;
      }
      (p == nullptr ? r.serial_ns_per_row : r.pooled_ns_per_row) =
          ns / static_cast<double>(std::max<uint64_t>(r.rows, 1));
    }
    results.push_back(r);
  }

  for (const CaseResult& r : results) {
    std::printf("%-30s rows=%-9llu matches=%-9llu serial %6.2f ns/row  "
                "%dT %6.2f ns/row\n",
                r.name.c_str(), static_cast<unsigned long long>(r.rows),
                static_cast<unsigned long long>(r.matches),
                r.serial_ns_per_row, threads, r.pooled_ns_per_row);
  }

  FILE* f = std::fopen("BENCH_scan_join.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_scan_join.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"scan_join\",\n"
               "  \"rows\": %llu,\n  \"reps\": %d,\n  \"threads\": %d,\n"
               "  \"cases\": [\n",
               static_cast<unsigned long long>(rows), reps, threads);
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    std::fprintf(f,
                 "    {\"case\": \"%s\", \"rows\": %llu, \"matches\": %llu, "
                 "\"serial_ns_per_row\": %.3f, \"pooled_ns_per_row\": %.3f}"
                 "%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.rows),
                 static_cast<unsigned long long>(r.matches),
                 r.serial_ns_per_row, r.pooled_ns_per_row,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_scan_join.json\n");
  if (!ok) {
    std::fprintf(stderr, "FAILED: a result differs from the reference\n");
    return 1;
  }
  return 0;
}
