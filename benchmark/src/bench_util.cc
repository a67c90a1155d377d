#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "workload/queries.h"

namespace blubench {

using blusim::columnar::DataType;
using blusim::columnar::Table;
using blusim::runtime::CmpOp;
using blusim::workload::WorkloadQuery;

blusim::workload::ScaleConfig MakeScale() {
  blusim::workload::ScaleConfig scale;
  scale.store_sales_rows = kScaleRows;
  scale.customers = kScaleRows / 12;
  scale.items = kScaleRows / 60;
  return scale;
}

blusim::core::EngineConfig MakeEngineConfig(bool gpu) {
  blusim::core::EngineConfig c;
  c.gpu_enabled = gpu;
  c.num_devices = 2;
  c.cpu_threads = 2;
  c.device_workers = 2;
  c.sort_workers = 2;
  c.query_dop = 24;
  // 12 GB against the paper's 100 GB working set, scaled to the rows here.
  c.device_spec = c.device_spec.WithMemory(
      std::max<uint64_t>(8ULL << 20, kScaleRows * 96));
  c.pinned_pool_bytes = 128ULL << 20;
  c.thresholds.t1_min_rows = kScaleRows * 2 / 5;
  c.thresholds.t2_min_groups = 8;
  c.sort_min_gpu_rows = static_cast<uint32_t>(kScaleRows / 8);
  return c;
}

std::optional<double> NearestRank(std::vector<double> values, double q,
                                  size_t min_tail) {
  const size_t n = values.size();
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_tail) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<double> Fingerprint(const Table& table) {
  std::vector<double> sums(table.num_columns() + 1, 0.0);
  sums[0] = static_cast<double>(table.num_rows());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const blusim::columnar::Column& col = table.column(c);
    double sum = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (col.IsNull(r)) continue;
      switch (col.type()) {
        case DataType::kString:
          sum += static_cast<double>(col.string_data()[r].size());
          break;
        case DataType::kFloat64:
          sum += col.float64_data()[r];
          break;
        case DataType::kDecimal128:
          sum += col.decimal_data()[r].ToDouble();
          break;
        default:
          sum += static_cast<double>(col.GetInt64(r));
          break;
      }
    }
    sums[c + 1] = sum;
  }
  return sums;
}

bool FingerprintsMatch(const std::vector<double>& got,
                       const std::vector<double>& want, double rel_tol) {
  if (got.size() != want.size()) return false;
  for (size_t k = 0; k < got.size(); ++k) {
    const double tol =
        rel_tol * std::max({std::fabs(got[k]), std::fabs(want[k]), 1.0});
    if (!(std::fabs(got[k] - want[k]) <= tol)) return false;
  }
  return true;
}

Rng StreamRng(uint64_t seed, uint64_t stream) {
  return Rng(seed ^ ((stream + 1) * 0x9e3779b97f4a7c15ULL));
}

void ShiftDateWindows(QuerySpec* spec, const Table& fact, double date_lo,
                      double date_hi, uint64_t seed, Rng* rng) {
  if (seed == 0) return;
  for (blusim::runtime::Predicate& p : spec->fact_filters) {
    if (p.op != CmpOp::kBetween || p.column < 0 ||
        static_cast<size_t>(p.column) >= fact.num_columns()) {
      continue;
    }
    const std::string& name =
        fact.schema().field(static_cast<size_t>(p.column)).name;
    if (name.size() < 8 || name.compare(name.size() - 8, 8, "_date_sk") != 0) {
      continue;
    }
    const double width = p.hi - p.lo;
    const double shift =
        static_cast<double>(rng->Range(-kMaxShiftDays, kMaxShiftDays));
    if (width >= date_hi - date_lo) continue;
    p.lo = std::clamp(p.lo + shift, date_lo, date_hi - width);
    p.hi = p.lo + width;
  }
}

std::vector<size_t> SeededOrder(size_t n, Rng* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->Below(i)]);
  }
  return order;
}

std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate,
                                     double seconds, uint32_t num_queries,
                                     uint32_t num_tenants) {
  Rng rng = StreamRng(seed, 2);
  const size_t n = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<double> due(n);
  for (double& d : due) d = rng.NextDouble() * seconds;
  std::sort(due.begin(), due.end());
  std::vector<Arrival> out(n);
  std::vector<size_t> queries;
  std::vector<size_t> tenants;
  for (size_t i = 0; i < n; ++i) {
    if (i % num_queries == 0) queries = SeededOrder(num_queries, &rng);
    if (i % num_tenants == 0) tenants = SeededOrder(num_tenants, &rng);
    out[i].due_s = due[i];
    out[i].query = static_cast<uint32_t>(queries[i % num_queries]);
    out[i].tenant = static_cast<uint32_t>(tenants[i % num_tenants]);
  }
  return out;
}

namespace {

void DateDomain(const blusim::workload::Database& db, double* lo,
                double* hi) {
  const Table& dates = *db.at("date_dim");
  const blusim::columnar::Column& sk =
      dates.column(static_cast<size_t>(blusim::workload::Col(dates,
                                                             "d_date_sk")));
  *lo = INFINITY;
  *hi = -INFINITY;
  for (size_t r = 0; r < dates.num_rows(); ++r) {
    const double v = static_cast<double>(sk.GetInt64(r));
    *lo = std::min(*lo, v);
    *hi = std::max(*hi, v);
  }
}

const WorkloadQuery& ByName(const std::vector<WorkloadQuery>& queries,
                            const std::string& name) {
  for (const WorkloadQuery& q : queries) {
    if (q.spec.name == name) return q;
  }
  BLUSIM_CHECK(false);
  return queries.front();
}

}  // namespace

bool MakeWorkloadSpecs(const std::string& workload,
                       const blusim::workload::Database& db, uint64_t seed,
                       WorkloadSpecs* out) {
  using blusim::workload::QueryClass;
  const auto bdi = blusim::workload::MakeBdiQueries(db);
  std::vector<WorkloadQuery> chosen;
  if (workload == "dashboard") {
    for (const WorkloadQuery& q : bdi) {
      if (q.qclass == QueryClass::kSimple ||
          q.qclass == QueryClass::kIntermediate) {
        chosen.push_back(q);
      }
    }
  } else if (workload == "report_batch") {
    chosen = blusim::workload::MakeRolapQueries(db);
    for (const WorkloadQuery& q : bdi) {
      if (q.qclass == QueryClass::kComplex) chosen.push_back(q);
    }
    for (const WorkloadQuery& q :
         blusim::workload::MakeHandwrittenHeavyQueries(db)) {
      chosen.push_back(q);
    }
  } else if (workload == "tenant_serve") {
    // The figure-8 pool: GPU-moderate ROLAP, one dashboard query and the
    // two GPU-heavy hand-written queries.
    const auto rolap = blusim::workload::MakeRolapQueries(db);
    for (const char* name : {"ROLAP-Q15", "ROLAP-Q21", "ROLAP-Q27",
                             "ROLAP-Q29", "ROLAP-Q31", "ROLAP-Q33"}) {
      chosen.push_back(ByName(rolap, name));
    }
    chosen.push_back(ByName(bdi, "BDI-S1"));
    for (const WorkloadQuery& q :
         blusim::workload::MakeHandwrittenHeavyQueries(db)) {
      chosen.push_back(q);
    }
  } else {
    return false;
  }

  double date_lo = 0;
  double date_hi = 0;
  DateDomain(db, &date_lo, &date_hi);
  Rng shift_rng = StreamRng(seed, 1);
  out->specs.clear();
  out->orders.clear();
  for (WorkloadQuery& q : chosen) {
    ShiftDateWindows(&q.spec, *db.at(q.spec.fact_table), date_lo, date_hi,
                     seed, &shift_rng);
    out->specs.push_back(std::move(q.spec));
  }
  if (workload == "dashboard") {
    for (int c = 0; c < kDashboardClients; ++c) {
      Rng rng = StreamRng(seed, 10 + static_cast<uint64_t>(c));
      out->orders.push_back(SeededOrder(out->specs.size(), &rng));
    }
  } else if (workload == "report_batch") {
    Rng rng = StreamRng(seed, 10);
    out->orders.push_back(SeededOrder(out->specs.size(), &rng));
  }
  return true;
}

std::string SpecDigest(const QuerySpec& spec) {
  std::ostringstream s;
  s.precision(17);
  s << spec.name << '|' << spec.fact_table << "|F";
  for (const auto& p : spec.fact_filters) {
    s << ' ' << p.column << ':' << static_cast<int>(p.op) << ':' << p.lo
      << ':' << p.hi << ':' << p.str;
  }
  s << "|J";
  for (const auto& j : spec.joins) {
    s << ' ' << j.dim_table << ':' << j.fact_fk_column << ':'
      << j.dim_pk_column;
    for (const auto& p : j.dim_filters) {
      s << ':' << p.column << '/' << static_cast<int>(p.op) << '/' << p.lo
        << '/' << p.hi << '/' << p.str;
    }
  }
  s << "|G";
  if (spec.groupby.has_value()) {
    for (int k : spec.groupby->key_columns) s << ' ' << k;
    for (const auto& a : spec.groupby->aggregates) {
      s << ' ' << static_cast<int>(a.fn) << ':' << a.column << ':'
        << a.output_name;
    }
  }
  s << "|O";
  for (const auto& k : spec.order_by) s << ' ' << k.column << ':' << k.ascending;
  s << "|P";
  for (int c : spec.projection) s << ' ' << c;
  s << "|L" << spec.limit;
  return s.str();
}

}  // namespace blubench
