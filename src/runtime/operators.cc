#include "runtime/operators.h"

#include <memory>

#include "common/flat_map.h"
#include "common/logging.h"

namespace blusim::runtime {

using columnar::Column;
using columnar::DataType;
using columnar::Table;

namespace {

constexpr uint64_t kMorselRows = 65536;

bool EvalNumeric(CmpOp op, double v, double lo, double hi) {
  switch (op) {
    case CmpOp::kEq: return v == lo;
    case CmpOp::kNe: return v != lo;
    case CmpOp::kLt: return v < lo;
    case CmpOp::kLe: return v <= lo;
    case CmpOp::kGt: return v > lo;
    case CmpOp::kGe: return v >= lo;
    case CmpOp::kBetween: return (v >= lo) & (v <= hi);
  }
  return false;
}

bool EvalPredicate(const Predicate& p, const Column& col, uint32_t row) {
  if (col.IsNull(row)) return false;  // SQL: NULL comparisons are not true
  if (col.type() == DataType::kString) {
    const std::string& s = col.string_data()[row];
    switch (p.op) {
      case CmpOp::kEq: return s == p.str;
      case CmpOp::kNe: return s != p.str;
      case CmpOp::kLt: return s < p.str;
      case CmpOp::kLe: return s <= p.str;
      case CmpOp::kGt: return s > p.str;
      case CmpOp::kGe: return s >= p.str;
      case CmpOp::kBetween: return false;
    }
    return false;
  }
  return EvalNumeric(p.op, col.GetDouble(row), p.lo, p.hi);
}

// Candidate row ids of one SelectRows pass: a dense range, or a slice of a
// selection vector (which may be the pass's own output buffer).
struct RangeRows {
  uint64_t begin;
  uint32_t operator()(uint64_t i) const {
    return static_cast<uint32_t>(begin + i);
  }
};

struct ListRows {
  const uint32_t* ids;
  uint32_t operator()(uint64_t i) const { return ids[i]; }
};

// One predicate over a typed span: every candidate is written to out[count]
// and count advances only when it passes, so the loop has no data-dependent
// branch. Reading ids[i] before writing out[count <= i] makes in-place
// compaction safe. The value is widened to double exactly as
// Column::GetDouble does, so int64 beyond 2^53, NaN and +-inf compare as in
// RowMatchesPredicates.
template <CmpOp kOp, bool kNullable, typename T, typename Rows>
uint64_t CompactSpan(const T* values, const Column& col, double lo, double hi,
                     Rows ids, uint64_t n, uint32_t* out) {
  uint64_t count = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t row = ids(i);
    bool pass = EvalNumeric(kOp, static_cast<double>(values[row]), lo, hi);
    if constexpr (kNullable) pass &= !col.IsNull(row);
    out[count] = row;
    count += pass ? 1 : 0;
  }
  return count;
}

template <CmpOp kOp, typename T, typename Rows>
uint64_t CompactSpanOp(const Predicate& p, const T* values, const Column& col,
                       Rows ids, uint64_t n, uint32_t* out) {
  return col.has_nulls()
             ? CompactSpan<kOp, true>(values, col, p.lo, p.hi, ids, n, out)
             : CompactSpan<kOp, false>(values, col, p.lo, p.hi, ids, n, out);
}

template <typename T, typename Rows>
uint64_t CompactTyped(const Predicate& p, const T* values, const Column& col,
                      Rows ids, uint64_t n, uint32_t* out) {
  switch (p.op) {
    case CmpOp::kEq:
      return CompactSpanOp<CmpOp::kEq>(p, values, col, ids, n, out);
    case CmpOp::kNe:
      return CompactSpanOp<CmpOp::kNe>(p, values, col, ids, n, out);
    case CmpOp::kLt:
      return CompactSpanOp<CmpOp::kLt>(p, values, col, ids, n, out);
    case CmpOp::kLe:
      return CompactSpanOp<CmpOp::kLe>(p, values, col, ids, n, out);
    case CmpOp::kGt:
      return CompactSpanOp<CmpOp::kGt>(p, values, col, ids, n, out);
    case CmpOp::kGe:
      return CompactSpanOp<CmpOp::kGe>(p, values, col, ids, n, out);
    case CmpOp::kBetween:
      return CompactSpanOp<CmpOp::kBetween>(p, values, col, ids, n, out);
  }
  return 0;
}

// Applies one predicate to n candidates, picking the loop once from the
// column type; DECIMAL128 and strings evaluate per row.
template <typename Rows>
uint64_t Compact(const Predicate& p, const Column& col, Rows ids, uint64_t n,
                 uint32_t* out) {
  switch (col.type()) {
    case DataType::kInt32:
    case DataType::kDate:
      return CompactTyped(p, col.int32_data().data(), col, ids, n, out);
    case DataType::kInt64:
      return CompactTyped(p, col.int64_data().data(), col, ids, n, out);
    case DataType::kFloat64:
      return CompactTyped(p, col.float64_data().data(), col, ids, n, out);
    case DataType::kDecimal128:
    case DataType::kString:
      break;
  }
  uint64_t count = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t row = ids(i);
    out[count] = row;
    count += EvalPredicate(p, col, row) ? 1 : 0;
  }
  return count;
}

// Join probe over the FK's typed span (int32/date, or int64 without nulls).
// Same branch-free compaction as CompactSpan: a miss writes its pair too
// but does not advance the count.
template <typename T, typename Rows>
uint64_t ProbeSpan(const FlatMap64& build, const T* keys, Rows ids,
                   uint64_t n, uint32_t* fact_out, uint32_t* dim_out) {
  uint64_t count = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t row = ids(i);
    const uint32_t* dim_row = build.Find(static_cast<int64_t>(keys[row]));
    fact_out[count] = row;
    dim_out[count] = dim_row != nullptr ? *dim_row : 0;
    count += dim_row != nullptr ? 1 : 0;
  }
  return count;
}

// Any other FK (a nullable one): per-row null test and widening.
template <typename Rows>
uint64_t ProbeRows(const FlatMap64& build, const Column& fk, Rows ids,
                   uint64_t n, uint32_t* fact_out, uint32_t* dim_out) {
  uint64_t count = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t row = ids(i);
    if (fk.IsNull(row)) continue;
    const uint32_t* dim_row = build.Find(fk.GetInt64(row));
    if (dim_row != nullptr) {
      fact_out[count] = row;
      dim_out[count] = *dim_row;
      ++count;
    }
  }
  return count;
}

template <typename Rows>
uint64_t Probe(const FlatMap64& build, const Column& fk, Rows ids, uint64_t n,
               uint32_t* fact_out, uint32_t* dim_out) {
  if (!fk.has_nulls()) {
    switch (fk.type()) {
      case DataType::kInt32:
      case DataType::kDate:
        return ProbeSpan(build, fk.int32_data().data(), ids, n, fact_out,
                         dim_out);
      case DataType::kInt64:
        return ProbeSpan(build, fk.int64_data().data(), ids, n, fact_out,
                         dim_out);
      default:
        break;
    }
  }
  return ProbeRows(build, fk, ids, n, fact_out, dim_out);
}

// Concatenates per-morsel outputs in morsel order (ascending row ids when
// the morsels' inputs ascend).
std::vector<uint32_t> Concat(
    const std::vector<std::unique_ptr<uint32_t[]>>& parts,
    const std::vector<uint64_t>& counts) {
  uint64_t n = 0;
  for (uint64_t c : counts) n += c;
  std::vector<uint32_t> out;
  out.reserve(n);
  for (size_t m = 0; m < parts.size(); ++m) {
    out.insert(out.end(), parts[m].get(), parts[m].get() + counts[m]);
  }
  return out;
}

}  // namespace

bool RowMatchesPredicates(const Table& table,
                          const std::vector<Predicate>& predicates,
                          uint32_t row) {
  for (const Predicate& p : predicates) {
    const Column& col = table.column(static_cast<size_t>(p.column));
    if (!EvalPredicate(p, col, row)) return false;
  }
  return true;
}

uint64_t SelectRows(const Table& table,
                    const std::vector<Predicate>& predicates, MorselRange rows,
                    const uint32_t* input, uint32_t* out) {
  const uint64_t n = rows.size();
  if (predicates.empty()) {
    for (uint64_t i = 0; i < n; ++i) {
      out[i] = input != nullptr ? input[rows.begin + i]
                                : static_cast<uint32_t>(rows.begin + i);
    }
    return n;
  }
  uint64_t count = n;
  for (size_t k = 0; k < predicates.size() && count > 0; ++k) {
    const Predicate& p = predicates[k];
    const Column& col = table.column(static_cast<size_t>(p.column));
    if (k > 0) {
      count = Compact(p, col, ListRows{out}, count, out);
    } else if (input != nullptr) {
      count = Compact(p, col, ListRows{input + rows.begin}, n, out);
    } else {
      count = Compact(p, col, RangeRows{rows.begin}, n, out);
    }
  }
  return count;
}

Status ValidatePredicates(const Table& table,
                          const std::vector<Predicate>& predicates) {
  for (const Predicate& p : predicates) {
    if (p.column < 0 || static_cast<size_t>(p.column) >= table.num_columns()) {
      return Status::InvalidArgument("predicate on bad column " +
                                     std::to_string(p.column));
    }
  }
  return Status::OK();
}

Result<std::vector<uint32_t>> FilterScan(
    const Table& table, const std::vector<Predicate>& predicates,
    ThreadPool* pool) {
  BLUSIM_RETURN_NOT_OK(ValidatePredicates(table, predicates));
  const uint64_t total = table.num_rows();
  const uint64_t num_morsels = NumMorsels(total, kMorselRows);
  std::vector<std::unique_ptr<uint32_t[]>> parts(num_morsels);
  std::vector<uint64_t> counts(num_morsels, 0);

  auto scan_morsel = [&](uint64_t m) {
    const MorselRange r = GetMorsel(total, kMorselRows, m);
    parts[m] = std::make_unique_for_overwrite<uint32_t[]>(r.size());
    counts[m] = SelectRows(table, predicates, r, nullptr, parts[m].get());
  };

  if (pool != nullptr) {
    pool->ParallelFor(num_morsels, scan_morsel);
  } else {
    for (uint64_t m = 0; m < num_morsels; ++m) scan_morsel(m);
  }
  return Concat(parts, counts);
}

Result<JoinResult> HashJoin(const Table& fact, const Table& dim,
                            const JoinSpec& spec, ThreadPool* pool,
                            const std::vector<uint32_t>* fact_selection,
                            const std::vector<uint32_t>* dim_selection) {
  if (spec.fact_fk_column < 0 ||
      static_cast<size_t>(spec.fact_fk_column) >= fact.num_columns()) {
    return Status::InvalidArgument("bad fact FK column");
  }
  if (spec.dim_pk_column < 0 ||
      static_cast<size_t>(spec.dim_pk_column) >= dim.num_columns()) {
    return Status::InvalidArgument("bad dim PK column");
  }
  const Column& fk = fact.column(static_cast<size_t>(spec.fact_fk_column));
  const Column& pk = dim.column(static_cast<size_t>(spec.dim_pk_column));

  // Build phase (dimension side, typically small). Flat open-addressing
  // table sized up front: probes in the parallel phase below touch one
  // contiguous slot per step instead of chasing unordered_map nodes.
  const uint64_t build_rows = dim_selection ? dim_selection->size()
                                            : dim.num_rows();
  FlatMap64 build(build_rows);
  for (uint64_t i = 0; i < build_rows; ++i) {
    const uint32_t row = dim_selection ? (*dim_selection)[i]
                                       : static_cast<uint32_t>(i);
    if (pk.IsNull(row)) continue;
    if (!build.Insert(pk.GetInt64(row), row)) {
      return Status::InvalidArgument("duplicate build key in dimension");
    }
  }

  // Probe phase (fact side, parallel). Each morsel's outputs are sized
  // for its worst case (every row matches) once, up front.
  const uint64_t total = fact_selection ? fact_selection->size()
                                        : fact.num_rows();
  const uint64_t num_morsels = NumMorsels(total, kMorselRows);
  std::vector<std::unique_ptr<uint32_t[]>> fact_parts(num_morsels);
  std::vector<std::unique_ptr<uint32_t[]>> dim_parts(num_morsels);
  std::vector<uint64_t> counts(num_morsels, 0);

  auto probe_morsel = [&](uint64_t m) {
    const MorselRange r = GetMorsel(total, kMorselRows, m);
    fact_parts[m] = std::make_unique_for_overwrite<uint32_t[]>(r.size());
    dim_parts[m] = std::make_unique_for_overwrite<uint32_t[]>(r.size());
    counts[m] =
        fact_selection != nullptr
            ? Probe(build, fk, ListRows{fact_selection->data() + r.begin},
                    r.size(), fact_parts[m].get(), dim_parts[m].get())
            : Probe(build, fk, RangeRows{r.begin}, r.size(),
                    fact_parts[m].get(), dim_parts[m].get());
  };

  if (pool != nullptr) {
    pool->ParallelFor(num_morsels, probe_morsel);
  } else {
    for (uint64_t m = 0; m < num_morsels; ++m) probe_morsel(m);
  }

  JoinResult result;
  result.fact_rows = Concat(fact_parts, counts);
  result.dim_rows = Concat(dim_parts, counts);
  return result;
}

}  // namespace blusim::runtime
