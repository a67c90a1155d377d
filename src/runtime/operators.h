#ifndef BLUSIM_RUNTIME_OPERATORS_H_
#define BLUSIM_RUNTIME_OPERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "common/status.h"
#include "runtime/thread_pool.h"

namespace blusim::runtime {

// Comparison operators for scan predicates.
enum class CmpOp : uint8_t {
  kEq = 0,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kBetween,  // lo <= v <= hi
};

// One conjunct of a scan filter. Numeric comparisons use `lo`/`hi`
// (BETWEEN uses both); string equality uses `str`.
struct Predicate {
  int column = -1;
  CmpOp op = CmpOp::kEq;
  double lo = 0.0;
  double hi = 0.0;
  std::string str;
};

// Evaluates the conjunction of `predicates` over `table` in parallel and
// returns the selection vector of qualifying row ids (ascending).
Result<std::vector<uint32_t>> FilterScan(
    const columnar::Table& table, const std::vector<Predicate>& predicates,
    ThreadPool* pool);

// Row-at-a-time predicate conjunction: the reference SelectRows is tested
// against. Column indices must be valid -- see ValidatePredicates.
bool RowMatchesPredicates(const columnar::Table& table,
                          const std::vector<Predicate>& predicates,
                          uint32_t row);

// Batch form of the same conjunction, column-at-a-time. The candidates are
// row ids [rows.begin, rows.end) when `input` is null, else the selection
// slice input[rows.begin, rows.end). Writes the survivors, in candidate
// order, to `out` (rows.size() entries; it may be input + rows.begin, for
// in-place filtering) and returns their count. Each predicate resolves its
// column and picks a typed loop once; the first scans the candidates and
// each later one compacts the survivors in place. Selects exactly the rows
// RowMatchesPredicates accepts. Column indices must be valid.
uint64_t SelectRows(const columnar::Table& table,
                    const std::vector<Predicate>& predicates,
                    MorselRange rows, const uint32_t* input, uint32_t* out);

// Checks every predicate's column index against the table's schema.
Status ValidatePredicates(const columnar::Table& table,
                          const std::vector<Predicate>& predicates);

// Equi-join spec: fact.fk_column == dim.pk_column. The probe side is the
// fact table (optionally pre-filtered via `fact_selection`), the build side
// the dimension table (optionally pre-filtered via `dim_selection`).
struct JoinSpec {
  int fact_fk_column = -1;
  int dim_pk_column = -1;
};

// Result of a hash join: parallel arrays of matching (fact_row, dim_row)
// pairs, ordered by fact row.
struct JoinResult {
  std::vector<uint32_t> fact_rows;
  std::vector<uint32_t> dim_rows;
  size_t size() const { return fact_rows.size(); }
};

// Hash join: builds on the dimension rows, probes with the fact rows.
// Dimension keys must be unique (primary key) -- duplicate build keys are
// rejected.
Result<JoinResult> HashJoin(const columnar::Table& fact,
                            const columnar::Table& dim, const JoinSpec& spec,
                            ThreadPool* pool,
                            const std::vector<uint32_t>* fact_selection,
                            const std::vector<uint32_t>* dim_selection);

}  // namespace blusim::runtime

#endif  // BLUSIM_RUNTIME_OPERATORS_H_
