#ifndef BLUSIM_COMMON_LOCKDEP_H_
#define BLUSIM_COMMON_LOCKDEP_H_

// Lock-rank validation and acquisition-order tracking ("lockdep") for the
// annotated common::Mutex (common/annotations.h). Compiled in when the
// build defines BLUSIM_LOCKDEP=1 (the CMake option of the same name, on by
// default in Debug); otherwise the hooks are never called and a Mutex is a
// plain std::mutex wrapper again -- zero cost when off.
//
// Two independent checks, both reported through LockdepReport:
//
//  * Rank validation. Every long-lived mutex declares the rank band of its
//    subsystem (LockRank below). Lock acquisition must walk *down* the
//    bands -- an outer serve/harness lock may be held while a gpusim or
//    obs lock is taken, never the reverse. Acquiring a lock whose rank is
//    strictly higher than any rank currently held by the thread is a
//    violation, reported on the first occurrence of that (held, acquired)
//    class pair. Equal-band nesting is allowed; the order graph below
//    catches inversions inside a band.
//
//  * Order-graph cycle detection. Lock *classes* (interned by name, like
//    kernel lockdep: every instance of "sort.SortJobQueue.mu" is one
//    node) form a directed graph with an edge A -> B recorded the first
//    time any thread acquires B while holding A. An acquisition that
//    would close a cycle (B is held, A -> ... -> B already recorded, now
//    recording B -> A) is a potential deadlock, reported immediately --
//    the first time both edges have *ever* been seen in the process, even
//    when the two critical sections came from different tests on
//    different threads and never actually interleaved. No racy schedule
//    is required.
//
// Reports carry both lock names, both ranks, the acquisition backtraces
// of the held and the acquired lock, and (for inversions) the class cycle.
// They are logged at error level when recorded and drained into the
// simulated device checker's defect report at engine shutdown
// (gpusim/device_check.h), so a lock-order bug surfaces exactly like a
// device-memory bug. See docs/static_analysis.md ("Lock ranks & lockdep").

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace blusim::common {

// Per-subsystem rank bands in *acquisition* order: a thread's held locks
// must be non-increasing in rank, i.e. outer layers lock first. The bands
// mirror the include-layering DAG that scripts/blusim_lint.py enforces
// (common < obs < runtime < gpusim < sched < groupby/sort < core <
// harness/serve, bottom-up), with the outermost layer getting the highest
// rank because it locks first on the way down.
enum class LockRank : uint8_t {
  kUnranked = 0,  // short-lived / function-local locks; graph-tracked only
  kCommon = 1,    // common/ leaf utilities (innermost, acquired last)
  kObs = 2,       // obs/ metrics, traces, windows, flight recorder
  kRuntime = 3,   // runtime/ thread pool, CPU operators
  kGpusim = 4,    // gpusim/ device memory, pinned pool, checker, monitor
  kSched = 5,     // sched/ GPU scheduler wait line
  kExec = 6,      // groupby/ sort/ operator run state
  kCore = 7,      // core/ engine registries
  kServe = 8,     // serve/ + harness/ admission and stream state (outermost)
};

const char* LockRankName(LockRank rank);

// One recorded violation. `held_*` is the lock the thread already owned,
// `acquired_*` the one whose acquisition triggered the report.
struct LockdepReport {
  enum class Kind : uint8_t {
    kRankViolation = 0,  // acquired rank above a held rank
    kOrderInversion,     // acquisition would close a cycle in the graph
  };

  Kind kind = Kind::kRankViolation;
  std::string held_name;
  LockRank held_rank = LockRank::kUnranked;
  std::string acquired_name;
  LockRank acquired_rank = LockRank::kUnranked;
  // Resolved frames of where the held lock was acquired (this thread) and
  // where the offending acquisition happened. Empty when capture failed.
  std::vector<std::string> held_backtrace;
  std::vector<std::string> acquire_backtrace;
  // For kOrderInversion: the class-name cycle the new edge would close,
  // starting and ending with `acquired_name`.
  std::vector<std::string> cycle;

  std::string ToString() const;
};

const char* LockdepReportKindName(LockdepReport::Kind kind);

namespace lockdep {

// True when the build compiled the hooks in (BLUSIM_LOCKDEP=1) and the
// BLUSIM_LOCKDEP environment variable does not force them off at runtime
// (0/off disables; anything else, or unset, leaves them on).
bool Enabled();

// Mutex hooks (called by common::Mutex; not meant for direct use).
// OnAcquire runs *before* the underlying lock() blocks, so a would-be
// deadlock is reported instead of experienced. Try-acquisitions record
// the lock as held but add no order edges: a try_lock never blocks, so
// it cannot participate in a deadlock cycle.
void OnAcquire(const void* instance, const char* name, LockRank rank,
               bool trylock);
void OnRelease(const void* instance);

// Reports recorded so far (copy / consuming drain). The device checker
// drains at FinalReport time; tests read non-destructively.
size_t report_count();
std::vector<LockdepReport> Reports();
std::vector<LockdepReport> DrainReports();

// Number of distinct order-graph edges recorded (tests, monitors).
size_t edge_count();

// Clears reports, order edges and report-dedup state. Lock classes stay
// interned (instances may still point at them). All locks must be
// released before calling this; test isolation only.
void ResetForTest();

}  // namespace lockdep
}  // namespace blusim::common

#endif  // BLUSIM_COMMON_LOCKDEP_H_
