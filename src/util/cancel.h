// Cooperative cancellation and per-query resource accounting. A query's
// limits are armed one way, CancelToken::WithLimits: the benchmark runner
// calls it through query::ResourceGovernor with a deadline and an
// optional byte-accounted memory budget before every query; engines and
// the traversal machine check the token inside their scan loops and
// charge it wherever a per-session structure grows. This reproduces the
// paper's 2-hour query timeout (Fig. 1(c)) and its OOM class (Sparksee on
// Q28-Q31) without detaching threads: any query stops at a bounded stride
// with a typed status, never a crash or a hang.

#ifndef GDBMICRO_UTIL_CANCEL_H_
#define GDBMICRO_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "src/util/status.h"

namespace gdbmicro {

/// Why a token stopped admitting work. Once tripped a token never
/// untrips — the query it governs is over.
enum class TripReason : uint8_t {
  kNone = 0,
  kCancelled = 1,  // explicit Cancel() from another thread
  kDeadline = 2,   // wall-clock deadline passed
  kMemory = 3,     // byte budget exhausted (Charge overflowed)
};

/// Shared cancellation/deadline/budget state. Copyable handle; all copies
/// observe the same trip.
class CancelToken {
 public:
  /// A token that never cancels and accounts no memory.
  CancelToken() : CancelToken(Clock::now()) {}

  /// A token with a deadline (0 = none, negative = already expired) and a
  /// memory budget in bytes (0 = unlimited). The resource governor's
  /// factory.
  static CancelToken WithLimits(std::chrono::nanoseconds deadline,
                                uint64_t memory_budget_bytes) {
    // One clock read arms the token: it is both the elapsed-time origin
    // and the deadline's base.
    CancelToken t(Clock::now());
    if (deadline.count() != 0) {
      t.state_->deadline = t.state_->armed_at + deadline;
      t.state_->deadline_budget = deadline;
      t.state_->has_deadline = true;
    }
    t.state_->budget_bytes = memory_budget_bytes;
    return t;
  }

  /// Requests cancellation from another thread.
  void Cancel() const { Trip(TripReason::kCancelled); }

  /// True if cancelled, past deadline, or out of memory budget. Cheap:
  /// the trip flag is read on every probe, and the clock on the first
  /// probe (so an already-expired deadline is seen immediately, even by
  /// short loops) and every `kClockStride` probes after that, keeping the
  /// clock read out of the measured scan hot path. The probe counter
  /// advances with a relaxed load and store, not a locked read-modify-
  /// write: it stays an atomic, so threads sharing a token do not race,
  /// but concurrent probers may lose increments, which only delays a
  /// clock read.
  bool Expired() const {
    if (state_->tripped.load(std::memory_order_relaxed) !=
        static_cast<uint8_t>(TripReason::kNone)) {
      return true;
    }
    if (!state_->has_deadline) return false;
    uint32_t probe = state_->poll_counter.load(std::memory_order_relaxed);
    state_->poll_counter.store(probe + 1, std::memory_order_relaxed);
    if (probe % kClockStride != 0) return false;
    if (Clock::now() >= state_->deadline) {
      Trip(TripReason::kDeadline);
      return true;
    }
    return false;
  }

  /// Accounts `bytes` of per-query working memory against the budget.
  /// Returns false (and trips the token) once the running total exceeds
  /// it; with no budget armed this is one branch. Relaxed atomics: the
  /// common caller is a single-threaded session, and concurrent sessions
  /// sharing a token only need an eventually-consistent total.
  bool Charge(uint64_t bytes) const {
    if (state_->budget_bytes == 0) return true;
    uint64_t total =
        state_->charged_bytes.fetch_add(bytes, std::memory_order_relaxed) +
        bytes;
    if (total > state_->budget_bytes) {
      Trip(TripReason::kMemory);
      return false;
    }
    return true;
  }

  /// Marks the pipeline position for diagnostics (an operator name, an
  /// engine scan entry point). `pos` must outlive the query — operator
  /// names and engine literals qualify. Relaxed store: attribution, not
  /// synchronization.
  void set_position(const char* pos) const {
    state_->position.store(pos, std::memory_order_relaxed);
  }

  /// Clock probes between deadline checks (see Expired).
  static constexpr uint32_t kClockStride = 256;

  TripReason trip_reason() const {
    return static_cast<TripReason>(
        state_->tripped.load(std::memory_order_relaxed));
  }
  uint64_t charged_bytes() const {
    return state_->charged_bytes.load(std::memory_order_relaxed);
  }
  uint64_t budget_bytes() const { return state_->budget_bytes; }
  bool has_deadline() const { return state_->has_deadline; }

  /// Wall time since the token was armed, in milliseconds.
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     state_->armed_at)
        .count();
  }

  /// Status to propagate when Expired() is observed: typed per trip
  /// reason, with the elapsed-vs-budget / charged-vs-limit numbers and
  /// the last marked position, so a DNF row in bench output is
  /// attributable without a debugger.
  Status ToStatus() const {
    std::string at;
    if (const char* pos = state_->position.load(std::memory_order_relaxed)) {
      at = std::string(", at ") + pos;
    }
    switch (trip_reason()) {
      case TripReason::kMemory:
        return Status::ResourceExhausted(
            "query memory budget exhausted (charged " +
            std::to_string(charged_bytes()) + " bytes, budget " +
            std::to_string(budget_bytes()) + " bytes" + at + ")");
      case TripReason::kCancelled:
        return Status::DeadlineExceeded("query cancelled (elapsed " +
                                        FormatMs(elapsed_ms()) + " ms" + at +
                                        ")");
      case TripReason::kDeadline:
      default: {
        std::string budget =
            state_->has_deadline
                ? FormatMs(std::chrono::duration<double, std::milli>(
                               state_->deadline_budget)
                               .count())
                : std::string("none");
        return Status::DeadlineExceeded(
            "query exceeded its deadline (elapsed " + FormatMs(elapsed_ms()) +
            " ms, budget " + budget + " ms" + at + ")");
      }
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct State {
    explicit State(Clock::time_point armed) : armed_at(armed) {}

    std::atomic<uint8_t> tripped{static_cast<uint8_t>(TripReason::kNone)};
    bool has_deadline = false;
    Clock::time_point armed_at;
    Clock::time_point deadline{};
    std::chrono::nanoseconds deadline_budget{0};
    uint64_t budget_bytes = 0;
    mutable std::atomic<uint64_t> charged_bytes{0};
    mutable std::atomic<const char*> position{nullptr};
    mutable std::atomic<uint32_t> poll_counter{0};
  };

  explicit CancelToken(Clock::time_point armed_at)
      : state_(std::make_shared<State>(armed_at)) {}

  void Trip(TripReason reason) const {
    uint8_t expected = static_cast<uint8_t>(TripReason::kNone);
    // First trip wins: a deadline firing while a Charge overflows must
    // not flap the reported class.
    state_->tripped.compare_exchange_strong(
        expected, static_cast<uint8_t>(reason), std::memory_order_relaxed);
  }

  static std::string FormatMs(double ms) {
    // Two decimals without pulling in a formatting library header-side.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", ms);
    return std::string(buf);
  }

  std::shared_ptr<State> state_;
};

/// Convenience guard used inside scan loops:
///   GDB_CHECK_CANCEL(token);
#define GDB_CHECK_CANCEL(token)                        \
  do {                                                 \
    if ((token).Expired()) return (token).ToStatus();  \
  } while (false)

/// Convenience guard for charge sites: accounts `bytes` and propagates
/// the typed kResourceExhausted status once the budget is exhausted.
#define GDB_CHECK_CHARGE(token, bytes)                      \
  do {                                                      \
    if (!(token).Charge(bytes)) return (token).ToStatus();  \
  } while (false)

}  // namespace gdbmicro

#endif  // GDBMICRO_UTIL_CANCEL_H_
