// Span recording for the traced benchmark run.
//
// Each thread appends spans to its own buffer: name, start, end, parent and,
// where the span was caused by one known application message, that
// message's (origin, seq) id. Buffers stay in memory until the run ends and
// reduce() turns them into per-kind totals. Recording is off unless
// set_recording(true); an open() while off returns kNoSpan and close() of
// kNoSpan does nothing, so the probes cost one branch when not recording.
//
// Module spans are estimates built from Stack trace records: a record opens
// a span charged to the module it names; the next record, any other span
// opening (a send, a callback out of the stack) or the enclosing span's
// return closes it. After a nested non-module span returns, the module that
// was running resumes with a fresh span.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kSimRunUntil,
  kRuntimeSend,
  kRuntimeTimer,
  kRuntimePost,
  kStackOnMessage,
  kChannelOnMessage,
  kCoreAbcast,
  kFaultsChecker,
  kAppDeliver,
  // Module spans (estimated from Stack trace records).
  kModAbcast,
  kModConsensus,
  kModRbcast,
  kModFd,
  kModMonolithic,
  kCount,
};
inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount);

const char* span_name(SpanKind kind);
bool is_module_span(SpanKind kind);

inline constexpr std::uint32_t kNoSpan = ~std::uint32_t{0};
inline constexpr std::uint32_t kNoOrigin = ~std::uint32_t{0};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< 0 while open
  std::uint64_t seq = 0;
  std::uint32_t parent = kNoSpan;  ///< index in the same thread's buffer
  std::uint32_t origin = kNoOrigin;
  SpanKind kind = SpanKind::kCount;
};

/// Per-kind totals over all closed spans.
struct SpanTotals {
  struct Kind {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;  ///< sum of durations
    std::int64_t self_ns = 0;   ///< duration minus direct children
    /// Duration minus the time covered by descendants that are not the
    /// stack's own work (runtime.send, app.deliver, faults.checker);
    /// module spans in between count as own time.
    std::int64_t own_ns = 0;
  };
  std::array<Kind, kSpanKinds> kinds{};
  std::uint64_t spans = 0;

  const Kind& operator[](SpanKind k) const {
    return kinds[static_cast<std::size_t>(k)];
  }
};

namespace spans {

void set_recording(bool on);
bool recording();

/// Opens a span on the calling thread; returns its token (kNoSpan when not
/// recording).
std::uint32_t open(SpanKind kind);
/// Closes the span `token` (must be the innermost open non-module span of
/// this thread). `origin`/`seq` tag it with a message id.
void close(std::uint32_t token, std::uint32_t origin = kNoOrigin,
           std::uint64_t seq = 0);
/// A Stack trace record named `module` on this thread.
void module_record(SpanKind module);

/// RAII span.
class Scope {
 public:
  explicit Scope(SpanKind kind) : token_(open(kind)) {}
  ~Scope() { close(token_, origin_, seq_); }
  void tag(std::uint32_t origin, std::uint64_t seq) {
    origin_ = origin;
    seq_ = seq;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint32_t token_;
  std::uint32_t origin_ = kNoOrigin;
  std::uint64_t seq_ = 0;
};

/// Reduces every thread's buffer. Call only while no thread records.
SpanTotals reduce();
/// Drops all buffers (threads re-register on their next span). Call only
/// while no thread records.
void reset();

/// Self-time reduction of one buffer, exposed for tests.
void reduce_buffer(const std::vector<Span>& buf, SpanTotals& out);

}  // namespace spans
}  // namespace perfbench
