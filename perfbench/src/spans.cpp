#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace perfbench {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSimRunUntil: return "sim.run_until";
    case SpanKind::kRuntimeSend: return "runtime.send";
    case SpanKind::kRuntimeTimer: return "runtime.timer";
    case SpanKind::kRuntimePost: return "runtime.post";
    case SpanKind::kStackOnMessage: return "stack.on_message";
    case SpanKind::kChannelOnMessage: return "channel.on_message";
    case SpanKind::kCoreAbcast: return "core.abcast";
    case SpanKind::kFaultsChecker: return "faults.checker";
    case SpanKind::kAppDeliver: return "app.deliver";
    case SpanKind::kModAbcast: return "abcast";
    case SpanKind::kModConsensus: return "consensus";
    case SpanKind::kModRbcast: return "rbcast";
    case SpanKind::kModFd: return "fd";
    case SpanKind::kModMonolithic: return "monolithic";
    case SpanKind::kCount: break;
  }
  return "?";
}

bool is_module_span(SpanKind kind) {
  return kind >= SpanKind::kModAbcast && kind < SpanKind::kCount;
}

namespace spans {
namespace {

/// Work outside the stack that stack spans call out to.
bool is_foreign(SpanKind kind) {
  return kind == SpanKind::kRuntimeSend || kind == SpanKind::kAppDeliver ||
         kind == SpanKind::kFaultsChecker;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Frame {
  std::uint32_t span;
  SpanKind resume;  ///< module running when this frame opened, or kCount
};

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<Frame> frames;  ///< open non-module spans, innermost last
  std::uint32_t module_span = kNoSpan;  ///< open module span, if any
};

std::atomic<bool> g_recording{false};
std::atomic<std::uint64_t> g_generation{1};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu

struct Local {
  ThreadBuffer* buf = nullptr;
  std::uint64_t generation = 0;
};
thread_local Local t_local;

ThreadBuffer& local() {
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (t_local.buf == nullptr || t_local.generation != gen) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(1 << 16);
    t_local.buf = owned.get();
    t_local.generation = gen;
    std::lock_guard lock(g_mu);
    g_buffers.push_back(std::move(owned));
  }
  return *t_local.buf;
}

std::uint32_t push(ThreadBuffer& b, SpanKind kind, std::uint32_t parent) {
  Span s;
  s.start_ns = now_ns();
  s.parent = parent;
  s.kind = kind;
  b.spans.push_back(s);
  return static_cast<std::uint32_t>(b.spans.size() - 1);
}

/// Closes the open module span; returns its kind (kCount if none).
SpanKind end_module(ThreadBuffer& b) {
  if (b.module_span == kNoSpan) return SpanKind::kCount;
  Span& s = b.spans[b.module_span];
  s.end_ns = now_ns();
  b.module_span = kNoSpan;
  return s.kind;
}

std::uint32_t top(const ThreadBuffer& b) {
  return b.frames.empty() ? kNoSpan : b.frames.back().span;
}

}  // namespace

void set_recording(bool on) {
  g_recording.store(on, std::memory_order_release);
}

bool recording() { return g_recording.load(std::memory_order_relaxed); }

std::uint32_t open(SpanKind kind) {
  if (!recording()) return kNoSpan;
  ThreadBuffer& b = local();
  const SpanKind resume = end_module(b);
  const std::uint32_t idx = push(b, kind, top(b));
  b.frames.push_back(Frame{idx, resume});
  return idx;
}

void close(std::uint32_t token, std::uint32_t origin, std::uint64_t seq) {
  if (token == kNoSpan) return;
  ThreadBuffer& b = *t_local.buf;
  end_module(b);
  // Frames opened while recording and closed after a reset()/re-enable
  // cannot occur: reset() runs only while no thread records.
  const Frame f = b.frames.back();
  b.frames.pop_back();
  Span& s = b.spans[f.span];
  s.end_ns = now_ns();
  s.origin = origin;
  s.seq = seq;
  if (f.resume != SpanKind::kCount && recording()) {
    b.module_span = push(b, f.resume, top(b));
  }
}

void module_record(SpanKind module) {
  if (!recording()) return;
  ThreadBuffer& b = local();
  end_module(b);
  b.module_span = push(b, module, top(b));
}

void reduce_buffer(const std::vector<Span>& buf, SpanTotals& out) {
  std::vector<std::int64_t> child(buf.size(), 0);
  std::vector<std::int64_t> foreign(buf.size(), 0);
  // Children are appended after their parent, so one reverse pass sees
  // every child before its parent.
  for (std::size_t i = buf.size(); i-- > 0;) {
    const Span& s = buf[i];
    if (s.end_ns == 0) continue;  // never closed (run cut mid-span)
    const std::int64_t dur = s.end_ns - s.start_ns;
    auto& k = out.kinds[static_cast<std::size_t>(s.kind)];
    ++k.count;
    k.total_ns += dur;
    k.self_ns += dur - child[i];
    k.own_ns += dur - foreign[i];
    ++out.spans;
    if (s.parent != kNoSpan) {
      child[s.parent] += dur;
      foreign[s.parent] += is_foreign(s.kind) ? dur : foreign[i];
    }
  }
}

SpanTotals reduce() {
  SpanTotals out;
  std::lock_guard lock(g_mu);
  for (const auto& b : g_buffers) reduce_buffer(b->spans, out);
  return out;
}

void reset() {
  std::lock_guard lock(g_mu);
  g_buffers.clear();
  g_generation.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace spans
}  // namespace perfbench
