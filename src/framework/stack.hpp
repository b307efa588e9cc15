// The microprotocol composition stack.
//
// A Stack owns the wiring of one process's protocol composition: modules
// register handlers for local event types and for their wire-demux module
// id. The stack is the process's runtime::Protocol — it receives raw network
// messages, pops the module-id header, and dispatches upward.
//
// Cost accounting: every boundary crossing (local event dispatch, wire
// header push on send, demux dispatch on receive) charges the runtime's
// module-crossing CPU cost. A monolithic composition has fewer modules and
// therefore fewer crossings per useful message — this is the mechanism
// behind the paper's measured modularity overhead, in addition to the
// algorithmic message-count differences.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "framework/event.hpp"
#include "framework/trace.hpp"
#include "runtime/runtime.hpp"
#include "util/time.hpp"

namespace modcast::framework {

class Stack;

/// Base class of all microprotocol modules.
class Module {
 public:
  virtual ~Module() = default;

  /// Human-readable name (diagnostics).
  virtual std::string_view name() const = 0;

  /// Called once when the module is added: register bindings here.
  virtual void init(Stack& stack) = 0;

  /// Called when the process starts (timers may be armed here).
  virtual void start() {}
};

/// Per-stack counters exposing how much the composition machinery worked.
struct StackCounters {
  std::uint64_t local_events = 0;     ///< local inter-module dispatches
  std::uint64_t wire_sends = 0;       ///< messages pushed to the network
  std::uint64_t wire_deliveries = 0;  ///< messages demuxed from the network
  /// Delivered frames whose handler threw util::DecodeError (truncated or
  /// garbled body). Each is dropped; the process keeps running.
  std::uint64_t malformed_frames = 0;
};

/// Per-module wire counters, so experiments can separate protocol traffic
/// (abcast/consensus/rbcast) from background traffic (failure detector).
struct ModuleWireCounters {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;  ///< payload incl. module header
  std::uint64_t messages_received = 0;
};

class Stack final : public runtime::Protocol {
 public:
  /// `crossing_cost` is charged per module-boundary crossing (see header
  /// comment); pass 0 to disable accounting.
  explicit Stack(runtime::Runtime& rt,
                 util::Duration crossing_cost = 0);

  runtime::Runtime& rt() { return *rt_; }
  util::ProcessId self() const { return rt_->self(); }
  std::size_t group_size() const { return rt_->group_size(); }

  /// Adds a module (non-owning) and runs its init().
  void add(Module& module);

  // wirecheck:allow(hot.function): Handlers are constructed once per module at bind() time, never per message.
  using EventHandler = std::function<void(const Event&)>;
  using WireHandler =
      // wirecheck:allow(hot.function): Constructed once per module at bind_wire() time, never per message.
      std::function<void(util::ProcessId from, util::Payload payload)>;

  /// Registers a handler for a local event type. Multiple handlers fire in
  /// registration order.
  void bind(EventType type, EventHandler handler);

  /// Registers the handler for wire messages addressed to `module_id`.
  void bind_wire(ModuleId module_id, WireHandler handler);

  /// Raises a local event synchronously to all bound handlers.
  void raise(Event event);

  /// Starts a wire message for `module_id`: the returned writer already
  /// holds the 1-byte module-id header, so the module serializes its body
  /// straight into the frame and every send ships it without a copy.
  static util::ByteWriter writer(ModuleId module_id,
                                 std::size_t body_reserve = 0);

  /// Sends `frame` (built with writer(module_id)) to process `to`.
  /// Per-destination counters, trace and CPU charge happen here, so a
  /// fan-out is accounted once per destination.
  void send_wire(util::ProcessId to, ModuleId module_id,
                 const util::Payload& frame);

  /// Sends the same frame to every other process in the group; all n-1
  /// sends share the one ref-counted buffer.
  void send_wire_to_others(ModuleId module_id, const util::Payload& frame);

  const StackCounters& counters() const { return counters_; }

  /// Wire traffic attributable to one module (by demux id); all zero for
  /// an id this stack never bound or sent on.
  const ModuleWireCounters& wire_counters(ModuleId module_id) const;
  void reset_wire_counters();

  /// Installs a trace sink receiving one record per boundary crossing
  /// (pass nullptr to disable). Tracing is off by default and costs nothing
  /// when off.
  void set_tracer(TraceSink sink) { tracer_ = std::move(sink); }

  /// Ambient annotation stamped into every trace record emitted while it is
  /// current: which consensus instance the traffic belongs to and how many
  /// application-payload bytes it carries. Managed by TraceScope.
  struct TraceContext {
    std::uint64_t instance = kNoInstance;
    std::size_t app_bytes = 0;
    std::uint8_t flags = 0;
  };
  const TraceContext& trace_context() const { return trace_ctx_; }

  // runtime::Protocol
  void start() override;
  /// Demuxes one network frame to its module. A frame that is empty, names
  /// an unbound module id, or fails to decode (the handler throws
  /// util::DecodeError) is dropped with a warning instead of escaping into
  /// the runtime; the last kind is counted in counters().malformed_frames.
  void on_message(util::ProcessId from, util::Payload msg) override;

 private:
  runtime::Runtime* rt_;
  util::Duration crossing_cost_;
  std::vector<Module*> modules_;
  // Dense dispatch tables: event types and module ids are small integers,
  // so both lookups are a single indexed load instead of a tree walk. The
  // wire tables reach only the highest id bound (or sent on), not all 256.
  std::vector<std::vector<EventHandler>> bindings_;   // indexed by EventType
  std::vector<WireHandler> wire_bindings_;            // indexed by ModuleId
  StackCounters counters_;
  std::vector<ModuleWireCounters> wire_counters_;     // indexed by ModuleId
  TraceSink tracer_;
  TraceContext trace_ctx_;

  friend class TraceScope;
};

/// RAII annotation scope: trace records emitted while a scope is alive carry
/// its instance/app-byte/flag annotations. Scopes nest; the destructor
/// restores whatever was current. Because event dispatch (Stack::raise) is
/// synchronous, a scope opened around raise() also covers the wire sends the
/// handlers make — abcast can annotate consensus traffic, consensus can
/// annotate rbcast traffic — without any module knowing about the others.
/// Purely observational: no effect on protocol behavior or simulated cost.
class TraceScope {
 public:
  /// Sentinel for app_bytes: inherit the enclosing scope's value.
  static constexpr std::size_t kKeepAppBytes = ~std::size_t{0};

  TraceScope(Stack& stack, std::uint64_t instance,
             std::size_t app_bytes = kKeepAppBytes, std::uint8_t flags = 0)
      : stack_(&stack), saved_(stack.trace_ctx_) {
    stack.trace_ctx_.instance = instance;
    if (app_bytes != kKeepAppBytes) stack.trace_ctx_.app_bytes = app_bytes;
    stack.trace_ctx_.flags |= flags;
  }
  ~TraceScope() { stack_->trace_ctx_ = saved_; }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Stack* stack_;
  Stack::TraceContext saved_;
};

}  // namespace modcast::framework
