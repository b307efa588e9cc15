#include "framework/stack.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/bytes.hpp"
#include "util/log.hpp"

namespace modcast::framework {

Stack::Stack(runtime::Runtime& rt, util::Duration crossing_cost)
    : rt_(&rt), crossing_cost_(crossing_cost) {}

void Stack::add(Module& module) {
  modules_.push_back(&module);
  module.init(*this);
}

void Stack::bind(EventType type, EventHandler handler) {
  if (bindings_.size() <= type) bindings_.resize(type + 1);
  bindings_[type].push_back(std::move(handler));
}

void Stack::bind_wire(ModuleId module_id, WireHandler handler) {
  if (wire_bindings_.size() <= module_id) wire_bindings_.resize(module_id + 1);
  if (wire_counters_.size() <= module_id) wire_counters_.resize(module_id + 1);
  wire_bindings_[module_id] = std::move(handler);
}

void Stack::raise(Event event) {
  if (event.type >= bindings_.size() || bindings_[event.type].empty()) return;
  if (tracer_) {
    tracer_(TraceRecord{rt_->now(), rt_->self(), TraceKind::kLocalEvent,
                        event.type, util::kInvalidProcess, 0,
                        trace_ctx_.instance, trace_ctx_.app_bytes,
                        trace_ctx_.flags});
  }
  for (auto& handler : bindings_[event.type]) {
    ++counters_.local_events;
    if (crossing_cost_ > 0) rt_->charge_cpu(crossing_cost_);
    handler(event);
  }
}

util::ByteWriter Stack::writer(ModuleId module_id, std::size_t body_reserve) {
  util::ByteWriter w(body_reserve + 1);
  w.u8(module_id);
  return w;
}

void Stack::send_wire(util::ProcessId to, ModuleId module_id,
                      const util::Payload& frame) {
  if (frame.empty() || frame[0] != module_id) {
    throw std::logic_error("stack: frame for wire id " +
                           std::to_string(module_id) +
                           " not built with Stack::writer");
  }
  const std::size_t payload_size = frame.size() - 1;
  ++counters_.wire_sends;
  if (wire_counters_.size() <= module_id) {
    wire_counters_.resize(module_id + 1);  // an id this stack never bound
  }
  auto& wc = wire_counters_[module_id];
  ++wc.messages_sent;
  wc.bytes_sent += frame.size();
  if (tracer_) {
    tracer_(TraceRecord{rt_->now(), rt_->self(), TraceKind::kWireSend,
                        module_id, to, payload_size, trace_ctx_.instance,
                        trace_ctx_.app_bytes, trace_ctx_.flags});
  }
  if (crossing_cost_ > 0) rt_->charge_cpu(crossing_cost_);
  rt_->send(to, frame);
}

const ModuleWireCounters& Stack::wire_counters(ModuleId module_id) const {
  static const ModuleWireCounters kNone{};
  return module_id < wire_counters_.size() ? wire_counters_[module_id] : kNone;
}

void Stack::reset_wire_counters() {
  std::fill(wire_counters_.begin(), wire_counters_.end(),
            ModuleWireCounters{});
}

void Stack::send_wire_to_others(ModuleId module_id,
                                const util::Payload& frame) {
  const auto n = static_cast<util::ProcessId>(rt_->group_size());
  // One serialization; every destination shares the ref-counted frame.
  for (util::ProcessId p = 0; p < n; ++p) {
    if (p != rt_->self()) send_wire(p, module_id, frame);
  }
}

void Stack::start() {
  for (Module* m : modules_) m->start();
}

void Stack::on_message(util::ProcessId from, util::Payload msg) {
  if (msg.empty()) {
    MODCAST_WARN("stack: dropped empty message");
    return;
  }
  const ModuleId module_id = msg[0];
  if (module_id >= wire_bindings_.size() || !wire_bindings_[module_id]) {
    MODCAST_WARN("stack: no module bound for wire id " +
                 std::to_string(module_id));
    return;
  }
  ++counters_.wire_deliveries;
  ++wire_counters_[module_id].messages_received;
  if (tracer_) {
    tracer_(TraceRecord{rt_->now(), rt_->self(), TraceKind::kWireDeliver,
                        module_id, from, msg.size() - 1});
  }
  if (crossing_cost_ > 0) rt_->charge_cpu(crossing_cost_);
  // Zero-copy header strip, in place: the handler gets this view, narrowed.
  msg.remove_prefix(1);
  try {
    wire_bindings_[module_id](from, std::move(msg));
  } catch (const util::DecodeError& e) {
    ++counters_.malformed_frames;
    MODCAST_WARN("stack: dropped malformed frame for wire id " +
                 std::to_string(module_id) + " from " + std::to_string(from) +
                 ": " + e.what());
  }
}

}  // namespace modcast::framework
