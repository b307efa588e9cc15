#include "probes.hpp"

#include "framework/event.hpp"

namespace perfbench {

Probe::Probe(std::size_t n)
    : n_(n), procs_(n), lanes_(std::make_unique<Lane[]>(n * n)) {}

void Probe::on_send(util::ProcessId from, util::ProcessId to,
                    util::TimePoint at) {
  Lane& lane = lanes_[from * n_ + to];
  std::lock_guard lock(lane.mu);
  lane.sent.push_back(at);
}

void Probe::on_receive(util::ProcessId from, util::ProcessId to,
                       util::TimePoint at) {
  Lane& lane = lanes_[from * n_ + to];
  util::TimePoint sent_at = 0;
  {
    std::lock_guard lock(lane.mu);
    if (lane.sent.empty()) return;  // not sent through a traced runtime
    sent_at = lane.sent.front();
    lane.sent.pop_front();
  }
  if (spans::recording()) {
    procs_[to].wait_ms.push_back(util::to_milliseconds(at - sent_at));
  }
}

Probe::ProcCounters Probe::total() const {
  ProcCounters t;
  for (const auto& p : procs_) {
    t.sends += p.sends;
    t.timer_arms += p.timer_arms;
    t.timer_cancels += p.timer_cancels;
    t.wait_ms.insert(t.wait_ms.end(), p.wait_ms.begin(), p.wait_ms.end());
  }
  return t;
}

void TracedRuntime::send(util::ProcessId to, util::Payload msg) {
  const util::ProcessId self = inner_->self();
  ++probe_->proc(self).sends;
  probe_->on_send(self, to, inner_->now());
  spans::Scope span(SpanKind::kRuntimeSend);
  inner_->send(to, std::move(msg));
}

runtime::TimerId TracedRuntime::set_timer(util::Duration delay,
                                          std::function<void()> fn) {
  ++probe_->proc(inner_->self()).timer_arms;
  return inner_->set_timer(delay, [fn = std::move(fn)] {
    spans::Scope span(SpanKind::kRuntimeTimer);
    fn();
  });
}

void TracedRuntime::cancel_timer(runtime::TimerId id) {
  ++probe_->proc(inner_->self()).timer_cancels;
  inner_->cancel_timer(id);
}

void TracedProtocol::on_message(util::ProcessId from, util::Payload msg) {
  if (probe_ != nullptr) probe_->on_receive(from, rt_->self(), rt_->now());
  spans::Scope span(kind_);
  inner_->on_message(from, std::move(msg));
}

SpanKind module_of(const framework::TraceRecord& rec) {
  if (rec.kind != framework::TraceKind::kLocalEvent) {
    switch (rec.code) {
      case framework::kModAbcast: return SpanKind::kModAbcast;
      case framework::kModConsensus: return SpanKind::kModConsensus;
      case framework::kModRbcast: return SpanKind::kModRbcast;
      case framework::kModFd: return SpanKind::kModFd;
      default: return SpanKind::kModMonolithic;
    }
  }
  // A local event is charged to the module that handles it.
  switch (rec.code) {
    case framework::kEvPropose:
    case framework::kEvRdeliver:
    case framework::kEvRevalidate: return SpanKind::kModConsensus;
    case framework::kEvDecide:
    case framework::kEvProposeRequest: return SpanKind::kModAbcast;
    case framework::kEvRbcast: return SpanKind::kModRbcast;
    default: return SpanKind::kModFd;  // suspicion events, raised by the FD
  }
}

framework::TraceSink module_span_sink() {
  return [](const framework::TraceRecord& rec) {
    spans::module_record(module_of(rec));
  };
}

}  // namespace perfbench
