#include "core/abcast_process.hpp"

namespace modcast::core {

const char* to_string(StackKind kind) {
  switch (kind) {
    case StackKind::kModular: return "modular";
    case StackKind::kMonolithic: return "monolithic";
  }
  return "?";
}

AbcastProcess::AbcastProcess(runtime::Runtime& rt, StackOptions options)
    : options_(options) {
  stack_ = std::make_unique<framework::Stack>(rt,
                                              options.module_crossing_cost);
  fd_ = std::make_unique<fd::HeartbeatFd>(options.fd);
  stack_->add(*fd_);

  if (options.kind == StackKind::kModular) {
    rbcast_ = std::make_unique<rbcast::ReliableBcast>(options.rbcast);
    stack_->add(*rbcast_);

    consensus_ =
        std::make_unique<consensus::ChandraTouegConsensus>(options.consensus,
                                                           fd_.get());
    stack_->add(*consensus_);

    modular_ = std::make_unique<abcast::ModularAbcast>(options.flow,
                                                       options.modular);
    stack_->add(*modular_);
    if (options.modular.indirect_consensus) {
      // The extended consensus specification ([12]): consensus defers acks
      // and proposals on values whose payloads this process does not hold.
      consensus_->set_proposal_validator(
          [ab = modular_.get()](std::uint64_t k, const util::Payload& value) {
            return ab->validate_value(k, value);
          });
    }
  } else {
    monolithic_ = std::make_unique<monolithic::MonolithicAbcast>(
        options.flow, options.monolithic, fd_.get());
    stack_->add(*monolithic_);
  }
}

AbcastProcess::~AbcastProcess() = default;

std::uint64_t AbcastProcess::abcast(util::Bytes payload) {
  return modular_ ? modular_->abcast(std::move(payload))
                  : monolithic_->abcast(std::move(payload));
}

void AbcastProcess::set_deliver_handler(DeliverFn fn) {
  // The public boundary: the stacks deliver slices of received frames; the
  // application gets owned bytes, copied once per adeliver into a buffer
  // reused across deliveries. A delivery nested inside the handler finds
  // the buffer taken and uses a fresh one.
  adb::DeliverFn to_app;
  if (fn) {
    to_app = [this, fn = std::move(fn)](util::ProcessId origin,
                                        std::uint64_t seq,
                                        const util::Payload& payload) {
      util::Bytes buf = std::move(delivery_buf_);
      buf.assign(payload.span().begin(), payload.span().end());
      fn(origin, seq, buf);
      delivery_buf_ = std::move(buf);
    };
  }
  if (modular_) {
    modular_->set_deliver_handler(std::move(to_app));
  } else {
    monolithic_->set_deliver_handler(std::move(to_app));
  }
}

void AbcastProcess::set_admit_handler(AdmitFn fn) {
  if (modular_) {
    modular_->set_admit_handler(std::move(fn));
  } else {
    monolithic_->set_admit_handler(std::move(fn));
  }
}

runtime::Protocol& AbcastProcess::protocol() { return *stack_; }

const adb::Flow& AbcastProcess::flow() const {
  return modular_ ? modular_->flow() : monolithic_->flow();
}

ProcessStats AbcastProcess::stats() const {
  const adb::FlowStats& f = flow().stats();
  ProcessStats s;
  s.delivered = f.delivered;
  s.instances_completed = f.instances_completed;
  s.messages_in_decisions = f.messages_in_decisions;
  s.admitted = f.admitted;
  if (modular_) {
    s.max_round = consensus_->stats().max_round;
    s.late_decisions = consensus_->stats().late_decisions;
  } else {
    s.max_round = monolithic_->stats().max_round;
    s.late_decisions = monolithic_->stats().late_decisions;
  }
  return s;
}

std::size_t AbcastProcess::queued() const { return flow().queued(); }

std::size_t AbcastProcess::in_flight() const { return flow().in_flight(); }

}  // namespace modcast::core
