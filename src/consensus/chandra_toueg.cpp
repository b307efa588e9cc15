#include "consensus/chandra_toueg.hpp"

#include <algorithm>

#include "util/bytes.hpp"
#include "util/log.hpp"

namespace modcast::consensus {

namespace {

// Point-to-point message kinds (kModConsensus wire payloads).
constexpr std::uint8_t kEstimate = 1;
constexpr std::uint8_t kProposal = 2;
constexpr std::uint8_t kAck = 3;
constexpr std::uint8_t kNack = 4;
constexpr std::uint8_t kPull = 5;
constexpr std::uint8_t kFull = 6;
constexpr std::uint8_t kSolicit = 7;

// Decision payload kinds carried inside the reliable broadcast.
constexpr std::uint8_t kDecisionTag = 10;
constexpr std::uint8_t kDecisionFull = 11;

}  // namespace

void ChandraTouegConsensus::init(framework::Stack& stack) {
  stack_ = &stack;
  stack.bind_wire(framework::kModConsensus,
                  [this](util::ProcessId from, util::Payload msg) {
                    on_wire(from, std::move(msg));
                  });
  stack.bind(framework::kEvPropose, [this](const framework::Event& ev) {
    auto& body = ev.as<framework::ConsensusValueBody>();
    propose(body.instance, body.value);
  });
  stack.bind(framework::kEvRdeliver, [this](const framework::Event& ev) {
    auto& body = ev.as<framework::RdeliverBody>();
    on_rdeliver(body.origin, body.payload);
  });
  stack.bind(framework::kEvSuspect, [this](const framework::Event& ev) {
    on_suspect(ev.as<framework::SuspicionBody>().process);
  });
  stack.bind(framework::kEvRevalidate, [this](const framework::Event& ev) {
    on_revalidate(ev.as<framework::ProposeRequestBody>().instance);
  });
}

ChandraTouegConsensus::Instance& ChandraTouegConsensus::instance(
    std::uint64_t k) {
  bool created = false;
  Instance& inst = instances_.at(k, &created);
  // One touched after its decision arrived is born decided: not open.
  if (created && !inst.decided) {
    ++open_instances_;
    stats_.max_open_instances =
        std::max(stats_.max_open_instances, open_instances_);
  }
  return inst;
}

void ChandraTouegConsensus::propose(std::uint64_t k, util::Payload value) {
  if (instances_.decided(k)) return;
  Instance& inst = instance(k);
  if (inst.has_estimate) return;  // initial value already bound
  inst.has_estimate = true;
  inst.estimate = std::move(value);
  inst.estimate_ts = 0;

  // Single-process group: trivially decide. Deferred through a zero-delay
  // timer so a decide → propose(k+1) → decide chain cannot recurse.
  if (stack_->group_size() == 1) {
    // lifecheck:allow(timer.lost): zero-delay trampoline fires before any cancel path could need its id
    stack_->rt().set_timer(0, [this, k] {
      Instance* inst = instances_.find(k);
      if (inst == nullptr || inst->decided) return;
      decide_local(k, inst->estimate);
    });
    return;
  }

  const ct::Group g = group();
  if (ct::may_propose(inst, g, 1)) {
    do_propose(inst, 1, inst.estimate);
    return;
  }
  if (inst.decided) return;

  // Catch up on anything that already happened: a recovery round we
  // coordinate now counts our value (rule 3); one we joined gets it.
  if (inst.round > 1) {
    if (g.coordinator(inst.round) == g.self) {
      ct::enter_round(inst, g, inst.round);
      check_estimates(inst, inst.round);
    } else {
      send_estimate(inst, inst.round, g.coordinator(inst.round));
    }
    return;
  }
  if (suspects(g.coordinator(1))) {
    // Tell the round-1 coordinator we are moving on — it may be alive
    // (wrong suspicion) and waiting for our ack.
    if (inst.acked_rounds.count(1) == 0 &&
        inst.nacked_rounds.insert(1).second) {
      send_nack(k, 1, g.coordinator(1));
    }
    move_on(inst);
  } else if (inst.proposals.count(1) == 0) {
    arm_nudge(inst);
  }
}

void ChandraTouegConsensus::arm_nudge(Instance& inst) {
  if (inst.nudge_timer != runtime::kInvalidTimer) return;
  const std::uint64_t k = inst.k;
  inst.nudge_timer = stack_->rt().set_timer(
      config_.proposal_nudge_timeout, [this, k] {
        Instance* inst = instances_.find(k);
        if (inst == nullptr) return;
        inst->nudge_timer = runtime::kInvalidTimer;
        if (inst->decided || inst->round != 1 ||
            inst->proposals.count(1) != 0 || !inst->has_estimate) {
          return;
        }
        // Re-introduce the estimate phase: hand the coordinator a value.
        util::ByteWriter w = framework::Stack::writer(
            framework::kModConsensus, inst->estimate.size() + 32);
        w.u8(kEstimate);
        w.u64(inst->k);
        w.u32(1);
        w.u32(inst->estimate_ts);
        w.blob(inst->estimate);
        framework::TraceScope scope(*stack_, k, 0);
        stack_->send_wire(coordinator(1), framework::kModConsensus, w.take());
        ++stats_.nudges_sent;
        arm_nudge(*inst);  // keep nudging until the proposal shows up
      });
}

void ChandraTouegConsensus::do_propose(Instance& inst, std::uint32_t round,
                                       util::Payload value) {
  // In the good-run path this runs inside the abcast module's propose scope,
  // which already annotated instance k and the batch's app-payload bytes;
  // keeping app_bytes inherits that for the proposal fan-out. Recovery-round
  // proposals arrive with no enclosing scope and stay at app_bytes 0.
  framework::TraceScope scope(*stack_, inst.k, framework::TraceScope::kKeepAppBytes);
  util::ByteWriter w = framework::Stack::writer(framework::kModConsensus,
                                                value.size() + 32);
  w.u8(kProposal);
  w.u64(inst.k);
  w.u32(round);
  w.blob(value);
  const util::Payload frame = w.take();
  // The proposal (and the decision it becomes) is a view of the frame the
  // peers receive, so one buffer per instance is retained group-wide.
  ct::propose(inst, round, frame.slice(frame.size() - value.size()));
  stack_->send_wire_to_others(framework::kModConsensus, frame);

  if (ct::maybe_decide_as_coordinator(inst, group(), round)) {
    broadcast_decision(inst, round);
  }
}

void ChandraTouegConsensus::send_estimate(Instance& inst, std::uint32_t round,
                                          util::ProcessId coord) {
  if (!inst.has_estimate) return;  // nothing to estimate yet
  if (!inst.estimate_sent.insert(round).second) return;
  util::ByteWriter w = framework::Stack::writer(framework::kModConsensus,
                                                inst.estimate.size() + 32);
  w.u8(kEstimate);
  w.u64(inst.k);
  w.u32(round);
  w.u32(inst.estimate_ts);
  w.blob(inst.estimate);
  framework::TraceScope scope(*stack_, inst.k, 0);
  stack_->send_wire(coord, framework::kModConsensus, w.take());
}

void ChandraTouegConsensus::send_nack(std::uint64_t k, std::uint32_t round,
                                      util::ProcessId to) {
  util::ByteWriter w = framework::Stack::writer(framework::kModConsensus, 16);
  w.u8(kNack);
  w.u64(k);
  w.u32(round);
  framework::TraceScope scope(*stack_, k, 0);
  stack_->send_wire(to, framework::kModConsensus, w.take());
  ++stats_.nacks_sent;
}

void ChandraTouegConsensus::move_on(Instance& inst) {
  const ct::Group g = group();
  ct::move_on(
      inst, g, [this](util::ProcessId q) { return suspects(q); },
      [&](std::uint32_t r) { send_estimate(inst, r, g.coordinator(r)); },
      [&](std::uint32_t r) { send_nack(inst.k, r, g.coordinator(r)); },
      // We coordinate: wait for estimates.
      [&](std::uint32_t r) { check_estimates(inst, r); });
}

void ChandraTouegConsensus::check_estimates(Instance& inst,
                                            std::uint32_t round) {
  const ct::Group g = group();
  if (!ct::may_propose(inst, g, round)) return;
  auto it = inst.estimates.find(round);
  if (it == inst.estimates.end()) return;

  const ct::Estimate* best = nullptr;
  if (round == 1) {
    // Round 1 normally has no estimate phase; estimates only arrive via the
    // nudge path, when the coordinator itself has no initial value. Adopt
    // the nudged value the locking rule picks (ts is always 0 in round 1).
    if (inst.has_estimate) return;
    best = ct::locking_rule(it->second);
  } else {
    best = ct::locked_estimate(inst, g, round);
    if (best == nullptr) {
      // Recovery rounds need majority participation, but only processes
      // that themselves suspected earlier coordinators have joined so far.
      // Ask the others for their estimates (once per round).
      if (inst.solicited_rounds.insert(round).second) {
        util::ByteWriter w =
            framework::Stack::writer(framework::kModConsensus, 16);
        w.u8(kSolicit);
        w.u64(inst.k);
        w.u32(round);
        framework::TraceScope scope(*stack_, inst.k, 0);
        stack_->send_wire_to_others(framework::kModConsensus, w.take());
      }
      return;
    }
  }
  // Locking forces this value; if the layer above cannot act on it yet,
  // defer the proposal until revalidation (the validator starts recovery).
  if (!value_ok(inst.k, best->value)) {
    inst.pending_propose = {round, best->value};
    return;
  }
  do_propose(inst, round, best->value);
}

void ChandraTouegConsensus::on_solicit(util::ProcessId from, std::uint64_t k,
                                       std::uint32_t round) {
  if (instances_.decided(k)) {
    send_full(from, k);  // the solicitor lags: hand it the decision
    return;
  }
  Instance& inst = instance(k);
  if (inst.decided) return;
  ct::enter_round(inst, group(), round);  // join the recovery round
  if (inst.has_estimate) {
    send_estimate(inst, round, from);
  } else {
    // We never proposed for this instance: ask the layer above for an
    // initial value (it may legitimately be an empty batch). Its propose()
    // will send our estimate for the joined round.
    stack_->raise(framework::Event::local(
        framework::kEvProposeRequest, framework::ProposeRequestBody{k}));
  }
}

void ChandraTouegConsensus::broadcast_decision(Instance& inst,
                                               std::uint32_t round) {
  util::ByteWriter w(64);
  if (round == 1) {
    // Good-run optimization: decisions are a tiny tag; everyone holds the
    // round-1 proposal already (or pulls).
    w.u8(kDecisionTag);
    w.u64(inst.k);
    w.u32(round);
  } else {
    w.u8(kDecisionFull);
    w.u64(inst.k);
    w.u32(round);
    w.blob(inst.proposals[round]);
  }
  // Hand the decision to the reliable broadcast module. Local rdelivery is
  // synchronous, so this call chain ends in decide_local() for ourselves.
  // The scope annotates the rbcast module's initial fan-out with instance k
  // (decisions carry no app payload, hence app_bytes 0).
  framework::TraceScope scope(*stack_, inst.k, 0);
  stack_->raise(framework::Event::local(framework::kEvRbcast,
                                        framework::RbcastBody{w.take()}));
}

void ChandraTouegConsensus::decide_local(std::uint64_t k, util::Payload value) {
  if (instances_.decided(k)) return;
  Instance* inst = instances_.decide(k, value);
  ++stats_.decided;
  if (inst != nullptr) {
    --open_instances_;  // undecided until now: decided(k) was false
    stats_.max_round = std::max(stats_.max_round, inst->round);
    if (inst->round > 1) ++stats_.late_decisions;
    if (inst->nudge_timer != runtime::kInvalidTimer) {
      stack_->rt().cancel_timer(inst->nudge_timer);
      inst->nudge_timer = runtime::kInvalidTimer;
    }
    if (inst->pull_timer != runtime::kInvalidTimer) {
      stack_->rt().cancel_timer(inst->pull_timer);
      inst->pull_timer = runtime::kInvalidTimer;
    }
  }

  stack_->raise(framework::Event::local(
      framework::kEvDecide,
      framework::ConsensusValueBody{k, std::move(value)}));
  instances_.prune(ct::kDecisionRetention, k);
}

void ChandraTouegConsensus::start_pull(Instance& inst) {
  util::ByteWriter w = framework::Stack::writer(framework::kModConsensus, 16);
  w.u8(kPull);
  w.u64(inst.k);
  {
    framework::TraceScope scope(*stack_, inst.k, 0);
    stack_->send_wire_to_others(framework::kModConsensus, w.take());
  }
  stats_.pulls_sent += stack_->group_size() - 1;

  const std::uint64_t k = inst.k;
  inst.pull_timer =
      stack_->rt().set_timer(ct::kPullRetry, [this, k] {
        Instance* inst = instances_.find(k);
        if (inst == nullptr || inst->decided) return;
        inst->pull_timer = runtime::kInvalidTimer;
        start_pull(*inst);
      });
}

void ChandraTouegConsensus::on_wire(util::ProcessId from,
                                    util::Payload msg) {
  util::ByteReader r(msg);
  const std::uint8_t kind = r.u8();
  switch (kind) {
    case kEstimate: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      const std::uint32_t ts = r.u32();
      if (instances_.decided(k)) break;
      Instance& inst = instance(k);
      ct::record_estimate(inst, group(), round, from, ts, r.blob_payload());
      check_estimates(inst, round);
      break;
    }
    case kProposal: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      on_proposal(from, k, round, r.blob_payload());
      break;
    }
    case kAck: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      if (instances_.decided(k)) break;
      Instance& inst = instance(k);
      if (ct::count_ack(inst, group(), round, from)) {
        broadcast_decision(inst, round);
      }
      break;
    }
    case kNack: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      if (instances_.decided(k)) break;
      // Our round failed; move on as a participant of later rounds. A
      // decision can still complete if a majority of acks arrives afterwards
      // — that is safe (the value is locked by the majority).
      Instance& inst = instance(k);
      if (ct::leaves_on_nack(inst, group(), round)) move_on(inst);
      break;
    }
    case kPull:
      send_full(from, r.u64());
      break;
    case kSolicit: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      on_solicit(from, k, round);
      break;
    }
    case kFull: {
      const std::uint64_t k = r.u64();
      if (!instances_.decided(k)) decide_local(k, r.blob_payload());
      break;
    }
    default:
      MODCAST_WARN("consensus: unknown wire kind " + std::to_string(kind));
  }
}

void ChandraTouegConsensus::on_proposal(util::ProcessId from, std::uint64_t k,
                                        std::uint32_t round,
                                        util::Payload value) {
  Instance& inst = instance(k);
  if (inst.nudge_timer != runtime::kInvalidTimer && round == 1) {
    stack_->rt().cancel_timer(inst.nudge_timer);
    inst.nudge_timer = runtime::kInvalidTimer;
  }
  if (ct::hold_proposal(inst, round, std::move(value))) {
    decide_local(k, inst.proposals[round]);
    return;
  }
  if (instances_.decided(k)) return;

  const ct::Group g = group();
  switch (ct::vote(inst, g, round, suspects(g.coordinator(round)))) {
    case ct::Vote::kIgnore:
    case ct::Vote::kDuplicate:
      return;
    case ct::Vote::kStaleNack:
      // Stale proposal from a coordinator we moved past: nack so it
      // advances too instead of waiting for our ack forever.
      send_nack(k, round, from);
      return;
    case ct::Vote::kNack:
      send_nack(k, round, from);
      move_on(inst);
      return;
    case ct::Vote::kAck:
      break;
  }
  // Extended-specification gate ([12]): do not ack a value the layer above
  // cannot act on yet (e.g. ids whose payloads we miss). The validator
  // initiates whatever recovery it needs and raises kEvRevalidate later.
  if (!value_ok(k, inst.proposals[round])) {
    inst.pending_ack_round = round;
    return;
  }
  adopt_and_ack(inst, round);
}

void ChandraTouegConsensus::adopt_and_ack(Instance& inst,
                                          std::uint32_t round) {
  ct::adopt(inst, round);
  inst.pending_ack_round.reset();
  util::ByteWriter w = framework::Stack::writer(framework::kModConsensus, 16);
  w.u8(kAck);
  w.u64(inst.k);
  w.u32(round);
  framework::TraceScope scope(*stack_, inst.k, 0);
  stack_->send_wire(coordinator(round), framework::kModConsensus, w.take());
}

void ChandraTouegConsensus::on_revalidate(std::uint64_t k) {
  Instance* inst = instances_.find(k);
  if (inst == nullptr || inst->decided || instances_.decided(k)) return;

  // Deferred ack: the proposal for our current round may validate now.
  if (inst->pending_ack_round == inst->round &&
      inst->acked_rounds.count(inst->round) == 0 &&
      inst->nacked_rounds.count(inst->round) == 0) {
    auto pit = inst->proposals.find(inst->round);
    if (pit != inst->proposals.end() && value_ok(k, pit->second)) {
      adopt_and_ack(*inst, inst->round);
    }
  }

  // Deferred proposal: the locked value we must propose may validate now.
  if (inst->pending_propose) {
    const std::uint32_t round = inst->pending_propose->first;
    if (ct::may_propose(*inst, group(), round) &&
        value_ok(k, inst->pending_propose->second)) {
      util::Payload value = std::move(inst->pending_propose->second);
      inst->pending_propose.reset();
      do_propose(*inst, round, std::move(value));
    }
  }
}

void ChandraTouegConsensus::send_full(util::ProcessId to, std::uint64_t k) {
  const util::Payload* value = instances_.decision(k);
  if (value == nullptr) return;
  util::ByteWriter w =
      framework::Stack::writer(framework::kModConsensus, value->size() + 16);
  w.u8(kFull);
  w.u64(k);
  w.blob(*value);
  framework::TraceScope scope(*stack_, k, 0);
  stack_->send_wire(to, framework::kModConsensus, w.take());
}

void ChandraTouegConsensus::on_rdeliver(util::ProcessId origin,
                                        const util::Payload& payload) {
  (void)origin;
  util::ByteReader r(payload);
  const std::uint8_t kind = r.u8();
  if (kind == kDecisionTag) {
    const std::uint64_t k = r.u64();
    const std::uint32_t round = r.u32();
    if (instances_.decided(k)) return;
    Instance& inst = instance(k);
    if (const util::Payload* value = ct::resolve_tag(inst, round)) {
      decide_local(k, *value);
    } else if (inst.pull_timer == runtime::kInvalidTimer) {
      start_pull(inst);  // we never saw the proposal: pull the full value
    }
  } else if (kind == kDecisionFull) {
    const std::uint64_t k = r.u64();
    r.u32();  // round (diagnostic only)
    if (!instances_.decided(k)) decide_local(k, r.blob_payload());
  } else {
    MODCAST_WARN("consensus: unknown rdeliver kind " + std::to_string(kind));
  }
}

void ChandraTouegConsensus::on_suspect(util::ProcessId q) {
  // Move every undecided instance whose current coordinator is q to the
  // next round (the paper's "new round starts only if the coordinator is
  // suspected").
  const ct::Group g = group();
  instances_.for_each_undecided([&](Instance& inst) {
    if (!ct::suspect(inst, g, q)) return;
    send_nack(inst.k, inst.round, q);
    move_on(inst);
  });
}

}  // namespace modcast::consensus
