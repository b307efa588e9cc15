#include "monolithic/monolithic_abcast.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace modcast::monolithic {

namespace {

constexpr std::uint8_t kCombined = 1;      ///< proposal (+ optional decision tag)
constexpr std::uint8_t kAck = 2;           ///< ack (+ piggybacked app messages)
constexpr std::uint8_t kForward = 3;       ///< standalone app messages
constexpr std::uint8_t kDecisionTag = 4;   ///< decision without value
constexpr std::uint8_t kEstimate = 5;      ///< recovery estimate (+ piggyback)
constexpr std::uint8_t kProposal = 6;      ///< recovery-round proposal
constexpr std::uint8_t kDecisionFull = 7;  ///< decision with value (relayed)
constexpr std::uint8_t kNack = 8;
constexpr std::uint8_t kPull = 9;
constexpr std::uint8_t kFullReply = 10;
constexpr std::uint8_t kSolicit = 11;      ///< recovery coordinator requests estimates

constexpr std::uint8_t kFlagHasDecision = 0x1;

// relayed_decisions_ channels.
constexpr std::uint32_t kRelayTagChannel = 0;
constexpr std::uint32_t kRelayFullChannel = 1;

}  // namespace

void MonolithicAbcast::init(framework::Stack& stack) {
  stack_ = &stack;
  flow_.set_self(stack.self());
  stack.bind_wire(framework::kModMonolithic,
                  [this](util::ProcessId from, util::Payload msg) {
                    on_wire(from, std::move(msg));
                  });
  stack.bind(framework::kEvSuspect, [this](const framework::Event& ev) {
    on_suspect(ev.as<framework::SuspicionBody>().process);
  });
}

void MonolithicAbcast::start() {
  last_activity_ = stack_->rt().now();
  arm_liveness_timer();
}

// --------------------------------------------------------------------------
// Application side / flow control
// --------------------------------------------------------------------------

std::uint64_t MonolithicAbcast::abcast(util::Payload payload) {
  const std::uint64_t seq = flow_.enqueue(std::move(payload));
  admit_queued();
  if (i_am_initial_coordinator()) start_instances();
  recheck_active_estimates();
  return seq;
}

void MonolithicAbcast::admit_queued() {
  while (std::optional<adb::AppMessage> m = flow_.admit_next()) {
    if (admit_) admit_(m->id.seq);
    own_pending_[m->id] = m->payload;
    route_message(std::move(*m));
  }
}

void MonolithicAbcast::route_message(adb::AppMessage m) {
  if (!config_.opt_piggyback) {
    // Modular-style diffusion: everyone gets (and pools) the message.
    util::ByteWriter w = framework::Stack::writer(
        framework::kModMonolithic, m.payload.size() + 32);
    w.u8(kForward);
    adb::encode_batch(w, {m});
    framework::TraceScope scope(*stack_, framework::kNoInstance,
                                m.payload.size());
    stack_->send_wire_to_others(framework::kModMonolithic, w.take());
    pool_add(std::move(m));
    return;
  }
  if (i_am_initial_coordinator()) {
    pool_add(std::move(m));
    return;
  }
  // §4.2: queue for the coordinator; the message rides the next ack, or a
  // small standalone FORWARD if the system is idle.
  outbox_.push_back(std::move(m));
  arm_flush_timer();
}

void MonolithicAbcast::arm_flush_timer() {
  if (flush_timer_ != runtime::kInvalidTimer || outbox_.empty()) return;
  flush_timer_ = stack_->rt().set_timer(config_.forward_flush_delay, [this] {
    flush_timer_ = runtime::kInvalidTimer;
    flush_outbox_standalone();
  });
}

void MonolithicAbcast::flush_outbox_standalone() {
  if (outbox_.empty()) return;
  std::vector<adb::AppMessage> batch(outbox_.begin(), outbox_.end());
  outbox_.clear();
  util::ByteWriter w = framework::Stack::writer(
      framework::kModMonolithic, adb::encoded_size(batch) + 1);
  w.u8(kForward);
  adb::encode_batch(w, batch);
  // Route to the coordinator of the instance currently making progress. If
  // the initial coordinator is suspected and no instance is active, spin up
  // recovery first so the forward goes to a live coordinator.
  auto route = [this] {
    const Instance* inst = instances_.find(flow_.next_decide());
    return group().coordinator(inst != nullptr && !inst->decided ? inst->round
                                                                 : 1);
  };
  util::ProcessId target = route();
  if (suspects(target)) {
    // Re-queue the batch so ensure_instance_progress sees it as pending,
    // then re-resolve the route.
    for (auto& m : batch) outbox_.push_back(m);
    ensure_instance_progress();
    outbox_.clear();
    target = route();
    if (suspects(target)) {
      // Still no live coordinator known: the estimates sent while advancing
      // already carry own_pending_; nothing more to do now.
      return;
    }
  }
  if (target == stack_->self()) {
    for (auto& m : batch) pool_add(std::move(m));
    start_instances();
    return;
  }
  framework::TraceScope scope(*stack_, framework::kNoInstance,
                              adb::payload_bytes(batch));
  stack_->send_wire(target, framework::kModMonolithic, w.take());
  ++stats_.forwards_sent;
}

void MonolithicAbcast::pool_add(adb::AppMessage m) {
  flow_.pool_add(std::move(m), stack_->rt().now());
}

util::Payload MonolithicAbcast::build_estimate_value() {
  // Recovery initial value: own undelivered messages plus whatever we have
  // pooled (in-flight proposals included — a crashed instance's messages
  // must not be lost) — safety over compactness in bad runs.
  std::vector<adb::AppMessage> batch;
  std::set<adb::MsgId> added;
  for (const auto& [id, payload] : own_pending_) {
    batch.push_back(adb::AppMessage{id, payload});
    added.insert(id);
  }
  flow_.pool().for_each_live([&](const adb::AppMessage& m) {
    if (added.count(m.id) != 0) return;
    if (batch.size() >= flow_.config().max_batch * 2) return;
    batch.push_back(m);
    added.insert(m.id);
  });
  return adb::encode_batch(batch);
}

// --------------------------------------------------------------------------
// Coordinator good path
// --------------------------------------------------------------------------

bool MonolithicAbcast::try_start_instance() {
  if (!i_am_initial_coordinator() || flow_.pipeline_full()) return false;
  const std::uint64_t k = flow_.next_instance();
  if (instances_.decided(k)) return false;
  {
    const Instance* inst = instances_.find(k);
    if (inst != nullptr &&
        (inst->proposed_rounds.count(1) != 0 || inst->round > 1)) {
      return false;  // already started (or recovery in progress)
    }
  }

  if (flow_.pool().eligible() == 0) return false;
  const util::TimePoint now = stack_->rt().now();
  if (!flow_.pool().ready(now)) {
    arm_batch_timer(now);
    return false;
  }
  std::vector<adb::AppMessage> batch = flow_.cut();
  if (batch.empty()) return false;

  Instance& inst = instance(k);

  // §4.1: piggyback a decision tag on this proposal. Prefer a decision not
  // yet shipped in any COMBINED; when there is none, re-attach the latest
  // applied decision's tag — a free refresher for any process that missed
  // the standalone tag (and the pre-pipelining behavior, byte-for-byte).
  bool has_dec = false;
  std::uint64_t dec_k = 0;
  if (config_.opt_combine) {
    if (!untagged_decisions_.empty()) {
      dec_k = untagged_decisions_.front();
      untagged_decisions_.pop_front();
      has_dec = true;
    } else if (k > 0 && instances_.decided(k - 1)) {
      dec_k = k - 1;
      has_dec = true;
    }
  }
  util::ByteWriter w = framework::Stack::writer(
      framework::kModMonolithic, adb::encoded_size(batch) + 32);
  w.u8(kCombined);
  w.u8(has_dec ? kFlagHasDecision : 0);
  if (has_dec) {
    w.u64(dec_k);
    w.u32(decision_round(dec_k));
    ++stats_.combined_sent;
  }
  w.u64(k);
  const std::size_t value_at = w.size();
  adb::encode_batch(w, batch);
  const util::Payload frame = w.take();
  // The batch is serialized once, into the frame; the proposal (and the
  // decision it becomes) is a view of it.
  ct::propose(inst, 1, frame.slice(value_at));
  {
    framework::TraceScope scope(*stack_, k, adb::payload_bytes(batch));
    stack_->send_wire_to_others(framework::kModMonolithic, frame);
  }

  arm_retransmit(inst, 1);
  if (ct::maybe_decide_as_coordinator(inst, group(), 1)) {
    // Degenerate tiny group: decide via a zero-delay timer so a decide →
    // start(k+1) → decide chain cannot recurse unboundedly.
    // lifecheck:allow(timer.lost): zero-delay trampoline fires before any cancel path could need its id
    stack_->rt().set_timer(0, [this, k] {
      Instance* inst = instances_.find(k);
      if (inst != nullptr && ct::maybe_decide_as_coordinator(*inst, group(),
                                                             inst->round)) {
        coordinator_decided(*inst, inst->round);
      }
    });
  }
  return true;
}

void MonolithicAbcast::start_instances() {
  // At depth 1 the second iteration no-ops at the pipelining gate, so this
  // is exactly one legacy try_start_instance; deeper pipelines fill every
  // free slot the pool can feed.
  while (try_start_instance()) {
  }
  if (flow_.pool().eligible() == 0) {
    // Everything eligible was cut (e.g. a size-triggered proposal beat
    // the δ-timer): a still-armed batch timer would only fire to no-op.
    cancel_batch_timer();
  }
}

void MonolithicAbcast::arm_batch_timer(util::TimePoint now) {
  // δ-time trigger: wake when the oldest eligible message has aged out.
  if (batch_timer_ != runtime::kInvalidTimer) return;
  const util::TimePoint due = flow_.pool().deadline();
  const util::Duration wait = due > now ? due - now : 1;
  batch_timer_ = stack_->rt().set_timer(wait, [this] {
    batch_timer_ = runtime::kInvalidTimer;
    start_instances();
  });
}

void MonolithicAbcast::cancel_batch_timer() {
  if (batch_timer_ == runtime::kInvalidTimer) return;
  stack_->rt().cancel_timer(batch_timer_);
  batch_timer_ = runtime::kInvalidTimer;
}

void MonolithicAbcast::arm_retransmit(Instance& inst, std::uint32_t round) {
  const std::uint64_t k = inst.k;
  if (inst.retransmit_timer != runtime::kInvalidTimer) {
    stack_->rt().cancel_timer(inst.retransmit_timer);
  }
  inst.retransmit_timer = stack_->rt().set_timer(
      config_.ack_retransmit, [this, k, round] {
        Instance* found = instances_.find(k);
        if (found == nullptr) return;
        Instance& inst = *found;
        inst.retransmit_timer = runtime::kInvalidTimer;
        if (inst.decided || inst.round != round ||
            inst.proposed_rounds.count(round) == 0) {
          return;
        }
        // Resend the proposal to everyone that has not acked yet.
        util::ByteWriter w = framework::Stack::writer(
            framework::kModMonolithic, inst.proposals[round].size() + 32);
        w.u8(kProposal);
        w.u64(k);
        w.u32(round);
        w.raw(inst.proposals[round]);
        const util::Payload msg = w.take();
        const auto n = static_cast<util::ProcessId>(stack_->group_size());
        const auto& acked = inst.ack_senders[round];
        framework::TraceScope scope(*stack_, k, 0);
        for (util::ProcessId p = 0; p < n; ++p) {
          if (p == stack_->self() || acked.count(p) != 0) continue;
          stack_->send_wire(p, framework::kModMonolithic, msg);
          ++stats_.retransmissions;
        }
        arm_retransmit(inst, round);
      });
}

void MonolithicAbcast::coordinator_decided(Instance& inst,
                                           std::uint32_t round) {
  const std::uint64_t k = inst.k;
  util::Payload batch = inst.proposals[round];
  decide(k, round, batch);  // applies locally; admits new own messages

  if (round > 1) {
    // Recovery decision: full value, relayed on first receipt for safety.
    relayed_decisions_.mark(kRelayFullChannel, k);  // don't re-relay our own
    broadcast_decision_fallback(k, round, batch, /*relay_seen=*/false);
    return;
  }

  if (!config_.opt_cheap_decision) {
    // Without §4.3: reliable-broadcast the tag (ct::resends resenders relay),
    // same cost profile as the modular stack's decision diffusion.
    relayed_decisions_.mark(kRelayTagChannel, k);
    send_standalone_tag(k, round);
    start_instances();
    return;
  }

  // §4.1/§4.3: prefer carrying the decision tag on the next proposal; fall
  // back to a standalone (n−1)-message tag when there is nothing to order.
  if (config_.opt_combine) {
    untagged_decisions_.push_back(k);
    start_instances();
    while (!untagged_decisions_.empty()) {
      const std::uint64_t dk = untagged_decisions_.front();
      untagged_decisions_.pop_front();
      send_standalone_tag(dk, decision_round(dk));
    }
  } else {
    start_instances();
    send_standalone_tag(k, round);
  }
}

void MonolithicAbcast::send_standalone_tag(std::uint64_t k,
                                           std::uint32_t round, bool relay) {
  util::ByteWriter w = framework::Stack::writer(framework::kModMonolithic, 16);
  w.u8(kDecisionTag);
  w.u64(k);
  w.u32(round);
  framework::TraceScope scope(
      *stack_, k, 0, relay ? framework::kTraceFlagRelay : std::uint8_t{0});
  stack_->send_wire_to_others(framework::kModMonolithic, w.take());
  if (!relay) ++stats_.standalone_tags;
}

// --------------------------------------------------------------------------
// Round machinery (recovery)
// --------------------------------------------------------------------------

void MonolithicAbcast::move_on(Instance& inst) {
  const ct::Group g = group();
  ct::move_on(
      inst, g, [this](util::ProcessId q) { return suspects(q); },
      [&](std::uint32_t r) { send_estimate(inst, r, g.coordinator(r)); },
      [&](std::uint32_t r) { send_nack(inst.k, r, g.coordinator(r)); },
      [&](std::uint32_t r) { check_estimates(inst, r); });
}

void MonolithicAbcast::ensure_estimate(Instance& inst) {
  if (inst.has_estimate) return;
  inst.estimate = build_estimate_value();
  inst.estimate_ts = 0;
  inst.has_estimate = true;
}

void MonolithicAbcast::send_estimate(Instance& inst, std::uint32_t round,
                                     util::ProcessId coord) {
  if (!inst.estimate_sent.insert(round).second) return;
  ensure_estimate(inst);
  // §4.2 fallback: re-piggyback undelivered own messages on the estimate to
  // the new coordinator.
  std::vector<adb::AppMessage> piggy;
  for (const auto& [id, payload] : own_pending_) {
    piggy.push_back(adb::AppMessage{id, payload});
  }
  outbox_.clear();  // superseded: everything undelivered rides this estimate

  util::ByteWriter w = framework::Stack::writer(
      framework::kModMonolithic,
      inst.estimate.size() + adb::encoded_size(piggy) + 32);
  w.u8(kEstimate);
  w.u64(inst.k);
  w.u32(round);
  w.u32(inst.estimate_ts);
  w.blob(inst.estimate);
  adb::encode_batch(w, piggy);
  framework::TraceScope scope(*stack_, inst.k, adb::payload_bytes(piggy));
  stack_->send_wire(coord, framework::kModMonolithic, w.take());
}

void MonolithicAbcast::send_nack(std::uint64_t k, std::uint32_t round,
                                 util::ProcessId to) {
  util::ByteWriter w = framework::Stack::writer(framework::kModMonolithic, 16);
  w.u8(kNack);
  w.u64(k);
  w.u32(round);
  framework::TraceScope scope(*stack_, k, 0);
  stack_->send_wire(to, framework::kModMonolithic, w.take());
}

bool MonolithicAbcast::batch_is_empty(const util::Payload& value) {
  if (value.size() < 4) return true;
  util::ByteReader r(value);
  return r.u32() == 0;
}

void MonolithicAbcast::check_estimates(Instance& inst, std::uint32_t round) {
  const ct::Group g = group();
  if (!ct::may_propose(inst, g, round)) return;
  // Our own estimate counts from the moment we entered the round (rule 3);
  // built from the pool on first need. While it is unlocked (ts = 0),
  // refresh it: the pool may have grown via piggybacked messages since.
  ensure_estimate(inst);
  if (!ct::enter_round(inst, g, round) && inst.estimate_ts == 0) {
    inst.estimate = build_estimate_value();
    ct::refresh_own_estimate(inst, g, round);
  }
  const ct::Estimate* best = ct::locked_estimate(inst, g, round);
  if (best == nullptr || inst.estimates[round].size() < stack_->group_size()) {
    // Not enough participants (or we are holding on all-empty estimates
    // below and the value-holder may not have joined yet): solicit the
    // processes that have not sent an estimate for this round.
    if (inst.solicited_rounds.insert(round).second) {
      util::ByteWriter w =
          framework::Stack::writer(framework::kModMonolithic, 16);
      w.u8(kSolicit);
      w.u64(inst.k);
      w.u32(round);
      framework::TraceScope scope(*stack_, inst.k, 0);
      stack_->send_wire_to_others(framework::kModMonolithic, w.take());
    }
  }
  // The locking rule prefers a batch that carries messages over an empty
  // one (rule 2). An all-empty unlocked set means there is nothing to order
  // yet: hold until a value arrives (a new estimate re-triggers this check).
  if (best == nullptr || (best->ts == 0 && batch_is_empty(best->value))) return;
  ct::propose(inst, round, best->value);

  const util::Payload& value = inst.proposals[round];
  util::ByteWriter w = framework::Stack::writer(framework::kModMonolithic,
                                                value.size() + 32);
  w.u8(kProposal);
  w.u64(inst.k);
  w.u32(round);
  w.raw(value);
  {
    framework::TraceScope scope(*stack_, inst.k, 0);
    stack_->send_wire_to_others(framework::kModMonolithic, w.take());
  }
  arm_retransmit(inst, round);
  if (ct::maybe_decide_as_coordinator(inst, g, round)) {
    coordinator_decided(inst, round);
  }
}

void MonolithicAbcast::send_ack(Instance& inst, std::uint32_t round,
                                util::ProcessId coord) {
  std::vector<adb::AppMessage> piggy;
  if (config_.opt_piggyback) {
    piggy.assign(outbox_.begin(), outbox_.end());
    outbox_.clear();
    if (flush_timer_ != runtime::kInvalidTimer) {
      stack_->rt().cancel_timer(flush_timer_);
      flush_timer_ = runtime::kInvalidTimer;
    }
    stats_.piggybacked_messages += piggy.size();
  }
  util::ByteWriter w = framework::Stack::writer(
      framework::kModMonolithic, adb::encoded_size(piggy) + 16);
  w.u8(kAck);
  w.u64(inst.k);
  w.u32(round);
  adb::encode_batch(w, piggy);
  framework::TraceScope scope(*stack_, inst.k, adb::payload_bytes(piggy));
  stack_->send_wire(coord, framework::kModMonolithic, w.take());
}

void MonolithicAbcast::handle_proposal(util::ProcessId from, std::uint64_t k,
                                       std::uint32_t round,
                                       util::Payload batch) {
  if (k < flow_.next_decide()) return;  // stale instance
  Instance& inst = instance(k);
  if (ct::hold_proposal(inst, round, std::move(batch))) {
    decide(k, round, inst.proposals[round]);
    return;
  }
  if (instances_.decided(k)) return;

  const ct::Group g = group();
  switch (ct::vote(inst, g, round, suspects(g.coordinator(round)))) {
    case ct::Vote::kIgnore:
      return;
    case ct::Vote::kStaleNack:
      // We advanced past this round (possibly on a wrong suspicion): nack
      // so the old coordinator advances too.
      send_nack(k, round, from);
      return;
    case ct::Vote::kNack:
      send_nack(k, round, from);
      move_on(inst);
      return;
    case ct::Vote::kDuplicate:
      // Retransmitted proposal: re-ack, the coordinator may have missed our
      // first ack.
      send_ack(inst, round, from);
      return;
    case ct::Vote::kAck:
      ct::adopt(inst, round);
      send_ack(inst, round, from);
      return;
  }
}

// --------------------------------------------------------------------------
// Decisions
// --------------------------------------------------------------------------

void MonolithicAbcast::resolve_decision_tag(std::uint64_t k,
                                            std::uint32_t round) {
  if (k < flow_.next_decide()) return;  // already applied (possibly pruned)
  if (instances_.decided(k)) return;
  Instance& inst = instance(k);
  if (const util::Payload* batch = ct::resolve_tag(inst, round)) {
    decide(k, round, *batch);
  } else if (inst.pull_timer == runtime::kInvalidTimer) {
    start_pull(inst);
  }
}

void MonolithicAbcast::decide(std::uint64_t k, std::uint32_t round,
                              util::Payload batch) {
  if (k < flow_.next_decide()) return;  // already applied (possibly pruned)
  if (instances_.decided(k)) return;
  Instance* inst = instances_.decide(k, Decided{round, batch});
  stats_.max_round = std::max(stats_.max_round, round);
  if (round > 1) ++stats_.late_decisions;
  if (inst != nullptr) {
    if (inst->pull_timer != runtime::kInvalidTimer) {
      stack_->rt().cancel_timer(inst->pull_timer);
      inst->pull_timer = runtime::kInvalidTimer;
    }
    if (inst->retransmit_timer != runtime::kInvalidTimer) {
      stack_->rt().cancel_timer(inst->retransmit_timer);
      inst->retransmit_timer = runtime::kInvalidTimer;
    }
  }

  flow_.buffer_decision(k, std::move(batch));
  apply_ready_decisions();
  instances_.prune(ct::kDecisionRetention, k);
}

void MonolithicAbcast::apply_ready_decisions() {
  const auto on_ordered = [this](const adb::AppMessage& m) {
    if (m.id.origin == stack_->self()) {
      own_pending_.erase(m.id);
      // Drop it from the outbox too: it is ordered, no need to forward.
      std::erase_if(outbox_,
                    [&](const adb::AppMessage& o) { return o.id == m.id; });
    }
    if (deliver_) deliver_(m.id.origin, m.id.seq, m.payload);
  };
  while (const util::Payload* value = flow_.next_decision()) {
    flow_.apply_next(adb::decode_batch(*value, stack_->group_size()),
                     on_ordered);
    stack_->rt().charge_cpu(flow_.config().instance_overhead);
  }
  admit_queued();
  // Keep making progress when the initial coordinator is gone: without this
  // the next instance would only start at the silence timer, serializing
  // recovery at liveness_timeout per instance.
  if (suspects(group().coordinator(1))) ensure_instance_progress();
}

void MonolithicAbcast::recheck_active_estimates() {
  Instance* found = instances_.find(flow_.next_decide());
  if (found == nullptr || found->decided || found->round <= 1) return;
  Instance& inst = *found;
  const util::ProcessId c = group().coordinator(inst.round);
  if (c == stack_->self()) {
    // Coordinator: our own (unlocked) estimate refreshes inside.
    check_estimates(inst, inst.round);
    return;
  }
  // Participant with an unlocked estimate already sent: if the pool grew
  // since (piggybacked or forwarded messages), re-send the richer estimate
  // so the held round can choose a value that actually carries messages.
  if (inst.estimate_ts != 0) return;
  if (inst.estimate_sent.count(inst.round) == 0) return;
  if (ct::replace_estimate(inst, build_estimate_value())) {
    send_estimate(inst, inst.round, c);
  }
}

bool MonolithicAbcast::reply_decision_if_known(util::ProcessId to,
                                               std::uint64_t k) {
  const Decided* d = instances_.decision(k);
  if (d == nullptr) return false;
  util::ByteWriter w = framework::Stack::writer(framework::kModMonolithic,
                                                d->batch.size() + 16);
  w.u8(kFullReply);
  w.u64(k);
  w.u32(d->round);
  w.raw(d->batch);
  framework::TraceScope scope(*stack_, k, 0);
  stack_->send_wire(to, framework::kModMonolithic, w.take());
  return true;
}

void MonolithicAbcast::start_pull(Instance& inst) {
  util::ByteWriter w = framework::Stack::writer(framework::kModMonolithic, 16);
  w.u8(kPull);
  w.u64(inst.k);
  {
    framework::TraceScope scope(*stack_, inst.k, 0);
    stack_->send_wire_to_others(framework::kModMonolithic, w.take());
  }
  stats_.pulls_sent += stack_->group_size() - 1;
  const std::uint64_t k = inst.k;
  inst.pull_timer = stack_->rt().set_timer(ct::kPullRetry, [this, k] {
    Instance* inst = instances_.find(k);
    if (inst == nullptr || inst->decided) return;
    inst->pull_timer = runtime::kInvalidTimer;
    start_pull(*inst);
  });
}

void MonolithicAbcast::broadcast_decision_fallback(std::uint64_t k,
                                                   std::uint32_t round,
                                                   const util::Payload& batch,
                                                   bool relay_seen) {
  util::ByteWriter w = framework::Stack::writer(framework::kModMonolithic,
                                                batch.size() + 16);
  w.u8(kDecisionFull);
  w.u64(k);
  w.u32(round);
  w.raw(batch);
  framework::TraceScope scope(
      *stack_, k, 0, relay_seen ? framework::kTraceFlagRelay : std::uint8_t{0});
  stack_->send_wire_to_others(framework::kModMonolithic, w.take());
}

// --------------------------------------------------------------------------
// Wire dispatch
// --------------------------------------------------------------------------

void MonolithicAbcast::on_wire(util::ProcessId from, util::Payload msg) {
  last_activity_ = stack_->rt().now();
  util::ByteReader r(msg);
  const std::uint8_t kind = r.u8();
  switch (kind) {
    case kCombined: {
      const std::uint8_t flags = r.u8();
      if (flags & kFlagHasDecision) {
        const std::uint64_t dec_k = r.u64();
        const std::uint32_t dec_round = r.u32();
        // Resolve the decision first: it frees window slots, so the ack for
        // the new proposal can piggyback freshly admitted messages.
        resolve_decision_tag(dec_k, dec_round);
      }
      const std::uint64_t k = r.u64();
      handle_proposal(from, k, 1, r.rest_payload());
      break;
    }
    case kAck: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      for (auto& m : adb::decode_batch(r, stack_->group_size()))
        pool_add(std::move(m));
      if (k >= flow_.next_decide() && !instances_.decided(k)) {
        Instance& inst = instance(k);
        if (ct::count_ack(inst, group(), round, from)) {
          coordinator_decided(inst, round);
        }
      }
      start_instances();
      recheck_active_estimates();
      break;
    }
    case kForward: {
      for (auto& m : adb::decode_batch(r, stack_->group_size()))
        pool_add(std::move(m));
      start_instances();
      // If we coordinate a held recovery round, the fresh pool content may
      // unblock it.
      recheck_active_estimates();
      break;
    }
    case kDecisionTag: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      resolve_decision_tag(k, round);
      const ct::Group g = group();
      if (!config_.opt_cheap_decision &&
          ct::resends(g, g.coordinator(round), g.self) &&
          relayed_decisions_.mark(kRelayTagChannel, k)) {
        send_standalone_tag(k, round, /*relay=*/true);
      }
      break;
    }
    case kEstimate: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      const std::uint32_t ts = r.u32();
      util::Payload est = r.blob_payload();
      for (auto& m : adb::decode_batch(r, stack_->group_size()))
        pool_add(std::move(m));
      if (instances_.decided(k) || k < flow_.next_decide()) {
        reply_decision_if_known(from, k);
        break;
      }
      Instance& inst = instance(k);
      ct::record_estimate(inst, group(), round, from, ts, std::move(est));
      check_estimates(inst, round);
      break;
    }
    case kProposal: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      handle_proposal(from, k, round, r.rest_payload());
      break;
    }
    case kDecisionFull: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      const util::Payload batch = r.rest_payload();
      const bool first = relayed_decisions_.mark(kRelayFullChannel, k);
      decide(k, round, batch);
      if (first) {
        // Relay on first receipt: the recovery coordinator may crash
        // mid-broadcast; all-or-none must still hold.
        broadcast_decision_fallback(k, round, batch, /*relay_seen=*/true);
      }
      break;
    }
    case kNack: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      if (reply_decision_if_known(from, k)) break;
      Instance& inst = instance(k);
      if (ct::leaves_on_nack(inst, group(), round)) move_on(inst);
      break;
    }
    case kPull: {
      const std::uint64_t k = r.u64();
      reply_decision_if_known(from, k);
      break;
    }
    case kFullReply: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      decide(k, round, r.rest_payload());
      break;
    }
    case kSolicit: {
      const std::uint64_t k = r.u64();
      const std::uint32_t round = r.u32();
      // The solicitor lags behind a decided instance: hand it the value.
      if (reply_decision_if_known(from, k)) break;
      if (k < flow_.next_decide()) break;
      Instance& inst = instance(k);
      if (inst.decided) break;
      ct::enter_round(inst, group(), round);  // join the recovery round
      // Send (or refresh, if unlocked) our estimate for the round. An empty
      // pool yields an empty batch — that still counts toward majority.
      if (inst.estimate_ts == 0) {
        inst.estimate = build_estimate_value();
        inst.has_estimate = true;
        inst.estimate_sent.erase(round);
      }
      send_estimate(inst, round, from);
      break;
    }
    default:
      MODCAST_WARN("monolithic: unknown wire kind " + std::to_string(kind));
  }
}

// --------------------------------------------------------------------------
// Suspicion / liveness
// --------------------------------------------------------------------------

void MonolithicAbcast::on_suspect(util::ProcessId q) {
  const ct::Group g = group();
  instances_.for_each_undecided([&](Instance& inst) {
    if (!ct::suspect(inst, g, q)) return;
    send_nack(inst.k, inst.round, q);
    move_on(inst);
  });
  if (q != g.self) ensure_instance_progress();
}

void MonolithicAbcast::ensure_instance_progress() {
  if (i_am_initial_coordinator()) {
    start_instances();
    return;
  }
  const std::uint64_t k = flow_.next_decide();
  if (instances_.decided(k)) return;
  // Join recovery for the next instance even with nothing of our own to
  // order: the new coordinator needs a majority of estimates, and other
  // processes may hold undelivered messages we know nothing about (§3.3's
  // "starts a consensus even if no message arrives").
  const util::ProcessId c1 = group().coordinator(1);
  if (!suspects(c1)) return;
  Instance& inst = instance(k);
  if (inst.decided) return;
  if (inst.round == 1 && inst.acked_rounds.empty() &&
      inst.nacked_rounds.empty()) {
    // Nack round 1 in case the suspected coordinator is actually alive and
    // already proposed (or will): it must not wait for our ack.
    inst.nacked_rounds.insert(1);
    send_nack(inst.k, 1, c1);
    move_on(inst);
  }
}

void MonolithicAbcast::arm_liveness_timer() {
  // lifecheck:allow(timer.lost): periodic liveness tick re-arms itself for the whole process lifetime, never cancelled by design
  stack_->rt().set_timer(flow_.config().liveness_timeout, [this] {
    const util::TimePoint now = stack_->rt().now();
    if (now - last_activity_ >= flow_.config().liveness_timeout) {
      // Silence: re-forward undelivered own messages and join whatever
      // instance should be making progress (even with nothing of our own —
      // another process may be stuck waiting for majority participation).
      if (!own_pending_.empty()) {
        if (config_.opt_piggyback && !i_am_initial_coordinator()) {
          outbox_.clear();
          for (const auto& [id, payload] : own_pending_) {
            outbox_.push_back(adb::AppMessage{id, payload});
          }
          flush_outbox_standalone();
        } else if (!config_.opt_piggyback) {
          for (const auto& [id, payload] : own_pending_) {
            util::ByteWriter w = framework::Stack::writer(
                framework::kModMonolithic, payload.size() + 32);
            w.u8(kForward);
            adb::encode_batch(w, {adb::AppMessage{id, payload}});
            framework::TraceScope scope(*stack_, framework::kNoInstance,
                                        payload.size());
            stack_->send_wire_to_others(framework::kModMonolithic, w.take());
          }
        }
      }
      ensure_instance_progress();
    }
    arm_liveness_timer();
  });
}

}  // namespace modcast::monolithic
