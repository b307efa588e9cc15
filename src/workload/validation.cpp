#include "workload/validation.hpp"

#include <sstream>

#include "core/sim_group.hpp"

namespace modcast::workload {

namespace {

void note(ValidationResult& r, const std::string& what, std::uint64_t got,
          std::uint64_t want) {
  std::ostringstream os;
  os << what << ": " << got << " (want " << want << ")";
  r.clean = false;
  r.notes.push_back(os.str());
}

void require_zero(ValidationResult& r, const std::string& what,
                  std::uint64_t got) {
  if (got != 0) note(r, what, got, 0);
}

}  // namespace

core::StackOptions ValidationConfig::default_stack() {
  core::StackOptions s;
  s.flow.max_batch = 4;
  s.flow.window = 4;
  s.monolithic.forward_flush_delay = util::milliseconds(50);
  return s;
}

std::string ValidationResult::describe() const {
  std::ostringstream os;
  os << (ok() ? "VALID" : "INVALID") << " (T=" << total_messages
     << ", I=" << instances << ")";
  for (const auto& n : notes) os << "\n  precondition: " << n;
  os << "\n" << check.summary();
  return os.str();
}

ValidationResult run_model_validation(const ValidationConfig& cfg) {
  core::SimGroupConfig gc;
  gc.n = cfg.n;
  gc.seed = cfg.seed;
  gc.collect_metrics = true;
  gc.stack = cfg.stack;
  core::SimGroup group(gc);
  auto& world = group.world();

  group.start();
  const auto n = static_cast<util::ProcessId>(cfg.n);
  for (util::ProcessId p = 0; p < n; ++p) {
    world.simulator().at(0, [&group, p, &cfg] {
      for (std::uint64_t i = 0; i < cfg.messages_per_process; ++i) {
        group.process(p).abcast(util::Bytes(cfg.message_size, 0));
      }
    });
  }

  ValidationResult r;
  r.total_messages = cfg.n * cfg.messages_per_process;
  auto all_delivered = [&] {
    for (util::ProcessId p = 0; p < n; ++p) {
      if (group.deliveries(p).size() != r.total_messages) return false;
    }
    return true;
  };
  // Stepped drain: heartbeats keep the event queue alive forever, so run in
  // slices until every process delivered everything (or the cap trips).
  while (world.now() < cfg.deadline && !all_delivered()) {
    group.run_until(world.now() + util::milliseconds(10));
  }

  // ---- Good-run preconditions ---------------------------------------------
  if (!all_delivered()) {
    note(r, "undrained: deliveries at process 0", group.deliveries(0).size(),
         r.total_messages);
  }
  const auto order = core::check_total_order(group);
  if (!order.ok) {
    r.clean = false;
    r.notes.push_back("total order: " + order.detail);
  }
  r.instances = group.process(0).stats().instances_completed;
  for (util::ProcessId p = 0; p < n; ++p) {
    auto& proc = group.process(p);
    const auto ps = proc.stats();
    const std::string at = " at process " + std::to_string(p);
    if (ps.max_round > 1) note(r, "max_round" + at, ps.max_round, 1);
    require_zero(r, "late_decisions" + at, ps.late_decisions);
    if (ps.instances_completed != r.instances) {
      note(r, "instances_completed" + at, ps.instances_completed,
           r.instances);
    }
    if (auto* m = proc.modular()) {
      require_zero(r, "liveness_kicks" + at, m->stats().liveness_kicks);
      require_zero(r, "payload_pulls" + at, m->stats().payload_pulls);
      const auto cs = proc.consensus_module()->stats();
      require_zero(r, "nacks_sent" + at, cs.nacks_sent);
      require_zero(r, "nudges_sent" + at, cs.nudges_sent);
      require_zero(r, "pulls_sent" + at, cs.pulls_sent);
    } else if (auto* mono = proc.monolithic()) {
      const auto ms = mono->stats();
      require_zero(r, "retransmissions" + at, ms.retransmissions);
      require_zero(r, "forwards_sent" + at, ms.forwards_sent);
      require_zero(r, "pulls_sent" + at, ms.pulls_sent);
      r.standalone_tags += ms.standalone_tags;
    }
  }

  // ---- Model comparison ---------------------------------------------------
  r.metrics = group.collect_metrics();
  require_zero(r, "channel retransmissions", r.metrics.retransmissions);
  require_zero(r, "dropped frames", r.metrics.net_dropped_messages);

  metrics::ModelCheckConfig mc;
  mc.n = cfg.n;
  mc.total_messages = r.total_messages;
  mc.instances = r.instances;
  mc.message_size = cfg.message_size;
  mc.standalone_tags = r.standalone_tags;
  r.check = cfg.stack.kind == core::StackKind::kModular
                ? metrics::check_modular(r.metrics, mc)
                : metrics::check_monolithic(r.metrics, mc);
  return r;
}

}  // namespace modcast::workload
