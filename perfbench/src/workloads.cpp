#include "workloads.hpp"

#include "workload/campaign.hpp"

namespace perfbench {
namespace {

WorkloadSpec paper_16k() {
  WorkloadSpec w;
  w.name = "paper-16k";
  w.n = 3;
  w.payload_bytes = 16384;
  w.offered_load = 600.0;
  w.warmup = util::seconds(1);
  w.measure = util::seconds(10);
  return w;
}

WorkloadSpec small_n33() {
  WorkloadSpec w;
  w.name = "small-n33";
  w.n = 33;
  w.payload_bytes = 64;
  w.offered_load = 400.0;
  w.warmup = util::seconds(1);
  w.measure = util::seconds(5);
  w.event_shards = 33;
  return w;
}

WorkloadSpec coord_crash_n7() {
  WorkloadSpec w;
  w.name = "coord-crash-n7";
  w.n = 7;
  w.payload_bytes = 1024;
  w.offered_load = 600.0;
  w.warmup = util::seconds(1);
  w.measure = util::seconds(12);
  w.stack = workload::CampaignConfig::campaign_stack_defaults();
  w.frame_loss = 0.01;
  // The first three coordinators (f = 3 for n = 7), spread over the window.
  w.crashes = {{0, util::seconds(3)}, {1, util::seconds(7)},
               {2, util::seconds(11)}};
  return w;
}

WorkloadSpec threads_n3() {
  WorkloadSpec w;
  w.name = "threads-n3";
  w.threads = true;
  w.n = 3;
  w.payload_bytes = 1024;
  w.offered_load = 4000.0;
  w.warmup = util::milliseconds(300);
  w.measure = util::seconds(2);
  w.max_gen_lag_p99_ms = 20.0;
  return w;
}

}  // namespace

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> all = {paper_16k(), small_n33(),
                                                coord_crash_n7(), threads_n3()};
  return all;
}

std::optional<WorkloadSpec> find_workload(const std::string& name) {
  for (const auto& w : all_workloads()) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

}  // namespace perfbench
