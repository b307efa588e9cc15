#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <sstream>

namespace perfbench {
namespace {

constexpr std::array<core::StackKind, 2> kKinds = {
    core::StackKind::kModular, core::StackKind::kMonolithic};

using core::StackKind;

// Where a layer runs: a layer reports only on the workloads, and for the
// stacks, where it does work.
bool any(const WorkloadSpec&, StackKind) { return true; }
bool sim(const WorkloadSpec& w, StackKind) { return !w.threads; }
bool threads(const WorkloadSpec& w, StackKind) { return w.threads; }
bool lossy(const WorkloadSpec& w, StackKind) { return w.frame_loss > 0.0; }
bool crashes(const WorkloadSpec& w, StackKind) { return !w.crashes.empty(); }
bool modular(const WorkloadSpec&, StackKind k) { return k == StackKind::kModular; }
bool monolithic(const WorkloadSpec&, StackKind k) {
  return k == StackKind::kMonolithic;
}

struct LayerDef {
  const char* name;
  const char* unit;
  bool (*runs)(const WorkloadSpec&, StackKind);
};

// Per-layer metric bases, reported once per stack where the layer runs.
constexpr LayerDef kLayer[] = {
    {"sim.self_us_per_msg", "us", sim},
    {"sim.events_per_msg", "count", sim},
    {"sim.peak_pending_events", "count", sim},
    {"sim.state_bytes", "bytes", sim},
    {"sim.cpu_util", "frac", sim},
    {"runtime.send_us_per_msg", "us", any},
    {"runtime.sends_per_msg", "count", any},
    {"runtime.timer_arms_per_msg", "count", any},
    {"runtime.timer_cancels_per_msg", "count", any},
    {"runtime.timer_us_per_msg", "us", any},
    {"runtime.delivery_wait_ms.p50", "ms", any},
    {"runtime.delivery_wait_ms.p99", "ms", any},
    {"runtime.post_us_per_msg", "us", threads},
    {"stack.on_message_us_per_msg", "us", any},
    {"framework.local_events_per_msg", "count", any},
    {"framework.wire_deliveries_per_msg", "count", any},
    {"abcast.msgs_per_msg", "count", modular},
    {"abcast.bytes_per_msg", "bytes", modular},
    {"abcast.self_us_per_msg", "us", modular},
    {"consensus.msgs_per_msg", "count", modular},
    {"consensus.bytes_per_msg", "bytes", modular},
    {"consensus.self_us_per_msg", "us", modular},
    {"rbcast.msgs_per_msg", "count", modular},
    {"rbcast.bytes_per_msg", "bytes", modular},
    {"rbcast.self_us_per_msg", "us", modular},
    {"monolithic.msgs_per_msg", "count", monolithic},
    {"monolithic.bytes_per_msg", "bytes", monolithic},
    {"monolithic.self_us_per_msg", "us", monolithic},
    {"fd.msgs_per_msg", "count", any},
    {"fd.bytes_per_msg", "bytes", any},
    {"fd.self_us_per_msg", "us", any},
    {"adb.msgs_per_batch", "count", any},
    {"consensus.instances_per_msg", "count", any},
    {"consensus.late_decision_frac", "frac", lossy},
    {"channel.self_us_per_msg", "us", lossy},
    {"channel.retransmits_per_msg", "count", lossy},
    {"channel.acks_per_msg", "count", lossy},
    {"faults.checker_us_per_msg", "us", lossy},
    {"core.abcast_us_per_call", "us", any},
    {"gen.lag_ms.p50", "ms", threads},
    {"gen.lag_ms.p99", "ms", threads},
    {"trace.overhead_frac", "frac", any},
    {"outage_ms", "ms", crashes},
};

std::string suffix(core::StackKind k) {
  return std::string(".") + core::to_string(k);
}

std::vector<const StackRun*> of_kind(const std::vector<StackRun>& runs,
                                     core::StackKind k) {
  std::vector<const StackRun*> out;
  for (const auto& r : runs) {
    if (r.kind == k) out.push_back(&r);
  }
  return out;
}

template <typename F>
double median_of(const std::vector<const StackRun*>& runs, F f) {
  std::vector<double> v;
  for (const StackRun* r : runs) v.push_back(f(*r));
  return median(std::move(v));
}

/// Span-derived layer times of one traced run, µs per unique message.
std::map<std::string, double> span_times(const StackRun& r) {
  std::map<std::string, double> t;
  const double unique = static_cast<double>(std::max<std::uint64_t>(r.unique_in_window, 1));
  auto per_msg = [&](std::int64_t ns) { return static_cast<double>(ns) / 1e3 / unique; };
  const SpanTotals& s = r.spans;
  t["sim.self_us_per_msg"] = per_msg(s[SpanKind::kSimRunUntil].self_ns);
  t["runtime.send_us_per_msg"] = per_msg(s[SpanKind::kRuntimeSend].total_ns);
  t["runtime.timer_us_per_msg"] = per_msg(s[SpanKind::kRuntimeTimer].self_ns);
  t["runtime.post_us_per_msg"] = per_msg(s[SpanKind::kRuntimePost].total_ns);
  t["stack.on_message_us_per_msg"] = per_msg(s[SpanKind::kStackOnMessage].own_ns);
  t["channel.self_us_per_msg"] = per_msg(s[SpanKind::kChannelOnMessage].self_ns);
  t["faults.checker_us_per_msg"] = per_msg(s[SpanKind::kFaultsChecker].total_ns);
  for (SpanKind k : {SpanKind::kModAbcast, SpanKind::kModConsensus,
                     SpanKind::kModRbcast, SpanKind::kModFd,
                     SpanKind::kModMonolithic}) {
    t[std::string(span_name(k)) + ".self_us_per_msg"] = per_msg(s[k].self_ns);
  }
  const auto& ab = s[SpanKind::kCoreAbcast];
  t["core.abcast_us_per_call"] =
      ab.count == 0 ? 0.0 : static_cast<double>(ab.total_ns) / 1e3 /
                                static_cast<double>(ab.count);
  t["gen.lag_ms.p50"] = percentile(r.gen_lag_ms, 50);
  t["gen.lag_ms.p99"] = percentile(r.gen_lag_ms, 99);
  return t;
}

std::uint64_t hash_doubles(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (double x : v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof x);
    std::memcpy(&bits, &x, sizeof bits);
    h = (h ^ bits) * 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string StackRun::fingerprint() const {
  std::ostringstream os;
  os << std::hexfloat;
  os << "latencies=" << latencies_ms.size() << "/" << std::hex
     << hash_doubles(latencies_ms) << std::dec << " throughput=" << throughput
     << " unique=" << unique_in_window << " ops=" << ops
     << " refused=" << refused << " undelivered=" << undelivered
     << " lost=" << lost_at_crashed << " outages=" << hash_doubles(outages_ms)
     << " digests=";
  for (auto d : digests) os << std::hex << d << std::dec << ",";
  for (const auto& [k, v] : counts) os << " " << k << "=" << v;
  return os.str();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

std::vector<std::string> end_to_end_names() {
  std::vector<std::string> names = {"setup_s"};
  for (const char* base : {"cpu_us_per_msg", "latency_p50_ms",
                           "latency_p99_ms", "throughput"}) {
    for (auto k : kKinds) names.push_back(base + suffix(k));
  }
  names.push_back("peak_rss_mb");
  return names;
}

std::vector<std::string> per_layer_names(const WorkloadSpec& w) {
  std::vector<std::string> names;
  for (auto k : kKinds) {
    for (const LayerDef& d : kLayer) {
      if (d.runs(w, k)) names.push_back(d.name + suffix(k));
    }
  }
  return names;
}

std::vector<Metric> end_to_end_metrics(const std::vector<StackRun>& runs) {
  std::vector<Metric> out;
  double setup = 0.0;
  std::uint64_t setups = 0;
  for (auto k : kKinds) {
    auto rs = of_kind(runs, k);
    setup += median_of(rs, [](const StackRun& r) { return r.setup_s; });
    setups += rs.size();
  }
  out.push_back({"setup_s", setup, "s", setups});
  using Fn = double (*)(const StackRun&);
  const std::pair<const char*, Fn> bases[] = {
      {"cpu_us_per_msg", [](const StackRun& r) { return r.cpu_us_per_msg(); }},
      {"latency_p50_ms",
       [](const StackRun& r) { return percentile(r.latencies_ms, 50); }},
      {"latency_p99_ms",
       [](const StackRun& r) { return percentile(r.latencies_ms, 99); }},
      {"throughput", [](const StackRun& r) { return r.throughput; }}};
  const char* units[] = {"us", "ms", "ms", "msgs/s"};
  for (std::size_t b = 0; b < 4; ++b) {
    for (auto k : kKinds) {
      auto rs = of_kind(runs, k);
      // Sample count: runs for CPU, per-run samples for the rest.
      std::uint64_t samples = rs.size();
      if (b == 1 || b == 2) samples = rs.empty() ? 0 : rs.front()->latencies_ms.size();
      if (b == 3) samples = rs.empty() ? 0 : rs.front()->unique_in_window;
      out.push_back({bases[b].first + suffix(k), median_of(rs, bases[b].second),
                     units[b], samples});
    }
  }
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MiB", 1});
  return out;
}

std::vector<Metric> per_layer_metrics(const WorkloadSpec& w,
                                      const std::vector<StackRun>& traced,
                                      const std::vector<StackRun>& untraced) {
  std::vector<Metric> out;
  for (auto k : kKinds) {
    auto rs = of_kind(traced, k);
    auto base = of_kind(untraced, k);
    std::vector<std::map<std::string, double>> per_run;
    for (const StackRun* r : rs) {
      auto t = span_times(*r);
      t.insert(r->counts.begin(), r->counts.end());
      t.insert(r->probe_counts.begin(), r->probe_counts.end());
      per_run.push_back(std::move(t));
    }
    const double traced_cpu =
        median_of(rs, [](const StackRun& r) { return r.cpu_us_per_msg(); });
    const double untraced_cpu =
        median_of(base, [](const StackRun& r) { return r.cpu_us_per_msg(); });
    for (const LayerDef& d : kLayer) {
      if (!d.runs(w, k)) continue;
      double value = 0.0;
      if (std::string(d.name) == "trace.overhead_frac") {
        value = untraced_cpu > 0.0 ? traced_cpu / untraced_cpu - 1.0 : 0.0;
      } else {
        std::vector<double> v;
        for (const auto& m : per_run) {
          auto it = m.find(d.name);
          v.push_back(it == m.end() ? 0.0 : it->second);
        }
        value = median(std::move(v));
      }
      out.push_back({d.name + suffix(k), value, d.unit, rs.size()});
    }
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

}  // namespace perfbench
