// perfbench: runs one workload on both stacks and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --list
//
// --trace 0 repeats untraced runs, alternating the stacks, until --seconds
// of wall time have passed, and reports the end-to-end metrics (medians
// over runs). --trace 1 alternates untraced and traced runs for the same
// time and reports the per-layer metrics; every traced run must reproduce
// its untraced twin exactly on the simulator (passivity). Every run passes
// the contract gate. The last line of stdout is one JSON object; the exit
// code is non-zero on any gate, determinism, passivity or generator failure.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "runs.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool list = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1>\n       perfbench --list\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  return a;
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.list) {
    for (const auto& m : end_to_end_names()) std::cout << "end_to_end " << m << "\n";
    for (const auto& w : all_workloads()) {
      std::cout << "workload " << w.name << "\n";
      for (const auto& m : per_layer_names(w)) {
        std::cout << "per_layer " << w.name << " " << m << "\n";
      }
    }
    return 0;
  }
  const auto spec = find_workload(args.workload);
  if (!spec) usage("unknown workload '" + args.workload + "'");
  const WorkloadSpec& w = *spec;

  std::vector<StackRun> untraced;
  std::vector<StackRun> traced;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  auto account = [&](const StackRun& r) {
    std::cout << "run " << core::to_string(r.kind) << (r.traced ? " traced" : "")
              << ": setup " << json_number(r.setup_s) << " s, cpu "
              << json_number(r.cpu_us_per_msg()) << " us/msg, ops " << r.ops
              << ", refused " << r.refused << ", undelivered " << r.undelivered
              << ", lost with crashed origin " << r.lost_at_crashed << "\n";
    attempted += r.ops;
    failed += r.ops_failed();
    const std::string who = std::string(core::to_string(r.kind)) +
                            (r.traced ? " (traced)" : "");
    if (!r.violation.empty()) {
      failures.push_back(who + ": contract gate: " + r.violation);
      failed += r.ops - r.ops_failed();  // the whole run's operations
    }
    if (!r.gen_valid) {
      failures.push_back(who + ": generator lag p99 " +
                         json_number(percentile(r.gen_lag_ms, 99)) +
                         " ms exceeds " + json_number(w.max_gen_lag_p99_ms) +
                         " ms; run invalid");
    }
  };
  // On the simulator every run of a stack must repeat its first untraced
  // run exactly.
  auto check_repeat = [&](const StackRun& r, const char* what) {
    if (w.threads) return;
    for (const StackRun& first : untraced) {
      if (first.kind != r.kind) continue;
      if (first.fingerprint() != r.fingerprint()) {
        failures.push_back(std::string(core::to_string(r.kind)) + ": " + what +
                           ":\n  " + first.fingerprint() + "\n  " +
                           r.fingerprint());
      }
      return;
    }
  };

  const double t0 = wall_s();
  do {
    for (auto kind : {core::StackKind::kModular, core::StackKind::kMonolithic}) {
      StackRun u = run_workload(w, RunOptions{kind, args.seed, false});
      account(u);
      check_repeat(u, "runs of one seed differ");
      untraced.push_back(std::move(u));
      if (args.trace) {
        StackRun t = run_workload(w, RunOptions{kind, args.seed, true});
        account(t);
        check_repeat(t, "traced run differs from untraced (passivity)");
        traced.push_back(std::move(t));
      }
    }
  } while (wall_s() - t0 < args.seconds && failures.empty());

  const std::vector<Metric> metrics =
      args.trace ? per_layer_metrics(w, traced, untraced)
                 : end_to_end_metrics(untraced);

  std::cout << "workload " << w.name << "  seed " << args.seed << "  runs "
            << untraced.size() + traced.size() << "  ("
            << (w.threads ? "real" : "virtual") << " clock)\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "  (n=" << m.samples << ")\n";
  }
  std::cout << "  ops = " << attempted << "\n  ops_failed = " << failed << "\n";
  for (const auto& f : failures) std::cout << "FAIL " << f << "\n";

  const bool correct = failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(correct ? failed : attempted);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
