// Microbenchmarks (google-benchmark): the mechanical costs behind the
// modularity overhead — event dispatch, wire header handling, batch
// serialization, and a full simulated consensus instance.
#include <benchmark/benchmark.h>

#include "adb/types.hpp"
#include "core/sim_group.hpp"
#include "framework/stack.hpp"
#include "runtime/sim_world.hpp"
#include "util/seq_tracker.hpp"

namespace {

using namespace modcast;

constexpr framework::EventType kEvent = 333;
constexpr framework::ModuleId kModule = 77;

struct IntBody {
  int value;
};

void BM_EventRaiseDispatch(benchmark::State& state) {
  runtime::SimWorldConfig cfg;
  cfg.n = 1;
  runtime::SimWorld world(cfg);
  framework::Stack stack(world.runtime(0));
  std::int64_t sink = 0;
  stack.bind(kEvent, [&sink](const framework::Event& ev) {
    sink += ev.as<IntBody>().value;
  });
  for (auto _ : state) {
    stack.raise(framework::Event::local(kEvent, IntBody{1}));
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventRaiseDispatch);

void BM_WireHeaderRoundTrip(benchmark::State& state) {
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  runtime::SimWorldConfig cfg;
  cfg.n = 2;
  cfg.cpu = runtime::CpuCostModel{};  // virtual costs: free in real time
  runtime::SimWorld world(cfg);
  framework::Stack sender(world.runtime(0));
  framework::Stack receiver(world.runtime(1));
  world.attach(0, &sender);
  world.attach(1, &receiver);
  std::size_t delivered = 0;
  receiver.bind_wire(kModule, [&](util::ProcessId, util::Payload msg) {
    delivered += msg.size();
  });
  const util::Bytes payload(payload_size, 0xaa);
  for (auto _ : state) {
    util::ByteWriter w = framework::Stack::writer(kModule, payload.size());
    w.raw(payload);
    sender.send_wire(1, kModule, w.take());
    world.run();  // drain the in-flight message deterministically
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_WireHeaderRoundTrip)->Arg(64)->Arg(1024)->Arg(16384);

void BM_BatchEncodeDecode(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<adb::AppMessage> batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back({{static_cast<util::ProcessId>(i % 3), i},
                     util::Bytes(1024, 0x11)});
  }
  std::size_t sink = 0;
  for (auto _ : state) {
    auto encoded = adb::encode_batch(batch);
    auto decoded = adb::decode_batch(encoded, 3);
    sink += decoded.size();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_BatchEncodeDecode)->Arg(1)->Arg(4)->Arg(16);

void BM_SeqTrackerMark(benchmark::State& state) {
  util::SeqTracker tracker;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.mark(seq % 7, seq));
    ++seq;
  }
}
BENCHMARK(BM_SeqTrackerMark);

/// Wall-clock cost of simulating one full consensus instance end-to-end
/// (three processes, one abcast message, delivery everywhere) — the unit of
/// work behind every data point in the figure benches.
void BM_SimulatedInstance(benchmark::State& state, core::StackKind kind) {
  for (auto _ : state) {
    state.PauseTiming();
    core::SimGroupConfig cfg;
    cfg.n = 3;
    cfg.stack.kind = kind;
    core::SimGroup group(cfg);
    group.start();
    group.world().simulator().at(util::milliseconds(1), [&group] {
      group.process(0).abcast(util::Bytes(1024, 1));
    });
    state.ResumeTiming();
    group.run_until(util::milliseconds(50));
    if (group.deliveries(2).size() != 1) state.SkipWithError("no delivery");
  }
}
BENCHMARK_CAPTURE(BM_SimulatedInstance, modular, core::StackKind::kModular);
BENCHMARK_CAPTURE(BM_SimulatedInstance, monolithic,
                  core::StackKind::kMonolithic);

}  // namespace

BENCHMARK_MAIN();
