// Tests for the off-thread inference engine and its RealTimeIds
// integration: in-order verdict delivery, backpressure accounting, clean
// shutdown with work in flight, idle waits that burn no CPU,
// offload-vs-inline report equality, and the ResourceMeter's rate-limited
// RSS probe.
#include <gtest/gtest.h>

#include <chrono>
#include <ctime>
#include <thread>
#include <vector>

#include "capture/tap.hpp"
#include "container/runtime.hpp"
#include "ids/infer_engine.hpp"
#include "ids/realtime_ids.hpp"
#include "ids/resource_meter.hpp"
#include "net/network.hpp"

namespace ddoshield::ids {
namespace {

using util::Rng;
using util::SimTime;

/// Returns each row's first feature rounded to an int; optionally dawdles
/// per batch so tests can hold the scoring thread busy on purpose.
class EchoModel : public ml::Classifier {
 public:
  explicit EchoModel(std::chrono::microseconds batch_delay = {}) : delay_{batch_delay} {}

  std::string name() const override { return "echo"; }
  void fit(const ml::DesignMatrix&, const std::vector<int>&) override {}
  bool trained() const override { return true; }
  int predict(std::span<const double> row) const override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    return static_cast<int>(row[0]);
  }
  void save(util::ByteWriter&) const override {}
  void load(util::ByteReader&) override {}
  std::uint64_t parameter_bytes() const override { return 8; }
  std::uint64_t inference_scratch_bytes() const override { return 8; }

 private:
  std::chrono::microseconds delay_;
};

ml::DesignMatrix one_row_matrix(double value) {
  ml::DesignMatrix x{1};
  x.add_row(std::vector<double>{value});
  return x;
}

TEST(InferenceEngineTest, RejectsUntrainedModel) {
  class Untrained : public EchoModel {
   public:
    bool trained() const override { return false; }
  } untrained;
  EXPECT_THROW((InferenceEngine{untrained}), std::logic_error);
}

TEST(InferenceEngineTest, DeliversResultsInSubmissionOrder) {
  EchoModel model;
  InferenceEngine engine{model};
  constexpr std::uint64_t kJobs = 50;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(engine.submit(one_row_matrix(static_cast<double>(i))), i);
  }
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    const InferResult result = engine.collect();
    EXPECT_EQ(result.seq, i);
    ASSERT_EQ(result.verdicts.size(), 1u);
    EXPECT_EQ(result.verdicts[0], static_cast<int>(i));
  }
  EXPECT_EQ(engine.outstanding(), 0u);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, kJobs);
  EXPECT_EQ(stats.completed, kJobs);
  EXPECT_EQ(stats.rows_scored, kJobs);
}

TEST(InferenceEngineTest, CollectWithNothingOutstandingThrows) {
  EchoModel model;
  InferenceEngine engine{model};
  EXPECT_THROW(engine.collect(), std::logic_error);
  InferResult result;
  EXPECT_FALSE(engine.try_collect(result));
}

TEST(InferenceEngineTest, TinyRingBackpressuresWithoutLosingJobs) {
  // 2 ms per batch keeps the worker busy while the producer floods a
  // one-slot ring: submits must stall (counted) but never drop.
  EchoModel model{std::chrono::microseconds{2000}};
  InferenceEngine engine{model, InferEngineConfig{.ring_capacity = 1}};
  constexpr std::uint64_t kJobs = 8;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    engine.submit(one_row_matrix(static_cast<double>(i)));
  }
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    const InferResult result = engine.collect();
    EXPECT_EQ(result.seq, i);
    EXPECT_EQ(result.verdicts[0], static_cast<int>(i));
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.completed, kJobs);
  EXPECT_GE(stats.backpressure_waits, 1u);
  EXPECT_GE(stats.ring_high_water, 1u);
}

TEST(InferenceEngineTest, DestructionWithOutstandingJobsIsClean) {
  EchoModel model{std::chrono::microseconds{1000}};
  auto engine = std::make_unique<InferenceEngine>(model);
  for (int i = 0; i < 6; ++i) engine->submit(one_row_matrix(i));
  engine.reset();  // must join the worker without hanging or crashing
}

/// CPU seconds of the whole process, every thread included.
double process_cpu_s() { return static_cast<double>(std::clock()) / CLOCKS_PER_SEC; }

/// Process CPU over wall time while `wait` runs. A side that spins while
/// it waits keeps a core busy, so the ratio nears 1 or more.
template <typename Fn>
double cpu_share_while(Fn&& wait) {
  const double cpu0 = process_cpu_s();
  const auto wall0 = std::chrono::steady_clock::now();
  wait();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall0;
  return (process_cpu_s() - cpu0) / wall.count();
}

TEST(InferenceEngineTest, IdleWorkerSleepsInsteadOfSpinning) {
  EchoModel model;
  InferenceEngine engine{model};
  engine.submit(one_row_matrix(1.0));
  engine.collect();  // the worker has started and gone idle again
  const double share =
      cpu_share_while([] { std::this_thread::sleep_for(std::chrono::milliseconds{200}); });
  EXPECT_LT(share, 0.25);
}

TEST(InferenceEngineTest, BlockingCollectSleepsInsteadOfSpinning) {
  // The model sleeps 200 ms in its batch, so neither thread has CPU work
  // while collect() waits for the result.
  EchoModel model{std::chrono::microseconds{200000}};
  InferenceEngine engine{model};
  engine.submit(one_row_matrix(3.0));
  InferResult result;
  const double share = cpu_share_while([&] { result = engine.collect(); });
  EXPECT_EQ(result.verdicts, (ml::Verdicts{3}));
  EXPECT_LT(share, 0.25);
}

// --------------------------------------------------------------------------
// RealTimeIds offload integration
// --------------------------------------------------------------------------

/// Classifies by destination port, as ids_test's stub does.
class PortModel : public ml::Classifier {
 public:
  std::string name() const override { return "port"; }
  void fit(const ml::DesignMatrix&, const std::vector<int>&) override {}
  bool trained() const override { return true; }
  int predict(std::span<const double> row) const override {
    return row[5] > 0.14 ? 1 : 0;  // dst_port 9999/65535 = 0.1526
  }
  void save(util::ByteWriter&) const override {}
  void load(util::ByteReader&) override {}
  std::uint64_t parameter_bytes() const override { return 1024; }
  std::uint64_t inference_scratch_bytes() const override { return 256; }
};

/// A self-contained sender→victim world; constructed fresh per run so the
/// inline and offload scenarios start from identical state.
struct World {
  net::Network net;
  net::Node* sender = nullptr;
  net::Node* victim = nullptr;
  container::ContainerRuntime runtime;
  container::Container* ids_box = nullptr;
  capture::PacketTap tap;
  PortModel model;

  World() {
    sender = &net.add_node("sender", net::Ipv4Address{10, 0, 0, 1});
    victim = &net.add_node("victim", net::Ipv4Address{10, 0, 0, 2});
    net.add_link(*sender, *victim, net::LinkConfig{});
    sender->set_default_route(0);
    victim->set_default_route(0);
    tap.attach_to(*victim);
    runtime.register_image({"test/ids", "1", nullptr});
    ids_box = &runtime.create("ids", "test/ids:1");
    ids_box->attach_node(*victim);
    ids_box->start();
  }

  void emit(std::uint16_t dst_port, net::TrafficOrigin origin) {
    net::Packet p;
    p.dst = victim->address();
    p.dst_port = dst_port;
    p.proto = net::IpProto::kUdp;
    p.payload_bytes = 64;
    p.origin = origin;
    sender->send(std::move(p));
  }

  std::vector<WindowReport> run_scenario(bool offload) {
    IdsConfig config;
    config.offload_inference = offload;
    config.infer_ring_capacity = 2;  // small: exercise drain-while-running
    RealTimeIds ids{*ids_box, Rng{1}, model, config};
    ids.attach_tap(tap);
    ids.start();
    // A mixed workload across several windows.
    for (int w = 0; w < 5; ++w) {
      for (int i = 0; i < 3 + w; ++i) {
        const bool attack = (w + i) % 2 == 0;
        net.simulator().schedule(
            SimTime::millis(static_cast<std::int64_t>(w) * 1000 + 100 + i * 50), [=, this] {
              emit(attack ? 9999 : 80,
                   attack ? net::TrafficOrigin::kMiraiUdpFlood : net::TrafficOrigin::kHttp);
            });
      }
    }
    net.simulator().run_until(SimTime::millis(5500));
    ids.flush();
    return ids.reports();
  }
};

TEST(OffloadTest, OffthreadReportsMatchInlineExactly) {
  const auto inline_reports = World{}.run_scenario(false);
  const auto offload_reports = World{}.run_scenario(true);

  ASSERT_EQ(offload_reports.size(), inline_reports.size());
  ASSERT_GE(inline_reports.size(), 5u);
  for (std::size_t i = 0; i < inline_reports.size(); ++i) {
    const auto& a = inline_reports[i];
    const auto& b = offload_reports[i];
    EXPECT_EQ(b.window_index, a.window_index);
    EXPECT_EQ(b.packets, a.packets);
    EXPECT_EQ(b.truth_malicious, a.truth_malicious);
    EXPECT_EQ(b.predicted_malicious, a.predicted_malicious);
    EXPECT_DOUBLE_EQ(b.accuracy, a.accuracy);
    EXPECT_EQ(b.single_class, a.single_class);
  }
}

TEST(OffloadTest, FlushDrainsAllPendingWindows) {
  World world;
  IdsConfig config;
  config.offload_inference = true;
  RealTimeIds ids{*world.ids_box, Rng{1}, world.model, config};
  ids.attach_tap(world.tap);
  ids.start();
  world.net.simulator().schedule(SimTime::millis(100),
                                 [&world] { world.emit(80, net::TrafficOrigin::kHttp); });
  world.net.simulator().run_until(SimTime::millis(1500));
  ids.flush();  // the partial second window closes and drains too
  ASSERT_EQ(ids.reports().size(), 1u);
  EXPECT_EQ(ids.reports()[0].packets, 1u);
}

// --------------------------------------------------------------------------
// ResourceMeter
// --------------------------------------------------------------------------

TEST(ResourceMeterTest, RssSamplingIsRateLimitedPerWindow) {
  ResourceMeter meter{"test", ResourceMeterConfig{}};
  const std::uint64_t first = meter.sample_rss_kb(0);
  EXPECT_GT(first, 0u);  // a live process has nonzero RSS
  EXPECT_EQ(meter.samples_taken(), 1u);
  EXPECT_EQ(meter.sample_rss_kb(0), first);  // cached, no second read
  EXPECT_EQ(meter.samples_taken(), 1u);
  meter.sample_rss_kb(1);
  EXPECT_EQ(meter.samples_taken(), 2u);
  meter.sample_rss_kb(1);
  EXPECT_EQ(meter.samples_taken(), 2u);
}

TEST(ResourceMeterTest, WindowCpuPercentClampsAt100) {
  ResourceMeter meter{"test", ResourceMeterConfig{}};
  const std::uint64_t window_ns = 1'000'000'000;
  // An hour of modelled work in a one-second window clamps.
  EXPECT_DOUBLE_EQ(meter.window_cpu_percent(3'600'000'000'000ull, 0, window_ns), 100.0);
  // Zero measured work still carries the fixed per-window overhead.
  ResourceMeterConfig no_overhead;
  no_overhead.per_window_overhead_ms = 0.0;
  ResourceMeter lean{"lean", no_overhead};
  EXPECT_DOUBLE_EQ(lean.window_cpu_percent(0, 0, window_ns), 0.0);
  EXPECT_GT(meter.window_cpu_percent(0, 0, window_ns), 0.0);
}

}  // namespace
}  // namespace ddoshield::ids
