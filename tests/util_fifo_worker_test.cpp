// Tests for util::FifoWorker, the one background worker behind the
// off-thread inference engine and the lifecycle retrainer: FIFO delivery
// at the smallest ring, the overflow spill when collecting is deferred,
// back-pressure accounting, stop-and-drain on destruction, and idle or
// blocked waits that burn no CPU. These are ThreadSanitizer targets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <thread>

#include "util/fifo_worker.hpp"

namespace ddoshield::util {
namespace {

using Worker = FifoWorker<int, std::uint64_t>;

/// The job times 1000 plus its sequence number, so a result shows both
/// which job it came from and the stamp the worker gave it.
std::uint64_t tagged(int job, std::uint64_t seq) {
  return static_cast<std::uint64_t>(job) * 1000 + seq;
}

/// Job function: tags the job with its sequence number.
std::uint64_t tag(std::uint64_t seq, int& job) { return tagged(job, seq); }

/// Job function that dawdles, to hold the worker busy on purpose.
Worker::JobFn slow(std::chrono::microseconds delay) {
  return [delay](std::uint64_t seq, int& job) {
    std::this_thread::sleep_for(delay);
    return tag(seq, job);
  };
}

TEST(FifoWorkerTest, FifoOrderAtRingCapacityOne) {
  Worker worker{1, tag};
  constexpr int kJobs = 200;
  int collected = 0;
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(worker.submit(i + 1), static_cast<std::uint64_t>(i));
    // Collect every third job straight away and leave the rest queued, so
    // both rings run full and empty in turn.
    if (i % 3 == 0) {
      EXPECT_EQ(worker.collect(), tagged(collected + 1, collected));
      ++collected;
    }
  }
  for (; collected < kJobs; ++collected) {
    EXPECT_EQ(worker.collect(), tagged(collected + 1, collected));
  }
  EXPECT_EQ(worker.outstanding(), 0u);
  const auto stats = worker.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.collected, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kJobs));
}

TEST(FifoWorkerTest, OverflowSpillKeepsTheWorkerDrainingWhileCollectIsDeferred) {
  // One result slot and sixteen jobs: the worker can only finish them all
  // by spilling fifteen results past the full ring. submit() never waits
  // on the results ring, so none of these submits can wedge.
  Worker worker{1, tag};
  constexpr int kJobs = 16;
  for (int i = 0; i < kJobs; ++i) worker.submit(i);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (worker.stats().completed < kJobs && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  EXPECT_EQ(worker.stats().completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(worker.outstanding(), static_cast<std::size_t>(kJobs));
  // The spill refills the ring only after a collect frees its slot, so
  // after the first, each collect waits for the worker to move the next
  // spilled result in.
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(worker.collect(), tagged(i, i));
  }
  std::uint64_t none = 0;
  EXPECT_FALSE(worker.try_collect(none));
}

TEST(FifoWorkerTest, FullRingBackpressuresWithoutLosingJobs) {
  Worker worker{1, slow(std::chrono::microseconds{2000})};
  constexpr int kJobs = 8;
  for (int i = 0; i < kJobs; ++i) worker.submit(i);
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(worker.collect(), tagged(i, i));
  }
  const auto stats = worker.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_GE(stats.backpressure_waits, 1u);
  EXPECT_EQ(stats.high_water, static_cast<std::uint64_t>(kJobs));
}

TEST(FifoWorkerTest, CollectWithNothingOutstandingThrows) {
  Worker worker{4, tag};
  EXPECT_THROW(worker.collect(), std::logic_error);
  std::uint64_t out = 0;
  EXPECT_FALSE(worker.try_collect(out));
}

TEST(FifoWorkerTest, DestructionRunsEveryOutstandingJob) {
  std::atomic<int> ran{0};
  auto worker = std::make_unique<Worker>(2, [&ran](std::uint64_t seq, int& job) {
    std::this_thread::sleep_for(std::chrono::microseconds{500});
    ran.fetch_add(1, std::memory_order_relaxed);
    return tag(seq, job);
  });
  for (int i = 0; i < 6; ++i) worker->submit(i);
  worker->collect();
  worker.reset();  // joins after the remaining jobs ran; their results are dropped
  EXPECT_EQ(ran.load(), 6);
}

/// Process CPU over wall time while `wait` runs. A side that spins while
/// it waits keeps a core busy, so the ratio nears 1 or more.
template <typename Fn>
double cpu_share_while(Fn&& wait) {
  const double cpu0 = static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
  const auto wall0 = std::chrono::steady_clock::now();
  wait();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall0;
  const double cpu = static_cast<double>(std::clock()) / CLOCKS_PER_SEC - cpu0;
  return cpu / wall.count();
}

TEST(FifoWorkerTest, IdleWorkerSleepsInsteadOfSpinning) {
  Worker worker{4, tag};
  worker.submit(1);
  worker.collect();  // the worker has started and gone idle again
  const double share =
      cpu_share_while([] { std::this_thread::sleep_for(std::chrono::milliseconds{200}); });
  EXPECT_LT(share, 0.1);
}

TEST(FifoWorkerTest, BlockingCollectSleepsInsteadOfSpinning) {
  // The job sleeps 200 ms, so neither thread has CPU work while collect()
  // waits for its result.
  Worker worker{4, slow(std::chrono::milliseconds{200})};
  worker.submit(3);
  std::uint64_t out = 0;
  const double share = cpu_share_while([&] { out = worker.collect(); });
  EXPECT_EQ(out, 3000u);
  EXPECT_LT(share, 0.1);
}

}  // namespace
}  // namespace ddoshield::util
