// One background worker thread that runs jobs in submission order.
//
// The caller (one thread, the simulation thread in this repo) submits jobs
// through a bounded SpscRing; a single worker thread pops them in FIFO
// order, runs the job function on each, and pushes the results through a
// second SpscRing back to the caller, which collects them in the same
// order. The off-thread inference engine (ids::InferenceEngine) and the
// lifecycle retrainer (ml::lifecycle::Retrainer) are this worker plus
// their own job function.
//
// Determinism: one worker consuming a FIFO ring runs the jobs in exactly
// submission order, and results return through a FIFO ring, so the result
// *sequence* is a function of the submitted jobs alone; only wall-clock
// timing differs. The worker stamps each job with its sequence number and
// try_collect() refuses a result whose stamp is not the next one.
//
// Never blocking the worker on a full results ring: a finished result
// that finds the ring full goes to an overflow spill (in order), so the
// worker keeps draining the jobs ring however long the caller defers
// collecting, and submit() can only ever wait on the jobs ring — which
// the worker always empties. (Blocking on a full results ring would wedge
// the pair: worker stuck pushing, caller stuck in submit().)
//
// Waiting: an idle worker and a blocking collect() sleep on a C++20
// atomic wait/notify word, so an idle worker costs no CPU. Only a
// back-pressured submit() yield-spins, while the worker is busy.
//
// Destruction stops the worker after it has run every submitted job;
// results nobody collected are dropped with it.
//
// Thread rules: submit/try_collect/collect/outstanding/stats are
// caller-thread only; the job function runs on the worker thread alone.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/spsc_ring.hpp"

namespace ddoshield::util {

template <typename Job, typename Result>
class FifoWorker {
 public:
  /// Runs on the worker thread: (sequence number, job) -> result. The job
  /// is the worker's to consume or move from.
  using JobFn = std::function<Result(std::uint64_t seq, Job& job)>;

  /// `ring_capacity` is the number of job (and result) slots; a full jobs
  /// ring back-pressures submit().
  FifoWorker(std::size_t ring_capacity, JobFn fn)
      : fn_{std::move(fn)},
        jobs_{ring_capacity},
        results_{ring_capacity},
        thread_{[this] { run(); }} {}

  ~FifoWorker() {
    stop_.store(true, std::memory_order_release);
    bump();
    thread_.join();
  }

  FifoWorker(const FifoWorker&) = delete;
  FifoWorker& operator=(const FifoWorker&) = delete;

  /// Hands one job to the worker; returns its sequence number. Never
  /// drops: on a full ring it counts one back-pressure wait and yields
  /// until the worker frees a slot.
  std::uint64_t submit(Job job) {
    Slot<Job> slot{submitted_, std::move(job)};
    if (!jobs_.try_push(std::move(slot))) {
      // A failed try_push leaves the slot untouched, so retrying the move
      // is safe.
      ++backpressure_waits_;
      do {
        std::this_thread::yield();
      } while (!jobs_.try_push(std::move(slot)));
    }
    bump();
    ++submitted_;
    if (outstanding() > high_water_) high_water_ = outstanding();
    return submitted_ - 1;
  }

  /// Non-blocking: pops the oldest finished result, if any.
  bool try_collect(Result& out) {
    Slot<Result> slot;
    if (!results_.try_pop(slot)) return false;
    if (slot.seq != collected_) {
      throw std::logic_error("FifoWorker: out-of-order result (FIFO invariant broken)");
    }
    out = std::move(slot.value);
    ++collected_;
    bump();  // a freed slot lets the worker flush spilled results
    return true;
  }

  /// Blocking: sleeps until the oldest outstanding result is ready.
  Result collect() {
    if (outstanding() == 0) throw std::logic_error("FifoWorker::collect: no outstanding jobs");
    Result out;
    while (true) {
      const std::uint32_t seen = wake_.load(std::memory_order_acquire);
      if (try_collect(out)) return out;
      wake_.wait(seen, std::memory_order_acquire);
    }
  }

  /// Jobs submitted but not yet collected.
  std::size_t outstanding() const { return submitted_ - collected_; }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t collected = 0;
    std::uint64_t completed = 0;           // worker-side
    std::uint64_t backpressure_waits = 0;  // submits that found the ring full
    std::uint64_t high_water = 0;          // max jobs outstanding after a submit
  };
  Stats stats() const {
    return {submitted_, collected_, completed_.load(std::memory_order_relaxed),
            backpressure_waits_, high_water_};
  }

 private:
  template <typename T>
  struct Slot {
    std::uint64_t seq = 0;
    T value = T();
  };

  // Wakes whoever sleeps on the word. Waiters load it before checking
  // their condition and sleep only while it is unchanged: no bump is lost.
  void bump() {
    wake_.fetch_add(1, std::memory_order_release);
    wake_.notify_all();
  }

  void run() {
    Slot<Job> job;
    std::deque<Slot<Result>> overflow;  // finished results the ring had no room for
    auto flush_overflow = [this, &overflow] {
      while (!overflow.empty() && results_.try_push(std::move(overflow.front()))) {
        overflow.pop_front();
        bump();
      }
    };
    while (true) {
      const std::uint32_t seen = wake_.load(std::memory_order_acquire);
      flush_overflow();
      if (!jobs_.try_pop(job)) {
        // Idle: sleep until a submit, a collect or stop bumps the word.
        if (!stop_.load(std::memory_order_acquire)) {
          wake_.wait(seen, std::memory_order_acquire);
          continue;
        }
        // Stopping: run anything raced in between the last pop and the
        // stop flag, then leave (spilled results die with the worker;
        // waiting for a collect that never comes would hang the join).
        if (!jobs_.try_pop(job)) return;
      }
      Slot<Result> res{job.seq, fn_(job.seq, job.value)};
      completed_.fetch_add(1, std::memory_order_relaxed);
      if (!overflow.empty() || !results_.try_push(std::move(res))) {
        overflow.push_back(std::move(res));
      } else {
        bump();
      }
    }
  }

  JobFn fn_;
  SpscRing<Slot<Job>> jobs_;
  SpscRing<Slot<Result>> results_;
  std::atomic<bool> stop_{false};
  // Bumped on every job or result pushed, result slot freed, and stop.
  std::atomic<std::uint32_t> wake_{0};

  // Caller-thread state.
  std::uint64_t submitted_ = 0;
  std::uint64_t collected_ = 0;
  std::uint64_t backpressure_waits_ = 0;
  std::uint64_t high_water_ = 0;

  // Worker-thread state.
  std::atomic<std::uint64_t> completed_{0};

  std::thread thread_;  // last member: starts after everything it touches
};

}  // namespace ddoshield::util
