#include "ids/infer_engine.hpp"

#include <chrono>
#include <deque>
#include <stdexcept>

namespace ddoshield::ids {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Wakes whoever sleeps on `word`. Waiters load the word before checking
// their condition and sleep only while it is unchanged: no bump is lost.
void bump(std::atomic<std::uint32_t>& word) {
  word.fetch_add(1, std::memory_order_release);
  word.notify_all();
}

}  // namespace

InferenceEngine::InferenceEngine(const ml::Classifier& model, InferEngineConfig config)
    : model_{model},
      config_{config},
      jobs_{config.ring_capacity},
      results_{config.ring_capacity},
      m_backpressure_{&obs::MetricsRegistry::global().counter("ids.infer.backpressure_waits")},
      m_batches_{&obs::MetricsRegistry::global().counter("ids.infer.batches")},
      m_ring_depth_{&obs::MetricsRegistry::global().gauge("ids.infer.ring_depth")},
      m_batch_rows_{&obs::MetricsRegistry::global().histogram("ids.infer.batch_rows")},
      worker_{[this] { worker_loop(); }} {
  if (!model.trained()) {
    stop_worker();
    throw std::logic_error("InferenceEngine: model must be trained before offloading");
  }
}

InferenceEngine::~InferenceEngine() { stop_worker(); }

void InferenceEngine::stop_worker() {
  stop_.store(true, std::memory_order_release);
  bump(wake_);
  worker_.join();
}

std::uint64_t InferenceEngine::submit(ml::DesignMatrix x) {
  return submit(std::move(x), nullptr);
}

std::uint64_t InferenceEngine::submit(ml::DesignMatrix x,
                                      std::shared_ptr<const ml::Classifier> model) {
  const std::size_t rows = x.rows();
  Job job{submitted_, now_ns(), std::move(x), std::move(model)};
  if (!jobs_.try_push(std::move(job))) {
    // Ring full: the scoring thread is behind. Never drop a window —
    // count the stall once and yield until a slot frees. (A failed
    // try_push leaves the job untouched, so retrying the move is safe.)
    ++backpressure_waits_;
    do {
      std::this_thread::yield();
    } while (!jobs_.try_push(std::move(job)));
  }
  bump(wake_);
  ++submitted_;
  m_batches_->inc();
  m_batch_rows_->observe(rows);
  const std::size_t depth = outstanding();
  if (depth > ring_high_water_) ring_high_water_ = depth;
  m_ring_depth_->set(static_cast<double>(depth));
  return submitted_ - 1;
}

bool InferenceEngine::try_collect(InferResult& out) {
  if (!results_.try_pop(out)) return false;
  if (out.seq != collected_) {
    throw std::logic_error("InferenceEngine: out-of-order result (FIFO invariant broken)");
  }
  ++collected_;
  bump(wake_);  // a freed slot lets the worker flush spilled results
  m_ring_depth_->set(static_cast<double>(outstanding()));
  return true;
}

InferResult InferenceEngine::collect() {
  if (outstanding() == 0) {
    throw std::logic_error("InferenceEngine::collect: no outstanding jobs");
  }
  InferResult out;
  while (true) {
    const std::uint32_t seen = wake_.load(std::memory_order_acquire);
    if (try_collect(out)) return out;
    wake_.wait(seen, std::memory_order_acquire);
  }
}

InferenceEngine::Stats InferenceEngine::stats() const {
  Stats s;
  s.submitted = submitted_;
  s.completed = completed_.value();
  s.backpressure_waits = backpressure_waits_;
  s.ring_high_water = ring_high_water_;
  s.rows_scored = rows_scored_.value();
  return s;
}

void InferenceEngine::publish_metrics() const {
  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("ids.infer.ring_high_water").set(static_cast<double>(ring_high_water_));
  reg.gauge("ids.infer.worker_batches").set(static_cast<double>(completed_.value()));
  reg.gauge("ids.infer.worker_rows").set(static_cast<double>(rows_scored_.value()));
  if (backpressure_waits_ > m_backpressure_->value()) {
    m_backpressure_->inc(backpressure_waits_ - m_backpressure_->value());
  }
}

void InferenceEngine::worker_loop() {
  Job job;
  ml::Verdicts verdicts;
  // Finished results that found the results ring full, in order. Spilling
  // here instead of blocking keeps the worker draining jobs_ no matter how
  // long the caller defers collecting, so submit() can only ever wait on
  // the jobs ring — which this loop always empties. (Blocking on a full
  // results ring would wedge the pair: worker stuck pushing, caller stuck
  // in submit(), nobody collecting.)
  std::deque<InferResult> overflow;
  auto flush_overflow = [this, &overflow] {
    while (!overflow.empty() && results_.try_push(std::move(overflow.front()))) {
      overflow.pop_front();
      bump(wake_);
    }
  };
  while (true) {
    const std::uint32_t seen = wake_.load(std::memory_order_acquire);
    flush_overflow();
    if (!jobs_.try_pop(job)) {
      if (stop_.load(std::memory_order_acquire)) {
        // Drain anything raced in between the stop flag and the last push.
        if (!jobs_.try_pop(job)) {
          // Spilled results the caller never collected die with the
          // engine; waiting for a collect that will never come would
          // hang the destructor's join.
          flush_overflow();
          return;
        }
      } else {
        // Idle: sleep until a submit, a collect or stop bumps the word.
        wake_.wait(seen, std::memory_order_acquire);
        continue;
      }
    }
    const std::uint64_t t0 = now_ns();
    const ml::Classifier& model = job.model ? *job.model : model_;
    model.score_batch(job.x, verdicts);
    job.model.reset();  // don't pin a swapped-out version while idle
    const std::uint64_t t1 = now_ns();

    InferResult res;
    res.seq = job.seq;
    res.verdicts = verdicts;
    res.inference_ns = t1 - t0;
    res.queue_wait_ns = t0 > job.submit_wall_ns ? t0 - job.submit_wall_ns : 0;
    rows_scored_.inc(res.verdicts.size());
    completed_.inc();
    if (!overflow.empty() || !results_.try_push(std::move(res))) {
      overflow.push_back(std::move(res));
    } else {
      bump(wake_);
    }
  }
}

}  // namespace ddoshield::ids
