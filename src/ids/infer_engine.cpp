#include "ids/infer_engine.hpp"

#include <chrono>
#include <stdexcept>

namespace ddoshield::ids {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

const ml::Classifier& trained(const ml::Classifier& model) {
  if (!model.trained()) {
    throw std::logic_error("InferenceEngine: model must be trained before offloading");
  }
  return model;
}

}  // namespace

InferenceEngine::InferenceEngine(const ml::Classifier& model, InferEngineConfig config)
    : model_{trained(model)},
      m_backpressure_{&obs::MetricsRegistry::global().counter("ids.infer.backpressure_waits")},
      m_batches_{&obs::MetricsRegistry::global().counter("ids.infer.batches")},
      m_ring_depth_{&obs::MetricsRegistry::global().gauge("ids.infer.ring_depth")},
      m_batch_rows_{&obs::MetricsRegistry::global().histogram("ids.infer.batch_rows")},
      worker_{config.ring_capacity,
              [this](std::uint64_t seq, Job& job) { return score(seq, job); }} {}

std::uint64_t InferenceEngine::submit(ml::DesignMatrix x) {
  return submit(std::move(x), nullptr);
}

std::uint64_t InferenceEngine::submit(ml::DesignMatrix x,
                                      std::shared_ptr<const ml::Classifier> model) {
  const std::size_t rows = x.rows();
  const std::uint64_t seq = worker_.submit(Job{now_ns(), std::move(x), std::move(model)});
  m_batches_->inc();
  m_batch_rows_->observe(rows);
  m_ring_depth_->set(static_cast<double>(outstanding()));
  return seq;
}

bool InferenceEngine::try_collect(InferResult& out) {
  if (!worker_.try_collect(out)) return false;
  m_ring_depth_->set(static_cast<double>(outstanding()));
  return true;
}

InferResult InferenceEngine::collect() {
  InferResult out = worker_.collect();
  m_ring_depth_->set(static_cast<double>(outstanding()));
  return out;
}

InferenceEngine::Stats InferenceEngine::stats() const {
  const auto w = worker_.stats();
  Stats s;
  s.submitted = w.submitted;
  s.completed = w.completed;
  s.backpressure_waits = w.backpressure_waits;
  s.ring_high_water = w.high_water;
  s.rows_scored = rows_scored_.value();
  return s;
}

void InferenceEngine::publish_metrics() const {
  const Stats s = stats();
  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("ids.infer.ring_high_water").set(static_cast<double>(s.ring_high_water));
  reg.gauge("ids.infer.worker_batches").set(static_cast<double>(s.completed));
  reg.gauge("ids.infer.worker_rows").set(static_cast<double>(s.rows_scored));
  if (s.backpressure_waits > m_backpressure_->value()) {
    m_backpressure_->inc(s.backpressure_waits - m_backpressure_->value());
  }
}

InferResult InferenceEngine::score(std::uint64_t seq, Job& job) {
  InferResult res;
  res.seq = seq;
  const std::uint64_t t0 = now_ns();
  const ml::Classifier& model = job.model ? *job.model : model_;
  model.score_batch(job.x, res.verdicts);
  job.model.reset();  // don't pin a swapped-out version while idle
  const std::uint64_t t1 = now_ns();
  res.inference_ns = t1 - t0;
  res.queue_wait_ns = t0 > job.submit_wall_ns ? t0 - job.submit_wall_ns : 0;
  rows_scored_.inc(res.verdicts.size());
  return res;
}

}  // namespace ddoshield::ids
