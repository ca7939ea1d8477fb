#include "ml/lifecycle/retrainer.hpp"

#include <chrono>

#include "ml/model_store.hpp"

namespace ddoshield::ml::lifecycle {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

Retrainer::Retrainer(const Classifier& deployment_reference)
    : reference_{deployment_reference},
      worker_{kRingCapacity, [this](std::uint64_t, RetrainJob& job) { return retrain(job); }} {}

Retrainer::Stats Retrainer::stats() const {
  const auto w = worker_.stats();
  Stats s;
  s.submitted = w.submitted;
  s.completed = w.completed;
  s.noops = noops_.value();
  return s;
}

RetrainResult Retrainer::retrain(RetrainJob& job) {
  const std::uint64_t t0 = now_ns();
  RetrainResult res;
  res.version = job.version;
  res.trigger_window = job.trigger_window;
  std::unique_ptr<Classifier> clone = deserialize_model(job.model_bytes);
  // Adopt BEFORE updating: serialization carries only parameters, so the
  // clone's retrain hyperparameters (CNN fine-tune epochs, RF refresh
  // fraction, ...) reset to defaults on load. Copying the deployment's
  // knobs first makes the update run under the deployed configuration.
  clone->adopt_deployment(reference_);
  res.updated = clone->incremental_update(job.x, job.y, job.rng);
  if (res.updated) {
    res.model = std::shared_ptr<const Classifier>{std::move(clone)};
  } else {
    noops_.inc();
  }
  res.retrain_ns = now_ns() - t0;
  return res;
}

}  // namespace ddoshield::ml::lifecycle
