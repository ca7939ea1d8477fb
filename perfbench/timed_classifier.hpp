// Benchmark-owned timing wrapper around a served classifier.
//
// The traced run serves this wrapper instead of the model itself, so the
// benchmark can attribute wall time to the ml layer from outside: every
// score_batch() and predict() call forwards to the wrapped model and adds
// its steady-clock duration and row count to the wrapper's totals. The
// verdicts are the wrapped model's, untouched (perfbench_selftest checks
// that wrapped and unwrapped runs give the same verdict digest).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

#include "ml/classifier.hpp"

namespace perfbench {

class TimedClassifier : public ddoshield::ml::Classifier {
 public:
  explicit TimedClassifier(const ddoshield::ml::Classifier& inner) : inner_{inner} {}

  std::string name() const override { return inner_.name(); }
  void fit(const ddoshield::ml::DesignMatrix&, const std::vector<int>&) override {
    throw std::logic_error("TimedClassifier: serving wrapper only; fit the inner model");
  }
  int predict(std::span<const double> row) const override {
    const auto t0 = Clock::now();
    const int verdict = inner_.predict(row);
    account(t0, 1);
    return verdict;
  }
  void score_batch(const ddoshield::ml::DesignMatrix& x,
                   ddoshield::ml::Verdicts& out) const override {
    const auto t0 = Clock::now();
    inner_.score_batch(x, out);
    account(t0, x.rows());
  }
  const ddoshield::ml::StandardScaler* serving_scaler() const override {
    return inner_.serving_scaler();
  }
  bool trained() const override { return inner_.trained(); }
  void save(ddoshield::util::ByteWriter& w) const override { inner_.save(w); }
  void load(ddoshield::util::ByteReader&) override {
    throw std::logic_error("TimedClassifier: serving wrapper only; load the inner model");
  }
  std::uint64_t parameter_bytes() const override { return inner_.parameter_bytes(); }
  std::uint64_t inference_scratch_bytes() const override {
    return inner_.inference_scratch_bytes();
  }

  std::uint64_t score_ns() const { return score_ns_.load(std::memory_order_relaxed); }
  std::uint64_t score_rows() const { return score_rows_.load(std::memory_order_relaxed); }

 private:
  using Clock = std::chrono::steady_clock;

  // Relaxed atomics: an offloading IDS may score on its engine thread.
  void account(Clock::time_point t0, std::uint64_t rows) const {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    score_ns_.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
    score_rows_.fetch_add(rows, std::memory_order_relaxed);
  }

  const ddoshield::ml::Classifier& inner_;
  mutable std::atomic<std::uint64_t> score_ns_{0};
  mutable std::atomic<std::uint64_t> score_rows_{0};
};

}  // namespace perfbench
