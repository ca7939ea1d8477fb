#include "features/extractor.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace ddoshield::features {

FeatureAggregator::FeatureAggregator(AggregatorConfig config) : config_{config} {
  if (config_.window <= util::SimTime{}) {
    throw std::invalid_argument("FeatureAggregator: window must be positive");
  }
  auto& reg = obs::MetricsRegistry::global();
  m_packets_ = &reg.counter("features.packets_added");
  m_windows_ = &reg.counter("features.windows_emitted");
  m_extract_ns_ = &reg.histogram("features.extract_ns");
}

void FeatureAggregator::add(const capture::PacketRecord& record) {
  const auto window_of = [this](util::SimTime t) {
    return static_cast<std::uint64_t>(t.ns() / config_.window.ns());
  };
  const std::uint64_t w = window_of(record.timestamp);
  if (!have_window_) {
    current_window_ = w;
    have_window_ = true;
  } else if (w != current_window_) {
    if (w < current_window_) {
      throw std::invalid_argument("FeatureAggregator::add: packets out of order");
    }
    close_window();
    current_window_ = w;
  }
  buffer_.add(record);
  m_packets_->inc();
}

void FeatureAggregator::flush() {
  if (!buffer_.empty()) close_window();
  have_window_ = false;
}

void FeatureAggregator::close_window() {
  if (buffer_.empty()) return;
  WindowOutput out;
  out.window_index = current_window_;
  out.window_start =
      util::SimTime::nanos(static_cast<std::int64_t>(current_window_) * config_.window.ns());
  {
    obs::ScopedTimer timer{*m_extract_ns_};
    WindowBuffer* const buffers[] = {&buffer_};
    ClosedWindow closed = features::close_window(buffers, config_.window);
    out.stats = closed.stats;
    out.rows = std::move(closed.rows);
    out.labels = std::move(closed.truths);
  }
  ++windows_emitted_;
  m_windows_->inc();
  if (on_window_) on_window_(out);
}

FeatureMatrix extract_features(const capture::Dataset& dataset, AggregatorConfig config) {
  FeatureMatrix matrix;
  matrix.rows.reserve(dataset.size());
  matrix.labels.reserve(dataset.size());
  FeatureAggregator agg{config};
  agg.set_on_window([&matrix](const WindowOutput& out) {
    matrix.rows.insert(matrix.rows.end(), out.rows.begin(), out.rows.end());
    matrix.labels.insert(matrix.labels.end(), out.labels.begin(), out.labels.end());
  });
  for (const auto& r : dataset.records()) agg.add(r);
  agg.flush();
  return matrix;
}

}  // namespace ddoshield::features
