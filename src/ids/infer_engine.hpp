// Off-thread batched inference: the detection half of Fig. 2 lifted off
// the simulation (forwarding) thread.
//
// The simulation thread submits one job per closed window — a design
// matrix of that window's feature rows — to a util::FifoWorker; its one
// scoring thread runs the model's batched score_batch kernel on each job
// in FIFO order, and the simulation thread collects the verdicts in
// submission order.
//
// Determinism argument (DESIGN.md §10): the worker runs jobs in exactly
// submission order and returns results in that order (it checks the FIFO
// property itself); score_batch is a pure function of (model, matrix) and
// bit-identical to the inline scalar loop. Therefore the verdict
// *sequence* is identical to inline scoring — only wall-clock timing
// (which never feeds back into the simulation) differs.
//
// Thread rules: submit/try_collect/collect and publish_metrics are
// simulation-thread only; the job function touches nothing but the job,
// the const model and the RelaxedCounter below (obs's registry
// instruments are unsynchronised by design). Waiting follows the worker:
// an idle engine costs no CPU, and only a back-pressured submit()
// yield-spins.
#pragma once

#include <cstdint>
#include <memory>

#include "ml/classifier.hpp"
#include "ml/design_matrix.hpp"
#include "obs/metrics.hpp"
#include "util/fifo_worker.hpp"

namespace ddoshield::ids {

struct InferEngineConfig {
  /// Jobs in flight (ring slots). A full ring back-pressures submit(),
  /// which spin-yields until the worker frees a slot — counted, so the
  /// obs snapshot shows when the scoring thread cannot keep up.
  std::size_t ring_capacity = 8;
};

/// One scored job, returned in submission order.
struct InferResult {
  std::uint64_t seq = 0;
  ml::Verdicts verdicts;
  std::uint64_t inference_ns = 0;  // worker-side wall time for the batch
  /// Wall time the job sat in the ring before the worker picked it up
  /// (submit stamp to batch start) — the flight recorder's ring-wait
  /// series, reconcilable against the backpressure counters.
  std::uint64_t queue_wait_ns = 0;
};

class InferenceEngine {
 public:
  /// The model must stay trained and unmutated while the engine lives.
  explicit InferenceEngine(const ml::Classifier& model, InferEngineConfig config = {});

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Hands one batch to the scoring thread; returns its sequence number.
  /// Spin-waits (never drops) when the ring is full.
  std::uint64_t submit(ml::DesignMatrix x);

  /// Like submit(), but the job carries a model override: the worker
  /// scores with *model (null = the construction-time model). This is the
  /// lifecycle hot-swap path — each job pins the model version that was
  /// live at submit time via the shared_ptr, so in-flight windows keep
  /// scoring with their own model across a swap and old versions are
  /// freed only when their last job completes.
  std::uint64_t submit(ml::DesignMatrix x, std::shared_ptr<const ml::Classifier> model);

  /// Non-blocking: pops the oldest completed result, if any.
  bool try_collect(InferResult& out);

  /// Blocking: waits for the oldest outstanding result.
  InferResult collect();

  /// Jobs submitted but not yet collected.
  std::size_t outstanding() const { return worker_.outstanding(); }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;          // worker-side
    std::uint64_t backpressure_waits = 0; // submits that found the ring full
    std::uint64_t ring_high_water = 0;    // max jobs in flight observed
    std::uint64_t rows_scored = 0;        // worker-side
  };
  Stats stats() const;

  /// Copies engine stats into the global registry ("ids.infer.*" —
  /// ring_depth, backpressure, batch_rows); simulation-thread only.
  void publish_metrics() const;

 private:
  struct Job {
    std::uint64_t submit_wall_ns = 0;
    ml::DesignMatrix x;
    std::shared_ptr<const ml::Classifier> model;  // null: construction-time model
  };

  InferResult score(std::uint64_t seq, Job& job);

  const ml::Classifier& model_;
  obs::Counter* m_backpressure_;
  obs::Counter* m_batches_;
  obs::Gauge* m_ring_depth_;
  obs::Histogram* m_batch_rows_;
  obs::RelaxedCounter rows_scored_;  // worker-side

  util::FifoWorker<Job, InferResult> worker_;  // last member: its thread uses the rest
};

}  // namespace ddoshield::ids
