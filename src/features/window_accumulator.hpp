// One window-feature implementation for training and serving.
//
// WindowAccumulator folds records as they arrive (amortised as capture
// batches flush); WindowBuffer pairs it with the window's records; and
// close_window turns buffers into the window's stats and rows with an
// O(uniques) finalize. Training extraction, the flat IDS and every sharded
// IDS tap build their windows through these alone.
//
// Determinism across shard layouts (DESIGN.md §15): entropy finalisation
// sorts keys and every count tally is an exact integer, so both are
// fold-order free; the two Welford accumulators (sequence variance, mean
// payload) are not. Two rules make per-tap partials layout-invariant:
//
//  * canonical ties (WindowBuffer::Order::kCanonical): same-timestamp runs
//    fold in record-content order and rows emit in canonical_batch_order,
//    erasing the one order a shard layout can perturb (tie-breaks at equal
//    nanoseconds). Training and the flat IDS keep exact arrival order.
//  * ordered merge (`merge_from`): Chan's parallel-Welford combination is
//    deterministic only for a fixed order, so close_window merges buffers
//    in the order the caller lists them (tap creation order).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "capture/flat_table.hpp"
#include "capture/flow.hpp"
#include "capture/packet_record.hpp"
#include "capture/record_batch.hpp"
#include "features/schema.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"

namespace ddoshield::features {

/// Per-window statistical features (§IV-A of the paper): packet counts,
/// destination-port entropy, port-usage frequency patterns (short-lived
/// connections, repeated attempts), SYN-without-ACK analysis, flow rate,
/// and sequence-number variance.
struct WindowStats {
  std::uint64_t packet_count = 0;
  double byte_rate = 0.0;          // wire bytes per second over the window
  double dst_port_entropy = 0.0;   // bits
  double src_addr_entropy = 0.0;   // bits
  double syn_no_ack_ratio = 0.0;   // SYN-without-ACK / TCP packets
  double short_lived_flows = 0.0;  // 5-tuples with <=2 packets in window
  double repeated_attempts = 0.0;  // (src,dst_port) pairs with >=3 SYNs
  double seq_variance_log = 0.0;   // log10(1 + var(seq)) over TCP packets
  double mean_payload = 0.0;
  double udp_fraction = 0.0;

  /// Writes the statistical block of `row` (indices kWinPacketCount..).
  void fill_row(FeatureRow& row) const;
};

namespace detail {

struct U64Hash {
  std::size_t operator()(std::uint64_t v) const {
    return static_cast<std::size_t>(capture::mix_u64(v));
  }
};

// Flat-table drop-in for util::FrequencyCounter on the per-packet path.
// entropy() sums in ascending key order — the same order std::map iterates —
// so the two counter policies produce bit-identical feature values despite
// the hash table's unordered slots (and despite any merge history).
class FlatFrequencyCounter {
 public:
  void add(std::uint64_t key, std::uint64_t weight = 1) {
    counts_.find_or_insert(key) += weight;
    total_ += weight;
  }

  void merge_from(const FlatFrequencyCounter& other) {
    other.counts_.for_each(
        [this](const std::uint64_t& key, const std::uint64_t& c) { add(key, c); });
  }

  double entropy() const {
    if (total_ == 0 || counts_.size() <= 1) return 0.0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted;
    sorted.reserve(counts_.size());
    counts_.for_each([&](const std::uint64_t& key, const std::uint64_t& c) {
      sorted.emplace_back(key, c);
    });
    std::sort(sorted.begin(), sorted.end());
    double h = 0.0;
    const double n = static_cast<double>(total_);
    for (const auto& [key, c] : sorted) {
      if (c == 0) continue;
      const double p = static_cast<double>(c) / n;
      h -= p * std::log2(p);
    }
    return h;
  }

 private:
  capture::FlatTable<std::uint64_t, std::uint64_t, U64Hash> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace detail

class WindowAccumulator {
 public:
  /// `packet_hint` pre-sizes the flow table (capacity is invisible in the
  /// output values).
  explicit WindowAccumulator(std::size_t packet_hint = 0);

  void set_canonical_ties(bool on) { canonical_ties_ = on; }
  bool canonical_ties() const { return canonical_ties_; }

  /// Folds one record. Timestamps must be nondecreasing across calls when
  /// canonical ties are on (capture order guarantees this per tap).
  void add(const capture::PacketRecord& r);

  /// Folds the buffered same-timestamp run (canonical-ties mode). Must be
  /// called before merge_from reads this accumulator as a source; finalize
  /// calls it implicitly.
  void flush_ties();

  /// Folds another (tie-flushed) partial accumulator in. Deterministic
  /// only for a fixed merge order — see the header comment.
  void merge_from(const WindowAccumulator& other);

  /// O(uniques) close: walks the tables, never the packets. `window_duration`
  /// must be positive; it scales byte_rate.
  WindowStats finalize(util::SimTime window_duration);

  std::uint64_t packets() const { return packet_count_ + run_.size(); }

  void reset(std::size_t packet_hint = 0);

 private:
  void fold(const capture::PacketRecord& r);

  bool canonical_ties_ = false;
  std::vector<capture::PacketRecord> run_;  // pending same-timestamp run

  capture::FlatTable<capture::FlowKey, std::uint32_t, capture::FlowKeyHash> flow_packets_;
  capture::FlatTable<std::uint64_t, std::uint32_t, detail::U64Hash> syn_per_src_dport_;
  detail::FlatFrequencyCounter dst_ports_;
  detail::FlatFrequencyCounter src_addrs_;
  util::OnlineStats seq_stats_;
  util::OnlineStats payload_stats_;
  std::uint64_t packet_count_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t tcp_packets_ = 0;
  std::uint64_t udp_packets_ = 0;
  std::uint64_t syn_no_ack_ = 0;
};

/// Shard-layout-invariant total order on record content (timestamp first,
/// then every header field; uid excluded — uids encode the shard layout).
bool record_content_less(const capture::PacketRecord& a, const capture::PacketRecord& b);

/// Canonical ordering of the batch's rows: capture order with
/// same-timestamp runs sorted by record content — the row order matching
/// a canonical-ties fold.
std::vector<std::uint32_t> canonical_batch_order(const capture::RecordBatch& batch);

/// The feature row builder: appends to `rows` one FeatureRow per batch row
/// listed in `order` (absolute indices; empty = every row in arrival
/// order), the statistical block stamped once and the basic block filled
/// in per-column sweeps.
void make_feature_rows(const capture::RecordBatch& batch, std::span<const std::uint32_t> order,
                       const WindowStats& stats, std::vector<FeatureRow>& rows);

/// A closed window: its stats, and each row with its truth and source.
struct ClosedWindow {
  WindowStats stats;
  std::vector<FeatureRow> rows;
  std::vector<int> truths;             // 1 = malicious, row-aligned
  std::vector<std::uint32_t> sources;  // source address, row-aligned
};

/// One open window: its records, struct-of-arrays, and the accumulator
/// they fold into. The order is fixed at construction and survives clear().
class WindowBuffer {
 public:
  enum class Order {
    kArrival,    // fold and emit in arrival order (training, flat IDS)
    kCanonical,  // canonical ties (sharded IDS taps)
  };

  explicit WindowBuffer(Order order = Order::kArrival);

  void add(const capture::PacketRecord& r);
  void add_batch(const capture::RecordBatch& batch);

  const capture::RecordBatch& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  /// Heap footprint of the buffered columns, for resource accounting.
  std::size_t byte_capacity() const { return records_.byte_capacity(); }

  void clear();

 private:
  friend ClosedWindow close_window(std::span<WindowBuffer* const>, util::SimTime,
                                   std::uint64_t*);

  Order order_;
  capture::RecordBatch records_;
  WindowAccumulator acc_;
};

/// Closes the window held in `buffers`: merges their accumulators in the
/// listed order, finalizes once, emits each buffer's rows in its own order
/// and clears the buffers. `rows_ns`, when given, gains the wall time of
/// everything up to the rows (not the truths and sources).
ClosedWindow close_window(std::span<WindowBuffer* const> buffers, util::SimTime window,
                          std::uint64_t* rows_ns = nullptr);

}  // namespace ddoshield::features
