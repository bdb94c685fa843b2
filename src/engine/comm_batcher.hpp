// Per-worker, per-destination send coalescing of the Pregel engine
// (DESIGN.md §13).
//
// A Pregel compute thread produces remote traffic chunk by chunk. Handing
// each chunk's traffic to the substrate as one transfer per destination
// would, with a live sim::ReliableChannel, cost one ack'd plan — timeout
// draws, backoff, retransmit bookkeeping — per chunk per destination. Real
// systems (Dorylus' CommManager framing, GraphLab's buffered remote updates)
// instead coalesce small sends into bounded per-destination buffers and
// flush a buffer when it reaches a frame-size limit or a flush deadline
// expires. CommBatcher is that layer: a dense workers x workers byte matrix
// the engine deposits into, with the engine deciding *when* a returned
// threshold crossing or a deadline turns into an actual NIC handoff /
// channel plan.
//
// The batcher itself is simulation-agnostic: it tracks bytes and counts
// flushes only. Time never enters this class — the engine owns the
// simulated-time flush timers so crash epochs can cancel them.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace g10::engine {

class CommBatcher {
 public:
  /// Frame size: a (worker, destination) buffer that reaches this many
  /// bytes is flushed immediately.
  static constexpr double kFrameBytes = 262144.0;
  /// Simulated-time flush deadline: traffic must not sit in a buffer longer
  /// than this even if the frame size is never reached.
  static constexpr DurationNs kFlushAfter = kMillisecond;

  /// What a deposit did to the (src, dst) buffer; the engine turns these
  /// into flushes and timer arms.
  struct Deposit {
    bool crossed = false;        ///< buffer reached the frame size
    bool first_pending = false;  ///< src went from idle to holding bytes
  };

  /// One drained buffer from take_all().
  struct Flush {
    int dst = 0;
    double bytes = 0.0;
  };

  explicit CommBatcher(int workers, double frame_bytes = kFrameBytes);

  Deposit deposit(int src, int dst, double bytes);

  /// Total buffered bytes awaiting flush on `src`.
  double pending(int src) const {
    return pending_[static_cast<std::size_t>(src)];
  }

  /// Drains the (src, dst) buffer; returns its bytes (0 if already empty).
  double take(int src, int dst);

  /// Drains every non-empty buffer of `src` into `out` (cleared first),
  /// ascending by destination.
  void take_all(int src, std::vector<Flush>& out);

  /// Crash teardown: the worker's buffered traffic is simply lost, exactly
  /// like its in-flight NIC queue. No flush is counted.
  void clear(int src);

  /// Non-empty buffers drained so far (by take or take_all).
  std::int64_t flushes() const { return flushes_; }

 private:
  double& buffer(int src, int dst) {
    return buffers_[static_cast<std::size_t>(src) *
                        static_cast<std::size_t>(workers_) +
                    static_cast<std::size_t>(dst)];
  }

  double frame_bytes_;
  int workers_;
  std::vector<double> buffers_;  ///< workers x workers, row-major by src
  std::vector<double> pending_;  ///< per-src totals
  std::int64_t flushes_ = 0;
};

}  // namespace g10::engine
