#include "engine/comm_batcher.hpp"

#include "common/check.hpp"

namespace g10::engine {

CommBatcher::CommBatcher(int workers, double frame_bytes)
    : frame_bytes_(frame_bytes), workers_(workers) {
  G10_CHECK(workers >= 0);
  G10_CHECK(frame_bytes > 0.0);
  const auto n = static_cast<std::size_t>(workers);
  buffers_.assign(n * n, 0.0);
  pending_.assign(n, 0.0);
}

CommBatcher::Deposit CommBatcher::deposit(int src, int dst, double bytes) {
  G10_CHECK(bytes >= 0.0);
  Deposit result;
  if (bytes == 0.0) return result;
  result.first_pending = pending_[static_cast<std::size_t>(src)] == 0.0;
  double& buf = buffer(src, dst);
  buf += bytes;
  pending_[static_cast<std::size_t>(src)] += bytes;
  result.crossed = buf >= frame_bytes_;
  return result;
}

double CommBatcher::take(int src, int dst) {
  double& buf = buffer(src, dst);
  const double bytes = buf;
  if (bytes == 0.0) return 0.0;
  buf = 0.0;
  // Recompute the per-src total rather than subtracting: mixed-order
  // add/subtract could otherwise leave pending() at a stray epsilon when
  // every buffer is empty, and pending() == 0 gates the flush timers.
  double total = 0.0;
  for (int d = 0; d < workers_; ++d) total += buffer(src, d);
  pending_[static_cast<std::size_t>(src)] = total;
  ++flushes_;
  return bytes;
}

void CommBatcher::take_all(int src, std::vector<Flush>& out) {
  out.clear();
  for (int dst = 0; dst < workers_; ++dst) {
    double& buf = buffer(src, dst);
    if (buf == 0.0) continue;
    out.push_back(Flush{dst, buf});
    ++flushes_;
    buf = 0.0;
  }
  pending_[static_cast<std::size_t>(src)] = 0.0;
}

void CommBatcher::clear(int src) {
  for (int dst = 0; dst < workers_; ++dst) buffer(src, dst) = 0.0;
  pending_[static_cast<std::size_t>(src)] = 0.0;
}

}  // namespace g10::engine
