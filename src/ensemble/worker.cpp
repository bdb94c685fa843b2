#include "ensemble/worker.hpp"

#include <unistd.h>

#include <cerrno>
#include <chrono>

#include "ensemble/journal.hpp"

namespace g10::ensemble {

std::string format_status(const StatusEvent& event) {
  switch (event.kind) {
    case StatusEvent::Kind::kHeartbeat:
      return "hb";
    case StatusEvent::Kind::kStart:
      return "start " + format_key(event.key);
    case StatusEvent::Kind::kDone:
      return "done " + format_key(event.key) + " " +
             std::string(outcome_name(event.outcome));
  }
  return "hb";
}

std::optional<StatusEvent> parse_status_line(std::string_view line) {
  StatusEvent event;
  if (line == "hb") return event;
  const auto word = [&line]() -> std::string_view {
    const std::size_t space = line.find(' ');
    const std::string_view head = line.substr(0, space);
    line.remove_prefix(space == std::string_view::npos ? line.size()
                                                       : space + 1);
    return head;
  };
  const std::string_view verb = word();
  const auto key = parse_key(word());
  if (!key) return std::nullopt;
  event.key = *key;
  if (verb == "start") {
    if (!line.empty()) return std::nullopt;
    event.kind = StatusEvent::Kind::kStart;
    return event;
  }
  if (verb == "done") {
    const auto outcome = parse_outcome(word());
    if (!outcome || !line.empty()) return std::nullopt;
    event.kind = StatusEvent::Kind::kDone;
    event.outcome = *outcome;
    return event;
  }
  return std::nullopt;
}

StatusChannel::StatusChannel(int fd) : fd_(fd) {}

StatusChannel::~StatusChannel() {
  if (fd_ >= 0) ::close(fd_);
}

void StatusChannel::send(const StatusEvent& event) {
  if (fd_ < 0) return;
  std::string line = format_status(event);
  line += '\n';
  // One short write(2): atomic below PIPE_BUF, so the heartbeat thread and
  // the run thread can share the pipe without a lock. Once the supervisor
  // is gone, the write raises SIGPIPE and this worker dies with it.
  ssize_t n;
  do {
    n = ::write(fd_, line.data(), line.size());
  } while (n < 0 && errno == EINTR);
}

Heartbeat::Heartbeat(StatusChannel* channel, double interval_seconds)
    : channel_(channel),
      thread_([this, interval_seconds] { loop(interval_seconds); }) {}

Heartbeat::~Heartbeat() {
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

void Heartbeat::loop(double interval_seconds) {
  using clock = std::chrono::steady_clock;
  auto next = clock::now();
  while (!stop_.load(std::memory_order_acquire)) {
    if (clock::now() >= next) {
      channel_->heartbeat();
      next = clock::now() +
             std::chrono::duration_cast<clock::duration>(
                 std::chrono::duration<double>(interval_seconds));
    }
    // Short naps keep destruction prompt without busy-waiting.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace g10::ensemble
