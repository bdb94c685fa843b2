#include "trace/det_fold.hpp"

#include <string>

namespace g10::trace {

void fold_events(DetHasher& hasher, const NodeLog& log) {
  std::string key;
  for (const PhaseEvent& event : log.phase_events) {
    key.clear();
    log.paths.append_path(event.node, key);
    hasher.fold_u64(key, event.kind == PhaseEventRecord::Kind::Begin ? 1 : 2);
    hasher.fold_i64(key, event.time);
    hasher.fold_i64(key, event.machine);
  }
  for (const BlockingEvent& event : log.blocking_events) {
    key.clear();
    log.paths.append_path(event.node, key);
    hasher.fold_bytes(key, log.resources[event.resource]);
    hasher.fold_i64(key, event.begin);
    hasher.fold_i64(key, event.end);
    hasher.fold_i64(key, event.machine);
  }
}

void fold_run(DetHasher& hasher, const RunArtifacts& artifacts) {
  fold_events(hasher, intern_events(artifacts.phase_events,
                                    artifacts.blocking_events));
  hasher.fold_i64("run/makespan", artifacts.makespan);
  hasher.fold_double("run/comm", artifacts.comm.remote_bytes_total);
  hasher.fold_i64("run/comm", artifacts.comm.channel_plans);
  hasher.fold_i64("run/comm", artifacts.comm.batch_flushes);
  for (const std::uint64_t messages : artifacts.comm.messages_per_step) {
    hasher.fold_u64("run/comm", messages);
  }
  for (const double value : artifacts.vertex_values) {
    hasher.fold_double("run/vertex_values", value);
  }
}

void fold_samples(DetHasher& hasher,
                  std::span<const MonitoringSampleRecord> samples) {
  std::string key;
  for (const MonitoringSampleRecord& sample : samples) {
    key = "monitor/";
    key += sample.resource;
    key += "/m";
    key += std::to_string(sample.machine);
    hasher.fold_i64(key, sample.time);
    hasher.fold_double(key, sample.value);
  }
}

}  // namespace g10::trace
