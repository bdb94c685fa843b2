#include "grade10/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace g10::core {

CheckedCharacterization characterize_checked(
    const CharacterizationInput& input) {
  TraceBuild built;
  if (input.model != nullptr && input.resources != nullptr) {
    built = ExecutionTrace::build_checked(
        *input.model, *input.resources, input.phase_events,
        input.blocking_events, input.samples, input.trace_options);
  }
  return characterize_trace(input, std::move(built));
}

CheckedCharacterization characterize_trace(const CharacterizationInput& input,
                                           TraceBuild built) {
  CheckedCharacterization out;
  auto& errors = out.status.errors;
  if (input.model == nullptr) errors.push_back("missing execution model");
  if (input.resources == nullptr) errors.push_back("missing resource model");
  if (input.rules == nullptr) errors.push_back("missing attribution rules");
  if (!errors.empty()) return out;
  if (built.error) {
    errors.push_back("trace ingestion failed: " + *built.error);
    return out;
  }

  const TimesliceGrid grid(input.config.timeslice);
  CharacterizationResult result;
  result.grid = grid;
  result.trace = std::move(built.trace);
  result.monitored = std::move(built.monitored);
  out.status.warnings = result.trace.warnings();
  try {
    // One pool for every downstream stage; at one thread every fan-out runs
    // inline on this thread.
    ThreadPool pool(
        static_cast<std::size_t>(std::max(input.config.threads, 0)));
    result.demand = estimate_demand(*input.resources, *input.rules,
                                    result.trace, grid, &pool);
    result.usage = attribute_usage(result.demand, result.monitored, grid,
                                   /*constant_strawman=*/false, &pool);
    // The per-leaf active fractions are spent once attributed; later
    // stages read only the attributed usage and the per-slice sums.
    for (DemandMatrix& matrix : result.demand) {
      matrix.leaves = std::vector<LeafDemand>();
    }
    result.bottlenecks = detect_bottlenecks(result.usage, result.trace, grid,
                                            input.config, &pool);
    IssueDetector detector(*input.model, *input.resources, result.trace, grid,
                           input.config);
    result.issues =
        detector.detect(result.usage, result.bottlenecks, &pool);
    result.baseline_makespan = detector.baseline_makespan();
    result.critical_path = detector.critical_path();
  } catch (const CheckError& e) {
    // The trace itself is intact; return it so callers can still inspect
    // the run's structure even though the characterization is partial.
    errors.push_back(std::string("characterization failed: ") + e.what());
    out.result = std::move(result);
    return out;
  }
  out.result = std::move(result);
  return out;
}

CharacterizationResult characterize(const CharacterizationInput& input) {
  G10_CHECK(input.model != nullptr);
  G10_CHECK(input.resources != nullptr);
  G10_CHECK(input.rules != nullptr);
  CheckedCharacterization checked = characterize_checked(input);
  G10_CHECK_MSG(checked.status.ok() && checked.result.has_value(),
                (checked.status.errors.empty()
                     ? std::string("characterization failed")
                     : checked.status.errors.front()));
  return std::move(*checked.result);
}

}  // namespace g10::core
