#include "grade10/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "grade10/det_fold.hpp"

namespace g10::core {

CheckedCharacterization characterize_checked(
    const CharacterizationInput& input, DetHasher* det) {
  TraceBuild built;
  if (input.model != nullptr && input.resources != nullptr) {
    built = ExecutionTrace::build_checked(
        *input.model, *input.resources, input.phase_events,
        input.blocking_events, input.samples, input.trace_options);
  }
  return characterize_trace(input, std::move(built), det);
}

CheckedCharacterization characterize_trace(const CharacterizationInput& input,
                                           TraceBuild built, DetHasher* det,
                                           TimesliceIndex window_slices) {
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
    const ExecutionTrace& trace = result.trace;
    // Pass A, per matrix in parallel: the demand of each matrix with a
    // monitored series, its per-slice series and saturation timeline, and
    // its per-slice sums freed again. Matrices without a series get no
    // demand at all.
    const DemandEstimator estimator(*input.resources, *input.rules, trace,
                                    grid);
    std::vector<DemandMatrix> matrices = estimator.matrices();
    std::vector<const ResourceSeries*> series(matrices.size(), nullptr);
    for (std::size_t m = 0; m < matrices.size(); ++m) {
      series[m] = result.monitored.find(matrices[m].resource,
                                        matrices[m].machine);
    }
    struct Slot {
      AttributedResource resource;
      ResourceSaturation saturation;
    };
    std::vector<Slot> slots(matrices.size());
    parallel_for(&pool, matrices.size(), 1, [&](std::size_t m) {
      if (series[m] == nullptr) return;
      DemandMatrix& matrix = matrices[m];
      estimator.fill(matrix);
      slots[m].resource = attribute_series(matrix, *series[m], grid);
      slots[m].saturation = saturation_of(slots[m].resource, grid);
      matrix.exact = std::vector<double>();
      matrix.variable = std::vector<double>();
    });
    result.bottlenecks = blocking_bottlenecks(trace);
    std::vector<std::size_t> attributed;
    for (std::size_t m = 0; m < matrices.size(); ++m) {
      if (series[m] == nullptr) continue;
      attributed.push_back(m);
      result.usage.resources.push_back(std::move(slots[m].resource));
      result.bottlenecks.saturation.push_back(std::move(slots[m].saturation));
    }
    slots = std::vector<Slot>();

    // Pass B, serially in matrix order and within a matrix in slice order:
    // one window of the matrix's table at a time is built, folded into the
    // bottlenecks, the issue detector's shrink, the per-type usage and the
    // digest, and freed; then the matrix's leaves are freed.
    IssueDetector detector(*input.model, *input.resources, trace, grid,
                           input.config);
    BottleneckTally tally(trace.instances().size());
    BottleneckShrink shrink;
    if (det != nullptr) fold_instances(*det, trace);
    for (std::size_t i = 0; i < attributed.size(); ++i) {
      DemandMatrix& matrix = matrices[attributed[i]];
      AttributedResource& resource = result.usage.resources[i];
      const ResourceSaturation& saturation = result.bottlenecks.saturation[i];
      if (det != nullptr) fold_series(*det, resource, *input.resources);
      AttributionWindows windows(matrix, window_slices);
      while (windows.next(resource)) {
        tally.add(resource, saturation, grid);
        detector.add_shrink(shrink, resource, result.usage,
                            result.bottlenecks);
        add_phase_usage(result.phase_usage, trace, resource, grid);
        if (det != nullptr) fold_entries(*det, resource, trace);
      }
      tally.close(resource.resource);
      release_table(resource);
      matrix = DemandMatrix();
    }
    tally.flush(result.bottlenecks);
    result.issues = detector.detect(shrink, result.bottlenecks, &pool);
    result.baseline_makespan = detector.baseline_makespan();
    result.critical_path = detector.critical_path();
    if (det != nullptr) fold_findings(*det, result, *input.resources);
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

CharacterizationResult characterize(const CharacterizationInput& input,
                                    DetHasher* det) {
  G10_CHECK(input.model != nullptr);
  G10_CHECK(input.resources != nullptr);
  G10_CHECK(input.rules != nullptr);
  CheckedCharacterization checked = characterize_checked(input, det);
  G10_CHECK_MSG(checked.status.ok() && checked.result.has_value(),
                (checked.status.errors.empty()
                     ? std::string("characterization failed")
                     : checked.status.errors.front()));
  return std::move(*checked.result);
}

}  // namespace g10::core
