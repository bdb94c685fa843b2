#include "algorithms/programs.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace g10::algorithms {

using graph::Graph;
using graph::VertexId;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Minimum over a span folded through four independent accumulators so the
/// compiler can vectorize what a single serial min chain cannot. min is
/// order-independent bitwise (no NaNs reach these loops), so the regrouping
/// returns exactly what the serial fold would.
double min_over(std::span<const double> values, double init) {
  double a = init;
  double b = init;
  double c = init;
  double d = init;
  std::size_t i = 0;
  for (; i + 4 <= values.size(); i += 4) {
    a = std::min(a, values[i]);
    b = std::min(b, values[i + 1]);
    c = std::min(c, values[i + 2]);
    d = std::min(d, values[i + 3]);
  }
  for (; i < values.size(); ++i) a = std::min(a, values[i]);
  return std::min(std::min(a, b), std::min(c, d));
}
}  // namespace

bool is_algorithm_name(std::string_view name) {
  return std::find(kAlgorithmNames.begin(), kAlgorithmNames.end(), name) !=
         kAlgorithmNames.end();
}

double mode_smallest_label(std::span<const double> values) {
  G10_CHECK(!values.empty());
  thread_local std::vector<double> scratch;
  scratch.assign(values.begin(), values.end());
  std::sort(scratch.begin(), scratch.end());
  double best = scratch.front();
  std::size_t best_count = 0;
  std::size_t i = 0;
  while (i < scratch.size()) {
    std::size_t j = i;
    while (j < scratch.size() && scratch[j] == scratch[i]) ++j;
    if (j - i > best_count) {
      best_count = j - i;
      best = scratch[i];
    }
    i = j;
  }
  return best;
}

double mode_smallest_label(std::vector<double> values) {
  return mode_smallest_label(std::span<const double>(values));
}

// ---------------------------------------------------------------- PageRank

PageRank::PageRank(int iterations, double damping)
    : iterations_(iterations), damping_(damping) {
  G10_CHECK(iterations >= 1);
  G10_CHECK(damping > 0.0 && damping < 1.0);
}

std::string PageRank::name() const { return "PageRank"; }

double PageRank::initial_value(VertexId, const Graph& g) const {
  return 1.0 / static_cast<double>(g.vertex_count());
}

void PageRank::compute(VertexId v, double& value,
                       std::span<const double> messages, int superstep,
                       const Graph& g, PregelOutbox& out) const {
  const double n = static_cast<double>(g.vertex_count());
  if (superstep > 0) {
    double sum = 0.0;
    for (double m : messages) sum += m;
    value = (1.0 - damping_) / n + damping_ * sum;
  }
  if (superstep < iterations_) {
    const auto degree = g.out_degree(v);
    if (degree > 0) {
      out.send_to_all_neighbors = true;
      out.message = value / static_cast<double>(degree);
    }
  } else {
    out.vote_to_halt = true;
  }
}

bool PageRank::initially_active(VertexId, const Graph&) const { return true; }

double PageRank::apply(VertexId, double, std::span<const VertexId> neighbors,
                       std::span<const double> neighbor_values,
                       std::span<const double>, int, const Graph& g) const {
  const double n = static_cast<double>(g.vertex_count());
  double sum = 0.0;
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    sum += neighbor_values[i] / static_cast<double>(g.out_degree(neighbors[i]));
  }
  return (1.0 - damping_) / n + damping_ * sum;
}

bool PageRank::scatter_activates(VertexId, double, double, int iteration) const {
  return iteration + 1 < iterations_;
}

// --------------------------------------------------------------------- BFS

Bfs::Bfs(VertexId source) : source_(source) {}

std::string Bfs::name() const { return "BFS"; }

int Bfs::max_supersteps() const {
  // Diameter-bounded; a generous hard cap keeps runaway traces impossible.
  return 10'000;
}

int Bfs::max_iterations() const { return 10'000; }

double Bfs::initial_value(VertexId v, const Graph&) const {
  return v == source_ ? 0.0 : kInf;
}

void Bfs::compute(VertexId v, double& value, std::span<const double> messages,
                  int superstep, const Graph&, PregelOutbox& out) const {
  if (superstep == 0) {
    if (v == source_) {
      out.send_to_all_neighbors = true;
      out.message = 1.0;
    }
    out.vote_to_halt = true;
    return;
  }
  const double best = min_over(messages, kInf);
  if (best < value) {
    value = best;
    out.send_to_all_neighbors = true;
    out.message = value + 1.0;
  }
  out.vote_to_halt = true;
}

bool Bfs::initially_active(VertexId v, const Graph&) const {
  return v == source_;
}

double Bfs::apply(VertexId, double current, std::span<const VertexId>,
                  std::span<const double> neighbor_values,
                  std::span<const double>, int, const Graph&) const {
  // min(d_i + 1) == min(d_i) + 1 exactly: +1 is monotone, and equal results
  // are bitwise identical, so hoisting the add out of the fold is safe.
  return std::min(current, min_over(neighbor_values, kInf) + 1.0);
}

bool Bfs::scatter_activates(VertexId, double old_value, double new_value,
                            int iteration) const {
  // The source settles at distance 0 in iteration 0 without "improving";
  // it must still signal its neighbors to start the traversal.
  if (iteration == 0 && new_value == 0.0) return true;
  return new_value < old_value;
}

// --------------------------------------------------------------------- WCC

std::string Wcc::name() const { return "WCC"; }

int Wcc::max_supersteps() const { return 10'000; }
int Wcc::max_iterations() const { return 10'000; }

double Wcc::initial_value(VertexId v, const Graph&) const {
  return static_cast<double>(v);
}

void Wcc::compute(VertexId, double& value, std::span<const double> messages,
                  int superstep, const Graph&, PregelOutbox& out) const {
  if (superstep == 0) {
    out.send_to_all_neighbors = true;
    out.message = value;
    out.vote_to_halt = true;
    return;
  }
  const double best = min_over(messages, value);
  if (best < value) {
    value = best;
    out.send_to_all_neighbors = true;
    out.message = value;
  }
  out.vote_to_halt = true;
}

bool Wcc::initially_active(VertexId, const Graph&) const { return true; }

double Wcc::apply(VertexId, double current, std::span<const VertexId>,
                  std::span<const double> neighbor_values,
                  std::span<const double>, int, const Graph&) const {
  return min_over(neighbor_values, current);
}

bool Wcc::scatter_activates(VertexId, double old_value, double new_value,
                            int) const {
  return new_value < old_value;
}

// -------------------------------------------------------------------- CDLP

Cdlp::Cdlp(int iterations) : iterations_(iterations) {
  G10_CHECK(iterations >= 1);
}

std::string Cdlp::name() const { return "CDLP"; }

double Cdlp::initial_value(VertexId v, const Graph&) const {
  return static_cast<double>(v);
}

void Cdlp::compute(VertexId, double& value, std::span<const double> messages,
                   int superstep, const Graph&, PregelOutbox& out) const {
  if (superstep > 0 && !messages.empty()) {
    value = mode_smallest_label(messages);
  }
  if (superstep < iterations_) {
    out.send_to_all_neighbors = true;
    out.message = value;
  } else {
    out.vote_to_halt = true;
  }
}

bool Cdlp::initially_active(VertexId, const Graph&) const { return true; }

double Cdlp::apply(VertexId, double current, std::span<const VertexId>,
                   std::span<const double> neighbor_values,
                   std::span<const double>, int, const Graph&) const {
  if (neighbor_values.empty()) return current;
  return mode_smallest_label(neighbor_values);
}

bool Cdlp::scatter_activates(VertexId, double, double, int iteration) const {
  return iteration + 1 < iterations_;
}


// -------------------------------------------------------------------- SSSP

Sssp::Sssp(VertexId source) : source_(source) {}

std::string Sssp::name() const { return "SSSP"; }

int Sssp::max_supersteps() const { return 100'000; }
int Sssp::max_iterations() const { return 100'000; }

double Sssp::initial_value(VertexId v, const Graph&) const {
  return v == source_ ? 0.0 : kInf;
}

void Sssp::compute(VertexId v, double& value, std::span<const double> messages,
                   int superstep, const Graph&, PregelOutbox& out) const {
  if (superstep == 0) {
    if (v == source_) {
      out.send_to_all_neighbors = true;
      out.message = 0.0;
      out.add_edge_weight = true;
    }
    out.vote_to_halt = true;
    return;
  }
  const double best = min_over(messages, kInf);
  if (best < value) {
    value = best;
    out.send_to_all_neighbors = true;
    out.message = value;
    out.add_edge_weight = true;
  }
  out.vote_to_halt = true;
}

bool Sssp::initially_active(VertexId v, const Graph&) const {
  return v == source_;
}

double Sssp::apply(VertexId, double current, std::span<const VertexId>,
                   std::span<const double> neighbor_values,
                   std::span<const double> neighbor_weights, int,
                   const Graph&) const {
  if (neighbor_weights.empty()) {
    // Unweighted: every edge weighs 1, same fold as BFS.
    return std::min(current, min_over(neighbor_values, kInf) + 1.0);
  }
  double best = current;
  for (std::size_t i = 0; i < neighbor_values.size(); ++i) {
    best = std::min(best, neighbor_values[i] + neighbor_weights[i]);
  }
  return best;
}

bool Sssp::scatter_activates(VertexId, double old_value, double new_value,
                             int iteration) const {
  if (iteration == 0 && new_value == 0.0) return true;
  return new_value < old_value;
}

}  // namespace g10::algorithms
