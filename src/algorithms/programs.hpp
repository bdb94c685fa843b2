// The four algorithms of the paper's evaluation (§IV-A: two datasets × four
// algorithms), each implemented against both engine paradigms. A program
// object implements PregelProgram and GasProgram simultaneously so the same
// workload can be characterized on both systems (paper's Giraph-vs-
// PowerGraph comparison).
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "algorithms/gas_program.hpp"
#include "algorithms/pregel_program.hpp"

namespace g10::algorithms {

/// Fixed-iteration PageRank (see reference.hpp for the recurrence).
class PageRank : public PregelProgram, public GasProgram {
 public:
  explicit PageRank(int iterations, double damping = 0.85);

  std::string name() const override;
  // PregelProgram
  Combiner combiner() const override { return Combiner::kSum; }
  int max_supersteps() const override { return iterations_ + 1; }
  double initial_value(graph::VertexId v, const graph::Graph& g) const override;
  void compute(graph::VertexId v, double& value,
               std::span<const double> messages, int superstep,
               const graph::Graph& g, PregelOutbox& out) const override;
  // GasProgram
  int max_iterations() const override { return iterations_; }
  bool initially_active(graph::VertexId v,
                        const graph::Graph& g) const override;
  double apply(graph::VertexId v, double current,
               std::span<const graph::VertexId> neighbors,
               std::span<const double> neighbor_values,
               std::span<const double> neighbor_weights, int iteration,
               const graph::Graph& g) const override;
  bool scatter_activates(graph::VertexId v, double old_value,
                         double new_value, int iteration) const override;

 private:
  int iterations_;
  double damping_;
};

/// BFS hop distances from a source vertex.
class Bfs : public PregelProgram, public GasProgram {
 public:
  explicit Bfs(graph::VertexId source);

  std::string name() const override;
  Combiner combiner() const override { return Combiner::kMin; }
  int max_supersteps() const override;
  double initial_value(graph::VertexId v, const graph::Graph& g) const override;
  void compute(graph::VertexId v, double& value,
               std::span<const double> messages, int superstep,
               const graph::Graph& g, PregelOutbox& out) const override;
  int max_iterations() const override;
  bool initially_active(graph::VertexId v,
                        const graph::Graph& g) const override;
  double apply(graph::VertexId v, double current,
               std::span<const graph::VertexId> neighbors,
               std::span<const double> neighbor_values,
               std::span<const double> neighbor_weights, int iteration,
               const graph::Graph& g) const override;
  bool scatter_activates(graph::VertexId v, double old_value,
                         double new_value, int iteration) const override;

 private:
  graph::VertexId source_;
};

/// Weakly connected components by min-label propagation. Run on
/// symmetrized graphs.
class Wcc : public PregelProgram, public GasProgram {
 public:
  Wcc() = default;

  std::string name() const override;
  Combiner combiner() const override { return Combiner::kMin; }
  int max_supersteps() const override;
  double initial_value(graph::VertexId v, const graph::Graph& g) const override;
  void compute(graph::VertexId v, double& value,
               std::span<const double> messages, int superstep,
               const graph::Graph& g, PregelOutbox& out) const override;
  int max_iterations() const override;
  bool initially_active(graph::VertexId v,
                        const graph::Graph& g) const override;
  double apply(graph::VertexId v, double current,
               std::span<const graph::VertexId> neighbors,
               std::span<const double> neighbor_values,
               std::span<const double> neighbor_weights, int iteration,
               const graph::Graph& g) const override;
  bool scatter_activates(graph::VertexId v, double old_value,
                         double new_value, int iteration) const override;
};

/// Community detection by label propagation, fixed iteration count.
class Cdlp : public PregelProgram, public GasProgram {
 public:
  explicit Cdlp(int iterations);

  std::string name() const override;
  Combiner combiner() const override { return Combiner::kNone; }
  int max_supersteps() const override { return iterations_ + 1; }
  double initial_value(graph::VertexId v, const graph::Graph& g) const override;
  void compute(graph::VertexId v, double& value,
               std::span<const double> messages, int superstep,
               const graph::Graph& g, PregelOutbox& out) const override;
  int max_iterations() const override { return iterations_; }
  bool initially_active(graph::VertexId v,
                        const graph::Graph& g) const override;
  double apply(graph::VertexId v, double current,
               std::span<const graph::VertexId> neighbors,
               std::span<const double> neighbor_values,
               std::span<const double> neighbor_weights, int iteration,
               const graph::Graph& g) const override;
  bool scatter_activates(graph::VertexId v, double old_value,
                         double new_value, int iteration) const override;

 private:
  int iterations_;
};

/// Single-source shortest paths on weighted graphs (unweighted edges count
/// as 1): synchronous Bellman-Ford relaxation in both paradigms.
class Sssp : public PregelProgram, public GasProgram {
 public:
  explicit Sssp(graph::VertexId source);

  std::string name() const override;
  Combiner combiner() const override { return Combiner::kMin; }
  int max_supersteps() const override;
  double initial_value(graph::VertexId v, const graph::Graph& g) const override;
  void compute(graph::VertexId v, double& value,
               std::span<const double> messages, int superstep,
               const graph::Graph& g, PregelOutbox& out) const override;
  int max_iterations() const override;
  bool initially_active(graph::VertexId v,
                        const graph::Graph& g) const override;
  double apply(graph::VertexId v, double current,
               std::span<const graph::VertexId> neighbors,
               std::span<const double> neighbor_values,
               std::span<const double> neighbor_weights, int iteration,
               const graph::Graph& g) const override;
  bool scatter_activates(graph::VertexId v, double old_value,
                         double new_value, int iteration) const override;

 private:
  graph::VertexId source_;
};

/// The algorithm names the tools accept on the command line, in the order
/// their usage texts list them. ProgramSet resolves exactly these names.
inline constexpr std::array<std::string_view, 5> kAlgorithmNames = {
    "pagerank", "bfs", "wcc", "cdlp", "sssp"};

/// True when `name` is one of kAlgorithmNames.
bool is_algorithm_name(std::string_view name);

/// One instance of every algorithm, configured the way the tools run them:
/// PageRank and CDLP for `iterations` iterations, BFS and SSSP from vertex 1.
class ProgramSet {
 public:
  explicit ProgramSet(int iterations)
      : pagerank_(iterations), cdlp_(iterations) {}

  /// The program called `name` (one of kAlgorithmNames) in the Program
  /// paradigm (PregelProgram or GasProgram), or nullptr for any other name.
  template <typename Program>
  const Program* find(std::string_view name) const {
    const std::array<const Program*, kAlgorithmNames.size()> programs = {
        &pagerank_, &bfs_, &wcc_, &cdlp_, &sssp_};
    for (std::size_t i = 0; i < programs.size(); ++i) {
      if (kAlgorithmNames[i] == name) return programs[i];
    }
    return nullptr;
  }

 private:
  PageRank pagerank_;
  Bfs bfs_{1};
  Wcc wcc_;
  Cdlp cdlp_;
  Sssp sssp_{1};
};

/// Most frequent value in `values`, ties to the smallest. Shared by CDLP's
/// engine programs and the reference implementation's tests. The span
/// overload copies into reused thread-local scratch instead of allocating a
/// fresh vector per call.
double mode_smallest_label(std::span<const double> values);
double mode_smallest_label(std::vector<double> values);

}  // namespace g10::algorithms
