// Vertex-program interface for the GAS-style (PowerGraph stand-in) engine.
//
// Synchronous gather/apply/scatter semantics: in every iteration the engine
// gathers the values of each active vertex's in-neighbors, calls apply() to
// produce the new value, and activates the out-neighbors for the next
// iteration when scatter_activates() says the change is significant.
// Iteration 0 applies on the initially_active set.
#pragma once

#include <span>
#include <string>

#include "graph/graph.hpp"

namespace g10::algorithms {

class GasProgram {
 public:
  virtual ~GasProgram() = default;

  virtual std::string name() const = 0;
  virtual int max_iterations() const = 0;

  virtual double initial_value(graph::VertexId v,
                               const graph::Graph& g) const = 0;

  virtual bool initially_active(graph::VertexId v,
                                const graph::Graph& g) const = 0;

  /// New value of v from its current value and gathered neighbor values.
  /// `neighbors[i]` corresponds to `neighbor_values[i]` and, on weighted
  /// graphs, to `neighbor_weights[i]` (the weight of the gathered edge).
  /// On unweighted graphs `neighbor_weights` may be EMPTY — implementations
  /// must treat an empty span as every edge weighing 1.
  virtual double apply(graph::VertexId v, double current,
                       std::span<const graph::VertexId> neighbors,
                       std::span<const double> neighbor_values,
                       std::span<const double> neighbor_weights,
                       int iteration, const graph::Graph& g) const = 0;

  /// Whether the change at v activates v's neighbors next iteration.
  virtual bool scatter_activates(graph::VertexId v, double old_value,
                                 double new_value, int iteration) const = 0;
};

}  // namespace g10::algorithms
