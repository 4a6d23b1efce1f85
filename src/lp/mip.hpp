// Branch-and-bound solver for mixed-integer programs with binary variables.
//
// Used by the VNF capacity-planning formulation (Section 4.3), where a
// binary w_{fs} decides whether VNF f is newly placed at site s.  The LP
// relaxations are solved by the revised simplex in simplex.hpp.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace switchboard::lp {

struct MipSolution {
  SolveStatus status{SolveStatus::kIterationLimit};
  double objective{0.0};
  std::vector<double> values;
  std::size_t nodes_explored{0};
  /// Simplex work summed over every node relaxation.
  std::size_t lp_iterations{0};
  /// Nodes whose relaxation warm-started from the parent's basis.
  std::size_t warm_started_nodes{0};

  [[nodiscard]] bool optimal() const {
    return status == SolveStatus::kOptimal;
  }
};

/// Solves `problem` where every variable listed in `binary_vars` must take
/// a value in {0, 1}.  The solver clamps those variables to [0, 1] via
/// bounds itself (no x <= 1 rows needed) and branches by fixing bounds in
/// place; each child node's relaxation warm-starts from its parent's
/// optimal basis, so deep nodes typically re-solve in a handful of pivots.
/// Search stops after 10,000 nodes or once no open node can beat the
/// incumbent by a relative gap of 1e-6.
[[nodiscard]] MipSolution solve_mip(const Problem& problem,
                                    const std::vector<VarIndex>& binary_vars);

}  // namespace switchboard::lp
