#include "lp/mip.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace switchboard::lp {
namespace {

/// Branch-and-bound nodes explored before the search gives up.
constexpr std::size_t kMaxNodes = 10'000;
/// A binary within this distance of 0 or 1 counts as integral.
constexpr double kIntegralityTol = 1e-6;
/// Relative optimality gap at which search stops.
constexpr double kGapTol = 1e-6;

struct Fixing {
  VarIndex var;
  double value;   // 0.0 or 1.0
};

/// One branch-and-bound node: the bound fixings that define it plus the
/// parent relaxation's basis, shared (not copied) between siblings and
/// replayed as a warm start — the child LP differs from the parent's only
/// by one variable's bounds, so the parent basis is usually a few pivots
/// from the child's optimum.
struct Node {
  std::vector<Fixing> fixings;
  std::shared_ptr<const Basis> warm;
};

}  // namespace

MipSolution solve_mip(const Problem& problem,
                      const std::vector<VarIndex>& binary_vars) {
  MipSolution best;
  const bool minimize = problem.sense() == Sense::kMinimize;
  const double worst = minimize ? std::numeric_limits<double>::infinity()
                                : -std::numeric_limits<double>::infinity();
  double incumbent = worst;

  // `improves(a, b)`: is objective a strictly better than b?
  const auto improves = [minimize](double a, double b) {
    return minimize ? a < b : a > b;
  };
  // Can a relaxation bound still beat the incumbent (within gap)?
  const auto promising = [&](double bound) {
    if (incumbent == worst) return true;
    const double slack = std::abs(incumbent) * kGapTol + 1e-12;
    return minimize ? bound < incumbent - slack : bound > incumbent + slack;
  };

  // One working copy; branching applies and restores bounds in place
  // instead of cloning the Problem per node.
  Problem node_problem = problem;
  for (const VarIndex v : binary_vars) {
    node_problem.set_bounds(v, 0.0, 1.0);
  }

  std::vector<Node> stack;
  stack.push_back({});
  bool any_feasible = false;

  while (!stack.empty() && best.nodes_explored < kMaxNodes) {
    const Node node = std::move(stack.back());
    stack.pop_back();
    ++best.nodes_explored;

    for (const Fixing& f : node.fixings) {
      node_problem.set_bounds(f.var, f.value, f.value);
    }
    const Solution relax = solve_simplex(node_problem, {}, node.warm.get());
    for (const Fixing& f : node.fixings) {
      node_problem.set_bounds(f.var, 0.0, 1.0);
    }
    best.lp_iterations += relax.stats.iterations();
    if (relax.stats.warm_started) ++best.warm_started_nodes;

    if (relax.status == SolveStatus::kInfeasible) continue;
    if (relax.status == SolveStatus::kUnbounded) {
      best.status = SolveStatus::kUnbounded;
      return best;
    }
    if (relax.status == SolveStatus::kIterationLimit) continue;
    any_feasible = true;
    if (!promising(relax.objective)) continue;

    // Most fractional binary variable.
    VarIndex branch_var = problem.variable_count();
    double branch_score = kIntegralityTol;
    for (const VarIndex v : binary_vars) {
      const double x = relax.values[v];
      const double frac = std::abs(x - std::round(x));
      if (frac > branch_score) {
        branch_score = frac;
        branch_var = v;
      }
    }

    if (branch_var == problem.variable_count()) {
      // Integral solution.
      if (incumbent == worst || improves(relax.objective, incumbent)) {
        incumbent = relax.objective;
        best.objective = relax.objective;
        best.values = relax.values;
        // Snap binaries exactly.
        for (const VarIndex v : binary_vars) {
          best.values[v] = std::round(best.values[v]);
        }
      }
      continue;
    }

    // Branch: explore the rounded-toward side first (DFS order means the
    // later-pushed child is explored first).  Both children warm-start
    // from this node's final basis.
    auto warm = relax.basis.empty()
                    ? nullptr
                    : std::make_shared<const Basis>(relax.basis);
    const double x = relax.values[branch_var];
    Node lo{node.fixings, warm};
    lo.fixings.push_back({branch_var, 0.0});
    Node hi{node.fixings, std::move(warm)};
    hi.fixings.push_back({branch_var, 1.0});
    if (x >= 0.5) {
      stack.push_back(std::move(lo));
      stack.push_back(std::move(hi));
    } else {
      stack.push_back(std::move(hi));
      stack.push_back(std::move(lo));
    }
  }

  if (!best.values.empty()) {
    best.status = SolveStatus::kOptimal;
  } else if (stack.empty()) {
    // Search tree exhausted with no integral solution: the MIP itself is
    // infeasible, even if LP relaxations along the way were feasible.
    best.status = SolveStatus::kInfeasible;
  } else {
    best.status =
        any_feasible ? SolveStatus::kIterationLimit : SolveStatus::kInfeasible;
  }
  return best;
}

}  // namespace switchboard::lp
