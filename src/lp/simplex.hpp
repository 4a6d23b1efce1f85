// Bounded-variable two-phase revised primal simplex.
//
// Engineering choices suited to Switchboard's TE problems (tens of
// thousands of sparse columns, thousands of rows):
//   * constraint matrix stored column-sparse; simple bounds `l <= x <= u`
//     handled as nonbasic-at-lower/upper statuses, never as rows, so the
//     basis stays at the size of the structural constraints;
//   * sparse LU factorization of the basis (sparse_lu.hpp) with
//     product-form eta updates and periodic / instability-triggered
//     refactorization — no dense m^2 inverse anywhere;
//   * artificial-free phase 1: the all-slack basis is always available and
//     the phase-1 objective is the sum of basic bound violations, so warm
//     starts that are primal feasible skip phase 1 entirely and infeasible
//     ones are repaired in place;
//   * candidate-list partial pricing (full Dantzig scans only when the
//     list runs dry) with deterministic lowest-index tie-breaking and a
//     Bland's-rule fallback when degeneracy stalls progress, so solves are
//     bit-reproducible and guaranteed to terminate.
//
// This is the library's one engine.  The dense-inverse engine it
// replaced lives in tests/reference; property tests assert status parity
// and objective agreement between the two on seeded random LPs.
#pragma once

#include <cstddef>

#include "lp/problem.hpp"

namespace switchboard::lp {

/// Pivots (phase 1 plus phase 2) before a solve reports kIterationLimit.
inline constexpr std::size_t kMaxIterations = 200'000;
/// A basic variable this far outside its bounds counts as infeasible.
inline constexpr double kFeasibilityTol = 1e-7;
/// Reduced-cost magnitude a column needs to enter the basis.
inline constexpr double kOptimalityTol = 1e-7;
/// Smallest pivot-column entry the ratio test trusts.
inline constexpr double kPivotTol = 1e-9;
/// Consecutive degenerate pivots before switching to Bland's rule.
inline constexpr std::size_t kDegeneracyThreshold = 64;
/// Candidate-list size for partial pricing.
inline constexpr std::size_t kCandidateListSize = 64;

struct SimplexOptions {
  /// Rebuild the basis factorization every this many pivots (the eta file
  /// also triggers an earlier rebuild once it outgrows the LU).
  std::size_t refactor_interval{128};
};

/// Solves `problem` cold.
[[nodiscard]] Solution solve(const Problem& problem,
                             const SimplexOptions& options = {});

/// As solve(), optionally warm-started: when `warm` names a basis whose
/// dimensions match the problem and whose basic count equals the row
/// count, the solve starts there — skipping phase 1 outright when the
/// basis is primal feasible and repairing it with the bounded phase 1
/// otherwise.  A mismatched or singular warm basis silently falls back to
/// the cold all-slack start (stats.warm_started reports what happened).
[[nodiscard]] Solution solve_simplex(const Problem& problem,
                                     const SimplexOptions& options,
                                     const Basis* warm);

}  // namespace switchboard::lp
