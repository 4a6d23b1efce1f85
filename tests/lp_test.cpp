#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "lp/mip.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "reference/dense_simplex.hpp"

namespace switchboard::lp {
namespace {

// ----------------------------------------------------------------- Problem

TEST(Problem, MergesDuplicateTerms) {
  Problem p;
  const VarIndex x = p.add_variable(1.0);
  p.add_constraint(Relation::kLessEqual, 5.0, {{x, 2.0}, {x, 3.0}});
  ASSERT_EQ(p.constraints().size(), 1u);
  ASSERT_EQ(p.constraints()[0].terms.size(), 1u);
  EXPECT_DOUBLE_EQ(p.constraints()[0].terms[0].coeff, 5.0);
}

TEST(Problem, DropsZeroCoefficients) {
  Problem p;
  const VarIndex x = p.add_variable(1.0);
  const VarIndex y = p.add_variable(1.0);
  p.add_constraint(Relation::kLessEqual, 5.0, {{x, 2.0}, {y, 1.0}, {y, -1.0}});
  EXPECT_EQ(p.constraints()[0].terms.size(), 1u);
}

// ----------------------------------------------------------------- Simplex

TEST(Simplex, SimpleMaximization) {
  // max 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6  ->  x=4, y=0, obj=12
  Problem p{Sense::kMaximize};
  const VarIndex x = p.add_variable(3.0);
  const VarIndex y = p.add_variable(2.0);
  p.add_constraint(Relation::kLessEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  p.add_constraint(Relation::kLessEqual, 6.0, {{x, 1.0}, {y, 3.0}});
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 12.0, 1e-6);
  EXPECT_NEAR(s.values[x], 4.0, 1e-6);
  EXPECT_NEAR(s.values[y], 0.0, 1e-6);
}

TEST(Simplex, SimpleMinimizationWithGreaterEqual) {
  // min 2x + 3y  s.t.  x + y >= 10, x >= 2  ->  x=10 (cheaper), y=0, obj=20
  Problem p{Sense::kMinimize};
  const VarIndex x = p.add_variable(2.0);
  const VarIndex y = p.add_variable(3.0);
  p.add_constraint(Relation::kGreaterEqual, 10.0, {{x, 1.0}, {y, 1.0}});
  p.add_constraint(Relation::kGreaterEqual, 2.0, {{x, 1.0}});
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 20.0, 1e-6);
  EXPECT_NEAR(s.values[x], 10.0, 1e-6);
}

TEST(Simplex, EqualityConstraints) {
  // min x + y  s.t.  x + y = 5, x - y = 1  ->  x=3, y=2
  Problem p;
  const VarIndex x = p.add_variable(1.0);
  const VarIndex y = p.add_variable(1.0);
  p.add_constraint(Relation::kEqual, 5.0, {{x, 1.0}, {y, 1.0}});
  p.add_constraint(Relation::kEqual, 1.0, {{x, 1.0}, {y, -1.0}});
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[x], 3.0, 1e-6);
  EXPECT_NEAR(s.values[y], 2.0, 1e-6);
  EXPECT_NEAR(s.objective, 5.0, 1e-6);
}

TEST(Simplex, DetectsInfeasible) {
  Problem p;
  const VarIndex x = p.add_variable(1.0);
  p.add_constraint(Relation::kLessEqual, 1.0, {{x, 1.0}});
  p.add_constraint(Relation::kGreaterEqual, 2.0, {{x, 1.0}});
  const Solution s = solve(p);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Problem p{Sense::kMaximize};
  const VarIndex x = p.add_variable(1.0);
  p.add_constraint(Relation::kGreaterEqual, 0.0, {{x, 1.0}});
  const Solution s = solve(p);
  EXPECT_EQ(s.status, SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // x - y <= -2 with b < 0 exercises row flipping.
  // min x + y  s.t.  x - y <= -2  ->  y >= x + 2, best x=0,y=2.
  Problem p;
  const VarIndex x = p.add_variable(1.0);
  const VarIndex y = p.add_variable(1.0);
  p.add_constraint(Relation::kLessEqual, -2.0, {{x, 1.0}, {y, -1.0}});
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
  EXPECT_NEAR(s.values[y], 2.0, 1e-6);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic cycling-prone instance (Beale); Bland fallback must terminate.
  Problem p{Sense::kMinimize};
  const VarIndex x1 = p.add_variable(-0.75);
  const VarIndex x2 = p.add_variable(150.0);
  const VarIndex x3 = p.add_variable(-0.02);
  const VarIndex x4 = p.add_variable(6.0);
  p.add_constraint(Relation::kLessEqual, 0.0,
                   {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}});
  p.add_constraint(Relation::kLessEqual, 0.0,
                   {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}});
  p.add_constraint(Relation::kLessEqual, 1.0, {{x3, 1.0}});
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -0.05, 1e-6);
}

TEST(Simplex, TransportationProblem) {
  // 2 sources (supply 20, 30) x 3 sinks (demand 10, 25, 15), known optimum.
  Problem p;
  const double cost[2][3] = {{2, 4, 5}, {3, 1, 7}};
  VarIndex x[2][3];
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) x[i][j] = p.add_variable(cost[i][j]);
  }
  p.add_constraint(Relation::kLessEqual, 20.0,
                   {{x[0][0], 1}, {x[0][1], 1}, {x[0][2], 1}});
  p.add_constraint(Relation::kLessEqual, 30.0,
                   {{x[1][0], 1}, {x[1][1], 1}, {x[1][2], 1}});
  p.add_constraint(Relation::kEqual, 10.0, {{x[0][0], 1}, {x[1][0], 1}});
  p.add_constraint(Relation::kEqual, 25.0, {{x[0][1], 1}, {x[1][1], 1}});
  p.add_constraint(Relation::kEqual, 15.0, {{x[0][2], 1}, {x[1][2], 1}});
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  // Optimal: s1 ships 5 to d1 (10) and 15 to d3 (75); s2 ships 5 to d1
  // (15) and 25 to d2 (25).  Total 125.
  EXPECT_NEAR(s.objective, 125.0, 1e-6);
}

TEST(Simplex, RandomFeasibilityProperty) {
  // Random LPs: whenever the solver claims optimal, the solution must
  // satisfy every constraint and be non-negative.
  Rng rng{2024};
  for (int trial = 0; trial < 30; ++trial) {
    Problem p{trial % 2 == 0 ? Sense::kMinimize : Sense::kMaximize};
    const int nvars = static_cast<int>(rng.uniform_int(2, 8));
    const int ncons = static_cast<int>(rng.uniform_int(2, 8));
    for (int v = 0; v < nvars; ++v) {
      p.add_variable(rng.uniform(-5.0, 5.0));
    }
    for (int c = 0; c < ncons; ++c) {
      std::vector<Term> terms;
      for (int v = 0; v < nvars; ++v) {
        if (rng.bernoulli(0.7)) {
          terms.push_back({static_cast<VarIndex>(v), rng.uniform(-3.0, 3.0)});
        }
      }
      if (terms.empty()) terms.push_back({0, 1.0});
      // Mostly <= with positive rhs keeps many instances feasible/bounded.
      p.add_constraint(Relation::kLessEqual, rng.uniform(0.5, 20.0),
                       std::move(terms));
    }
    const Solution s = solve(p);
    if (!s.optimal()) continue;
    for (const auto& con : p.constraints()) {
      double lhs = 0.0;
      for (const Term& t : con.terms) lhs += t.coeff * s.values[t.var];
      EXPECT_LE(lhs, con.rhs + 1e-6);
    }
    for (const double v : s.values) EXPECT_GE(v, -1e-9);
  }
}

TEST(Simplex, EmptyProblemIsOptimal) {
  Problem p;
  const Solution s = solve(p);
  EXPECT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

TEST(Simplex, RedundantEqualityRows) {
  // Two identical equality rows: phase 1 leaves one artificial basic at
  // zero in a redundant row; solver must still find the optimum.
  Problem p;
  const VarIndex x = p.add_variable(1.0);
  const VarIndex y = p.add_variable(2.0);
  p.add_constraint(Relation::kEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  p.add_constraint(Relation::kEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0, 1e-6);
  EXPECT_NEAR(s.values[x], 4.0, 1e-6);
}

// --------------------------------------------------------------------- MIP

TEST(Mip, SimpleKnapsack) {
  // max 10a + 6b + 4c  s.t.  5a + 4b + 3c <= 8, binaries.
  Problem p{Sense::kMaximize};
  const VarIndex a = p.add_variable(10.0);
  const VarIndex b = p.add_variable(6.0);
  const VarIndex c = p.add_variable(4.0);
  p.add_constraint(Relation::kLessEqual, 8.0, {{a, 5.0}, {b, 4.0}, {c, 3.0}});
  for (const VarIndex v : {a, b, c}) {
    p.add_constraint(Relation::kLessEqual, 1.0, {{v, 1.0}});
  }
  const MipSolution s = solve_mip(p, {a, b, c});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 14.0, 1e-6);   // a + c
  EXPECT_NEAR(s.values[a], 1.0, 1e-9);
  EXPECT_NEAR(s.values[b], 0.0, 1e-9);
  EXPECT_NEAR(s.values[c], 1.0, 1e-9);
}

TEST(Mip, InfeasibleBinary) {
  Problem p;
  const VarIndex a = p.add_variable(1.0);
  p.add_constraint(Relation::kGreaterEqual, 0.5, {{a, 1.0}});
  p.add_constraint(Relation::kLessEqual, 0.6, {{a, 1.0}});
  const MipSolution s = solve_mip(p, {a});
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(Mip, MixedIntegerAndContinuous) {
  // max 5w + x  s.t.  x <= 10w (big-M link), x <= 7, w binary.
  Problem p{Sense::kMaximize};
  const VarIndex w = p.add_variable(5.0);
  const VarIndex x = p.add_variable(1.0);
  p.add_constraint(Relation::kLessEqual, 0.0, {{x, 1.0}, {w, -10.0}});
  p.add_constraint(Relation::kLessEqual, 7.0, {{x, 1.0}});
  p.add_constraint(Relation::kLessEqual, 1.0, {{w, 1.0}});
  const MipSolution s = solve_mip(p, {w});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 12.0, 1e-6);
  EXPECT_NEAR(s.values[w], 1.0, 1e-9);
  EXPECT_NEAR(s.values[x], 7.0, 1e-6);
}

TEST(Mip, FacilityLocationSmall) {
  // 2 facilities (open cost 3, 2), 3 clients; serve each client from an
  // open facility; minimize open + service cost.
  Problem p{Sense::kMinimize};
  const VarIndex f0 = p.add_variable(3.0, "open0");
  const VarIndex f1 = p.add_variable(2.0, "open1");
  const double service[2][3] = {{1, 2, 3}, {3, 1, 1}};
  VarIndex y[2][3];
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      y[i][j] = p.add_variable(service[i][j]);
    }
  }
  for (int j = 0; j < 3; ++j) {
    p.add_constraint(Relation::kEqual, 1.0, {{y[0][j], 1.0}, {y[1][j], 1.0}});
    for (int i = 0; i < 2; ++i) {
      const VarIndex f = i == 0 ? f0 : f1;
      p.add_constraint(Relation::kLessEqual, 0.0, {{y[i][j], 1.0}, {f, -1.0}});
    }
  }
  for (const VarIndex f : {f0, f1}) {
    p.add_constraint(Relation::kLessEqual, 1.0, {{f, 1.0}});
  }
  const MipSolution s = solve_mip(p, {f0, f1});
  ASSERT_TRUE(s.optimal());
  // Opening only f1 costs 2 + (3+1+1) = 7; only f0 costs 3 + 6 = 9;
  // both costs 5 + (1+1+1) = 8.  Optimal = 7.
  EXPECT_NEAR(s.objective, 7.0, 1e-6);
  EXPECT_NEAR(s.values[f1], 1.0, 1e-9);
  EXPECT_NEAR(s.values[f0], 0.0, 1e-9);
}

// -------------------------------------------------- bounds and warm starts

TEST(SimplexBounds, UpperBoundsWithoutRows) {
  // max x + 2y  s.t.  x + y <= 10, x <= 3, y <= 4 (as bounds)
  // -> x=3, y=4, obj=11; neither bound adds a constraint row.
  Problem p{Sense::kMaximize};
  const VarIndex x = p.add_variable(1.0);
  const VarIndex y = p.add_variable(2.0);
  p.set_upper_bound(x, 3.0);
  p.set_upper_bound(y, 4.0);
  p.add_constraint(Relation::kLessEqual, 10.0, {{x, 1.0}, {y, 1.0}});
  ASSERT_EQ(p.constraint_count(), 1u);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 11.0, 1e-6);
  EXPECT_NEAR(s.values[x], 3.0, 1e-6);
  EXPECT_NEAR(s.values[y], 4.0, 1e-6);
}

TEST(SimplexBounds, AllVariablesEndAtUpperBound) {
  // max x + y with x <= 2, y <= 5 and one slack row: both variables end
  // nonbasic at their upper bounds (pure bound-flip solve, no pivots
  // required to move them).
  Problem p{Sense::kMaximize};
  const VarIndex x = p.add_variable(1.0);
  const VarIndex y = p.add_variable(1.0);
  p.set_upper_bound(x, 2.0);
  p.set_upper_bound(y, 5.0);
  p.add_constraint(Relation::kLessEqual, 100.0, {{x, 1.0}, {y, 1.0}});
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 7.0, 1e-9);
  EXPECT_EQ(s.basis.variables[x], VarStatus::kAtUpper);
  EXPECT_EQ(s.basis.variables[y], VarStatus::kAtUpper);
  EXPECT_GE(s.stats.bound_flips, 2u);
}

TEST(SimplexBounds, GeneralLowerBounds) {
  // min x + y  s.t.  x + y >= 4, x in [1, 3], y in [2, 10] -> obj 4 at
  // a point with x >= 1, y >= 2.
  Problem p{Sense::kMinimize};
  const VarIndex x = p.add_variable(1.0);
  const VarIndex y = p.add_variable(1.0);
  p.set_bounds(x, 1.0, 3.0);
  p.set_bounds(y, 2.0, 10.0);
  p.add_constraint(Relation::kGreaterEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0, 1e-6);
  EXPECT_GE(s.values[x], 1.0 - 1e-9);
  EXPECT_GE(s.values[y], 2.0 - 1e-9);
}

TEST(SimplexBounds, FixedVariableViaEqualBounds) {
  // x fixed at 2 by bounds; max x + y, y <= 3.
  Problem p{Sense::kMaximize};
  const VarIndex x = p.add_variable(1.0);
  const VarIndex y = p.add_variable(1.0);
  p.set_bounds(x, 2.0, 2.0);
  p.set_upper_bound(y, 3.0);
  p.add_constraint(Relation::kLessEqual, 10.0, {{x, 1.0}, {y, 1.0}});
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[x], 2.0, 1e-9);
  EXPECT_NEAR(s.objective, 5.0, 1e-6);
}

TEST(SimplexBounds, InfeasibleThroughBounds) {
  // x <= 2 (bound) but a row demands x >= 5.
  Problem p{Sense::kMinimize};
  const VarIndex x = p.add_variable(1.0);
  p.set_upper_bound(x, 2.0);
  p.add_constraint(Relation::kGreaterEqual, 5.0, {{x, 1.0}});
  EXPECT_EQ(solve(p).status, SolveStatus::kInfeasible);
}

TEST(SimplexBounds, UnboundedAboveWithoutUpperBound) {
  Problem p{Sense::kMaximize};
  const VarIndex x = p.add_variable(1.0);
  const VarIndex y = p.add_variable(0.0);
  p.set_upper_bound(y, 1.0);
  p.add_constraint(Relation::kGreaterEqual, 0.0, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(solve(p).status, SolveStatus::kUnbounded);
}

TEST(SimplexWarmStart, OptimalBasisResolvesWithoutPivots) {
  // Re-solving from the final basis must skip phase 1 and take zero
  // phase-2 pivots (the basis is already optimal).
  Problem p{Sense::kMaximize};
  const VarIndex x = p.add_variable(3.0);
  const VarIndex y = p.add_variable(2.0);
  p.add_constraint(Relation::kLessEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  p.add_constraint(Relation::kLessEqual, 6.0, {{x, 1.0}, {y, 3.0}});
  const Solution cold = solve(p);
  ASSERT_TRUE(cold.optimal());

  const Solution warm = solve_simplex(p, {}, &cold.basis);
  ASSERT_TRUE(warm.optimal());
  EXPECT_TRUE(warm.stats.warm_started);
  EXPECT_TRUE(warm.stats.phase1_skipped);
  EXPECT_EQ(warm.stats.iterations(), 0u);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_EQ(warm.basis.variables, cold.basis.variables);
  EXPECT_EQ(warm.basis.slacks, cold.basis.slacks);
}

TEST(SimplexWarmStart, RepairsInfeasibleBasisAfterRhsChange) {
  // Tighten a rhs so the old optimal basis turns primal infeasible: the
  // bounded phase 1 must repair it and land on the new optimum.
  Problem p{Sense::kMaximize};
  const VarIndex x = p.add_variable(3.0);
  const VarIndex y = p.add_variable(2.0);
  p.add_constraint(Relation::kLessEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  p.add_constraint(Relation::kLessEqual, 6.0, {{x, 1.0}, {y, 3.0}});
  const Solution cold = solve(p);
  ASSERT_TRUE(cold.optimal());

  Problem tightened{Sense::kMaximize};
  const VarIndex x2 = tightened.add_variable(3.0);
  const VarIndex y2 = tightened.add_variable(2.0);
  tightened.add_constraint(Relation::kLessEqual, 2.0, {{x2, 1.0}, {y2, 1.0}});
  tightened.add_constraint(Relation::kLessEqual, 6.0, {{x2, 1.0}, {y2, 3.0}});
  const Solution warm = solve_simplex(tightened, {}, &cold.basis);
  ASSERT_TRUE(warm.optimal());
  EXPECT_TRUE(warm.stats.warm_started);
  const Solution fresh = solve(tightened);
  EXPECT_EQ(warm.status, fresh.status);
  EXPECT_NEAR(warm.objective, fresh.objective, 1e-6);
}

TEST(SimplexWarmStart, MismatchedBasisFallsBackToCold) {
  Problem p{Sense::kMaximize};
  const VarIndex x = p.add_variable(1.0);
  p.add_constraint(Relation::kLessEqual, 1.0, {{x, 1.0}});
  Basis wrong;
  wrong.variables = {VarStatus::kBasic, VarStatus::kBasic};   // wrong size
  wrong.slacks = {VarStatus::kAtLower};
  const Solution s = solve_simplex(p, {}, &wrong);
  ASSERT_TRUE(s.optimal());
  EXPECT_FALSE(s.stats.warm_started);
  EXPECT_NEAR(s.objective, 1.0, 1e-9);
}

TEST(SimplexWarmStart, RepeatedSolvesAreBitIdentical) {
  Problem p{Sense::kMaximize};
  const VarIndex x = p.add_variable(3.0);
  const VarIndex y = p.add_variable(2.0);
  p.set_upper_bound(y, 1.5);
  p.add_constraint(Relation::kLessEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  p.add_constraint(Relation::kLessEqual, 6.0, {{x, 1.0}, {y, 3.0}});
  const Solution a = solve(p);
  const Solution b = solve(p);
  ASSERT_TRUE(a.optimal());
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.objective, b.objective);    // exact, not NEAR
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.basis.variables, b.basis.variables);
  EXPECT_EQ(a.basis.slacks, b.basis.slacks);
  EXPECT_EQ(a.stats.iterations(), b.stats.iterations());
}

// ------------------------------------------------- dense reference parity

TEST(DenseReference, AgreesOnBoundedProblem) {
  Problem p{Sense::kMaximize};
  const VarIndex x = p.add_variable(1.0);
  const VarIndex y = p.add_variable(2.0);
  p.set_bounds(x, 0.5, 3.0);
  p.set_upper_bound(y, 4.0);
  p.add_constraint(Relation::kLessEqual, 6.0, {{x, 1.0}, {y, 1.0}});
  const Solution sparse = solve(p);
  const Solution dense = solve_dense_reference(p);
  ASSERT_EQ(sparse.status, dense.status);
  ASSERT_TRUE(sparse.optimal());
  EXPECT_NEAR(sparse.objective, dense.objective, 1e-6);
  EXPECT_TRUE(dense.basis.empty());   // reference mode exposes no basis
}

TEST(DenseReference, AgreesOnInfeasibleAndUnbounded) {
  Problem infeasible{Sense::kMinimize};
  const VarIndex x = infeasible.add_variable(1.0);
  infeasible.set_upper_bound(x, 2.0);
  infeasible.add_constraint(Relation::kGreaterEqual, 5.0, {{x, 1.0}});
  EXPECT_EQ(solve_dense_reference(infeasible).status,
            SolveStatus::kInfeasible);

  Problem unbounded{Sense::kMaximize};
  unbounded.add_variable(1.0);
  EXPECT_EQ(solve_dense_reference(unbounded).status, SolveStatus::kUnbounded);
  EXPECT_EQ(solve(unbounded).status, SolveStatus::kUnbounded);
}

TEST(Mip, WarmStartsChildNodesFromParentBasis) {
  // A knapsack with a fractional relaxation forces branching; every child
  // node's LP should warm-start from its parent's basis.
  Problem p{Sense::kMaximize};
  const VarIndex a = p.add_variable(10.0);
  const VarIndex b = p.add_variable(13.0);
  const VarIndex c = p.add_variable(7.0);
  p.add_constraint(Relation::kLessEqual, 10.0,
                   {{a, 5.0}, {b, 7.0}, {c, 4.0}});
  const MipSolution s = solve_mip(p, {a, b, c});
  ASSERT_TRUE(s.optimal());
  EXPECT_GT(s.nodes_explored, 1u);
  EXPECT_GT(s.warm_started_nodes, 0u);
  EXPECT_GT(s.lp_iterations, 0u);
}

TEST(Mip, HonorsAlreadyIntegralRelaxation) {
  Problem p{Sense::kMaximize};
  const VarIndex a = p.add_variable(1.0);
  p.add_constraint(Relation::kLessEqual, 1.0, {{a, 1.0}});
  const MipSolution s = solve_mip(p, {a});
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 1.0, 1e-9);
  EXPECT_EQ(s.nodes_explored, 1u);
}

}  // namespace
}  // namespace switchboard::lp
