// Deep LP-solver properties on randomized instances:
//   * strong duality — when a random primal solves to optimality, its dual
//     must too, with the same objective value;
//   * feasibility of every claimed-optimal solution;
//   * invariance under row/column scaling.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "reference/dense_simplex.hpp"

namespace switchboard::lp {
namespace {

/// A random min-LP in inequality form: min c'x s.t. Ax >= b, x >= 0 with
/// b <= 0 rows mixed in, plus a box to keep it bounded.
struct RandomLp {
  Problem primal{Sense::kMinimize};
  std::vector<std::vector<double>> a;   // dense rows
  std::vector<double> b;
  std::vector<double> c;
  std::size_t vars{0};
  std::size_t rows{0};
};

RandomLp make_random_lp(Rng& rng) {
  RandomLp lp;
  lp.vars = static_cast<std::size_t>(rng.uniform_int(2, 6));
  lp.rows = static_cast<std::size_t>(rng.uniform_int(2, 6));
  lp.c.resize(lp.vars);
  for (std::size_t j = 0; j < lp.vars; ++j) {
    lp.c[j] = rng.uniform(0.1, 5.0);   // positive costs keep min bounded
    lp.primal.add_variable(lp.c[j]);
  }
  lp.a.assign(lp.rows, std::vector<double>(lp.vars, 0.0));
  lp.b.resize(lp.rows);
  for (std::size_t i = 0; i < lp.rows; ++i) {
    std::vector<Term> terms;
    for (std::size_t j = 0; j < lp.vars; ++j) {
      if (rng.bernoulli(0.75)) {
        lp.a[i][j] = rng.uniform(-1.0, 3.0);
        terms.push_back({j, lp.a[i][j]});
      }
    }
    lp.b[i] = rng.uniform(0.0, 8.0);
    if (terms.empty()) {
      lp.a[i][0] = 1.0;
      terms.push_back({0, 1.0});
    }
    lp.primal.add_constraint(Relation::kGreaterEqual, lp.b[i],
                             std::move(terms));
  }
  return lp;
}

/// Dual of (min c'x : Ax >= b, x >= 0):  max b'y : A'y <= c, y >= 0.
Problem make_dual(const RandomLp& lp) {
  Problem dual{Sense::kMaximize};
  for (std::size_t i = 0; i < lp.rows; ++i) {
    dual.add_variable(lp.b[i]);
  }
  for (std::size_t j = 0; j < lp.vars; ++j) {
    std::vector<Term> terms;
    for (std::size_t i = 0; i < lp.rows; ++i) {
      if (lp.a[i][j] != 0.0) terms.push_back({i, lp.a[i][j]});
    }
    dual.add_constraint(Relation::kLessEqual, lp.c[j], std::move(terms));
  }
  return dual;
}

class LpDualityProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, LpDualityProperty,
                         ::testing::Range<std::uint64_t>(100, 120));

TEST_P(LpDualityProperty, StrongDualityHolds) {
  Rng rng{GetParam()};
  const RandomLp lp = make_random_lp(rng);
  const Solution primal = solve(lp.primal);
  const Solution dual = solve(make_dual(lp));

  if (primal.status == SolveStatus::kOptimal) {
    // LP duality: a finite primal optimum implies a finite dual optimum of
    // equal value.
    ASSERT_EQ(dual.status, SolveStatus::kOptimal);
    EXPECT_NEAR(primal.objective, dual.objective,
                1e-5 * (1.0 + std::abs(primal.objective)));
  } else if (primal.status == SolveStatus::kInfeasible) {
    // Infeasible primal => dual unbounded or infeasible.
    EXPECT_NE(dual.status, SolveStatus::kOptimal);
  }
}

TEST_P(LpDualityProperty, OptimalSolutionsAreFeasible) {
  Rng rng{GetParam() + 1000};
  const RandomLp lp = make_random_lp(rng);
  const Solution solution = solve(lp.primal);
  if (!solution.optimal()) return;
  for (std::size_t i = 0; i < lp.rows; ++i) {
    double lhs = 0.0;
    for (std::size_t j = 0; j < lp.vars; ++j) {
      lhs += lp.a[i][j] * solution.values[j];
    }
    EXPECT_GE(lhs, lp.b[i] - 1e-6) << "row " << i;
  }
  for (const double x : solution.values) EXPECT_GE(x, -1e-9);
  // Objective value must match the reported one.
  double objective = 0.0;
  for (std::size_t j = 0; j < lp.vars; ++j) {
    objective += lp.c[j] * solution.values[j];
  }
  EXPECT_NEAR(objective, solution.objective, 1e-6);
}

TEST_P(LpDualityProperty, ScalingInvariance) {
  // Scaling a constraint row by k > 0 must not change the optimum.
  Rng rng{GetParam() + 2000};
  const RandomLp lp = make_random_lp(rng);
  const Solution base = solve(lp.primal);

  Problem scaled{Sense::kMinimize};
  for (std::size_t j = 0; j < lp.vars; ++j) scaled.add_variable(lp.c[j]);
  for (std::size_t i = 0; i < lp.rows; ++i) {
    const double k = rng.uniform(0.1, 10.0);
    std::vector<Term> terms;
    for (std::size_t j = 0; j < lp.vars; ++j) {
      if (lp.a[i][j] != 0.0) terms.push_back({j, k * lp.a[i][j]});
    }
    scaled.add_constraint(Relation::kGreaterEqual, k * lp.b[i],
                          std::move(terms));
  }
  const Solution rescaled = solve(scaled);
  ASSERT_EQ(base.status, rescaled.status);
  if (base.optimal()) {
    EXPECT_NEAR(base.objective, rescaled.objective,
                1e-5 * (1.0 + std::abs(base.objective)));
  }
}

/// Random bounded LP exercising the nonbasic-at-upper machinery: mixed
/// row relations plus finite upper bounds (and occasional shifted lower
/// bounds) on a subset of the variables.
Problem make_random_bounded_lp(Rng& rng) {
  Problem p{rng.bernoulli(0.5) ? Sense::kMinimize : Sense::kMaximize};
  const std::size_t vars = static_cast<std::size_t>(rng.uniform_int(2, 7));
  const std::size_t rows = static_cast<std::size_t>(rng.uniform_int(2, 7));
  for (std::size_t j = 0; j < vars; ++j) {
    p.add_variable(rng.uniform(-4.0, 4.0));
    // Finite upper bounds keep the instance bounded in both senses.
    const double lower = rng.bernoulli(0.3) ? rng.uniform(0.0, 2.0) : 0.0;
    p.set_bounds(j, lower, lower + rng.uniform(0.5, 6.0));
  }
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (std::size_t j = 0; j < vars; ++j) {
      if (rng.bernoulli(0.7)) terms.push_back({j, rng.uniform(-2.0, 3.0)});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    const double roll = rng.uniform(0.0, 1.0);
    const Relation rel = roll < 0.5   ? Relation::kLessEqual
                         : roll < 0.8 ? Relation::kGreaterEqual
                                      : Relation::kEqual;
    p.add_constraint(rel, rng.uniform(-2.0, 6.0), std::move(terms));
  }
  return p;
}

class SparseDenseParity : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SparseDenseParity,
                         ::testing::Range<std::uint64_t>(500, 560));

TEST_P(SparseDenseParity, StatusAndObjectiveAgree) {
  // The sparse bounded-variable engine and the dense reference (bounds
  // expanded into rows) must agree on solvability, and on the optimal
  // value to 1e-6 relative.
  Rng rng{GetParam()};
  const Problem p = make_random_bounded_lp(rng);
  const Solution sparse = solve(p);
  const Solution dense = solve_dense_reference(p);
  ASSERT_EQ(sparse.status, dense.status) << "sparse=" << to_string(sparse.status)
                                         << " dense=" << to_string(dense.status);
  if (sparse.optimal()) {
    EXPECT_NEAR(sparse.objective, dense.objective,
                1e-6 * (1.0 + std::abs(dense.objective)));
  }
}

TEST_P(SparseDenseParity, SparseSolutionRespectsBounds) {
  Rng rng{GetParam() + 5000};
  const Problem p = make_random_bounded_lp(rng);
  const Solution s = solve(p);
  if (!s.optimal()) return;
  for (std::size_t j = 0; j < p.variable_count(); ++j) {
    EXPECT_GE(s.values[j], p.lower_bound(j) - 1e-7) << "var " << j;
    EXPECT_LE(s.values[j], p.upper_bound(j) + 1e-7) << "var " << j;
  }
  // Every claimed-optimal basis names exactly row-count basic columns.
  std::size_t basic = 0;
  for (const VarStatus st : s.basis.variables) {
    if (st == VarStatus::kBasic) ++basic;
  }
  for (const VarStatus st : s.basis.slacks) {
    if (st == VarStatus::kBasic) ++basic;
  }
  EXPECT_EQ(basic, p.constraint_count());
}

TEST_P(SparseDenseParity, WarmStartFromOwnBasisIsANoOp) {
  // Feeding a solve's final basis back in must skip phase 1, take zero
  // pivots, and reproduce the identical optimum.
  Rng rng{GetParam() + 9000};
  const Problem p = make_random_bounded_lp(rng);
  const Solution cold = solve(p);
  if (!cold.optimal()) return;
  const Solution warm = solve_simplex(p, {}, &cold.basis);
  ASSERT_TRUE(warm.optimal());
  EXPECT_TRUE(warm.stats.warm_started);
  EXPECT_TRUE(warm.stats.phase1_skipped);
  EXPECT_EQ(warm.stats.iterations(), 0u);
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-9 * (1.0 + std::abs(cold.objective)));
  EXPECT_EQ(warm.basis.variables, cold.basis.variables);
  EXPECT_EQ(warm.basis.slacks, cold.basis.slacks);
}

TEST(LpStress, MediumSparseInstanceSolves) {
  // A transportation-style LP big enough to exercise refactorization.
  Rng rng{7};
  constexpr int kSources = 30;
  constexpr int kSinks = 40;
  Problem p{Sense::kMinimize};
  std::vector<std::vector<VarIndex>> x(kSources,
                                       std::vector<VarIndex>(kSinks));
  double total_supply = 0.0;
  std::vector<double> supply(kSources);
  std::vector<double> demand(kSinks, 0.0);
  for (int i = 0; i < kSources; ++i) {
    for (int j = 0; j < kSinks; ++j) {
      x[i][j] = p.add_variable(rng.uniform(1.0, 9.0));
    }
    supply[i] = rng.uniform(5.0, 15.0);
    total_supply += supply[i];
  }
  // Demands sum to 80% of supply.
  double remaining = 0.8 * total_supply;
  for (int j = 0; j < kSinks; ++j) {
    demand[j] = remaining / (kSinks - j) * rng.uniform(0.5, 1.5);
    demand[j] = std::min(demand[j], remaining);
    remaining -= demand[j];
  }
  for (int i = 0; i < kSources; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < kSinks; ++j) terms.push_back({x[i][j], 1.0});
    p.add_constraint(Relation::kLessEqual, supply[i], std::move(terms));
  }
  for (int j = 0; j < kSinks; ++j) {
    std::vector<Term> terms;
    for (int i = 0; i < kSources; ++i) terms.push_back({x[i][j], 1.0});
    p.add_constraint(Relation::kEqual, demand[j], std::move(terms));
  }
  SimplexOptions options;
  options.refactor_interval = 64;   // force several refactorizations
  const Solution s = solve(p, options);
  ASSERT_TRUE(s.optimal());
  // Verify all demands met exactly.
  for (int j = 0; j < kSinks; ++j) {
    double served = 0.0;
    for (int i = 0; i < kSources; ++i) served += s.values[x[i][j]];
    EXPECT_NEAR(served, demand[j], 1e-5);
  }
}

TEST(LpStress, RefactorIntervalDoesNotChangeOptimum) {
  Rng rng{17};
  const RandomLp lp = make_random_lp(rng);
  SimplexOptions frequent;
  frequent.refactor_interval = 2;
  SimplexOptions rare;
  rare.refactor_interval = 100000;
  const Solution a = solve(lp.primal, frequent);
  const Solution b = solve(lp.primal, rare);
  ASSERT_EQ(a.status, b.status);
  if (a.optimal()) {
    EXPECT_NEAR(a.objective, b.objective, 1e-6);
  }
}

}  // namespace
}  // namespace switchboard::lp
