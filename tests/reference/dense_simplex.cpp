// The dense-inverse reference simplex (the original implementation).
//
// Kept as a cross-check for the library's sparse bounded-variable engine
// (src/lp/simplex.cpp), reading the same tolerances: O(m^2)-per-pivot
// dense basis inverse, Gauss-Jordan refactorization, phase-1 artificials.
// Simple bounds — which the sparse engine handles as nonbasic statuses —
// are lowered here to what this engine understands: general lower bounds
// by variable shifting, upper bounds as explicit `x <= u` rows.  Slow by
// design; do not use beyond tests and the bench_ext_scale sparse-vs-dense
// series.
#include "reference/dense_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/log.hpp"

namespace switchboard::lp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Column-sparse matrix entry.
struct Entry {
  std::size_t row;
  double value;
};

/// Internal standard-form model: min c'x  s.t.  Ax = b (b >= 0), x >= 0.
struct StandardForm {
  std::size_t rows{0};
  std::size_t structural{0};        // original variable count
  std::vector<std::vector<Entry>> columns;
  std::vector<double> cost;         // phase-2 costs (0 for artificials)
  std::vector<double> rhs;
  std::vector<bool> artificial;     // per column
  std::vector<std::size_t> initial_basis;   // one column per row
  double sign{1.0};                 // +1 minimize, -1 if original maximized
};

StandardForm build_standard_form(const Problem& problem) {
  StandardForm sf;
  sf.rows = problem.constraint_count();
  sf.structural = problem.variable_count();
  sf.sign = problem.sense() == Sense::kMinimize ? 1.0 : -1.0;

  sf.columns.resize(sf.structural);
  sf.cost.resize(sf.structural);
  sf.artificial.assign(sf.structural, false);
  for (VarIndex v = 0; v < sf.structural; ++v) {
    sf.cost[v] = sf.sign * problem.objective_coeff(v);
  }

  sf.rhs.resize(sf.rows);
  sf.initial_basis.assign(sf.rows, 0);

  const auto& constraints = problem.constraints();
  for (std::size_t r = 0; r < sf.rows; ++r) {
    const Constraint& row = constraints[r];
    double flip = 1.0;
    Relation rel = row.relation;
    if (row.rhs < 0.0) {
      // Normalize to non-negative rhs; flip the relation.
      flip = -1.0;
      if (rel == Relation::kLessEqual) {
        rel = Relation::kGreaterEqual;
      } else if (rel == Relation::kGreaterEqual) {
        rel = Relation::kLessEqual;
      }
    }
    sf.rhs[r] = flip * row.rhs;
    for (const Term& t : row.terms) {
      sf.columns[t.var].push_back(Entry{r, flip * t.coeff});
    }

    auto add_column = [&](double value, bool is_artificial) {
      sf.columns.push_back({Entry{r, value}});
      sf.cost.push_back(0.0);
      sf.artificial.push_back(is_artificial);
      return sf.columns.size() - 1;
    };

    switch (rel) {
      case Relation::kLessEqual: {
        const std::size_t slack = add_column(1.0, false);
        sf.initial_basis[r] = slack;
        break;
      }
      case Relation::kGreaterEqual: {
        add_column(-1.0, false);                       // surplus
        const std::size_t art = add_column(1.0, true); // artificial
        sf.initial_basis[r] = art;
        break;
      }
      case Relation::kEqual: {
        const std::size_t art = add_column(1.0, true);
        sf.initial_basis[r] = art;
        break;
      }
    }
  }
  return sf;
}

/// The working state of the revised simplex.
class SimplexEngine {
 public:
  SimplexEngine(const StandardForm& sf, const SimplexOptions& options,
                SolverStats* stats)
      : sf_{sf},
        opt_{options},
        stats_{stats},
        m_{sf.rows},
        n_{sf.columns.size()},
        basis_{sf.initial_basis},
        in_basis_(n_, false),
        binv_(m_ * m_, 0.0),
        xb_(m_, 0.0) {
    for (std::size_t r = 0; r < m_; ++r) {
      in_basis_[basis_[r]] = true;
      binv_[r * m_ + r] = 1.0;    // initial basis is the identity
      xb_[r] = sf_.rhs[r];
    }
  }

  /// Runs one simplex phase with the given cost vector; `iteration_count`
  /// receives the number of pivots taken.
  SolveStatus phase(const std::vector<double>& cost,
                    std::size_t* iteration_count) {
    std::size_t degenerate_run = 0;
    for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
      if (iteration_count != nullptr) *iteration_count = iter;
      if (pivots_since_refactor_ >= opt_.refactor_interval) {
        if (!refactorize()) return SolveStatus::kIterationLimit;
      }

      compute_duals(cost);
      const bool bland = degenerate_run >= kDegeneracyThreshold;
      const std::size_t entering = price(cost, bland);
      if (entering == n_) return SolveStatus::kOptimal;

      compute_direction(entering);
      const std::size_t leaving_row = ratio_test();
      if (leaving_row == m_) return SolveStatus::kUnbounded;

      const double step = xb_[leaving_row] / w_[leaving_row];
      degenerate_run = step <= kFeasibilityTol ? degenerate_run + 1 : 0;

      pivot(entering, leaving_row);
    }
    return SolveStatus::kIterationLimit;
  }

  /// Phase-1 objective (sum of artificial basic values).
  [[nodiscard]] double artificial_mass() const {
    double total = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      if (sf_.artificial[basis_[r]]) total += xb_[r];
    }
    return total;
  }

  /// After phase 1: pivot basic artificials out where possible and bar all
  /// artificial columns from ever entering again.
  void retire_artificials() {
    for (std::size_t r = 0; r < m_; ++r) {
      if (!sf_.artificial[basis_[r]]) continue;
      // Find any eligible non-artificial column with a usable pivot in row r.
      for (std::size_t j = 0; j < n_; ++j) {
        if (in_basis_[j] || sf_.artificial[j] || barred_[j]) continue;
        const double wr = row_dot_column(r, j);
        if (std::abs(wr) > kPivotTol * 10) {
          compute_direction(j);
          pivot(j, r);
          break;
        }
      }
      // If no column qualifies the row is redundant; the artificial stays
      // basic at (numerically) zero and is barred from growing by pricing.
    }
    for (std::size_t j = 0; j < n_; ++j) {
      if (sf_.artificial[j]) barred_[j] = true;
    }
  }

  [[nodiscard]] std::vector<double> extract_structural() const {
    std::vector<double> x(sf_.structural, 0.0);
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < sf_.structural) {
        x[basis_[r]] = std::max(0.0, xb_[r]);
      }
    }
    return x;
  }

  [[nodiscard]] double objective(const std::vector<double>& cost) const {
    double total = 0.0;
    for (std::size_t r = 0; r < m_; ++r) total += cost[basis_[r]] * xb_[r];
    return total;
  }

  void init_barred() { barred_.assign(n_, false); }

 private:
  // y' = c_B' * B^-1
  void compute_duals(const std::vector<double>& cost) {
    y_.assign(m_, 0.0);
    for (std::size_t r = 0; r < m_; ++r) {
      const double cb = cost[basis_[r]];
      if (cb == 0.0) continue;
      const double* binv_row = &binv_[r * m_];
      for (std::size_t i = 0; i < m_; ++i) y_[i] += cb * binv_row[i];
    }
  }

  // Reduced cost of column j: c_j - y' a_j.
  [[nodiscard]] double reduced_cost(const std::vector<double>& cost,
                                    std::size_t j) const {
    double d = cost[j];
    for (const Entry& e : sf_.columns[j]) d -= y_[e.row] * e.value;
    return d;
  }

  // Returns the entering column, or n_ if optimal.
  [[nodiscard]] std::size_t price(const std::vector<double>& cost,
                                  bool bland) const {
    std::size_t best = n_;
    double best_value = -kOptimalityTol;
    for (std::size_t j = 0; j < n_; ++j) {
      if (in_basis_[j] || barred_[j]) continue;
      const double d = reduced_cost(cost, j);
      if (d < best_value) {
        if (bland) return j;   // first eligible index
        best_value = d;
        best = j;
      }
    }
    return best;
  }

  // w = B^-1 a_j
  void compute_direction(std::size_t j) {
    w_.assign(m_, 0.0);
    for (const Entry& e : sf_.columns[j]) {
      const double v = e.value;
      for (std::size_t i = 0; i < m_; ++i) {
        w_[i] += binv_[i * m_ + e.row] * v;
      }
    }
  }

  // (row r of B^-1) . a_j — used when retiring artificials.
  [[nodiscard]] double row_dot_column(std::size_t r, std::size_t j) const {
    double total = 0.0;
    const double* binv_row = &binv_[r * m_];
    for (const Entry& e : sf_.columns[j]) total += binv_row[e.row] * e.value;
    return total;
  }

  // Returns the leaving row, or m_ if unbounded.
  [[nodiscard]] std::size_t ratio_test() const {
    std::size_t best_row = m_;
    double best_ratio = kInf;
    for (std::size_t r = 0; r < m_; ++r) {
      if (w_[r] <= kPivotTol) continue;
      const double ratio = std::max(0.0, xb_[r]) / w_[r];
      if (ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 && best_row != m_ &&
           basis_[r] < basis_[best_row])) {
        best_ratio = ratio;
        best_row = r;
      }
    }
    return best_row;
  }

  void pivot(std::size_t entering, std::size_t leaving_row) {
    const double pivot_value = w_[leaving_row];
    SWB_DCHECK(std::abs(pivot_value) > kPivotTol);
    const double step = std::max(0.0, xb_[leaving_row]) / pivot_value;

    for (std::size_t r = 0; r < m_; ++r) xb_[r] -= step * w_[r];
    xb_[leaving_row] = step;

    // Elementary row operations on B^-1.
    double* pivot_row = &binv_[leaving_row * m_];
    const double inv = 1.0 / pivot_value;
    for (std::size_t i = 0; i < m_; ++i) pivot_row[i] *= inv;
    for (std::size_t r = 0; r < m_; ++r) {
      if (r == leaving_row) continue;
      const double factor = w_[r];
      if (factor == 0.0) continue;
      double* row = &binv_[r * m_];
      for (std::size_t i = 0; i < m_; ++i) row[i] -= factor * pivot_row[i];
    }

    in_basis_[basis_[leaving_row]] = false;
    basis_[leaving_row] = entering;
    in_basis_[entering] = true;
    ++pivots_since_refactor_;
  }

  /// Rebuilds B^-1 by Gauss-Jordan with partial pivoting, then recomputes
  /// xb = B^-1 b.  Returns false if the basis matrix is singular.
  bool refactorize() {
    if (stats_ != nullptr) ++stats_->refactorizations;
    std::vector<double> mat(m_ * 2 * m_, 0.0);   // [B | I]
    const std::size_t stride = 2 * m_;
    for (std::size_t c = 0; c < m_; ++c) {
      for (const Entry& e : sf_.columns[basis_[c]]) {
        mat[e.row * stride + c] = e.value;
      }
    }
    for (std::size_t r = 0; r < m_; ++r) mat[r * stride + m_ + r] = 1.0;

    for (std::size_t col = 0; col < m_; ++col) {
      std::size_t pivot_row = col;
      double best = std::abs(mat[col * stride + col]);
      for (std::size_t r = col + 1; r < m_; ++r) {
        const double v = std::abs(mat[r * stride + col]);
        if (v > best) {
          best = v;
          pivot_row = r;
        }
      }
      if (best < 1e-12) {
        SB_LOG(kWarn) << "simplex refactorization found singular basis";
        return false;
      }
      if (pivot_row != col) {
        for (std::size_t i = 0; i < stride; ++i) {
          std::swap(mat[col * stride + i], mat[pivot_row * stride + i]);
        }
      }
      const double inv = 1.0 / mat[col * stride + col];
      for (std::size_t i = 0; i < stride; ++i) mat[col * stride + i] *= inv;
      for (std::size_t r = 0; r < m_; ++r) {
        if (r == col) continue;
        const double factor = mat[r * stride + col];
        if (factor == 0.0) continue;
        for (std::size_t i = 0; i < stride; ++i) {
          mat[r * stride + i] -= factor * mat[col * stride + i];
        }
      }
    }
    // Columns of the inverse in [.. | B^-1]; note the row permutation is
    // already applied by Gauss-Jordan.
    for (std::size_t r = 0; r < m_; ++r) {
      for (std::size_t i = 0; i < m_; ++i) {
        binv_[r * m_ + i] = mat[r * stride + m_ + i];
      }
    }
    // xb = B^-1 b
    for (std::size_t r = 0; r < m_; ++r) {
      double total = 0.0;
      const double* binv_row = &binv_[r * m_];
      for (std::size_t i = 0; i < m_; ++i) total += binv_row[i] * sf_.rhs[i];
      xb_[r] = total;
    }
    pivots_since_refactor_ = 0;
    return true;
  }

  const StandardForm& sf_;
  const SimplexOptions& opt_;
  SolverStats* stats_;
  std::size_t m_;
  std::size_t n_;
  std::vector<std::size_t> basis_;    // column basic in each row
  std::vector<bool> in_basis_;
  std::vector<bool> barred_;          // columns forbidden from entering
  std::vector<double> binv_;          // dense m x m basis inverse
  std::vector<double> xb_;            // basic variable values
  std::vector<double> y_;             // duals (scratch)
  std::vector<double> w_;             // direction (scratch)
  std::size_t pivots_since_refactor_{0};
};

/// Lowers a bounded Problem to the non-negative-rows form this engine
/// understands: x = x' + l shifts general lower bounds away (adjusting
/// every row's rhs and accumulating the objective constant), and finite
/// upper bounds become explicit `x' <= u - l` rows.
struct LoweredProblem {
  Problem reference;
  double objective_constant{0.0};
  std::vector<double> shift;   // per structural variable
};

LoweredProblem lower_bounds_to_rows(const Problem& problem) {
  LoweredProblem lowered;
  lowered.reference = Problem{problem.sense()};
  const std::size_t n = problem.variable_count();
  lowered.shift.resize(n);
  bool any_shift = false;
  for (VarIndex v = 0; v < n; ++v) {
    const double lb = problem.lower_bound(v);
    lowered.shift[v] = lb;
    any_shift = any_shift || lb != 0.0;
    lowered.reference.add_variable(problem.objective_coeff(v));
    lowered.objective_constant += problem.objective_coeff(v) * lb;
  }
  for (const Constraint& row : problem.constraints()) {
    double rhs = row.rhs;
    if (any_shift) {
      for (const Term& t : row.terms) rhs -= t.coeff * lowered.shift[t.var];
    }
    lowered.reference.add_constraint(row.relation, rhs, row.terms);
  }
  for (VarIndex v = 0; v < n; ++v) {
    const double ub = problem.upper_bound(v);
    if (ub < kInf) {
      lowered.reference.add_constraint(Relation::kLessEqual,
                                       ub - lowered.shift[v], {{v, 1.0}});
    }
  }
  return lowered;
}

Solution solve_lowered(const Problem& problem, const SimplexOptions& options,
                       SolverStats* stats) {
  Solution solution;
  if (problem.variable_count() == 0) {
    // Degenerate: feasible iff every constraint holds with x = 0.
    for (const Constraint& c : problem.constraints()) {
      const bool holds = (c.relation == Relation::kLessEqual && 0.0 <= c.rhs) ||
                         (c.relation == Relation::kEqual && c.rhs == 0.0) ||
                         (c.relation == Relation::kGreaterEqual && 0.0 >= c.rhs);
      if (!holds) {
        solution.status = SolveStatus::kInfeasible;
        return solution;
      }
    }
    solution.status = SolveStatus::kOptimal;
    return solution;
  }

  const StandardForm sf = build_standard_form(problem);
  SimplexEngine engine{sf, options, stats};
  engine.init_barred();

  const bool needs_phase1 = std::any_of(
      sf.initial_basis.begin(), sf.initial_basis.end(),
      [&](std::size_t col) { return sf.artificial[col]; });

  if (needs_phase1) {
    std::vector<double> phase1_cost(sf.columns.size(), 0.0);
    for (std::size_t j = 0; j < sf.columns.size(); ++j) {
      if (sf.artificial[j]) phase1_cost[j] = 1.0;
    }
    const SolveStatus status = engine.phase(
        phase1_cost, stats != nullptr ? &stats->phase1_iterations : nullptr);
    if (status == SolveStatus::kIterationLimit) {
      solution.status = status;
      return solution;
    }
    if (engine.artificial_mass() > kFeasibilityTol * 100) {
      solution.status = SolveStatus::kInfeasible;
      return solution;
    }
    engine.retire_artificials();
  }

  const SolveStatus status = engine.phase(
      sf.cost, stats != nullptr ? &stats->phase2_iterations : nullptr);
  solution.status = status;
  if (status != SolveStatus::kOptimal) return solution;

  solution.values = engine.extract_structural();
  solution.objective = sf.sign * engine.objective(sf.cost);
  return solution;
}

}  // namespace

Solution solve_dense_reference(const Problem& problem,
                               const SimplexOptions& options) {
  const LoweredProblem lowered = lower_bounds_to_rows(problem);
  SolverStats stats;
  Solution solution = solve_lowered(lowered.reference, options, &stats);
  solution.stats = stats;
  if (solution.status == SolveStatus::kOptimal) {
    // Undo the lower-bound shift: x = x' + l.
    for (VarIndex v = 0; v < solution.values.size(); ++v) {
      solution.values[v] += lowered.shift[v];
    }
    solution.objective += lowered.objective_constant;
  }
  return solution;
}

}  // namespace switchboard::lp
