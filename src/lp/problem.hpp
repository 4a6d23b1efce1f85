// Linear-program builder.
//
// Switchboard's traffic-engineering formulations (Section 4.3) are
// constructed as Problem instances and handed to the simplex solver — our
// from-scratch substitute for the CPLEX suite the paper's prototype used.
// Every structural variable carries a [lower, upper] range (default
// [0, +inf)); simple bounds are handled implicitly by the bounded-variable
// simplex instead of being expanded into constraint rows, which keeps the
// basis at the size of the structural constraints.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace switchboard::lp {

enum class Sense { kMinimize, kMaximize };
enum class Relation { kLessEqual, kEqual, kGreaterEqual };

using VarIndex = std::size_t;

/// One coefficient of a constraint row: `coeff * x[var]`.
struct Term {
  VarIndex var;
  double coeff;
};

struct Constraint {
  Relation relation;
  double rhs;
  std::vector<Term> terms;
  std::string name;
};

class Problem {
 public:
  explicit Problem(Sense sense = Sense::kMinimize) : sense_{sense} {}

  /// Adds a variable with the given objective coefficient and range
  /// [0, +inf).  Tighten with set_bounds()/set_upper_bound().
  VarIndex add_variable(double objective_coeff, std::string name = "");

  /// Adds `sum(terms) relation rhs`.  Duplicate `var` entries in `terms`
  /// are summed.  Returns the row index.
  std::size_t add_constraint(Relation relation, double rhs,
                             std::vector<Term> terms, std::string name = "");

  void set_sense(Sense sense) { sense_ = sense; }

  /// Sets the variable's range.  `lower` must be finite and <= `upper`;
  /// `upper` may be +inf.  `lower == upper` fixes the variable.
  void set_bounds(VarIndex var, double lower, double upper);
  /// Shorthand: keeps the current lower bound.
  void set_upper_bound(VarIndex var, double upper);

  [[nodiscard]] Sense sense() const { return sense_; }
  [[nodiscard]] std::size_t variable_count() const { return objective_.size(); }
  [[nodiscard]] std::size_t constraint_count() const {
    return constraints_.size();
  }
  [[nodiscard]] double objective_coeff(VarIndex var) const;
  [[nodiscard]] double lower_bound(VarIndex var) const;
  [[nodiscard]] double upper_bound(VarIndex var) const;
  [[nodiscard]] const std::vector<Constraint>& constraints() const {
    return constraints_;
  }
  [[nodiscard]] const std::string& variable_name(VarIndex var) const;

 private:
  Sense sense_;
  std::vector<double> objective_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<std::string> names_;
  std::vector<Constraint> constraints_;
};

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

[[nodiscard]] const char* to_string(SolveStatus status);

// ------------------------------------------------------------- warm starts

/// Where a variable sits relative to the current basis.  Nonbasic-at-upper
/// is what lets `x <= u` live as a status instead of a constraint row.
enum class VarStatus : std::uint8_t { kAtLower, kAtUpper, kBasic };

/// A (structural + per-row slack) status assignment: the simplex's final
/// resting point, replayable as a warm start for a related problem.  The
/// number of kBasic entries must equal the row count to name a basis.
struct Basis {
  std::vector<VarStatus> variables;   // one per structural variable
  std::vector<VarStatus> slacks;      // one per constraint row

  [[nodiscard]] bool empty() const {
    return variables.empty() && slacks.empty();
  }
};

/// Work counters of one solve, surfaced through Solution/bench JSON.
struct SolverStats {
  std::size_t phase1_iterations{0};
  std::size_t phase2_iterations{0};
  std::size_t bound_flips{0};         // nonbasic lower<->upper, no pivot
  std::size_t refactorizations{0};    // sparse LU rebuilds (incl. initial)
  std::size_t basis_nonzeros{0};      // LU fill-in at the last rebuild
  bool warm_started{false};           // a caller basis was accepted
  bool phase1_skipped{false};         // warm basis was primal feasible

  [[nodiscard]] std::size_t iterations() const {
    return phase1_iterations + phase2_iterations;
  }
};

struct Solution {
  SolveStatus status{SolveStatus::kIterationLimit};
  double objective{0.0};
  std::vector<double> values;   // one per structural variable
  /// Final variable statuses (empty for the dense reference mode and for
  /// non-optimal exits before a basis existed); feed back into
  /// solve_simplex() to warm-start a related solve.
  Basis basis;
  SolverStats stats;

  [[nodiscard]] bool optimal() const {
    return status == SolveStatus::kOptimal;
  }
};

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

}  // namespace switchboard::lp
