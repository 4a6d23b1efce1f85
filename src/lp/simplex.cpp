// Bounded-variable two-phase revised primal simplex over a sparse LU.
//
// Internal model: minimize c'x subject to A x + s = b where one slack s_r
// is appended per row and ranged by the row's relation (<=: s in [0,inf),
// >=: s in (-inf,0], =: s = 0).  Simple bounds on structural variables are
// never expanded into rows — a nonbasic variable simply sits at its lower
// or upper bound (VarStatus) and the ratio test allows bound-to-bound
// flips that never touch the basis.
//
// Phase 1 is artificial-free: the all-slack basis B = I is always
// available, and when a (warm-started) basis is primal infeasible the
// phase-1 objective is the sum of basic bound violations, re-derived each
// iteration from which basics currently sit outside their range (basic
// below lower prices as -1, above upper as +1).  The ratio test takes
// short steps — an infeasible basic blocks at the bound it is violating —
// so feasibility is repaired monotonically and a primal-feasible warm
// basis skips phase 1 outright.
//
// Determinism: candidate-list partial pricing with full Dantzig rescans,
// every tie broken toward the lowest index, and a Bland's-rule fallback
// after a run of degenerate pivots.  No randomness, no pointer-order
// iteration: repeated solves of the same Problem are bit-identical.
#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/log.hpp"
#include "lp/sparse_lu.hpp"

namespace switchboard::lp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

enum class PhaseResult {
  kDone,        // phase objective reached (feasible / optimal)
  kInfeasible,
  kUnbounded,
  kIterLimit,
  kRestart,     // numerically singular basis; caller restarts cold
};

enum class StepResult { kPivoted, kFlipped, kUnbounded, kFactorFail };

class SparseSimplex {
 public:
  SparseSimplex(const Problem& problem, const SimplexOptions& options)
      : opt_{options},
        n_{problem.variable_count()},
        m_{problem.constraint_count()},
        total_{n_ + m_},
        sign_{problem.sense() == Sense::kMinimize ? 1.0 : -1.0} {
    cols_.resize(total_);
    cost_.assign(total_, 0.0);
    lower_.assign(total_, 0.0);
    upper_.assign(total_, kInf);
    rhs_.resize(m_);
    for (VarIndex v = 0; v < n_; ++v) {
      cost_[v] = sign_ * problem.objective_coeff(v);
      lower_[v] = problem.lower_bound(v);
      upper_[v] = problem.upper_bound(v);
    }
    const auto& constraints = problem.constraints();
    for (std::size_t r = 0; r < m_; ++r) {
      const Constraint& row = constraints[r];
      rhs_[r] = row.rhs;
      for (const Term& t : row.terms) {
        cols_[t.var].push_back({static_cast<std::uint32_t>(r), t.coeff});
      }
      const std::size_t s = n_ + r;
      cols_[s].push_back({static_cast<std::uint32_t>(r), 1.0});
      switch (row.relation) {
        case Relation::kLessEqual:
          break;  // slack in [0, inf)
        case Relation::kGreaterEqual:
          lower_[s] = -kInf;
          upper_[s] = 0.0;
          break;
        case Relation::kEqual:
          upper_[s] = 0.0;  // fixed at zero
          break;
      }
    }
  }

  Solution run(const Basis* warm) {
    bool warm_ok = warm != nullptr && !warm->empty() && load_warm(*warm);
    if (!warm_ok) load_cold();
    if (!refactorize()) {
      // A singular warm basis falls back to the (identity) cold start.
      if (!warm_ok) return finish(SolveStatus::kIterationLimit);
      warm_ok = false;
      load_cold();
      if (!refactorize()) return finish(SolveStatus::kIterationLimit);
    }
    stats_.warm_started = warm_ok;

    for (int attempt = 0; attempt < 2; ++attempt) {
      PhaseResult pr = PhaseResult::kDone;
      if (has_violations()) {
        pr = phase1();
      } else if (attempt == 0) {
        stats_.phase1_skipped = true;
      }
      if (pr == PhaseResult::kDone) pr = phase2();
      switch (pr) {
        case PhaseResult::kDone:
          return finish(SolveStatus::kOptimal);
        case PhaseResult::kInfeasible:
          return finish(SolveStatus::kInfeasible);
        case PhaseResult::kUnbounded:
          return finish(SolveStatus::kUnbounded);
        case PhaseResult::kIterLimit:
          return finish(SolveStatus::kIterationLimit);
        case PhaseResult::kRestart:
          SB_LOG(kWarn) << "lp: singular basis mid-solve; restarting cold";
          stats_.warm_started = false;
          stats_.phase1_skipped = false;
          load_cold();
          if (!refactorize()) return finish(SolveStatus::kIterationLimit);
          break;
      }
    }
    return finish(SolveStatus::kIterationLimit);
  }

 private:
  // ---- basis loading -----------------------------------------------------

  /// Cold start: every structural variable at its (finite) lower bound,
  /// the all-slack identity basis.
  void load_cold() {
    status_.assign(total_, VarStatus::kAtLower);
    basis_cols_.resize(m_);
    x_.assign(total_, 0.0);
    for (std::size_t v = 0; v < n_; ++v) x_[v] = lower_[v];
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t s = n_ + r;
      status_[s] = VarStatus::kBasic;
      basis_cols_[r] = static_cast<std::uint32_t>(s);
    }
  }

  /// Loads a caller-provided basis.  Nonbasic statuses pointing at an
  /// infinite bound are redirected to the finite one; returns false when
  /// the dimensions or the basic count don't match the problem.
  bool load_warm(const Basis& warm) {
    if (warm.variables.size() != n_ || warm.slacks.size() != m_) return false;
    status_.resize(total_);
    std::copy(warm.variables.begin(), warm.variables.end(), status_.begin());
    std::copy(warm.slacks.begin(), warm.slacks.end(),
              status_.begin() + static_cast<std::ptrdiff_t>(n_));
    basis_cols_.clear();
    x_.assign(total_, 0.0);
    for (std::size_t j = 0; j < total_; ++j) {
      if (status_[j] == VarStatus::kBasic) {
        basis_cols_.push_back(static_cast<std::uint32_t>(j));
        continue;
      }
      if (status_[j] == VarStatus::kAtLower && lower_[j] == -kInf) {
        if (upper_[j] == kInf) return false;  // free nonbasic: no home
        status_[j] = VarStatus::kAtUpper;
      } else if (status_[j] == VarStatus::kAtUpper && upper_[j] == kInf) {
        status_[j] = VarStatus::kAtLower;
      }
      x_[j] = status_[j] == VarStatus::kAtLower ? lower_[j] : upper_[j];
    }
    return basis_cols_.size() == m_;
  }

  /// Rebuilds the LU from the current basis and recomputes basic values
  /// from scratch: x_B = B^{-1} (b - N x_N).
  bool refactorize() {
    ++stats_.refactorizations;
    col_ptrs_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) col_ptrs_[i] = &cols_[basis_cols_[i]];
    if (!lu_.factorize(m_, col_ptrs_)) return false;
    pivots_since_refactor_ = 0;
    recompute_basics();
    return true;
  }

  void recompute_basics() {
    rvec_ = rhs_;
    for (std::size_t j = 0; j < total_; ++j) {
      if (status_[j] == VarStatus::kBasic || x_[j] == 0.0) continue;
      const double xj = x_[j];
      for (const SparseEntry& e : cols_[j]) rvec_[e.row] -= e.value * xj;
    }
    lu_.ftran(rvec_);
    for (std::size_t i = 0; i < m_; ++i) x_[basis_cols_[i]] = rvec_[i];
  }

  [[nodiscard]] bool has_violations() const {
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t j = basis_cols_[i];
      if (x_[j] < lower_[j] - kFeasibilityTol ||
          x_[j] > upper_[j] + kFeasibilityTol) {
        return true;
      }
    }
    return false;
  }

  // ---- phases ------------------------------------------------------------

  PhaseResult phase1() {
    std::size_t degenerate_run = 0;
    candidates_.clear();
    while (total_iterations_ < kMaxIterations) {
      // Phase-1 costs are re-derived from the current violations: a basic
      // below its lower bound wants to rise (prices -1), one above its
      // upper wants to fall (+1).  Nonbasic columns cost zero.
      y_.assign(m_, 0.0);
      bool violated = false;
      for (std::size_t i = 0; i < m_; ++i) {
        const std::size_t j = basis_cols_[i];
        if (x_[j] < lower_[j] - kFeasibilityTol) {
          y_[i] = -1.0;
          violated = true;
        } else if (x_[j] > upper_[j] + kFeasibilityTol) {
          y_[i] = 1.0;
          violated = true;
        }
      }
      if (!violated) return PhaseResult::kDone;
      lu_.btran(y_);

      const bool bland = degenerate_run >= kDegeneracyThreshold;
      const std::size_t entering = price(/*phase1=*/true, bland);
      if (entering == kNone) return PhaseResult::kInfeasible;
      ++stats_.phase1_iterations;
      ++total_iterations_;

      switch (step(entering, /*phase1=*/true, degenerate_run)) {
        case StepResult::kUnbounded:
          // Cannot happen with the short-step rules (some violated basic
          // always blocks); treat as numerical trouble.
          SB_LOG(kWarn) << "lp: unbounded phase-1 direction";
          return PhaseResult::kIterLimit;
        case StepResult::kFactorFail:
          return PhaseResult::kRestart;
        case StepResult::kPivoted:
        case StepResult::kFlipped:
          break;
      }
    }
    return PhaseResult::kIterLimit;
  }

  PhaseResult phase2() {
    std::size_t degenerate_run = 0;
    candidates_.clear();  // phase-1 scores are stale
    while (total_iterations_ < kMaxIterations) {
      y_.assign(m_, 0.0);
      bool any = false;
      for (std::size_t i = 0; i < m_; ++i) {
        const double c = cost_[basis_cols_[i]];
        if (c != 0.0) {
          y_[i] = c;
          any = true;
        }
      }
      if (any) lu_.btran(y_);

      const bool bland = degenerate_run >= kDegeneracyThreshold;
      const std::size_t entering = price(/*phase1=*/false, bland);
      if (entering == kNone) return PhaseResult::kDone;
      ++stats_.phase2_iterations;
      ++total_iterations_;

      switch (step(entering, /*phase1=*/false, degenerate_run)) {
        case StepResult::kUnbounded:
          return PhaseResult::kUnbounded;
        case StepResult::kFactorFail:
          return PhaseResult::kRestart;
        case StepResult::kPivoted:
        case StepResult::kFlipped:
          break;
      }
    }
    return PhaseResult::kIterLimit;
  }

  // ---- pricing -----------------------------------------------------------

  [[nodiscard]] double reduced_cost(std::size_t j, bool phase1) const {
    double d = phase1 ? 0.0 : cost_[j];
    for (const SparseEntry& e : cols_[j]) d -= y_[e.row] * e.value;
    return d;
  }

  [[nodiscard]] bool eligible(std::size_t j, double d) const {
    // At lower: increasing improves iff d < 0; at upper: decreasing
    // improves iff d > 0.
    return (status_[j] == VarStatus::kAtLower && d < -kOptimalityTol) ||
           (status_[j] == VarStatus::kAtUpper && d > kOptimalityTol);
  }

  [[nodiscard]] bool unpriceable(std::size_t j) const {
    return status_[j] == VarStatus::kBasic || lower_[j] == upper_[j];
  }

  /// Returns the entering column, or kNone when no nonbasic column can
  /// improve the current phase objective (verified by a FULL scan).
  std::size_t price(bool phase1, bool bland) {
    if (bland) {
      // Bland's rule: lowest-index eligible column; guarantees
      // termination under degeneracy.
      for (std::size_t j = 0; j < total_; ++j) {
        if (unpriceable(j)) continue;
        if (eligible(j, reduced_cost(j, phase1))) return j;
      }
      return kNone;
    }
    // Minor pass: reprice the candidate list only, pruning entries that
    // are no longer eligible.
    std::size_t best = kNone;
    double best_score = 0.0;
    std::size_t keep = 0;
    for (const std::uint32_t j : candidates_) {
      if (unpriceable(j)) continue;
      const double d = reduced_cost(j, phase1);
      if (!eligible(j, d)) continue;
      candidates_[keep++] = j;
      const double score = std::abs(d);
      if (score > best_score || (score == best_score && j < best)) {
        best_score = score;
        best = j;
      }
    }
    candidates_.resize(keep);
    if (best != kNone) return best;
    // Full Dantzig scan; rebuild the candidate list from the top scorers.
    scored_.clear();
    for (std::size_t j = 0; j < total_; ++j) {
      if (unpriceable(j)) continue;
      const double d = reduced_cost(j, phase1);
      if (eligible(j, d)) {
        scored_.push_back({std::abs(d), static_cast<std::uint32_t>(j)});
      }
    }
    if (scored_.empty()) return kNone;
    const std::size_t k = std::min(kCandidateListSize, scored_.size());
    std::partial_sort(scored_.begin(),
                      scored_.begin() + static_cast<std::ptrdiff_t>(k),
                      scored_.end(), [](const Scored& a, const Scored& b) {
                        return a.score != b.score ? a.score > b.score
                                                  : a.index < b.index;
                      });
    candidates_.resize(k);
    for (std::size_t i = 0; i < k; ++i) candidates_[i] = scored_[i].index;
    return candidates_[0];
  }

  // ---- ratio test and pivot ----------------------------------------------

  /// Moves the entering column: computes w = B^{-1} a_q, runs the
  /// two-sided (phase-aware) ratio test, and either flips the entering
  /// variable to its opposite bound or pivots it into the basis.
  StepResult step(std::size_t entering, bool phase1,
                  std::size_t& degenerate_run) {
    w_.assign(m_, 0.0);
    for (const SparseEntry& e : cols_[entering]) w_[e.row] = e.value;
    lu_.ftran(w_);

    // Entering moves up from its lower bound or down from its upper.
    const double t = status_[entering] == VarStatus::kAtLower ? 1.0 : -1.0;

    std::size_t best_row = kNone;
    double best_theta = kInf;
    VarStatus leave_status = VarStatus::kAtLower;
    for (std::size_t i = 0; i < m_; ++i) {
      if (std::abs(w_[i]) <= kPivotTol) continue;
      const std::size_t j = basis_cols_[i];
      // x_j(theta) = x_j - theta * rate.
      const double rate = t * w_[i];
      const double xj = x_[j];
      double theta;
      VarStatus bound;
      if (phase1 && xj < lower_[j] - kFeasibilityTol) {
        // Infeasible below: blocks only while rising toward its lower
        // bound (short step — feasibility is repaired, never overshot).
        if (rate >= 0.0) continue;
        theta = (lower_[j] - xj) / -rate;
        bound = VarStatus::kAtLower;
      } else if (phase1 && xj > upper_[j] + kFeasibilityTol) {
        if (rate <= 0.0) continue;
        theta = (xj - upper_[j]) / rate;
        bound = VarStatus::kAtUpper;
      } else if (rate > 0.0) {
        if (lower_[j] == -kInf) continue;
        theta = (xj - lower_[j]) / rate;
        bound = VarStatus::kAtLower;
      } else {
        if (upper_[j] == kInf) continue;
        theta = (upper_[j] - xj) / -rate;
        bound = VarStatus::kAtUpper;
      }
      theta = std::max(theta, 0.0);
      if (theta < best_theta - 1e-12 ||
          (theta < best_theta + 1e-12 && best_row != kNone &&
           j < basis_cols_[best_row])) {
        best_theta = theta;
        best_row = i;
        leave_status = bound;
      }
    }

    // The entering variable's own range can block first: a bound flip
    // moves it to the opposite bound without touching the basis.
    const double range = upper_[entering] - lower_[entering];
    if (std::isfinite(range) && range <= best_theta) {
      for (std::size_t i = 0; i < m_; ++i) {
        if (w_[i] != 0.0) x_[basis_cols_[i]] -= t * range * w_[i];
      }
      x_[entering] = t > 0.0 ? upper_[entering] : lower_[entering];
      status_[entering] = t > 0.0 ? VarStatus::kAtUpper : VarStatus::kAtLower;
      ++stats_.bound_flips;
      degenerate_run = range <= kFeasibilityTol ? degenerate_run + 1 : 0;
      return StepResult::kFlipped;
    }
    if (best_row == kNone) return StepResult::kUnbounded;

    const double theta = best_theta;
    for (std::size_t i = 0; i < m_; ++i) {
      if (w_[i] != 0.0) x_[basis_cols_[i]] -= t * theta * w_[i];
    }
    x_[entering] += t * theta;
    const std::size_t leaving = basis_cols_[best_row];
    // Snap the leaving variable exactly onto its blocking bound.
    x_[leaving] = leave_status == VarStatus::kAtLower ? lower_[leaving]
                                                      : upper_[leaving];
    status_[leaving] = leave_status;
    status_[entering] = VarStatus::kBasic;
    basis_cols_[best_row] = static_cast<std::uint32_t>(entering);
    degenerate_run = theta <= kFeasibilityTol ? degenerate_run + 1 : 0;
    ++pivots_since_refactor_;

    const bool eta_ok = lu_.push_eta(best_row, w_, kPivotTol);
    if (!eta_ok || pivots_since_refactor_ >= opt_.refactor_interval) {
      if (!refactorize()) return StepResult::kFactorFail;
    }
    return StepResult::kPivoted;
  }

  // ---- extraction --------------------------------------------------------

  Solution finish(SolveStatus status) {
    stats_.basis_nonzeros = lu_.fill_nonzeros();
    Solution solution;
    solution.status = status;
    solution.stats = stats_;
    if (status != SolveStatus::kOptimal) return solution;
    solution.values.resize(n_);
    double objective = 0.0;
    for (std::size_t v = 0; v < n_; ++v) {
      // Basic values can sit a hair outside their range; snap them in
      // (and normalize -0.0 away so printed solutions are clean).
      double value = std::clamp(x_[v], lower_[v], upper_[v]);
      if (value == 0.0) value = 0.0;
      solution.values[v] = value;
      objective += sign_ * cost_[v] * value;
    }
    solution.objective = objective;
    solution.basis.variables.assign(
        status_.begin(), status_.begin() + static_cast<std::ptrdiff_t>(n_));
    solution.basis.slacks.assign(
        status_.begin() + static_cast<std::ptrdiff_t>(n_), status_.end());
    return solution;
  }

  struct Scored {
    double score;
    std::uint32_t index;
  };

  const SimplexOptions& opt_;
  std::size_t n_;       // structural variables
  std::size_t m_;       // rows (== slack count)
  std::size_t total_;   // n_ + m_
  double sign_;         // +1 minimize, -1 maximize (internal costs minimize)

  std::vector<SparseColumn> cols_;   // structural then slack columns
  std::vector<double> cost_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> rhs_;

  std::vector<VarStatus> status_;
  std::vector<std::uint32_t> basis_cols_;   // column basic at each position
  std::vector<double> x_;                   // all column values
  BasisLu lu_;
  std::size_t pivots_since_refactor_{0};
  std::size_t total_iterations_{0};
  SolverStats stats_;

  // Scratch.
  std::vector<double> y_;       // duals (row space)
  std::vector<double> w_;       // entering column FTRAN image
  std::vector<double> rvec_;
  std::vector<const SparseColumn*> col_ptrs_;
  std::vector<std::uint32_t> candidates_;
  std::vector<Scored> scored_;
};

}  // namespace

Solution solve(const Problem& problem, const SimplexOptions& options) {
  return solve_simplex(problem, options, nullptr);
}

Solution solve_simplex(const Problem& problem, const SimplexOptions& options,
                       const Basis* warm) {
  SparseSimplex engine{problem, options};
  return engine.run(warm);
}

}  // namespace switchboard::lp
