#include "lp/problem.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace switchboard::lp {

VarIndex Problem::add_variable(double objective_coeff, std::string name) {
  objective_.push_back(objective_coeff);
  lower_.push_back(0.0);
  upper_.push_back(kInfinity);
  names_.push_back(std::move(name));
  return objective_.size() - 1;
}

void Problem::set_bounds(VarIndex var, double lower, double upper) {
  SWB_CHECK(var < variable_count());
  SWB_CHECK(std::isfinite(lower)) << "lower bound must be finite";
  SWB_CHECK(lower <= upper) << "empty variable range";
  lower_[var] = lower;
  upper_[var] = upper;
}

void Problem::set_upper_bound(VarIndex var, double upper) {
  SWB_CHECK(var < variable_count());
  set_bounds(var, lower_[var], upper);
}

double Problem::lower_bound(VarIndex var) const {
  SWB_DCHECK(var < variable_count());
  return lower_[var];
}

double Problem::upper_bound(VarIndex var) const {
  SWB_DCHECK(var < variable_count());
  return upper_[var];
}

std::size_t Problem::add_constraint(Relation relation, double rhs,
                                    std::vector<Term> terms,
                                    std::string name) {
  // Merge duplicate variables so the solver sees clean rows.
  std::sort(terms.begin(), terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  std::vector<Term> merged;
  merged.reserve(terms.size());
  for (const Term& t : terms) {
    SWB_CHECK(t.var < variable_count());
    if (!merged.empty() && merged.back().var == t.var) {
      merged.back().coeff += t.coeff;
    } else {
      merged.push_back(t);
    }
  }
  std::erase_if(merged, [](const Term& t) { return t.coeff == 0.0; });
  constraints_.push_back(
      Constraint{relation, rhs, std::move(merged), std::move(name)});
  return constraints_.size() - 1;
}

double Problem::objective_coeff(VarIndex var) const {
  SWB_DCHECK(var < variable_count());
  return objective_[var];
}

const std::string& Problem::variable_name(VarIndex var) const {
  SWB_DCHECK(var < variable_count());
  return names_[var];
}

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration_limit";
  }
  return "unknown";
}

}  // namespace switchboard::lp
