// The dense-inverse reference simplex: the engine the sparse one in
// src/lp/simplex.cpp replaced, kept outside the library as a cross-check.
#pragma once

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace switchboard::lp {

/// Solves `problem` with a dense basis inverse.  Simple bounds are expanded
/// into explicit rows, general lower bounds handled by variable shifting.
/// Tests and bench_ext_scale use it to cross-check lp::solve(); it returns
/// an empty Solution::basis.
[[nodiscard]] Solution solve_dense_reference(
    const Problem& problem, const SimplexOptions& options = {});

}  // namespace switchboard::lp
