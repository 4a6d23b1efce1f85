// Sparse LU factorization of a simplex basis, with product-form updates.
//
// The factorization is a left-looking sparse Gaussian elimination (the
// CSparse cs_lu shape): columns are processed in a static fill-reducing
// order (fewest nonzeros first), each one triangular-solved against the L
// built so far via a depth-first reachability walk, and the pivot row is
// chosen by partial pivoting (largest magnitude, lowest row index on
// ties).  Between refactorizations, basis exchanges are absorbed as
// product-form eta vectors: replacing the column at basis position r by a
// column whose FTRAN image is w appends the eta (r, w), so
//
//   B_k = B_0 * E_1 * ... * E_k,   E_i = I with column r_i replaced by w_i
//
// and FTRAN/BTRAN apply the eta file after/before the LU solves.  Every
// choice (pivot order, pivot row, tie-breaks) is deterministic, so solves
// are bit-reproducible across runs and machines with the same FP unit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace switchboard::lp {

/// One nonzero of a sparse column.
struct SparseEntry {
  std::uint32_t row;
  double value;
};

using SparseColumn = std::vector<SparseEntry>;

class BasisLu {
 public:
  /// Factorizes the m x m matrix whose columns are `cols` (each sorted or
  /// unsorted; rows < m).  Clears the eta file.  Returns false when the
  /// matrix is numerically singular (pivot below `singular_tol`).
  bool factorize(std::size_t m, const std::vector<const SparseColumn*>& cols,
                 double singular_tol = 1e-11);

  /// x := B^{-1} x (dense in/out, length m).  Non-const only because the
  /// solve reuses internal scratch.
  void ftran(std::vector<double>& x);

  /// x := B^{-T} x (dense in/out, length m).
  void btran(std::vector<double>& x);

  /// Absorbs a basis exchange at position `pos`: the entering column's
  /// FTRAN image is `w` (dense, length m).  Returns false when |w[pos]| is
  /// below `pivot_tol` (caller should refactorize instead).
  bool push_eta(std::size_t pos, const std::vector<double>& w,
                double pivot_tol);

  /// Nonzeros of L + U after the last factorize (basis fill-in).
  [[nodiscard]] std::size_t fill_nonzeros() const { return fill_nonzeros_; }

 private:
  struct Eta {
    std::size_t pos;                   // basis position replaced
    double pivot;                      // w[pos]
    std::vector<SparseEntry> other;    // w's nonzeros excluding pos
  };

  std::size_t m_{0};
  // L (unit diagonal implicit) and U in pivot-position space, column-wise.
  // lcol_[k] holds the below-diagonal entries of L's column k; ucol_[k]
  // the above-diagonal entries of U's column k; udiag_[k] the pivot.
  std::vector<std::vector<SparseEntry>> lcol_;
  std::vector<std::vector<SparseEntry>> ucol_;
  std::vector<double> udiag_;
  std::vector<std::uint32_t> row_of_pos_;   // pivot position -> original row
  std::vector<std::uint32_t> pos_of_row_;   // original row -> pivot position
  std::vector<std::uint32_t> col_of_pos_;   // pivot position -> basis column
  std::vector<std::uint32_t> pos_of_col_;   // basis column -> pivot position
  std::vector<Eta> etas_;
  std::size_t fill_nonzeros_{0};

  // Scratch reused across factorize()/ftran()/btran() calls.
  std::vector<double> work_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::uint32_t> stack_entry_;
  std::vector<std::uint8_t> visited_;
};

}  // namespace switchboard::lp
