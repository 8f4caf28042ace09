// Partial-pivot LU factorization. Used by the revised simplex for periodic
// basis refactorization.
#pragma once

#include <optional>
#include <vector>

#include "linalg/matrix.hpp"

namespace sora::linalg {

class Lu {
 public:
  /// Factor a square A with partial pivoting. Returns nullopt if singular
  /// to working precision.
  static std::optional<Lu> factor(const Matrix& a);

  /// Solve A x = b.
  Vec solve(const Vec& b) const;

  std::size_t dim() const { return lu_.rows(); }

 private:
  Lu(Matrix lu, std::vector<std::size_t> perm)
      : lu_(std::move(lu)), perm_(std::move(perm)) {}

  Matrix lu_;                      // packed L (unit lower) and U
  std::vector<std::size_t> perm_;  // row permutation: row i of PA is perm_[i] of A
};

}  // namespace sora::linalg
