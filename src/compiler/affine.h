// Affine expressions over named integer variables.
//
// The compiler front end expresses loop bounds, I/O offsets and compute
// costs as affine functions of enclosing loop indices, the process id `p`
// and the process count `P` — the class of programs the paper's polyhedral
// path handles.  `AffineExpr` supports the arithmetic needed to build them;
// lowering (lower.h) resolves the names to environment slots and evaluates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dasched {

class AffineExpr {
 public:
  /// The zero expression.
  AffineExpr() = default;

  /// A constant.
  AffineExpr(std::int64_t c) : constant_(c) {}  // NOLINT(google-explicit-constructor)

  /// The variable `name` (coefficient 1).
  [[nodiscard]] static AffineExpr var(std::string name);

  /// True when no variables appear (after dropping zero coefficients).
  [[nodiscard]] bool is_constant() const { return terms_.empty(); }

  /// The constant part.
  [[nodiscard]] std::int64_t constant() const { return constant_; }

  /// Coefficient of `name` (0 if absent).
  [[nodiscard]] std::int64_t coefficient(const std::string& name) const;

  /// Names of variables with nonzero coefficients, sorted.
  [[nodiscard]] std::vector<std::string> variables() const;

  /// The (name, nonzero coefficient) terms, in name order.
  [[nodiscard]] const std::map<std::string, std::int64_t>& terms() const {
    return terms_;
  }

  AffineExpr& operator+=(const AffineExpr& o);
  AffineExpr& operator-=(const AffineExpr& o);
  /// Scaling by a constant keeps the expression affine.
  AffineExpr& operator*=(std::int64_t k);

  friend AffineExpr operator+(AffineExpr a, const AffineExpr& b) { return a += b; }
  friend AffineExpr operator-(AffineExpr a, const AffineExpr& b) { return a -= b; }
  friend AffineExpr operator*(AffineExpr a, std::int64_t k) { return a *= k; }
  friend AffineExpr operator*(std::int64_t k, AffineExpr a) { return a *= k; }

  bool operator==(const AffineExpr&) const = default;

  [[nodiscard]] std::string to_string() const;

 private:
  void prune();

  std::int64_t constant_ = 0;
  std::map<std::string, std::int64_t> terms_;
};

}  // namespace dasched
