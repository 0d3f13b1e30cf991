#include "compiler/affine.h"

#include <sstream>

namespace dasched {

AffineExpr AffineExpr::var(std::string name) {
  AffineExpr e;
  e.terms_[std::move(name)] = 1;
  return e;
}

std::int64_t AffineExpr::coefficient(const std::string& name) const {
  const auto it = terms_.find(name);
  return it == terms_.end() ? 0 : it->second;
}

std::vector<std::string> AffineExpr::variables() const {
  std::vector<std::string> out;
  out.reserve(terms_.size());
  for (const auto& [name, coeff] : terms_) {
    (void)coeff;
    out.push_back(name);
  }
  return out;
}

void AffineExpr::prune() {
  for (auto it = terms_.begin(); it != terms_.end();) {
    if (it->second == 0) {
      it = terms_.erase(it);
    } else {
      ++it;
    }
  }
}

AffineExpr& AffineExpr::operator+=(const AffineExpr& o) {
  constant_ += o.constant_;
  for (const auto& [name, coeff] : o.terms_) terms_[name] += coeff;
  prune();
  return *this;
}

AffineExpr& AffineExpr::operator-=(const AffineExpr& o) {
  constant_ -= o.constant_;
  for (const auto& [name, coeff] : o.terms_) terms_[name] -= coeff;
  prune();
  return *this;
}

AffineExpr& AffineExpr::operator*=(std::int64_t k) {
  constant_ *= k;
  for (auto& [name, coeff] : terms_) {
    (void)name;
    coeff *= k;
  }
  prune();
  return *this;
}

std::string AffineExpr::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, coeff] : terms_) {
    if (!first) os << " + ";
    first = false;
    if (coeff == 1) {
      os << name;
    } else {
      os << coeff << "*" << name;
    }
  }
  if (constant_ != 0 || first) {
    if (!first) os << " + ";
    os << constant_;
  }
  return os.str();
}

}  // namespace dasched
