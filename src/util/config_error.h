// Configuration rejection with the offending field attached, thrown by every
// layer that validates user input.  Subclasses std::invalid_argument so
// existing catch sites keep working; daemon error frames and CLI
// diagnostics use `field()` to name the knob to fix.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace dasched {

class ConfigError : public std::invalid_argument {
 public:
  ConfigError(std::string field, const std::string& message)
      : std::invalid_argument(message), field_(std::move(field)) {}

  [[nodiscard]] const std::string& field() const noexcept { return field_; }

 private:
  std::string field_;
};

}  // namespace dasched
