// Reading the all-clear audit report an audited run leaves in its result.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

namespace dasched {

/// Invariant evaluations counted by `report` when it is the auditor's
/// all-clear line naming `checks` checks; -1 for any other text (a
/// violation report, another check count, an unaudited run's empty report).
inline long long clean_audit_evaluations(const std::string& report,
                                         int checks) {
  constexpr std::string_view prefix = "audit: ";
  const std::string suffix = " invariant evaluations across " +
                             std::to_string(checks) +
                             " checks, no violations\n";
  std::string_view text = report;
  if (text.size() <= prefix.size() + suffix.size() ||
      !text.starts_with(prefix) || !text.ends_with(suffix)) {
    return -1;
  }
  text.remove_prefix(prefix.size());
  text.remove_suffix(suffix.size());
  // Digits only: from_chars alone would also take a leading '-'.
  if (text.front() < '0' || text.front() > '9') return -1;
  long long count = -1;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), count);
  return ec == std::errc{} && end == text.data() + text.size() ? count : -1;
}

}  // namespace dasched
