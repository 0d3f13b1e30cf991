// Reading the all-clear audit report an audited run leaves in its result.
#pragma once

#include <regex>
#include <string>

namespace dasched {

/// Invariant evaluations counted by `report` when it is the auditor's
/// all-clear line naming `checks` checks; -1 for any other text (a
/// violation report, another check count, an unaudited run's empty report).
inline long long clean_audit_evaluations(const std::string& report,
                                         int checks) {
  const std::regex all_clear("audit: ([0-9]+) invariant evaluations across " +
                             std::to_string(checks) +
                             " checks, no violations\n");
  std::smatch m;
  return std::regex_match(report, m, all_clear) ? std::stoll(m[1].str()) : -1;
}

}  // namespace dasched
