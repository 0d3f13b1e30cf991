// The user-settable fields, named once (DESIGN.md §19).
//
// Each row ties one field to its wire key (`procs=4` in a daemon request),
// its command-line flag (`--procs 4`) and the one parser and formatter of
// its text form.  Two tables share the row type: the ExperimentConfig rows
// and the ReplayOptions rows of a trace upload.  Every consumer that sets a
// field by name goes through a table: the daemon's run, grid and upload
// codecs (serve/protocol.cc), the grid sweep axes (sweep_axis_by_name) and
// the shared command-line front end of dasched_run, dasched_client and
// hexfloat_probe (tools/cli_options.h).  So the wire, the CLIs and the sweep
// axes accept exactly the same values, and a field added here reaches all of
// them at once.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "driver/experiment.h"
#include "workload/trace_replay.h"

namespace dasched {

/// One user-settable field of a `T`.
template <typename T>
struct KeyRow {
  /// Wire key; also the sweep-axis name of a `sweep` row.
  std::string_view key;
  /// Command-line flag; empty when the field is wire-only.
  std::string_view flag;
  /// The flag is a switch: it takes no value and means `key=1`.
  bool is_switch;
  /// A grid sweep axis may drive the field (an integer field).
  bool sweep;
  /// Parses the whole of `value` into the field, range-checked; throws
  /// ConfigError naming `key`.  Never allocates except to grow a string
  /// field past its capacity.
  void (*parse)(std::string_view key, std::string_view value, T& target);
  /// Appends the field's wire value to `out`; false when the field stays
  /// off the wire (the telemetry rows while telemetry is off).
  bool (*format)(const T& target, std::string& out);

  void set(T& target, std::string_view value) const {
    parse(key, value, target);
  }
};

using ConfigKey = KeyRow<ExperimentConfig>;
using ReplayKey = KeyRow<ReplayOptions>;

/// Throws ConfigError(key, "expected <expected>, got '<value>'"), the one
/// shape of a rejected config or CLI flag value.
[[noreturn]] void bad_value(std::string_view key, const char* expected,
                            std::string_view value);

/// Every ExperimentConfig row, in wire order.
[[nodiscard]] std::span<const ConfigKey> config_keys();

/// Every ReplayOptions row, in the order of a trace-upload header.
[[nodiscard]] std::span<const ReplayKey> replay_keys();

/// The row for a wire key; nullptr when there is none.
template <typename T>
[[nodiscard]] const KeyRow<T>* find_key(std::span<const KeyRow<T>> rows,
                                        std::string_view key) {
  for (const KeyRow<T>& row : rows) {
    if (row.key == key) return &row;
  }
  return nullptr;
}

/// The row for a CLI flag; nullptr when there is none.
template <typename T>
[[nodiscard]] const KeyRow<T>* find_flag(std::span<const KeyRow<T>> rows,
                                         std::string_view flag) {
  if (flag.empty()) return nullptr;
  for (const KeyRow<T>& row : rows) {
    if (row.flag == flag) return &row;
  }
  return nullptr;
}

/// Appends `key=value\n` for every row whose field is on the wire.
template <typename T>
void format_keys(std::span<const KeyRow<T>> rows, const T& target,
                 std::string& out) {
  for (const KeyRow<T>& row : rows) {
    const std::size_t mark = out.size();
    out += row.key;
    out += '=';
    if (row.format(target, out)) {
      out += '\n';
    } else {
      out.resize(mark);
    }
  }
}

}  // namespace dasched
