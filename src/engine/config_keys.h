// The user-settable ExperimentConfig fields, named once (DESIGN.md §19).
//
// Each row ties one field to its wire key (`procs=4` in a daemon request),
// its command-line flag (`--procs 4`) and the one parser and formatter of
// its text form.  Every consumer that sets a field by name goes through the
// table: the daemon's run and grid request codec (serve/protocol.cc), the
// grid sweep axes (sweep_axis_by_name) and the shared command-line front
// end of dasched_run, dasched_client and hexfloat_probe (tools/cli.h).  So
// the wire, the CLIs and the sweep axes accept exactly the same values, and
// a field added here reaches all of them at once.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "driver/experiment.h"

namespace dasched {

struct ConfigKey {
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
  void (*parse)(std::string_view key, std::string_view value,
                ExperimentConfig& cfg);
  /// Appends the field's wire value to `out`; false when the field stays
  /// off the wire (the telemetry rows while telemetry is off).
  bool (*format)(const ExperimentConfig& cfg, std::string& out);

  void set(ExperimentConfig& cfg, std::string_view value) const {
    parse(key, value, cfg);
  }
};

/// Every row, in wire order.
[[nodiscard]] std::span<const ConfigKey> config_keys();

/// The row for a wire key or a CLI flag; nullptr when there is none.
[[nodiscard]] const ConfigKey* find_config_key(std::string_view key);
[[nodiscard]] const ConfigKey* find_config_flag(std::string_view flag);

/// Appends `key=value\n` for every row whose field is on the wire.
void format_config(const ExperimentConfig& cfg, std::string& out);

}  // namespace dasched
