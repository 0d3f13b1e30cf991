// Disk configuration constants.
//
// The defaults reproduce Table II of the paper: a 100 GB server disk with a
// 12,000 RPM maximum speed, the listed per-state powers, 16 s spin-up / 10 s
// spin-down, elevator arm scheduling, and (for the multi-speed variant) a
// 3,600 RPM minimum with a 1,200 RPM step size and the quadratic power model
// of Eq. 1.
#pragma once

#include <cstdint>

#include "util/units.h"

namespace dasched {

/// Rotational speed in revolutions per minute.
using Rpm = int;

struct DiskParams {
  // --- Geometry / service model -------------------------------------------
  Bytes capacity = gib(100);
  /// Minimum (track-to-track) seek time.
  SimTime seek_min = usec(800);
  /// Full-stroke seek time; seeks interpolate with sqrt(distance).
  SimTime seek_max = msec(14.0);
  /// Sustained media transfer rate at the maximum rotation speed.
  double transfer_mb_per_sec_max_rpm = 80.0;
  /// Fixed controller/bus overhead per request (Ultra-3 SCSI class).
  SimTime controller_overhead = usec(300);

  // --- Rotation speeds ------------------------------------------------------
  Rpm max_rpm = 12'000;
  Rpm min_rpm = 3'600;
  Rpm rpm_step = 1'200;
  /// True for multi-speed (DRPM) disks; false restricts the ladder to
  /// {max_rpm} and only spin-down is available.
  bool multi_speed = false;

  // --- Power (Table II, measured at max_rpm) -------------------------------
  Watts idle_power_w{17.1};
  Watts active_power_w{36.6};  // read/write
  Watts seek_power_w{32.1};
  Watts standby_power_w{7.2};
  Watts spin_up_power_w{44.8};
  Watts spin_down_power_w{10.0};  // decelerating spindle, mostly electronics

  /// Electronics floors: the non-motor share of each power figure.  Only the
  /// motor share scales quadratically with rotation speed (Eq. 1).
  Watts idle_floor_w{4.0};
  Watts active_floor_w{6.0};
  Watts seek_floor_w{6.0};

  // --- Mode-transition timing ----------------------------------------------
  SimTime spin_up_time = sec(16.0);
  SimTime spin_down_time = sec(10.0);
  /// Latency of one rpm_step speed change (DRPM transitions are far cheaper
  /// than a full spin-up — roughly a second for the full 3,600-12,000 swing;
  /// see DESIGN.md).
  SimTime rpm_step_time = msec(150.0);
  /// Power multiplier during an RPM transition, applied to the larger of the
  /// two endpoint idle powers.
  double rpm_transition_power_factor = 1.4;

  /// Table II defaults for a spin-down (single-speed) disk.
  [[nodiscard]] static DiskParams paper_defaults() { return DiskParams{}; }

  /// Table II defaults for a multi-speed disk.
  [[nodiscard]] static DiskParams paper_multispeed() {
    DiskParams p;
    p.multi_speed = true;
    return p;
  }

  /// Visits the available speed ladder, ascending; just `max_rpm` when
  /// !multi_speed.  Allocation-free — the per-decision path of the
  /// multi-speed policies walks the ladder on every idle boundary.
  template <typename Visitor>
  void for_each_rpm_level(Visitor&& visit) const {
    if (!multi_speed) {
      visit(max_rpm);
      return;
    }
    for (Rpm r = min_rpm; r <= max_rpm; r += rpm_step) visit(r);
  }

  /// Time for one full platter revolution at `rpm`.
  [[nodiscard]] SimTime rotation_period(Rpm rpm) const {
    return static_cast<SimTime>(60.0 * kUsecPerSec / static_cast<double>(rpm));
  }

  /// Latency of a speed change between two ladder speeds.
  [[nodiscard]] SimTime rpm_transition_time(Rpm from, Rpm to) const {
    const int steps = (from > to ? from - to : to - from) / rpm_step;
    return rpm_step_time * steps;
  }
};

}  // namespace dasched
