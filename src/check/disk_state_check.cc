#include "check/disk_state_check.h"

#include <iterator>
#include <sstream>
#include <string>

namespace dasched {

bool DiskStateMachineCheck::legal_transition(DiskState from, DiskState to) {
  switch (from) {
    case DiskState::kIdle:
      return to == DiskState::kSeeking || to == DiskState::kTransferring ||
             to == DiskState::kSpinningDown || to == DiskState::kChangingSpeed;
    case DiskState::kSeeking:
      return to == DiskState::kTransferring;
    case DiskState::kTransferring:
      return to == DiskState::kIdle;
    case DiskState::kSpinningDown:
      // Completion lands in standby; an arrival aborts into re-acceleration.
      return to == DiskState::kStandby || to == DiskState::kSpinningUp;
    case DiskState::kStandby:
      return to == DiskState::kSpinningUp;
    case DiskState::kSpinningUp:
      return to == DiskState::kIdle;
    case DiskState::kChangingSpeed:
      return to == DiskState::kIdle;
  }
  return false;
}

void DiskStateMachineCheck::check_rpm_transition(const Disk& disk,
                                                 const DiskTrack& track,
                                                 SimTime now) {
  const DiskParams& p = disk.params();
  const Rpm from = disk.transition_from();
  const Rpm to = disk.transition_to();
  evaluated();
  auto on_ladder = [&p](Rpm r) {
    return r >= p.min_rpm && r <= p.max_rpm && (r - p.min_rpm) % p.rpm_step == 0;
  };
  if (!p.multi_speed) {
    fail(now, "speed change on a single-speed disk");
  } else if (!on_ladder(from) || !on_ladder(to)) {
    std::ostringstream os;
    os << "speed change " << from << " -> " << to
       << " rpm leaves the ladder [" << p.min_rpm << ", " << p.max_rpm
       << "] step " << p.rpm_step;
    fail(now, os.str());
  }
  if (policy_ == PolicyKind::kStaggered) {
    // Fig. 3b: the walk descends one ladder point per step; only the
    // restore on a request arrival jumps, and it jumps straight to full
    // speed.  Steps that queued up while a previous transition was in
    // flight drain as one batched transition, which must then begin the
    // instant the previous one completed.
    if (to < from && from - to != p.rpm_step &&
        track.last_speed_change_done != now) {
      std::ostringstream os;
      os << "staggered policy stepped down " << from << " -> " << to
         << " rpm, skipping ladder points outside a batched walk";
      fail(now, os.str());
    } else if (to > from && to != p.max_rpm) {
      std::ostringstream os;
      os << "staggered policy restored " << from << " -> " << to
         << " rpm instead of full speed " << p.max_rpm;
      fail(now, os.str());
    }
  }
}

void DiskStateMachineCheck::on_state_change(const Disk& disk, DiskState from,
                                            DiskState to) {
  const SimTime now = disk.sim().now();
  evaluated();
  if (!legal_transition(from, to)) {
    std::ostringstream os;
    os << "illegal state transition " << to_string(from) << " -> "
       << to_string(to);
    fail(now, os.str());
  }
  DiskTrack& track = tracks_[&disk];

  if (to == DiskState::kChangingSpeed) {
    check_rpm_transition(disk, track, now);
    if (policy_ == PolicyKind::kStaggered &&
        disk.transition_to() < disk.transition_from() &&
        track.last_slow_arrival >= 0) {
      evaluated();
      const SimTime elapsed = now - track.last_slow_arrival;
      if (elapsed < cfg_.staggered_cooldown) {
        std::ostringstream os;
        os << "staggered step-down " << to_sec(elapsed)
           << " s after a full-speed restore; staggered_cooldown is "
           << to_sec(cfg_.staggered_cooldown) << " s";
        fail(now, os.str());
      }
    }
  }

  if (to == DiskState::kSpinningDown && policy_ == PolicyKind::kSimple &&
      track.last_spin_up_done >= 0) {
    evaluated();
    const SimTime elapsed = now - track.last_spin_up_done;
    if (elapsed < cfg_.simple_cooldown) {
      std::ostringstream os;
      os << "spin-down " << to_sec(elapsed)
         << " s after the last spin-up completed; simple_cooldown is "
         << to_sec(cfg_.simple_cooldown) << " s";
      fail(now, os.str());
    }
  }

  if (from == DiskState::kSpinningUp && to == DiskState::kIdle) {
    track.last_spin_up_done = now;
  }
  if (from == DiskState::kChangingSpeed && to == DiskState::kIdle) {
    track.last_speed_change_done = now;
  }
}

void DiskStateMachineCheck::check_scan_pick(const Disk& disk,
                                            DiskTrack& track,
                                            const DiskRequest& req) {
  evaluated();
  const SimTime now = disk.sim().now();
  const Bytes head = track.head;
  const Bytes end = req.offset + req.size;
  track.head = end >= disk.params().capacity ? disk.params().capacity - 1 : end;

  // Demand requests first; the background queue only when none is queued.
  const bool from_background = track.demand.empty();
  ScanQueue& q = from_background ? track.background : track.demand;
  if (q.empty()) {
    std::ostringstream os;
    os << "request (offset " << req.offset << ", " << req.size
       << " B) entered service with no request queued";
    fail(now, os.str());
    return;
  }
  // SCAN: sweeping up, the first request at or above the head, reversing
  // to the last request when none is; sweeping down, the first request at
  // the head if one is there, else the last below it, reversing to the
  // first when none is below.
  auto it = q.lower_bound(head);
  if (track.sweep_up) {
    if (it == q.end()) {
      track.sweep_up = false;
      it = std::prev(q.end());
    }
  } else if (it == q.begin()) {
    track.sweep_up = true;
  } else if (it == q.end() || it->first > head) {
    --it;
  }
  if (it->first == req.offset && it->second.size == req.size &&
      it->second.is_write == req.is_write &&
      from_background == req.background) {
    q.erase(it);
    return;
  }
  std::ostringstream os;
  os << "elevator served " << (req.background ? "background" : "demand")
     << " request (offset " << req.offset << ", " << req.size
     << " B) where SCAN from head " << head << " picks "
     << (from_background ? "background" : "demand") << " request (offset "
     << it->first << ", " << it->second.size << " B)";
  fail(now, os.str());
  // Drop the request that was served, so one wrong pick is reported once.
  ScanQueue& served = req.background ? track.background : track.demand;
  const auto [lo, hi] = served.equal_range(req.offset);
  for (auto e = lo; e != hi; ++e) {
    if (e->second.size == req.size && e->second.is_write == req.is_write) {
      served.erase(e);
      return;
    }
  }
}

void DiskStateMachineCheck::on_service_start(const Disk& disk,
                                             const DiskRequest& req) {
  evaluated();
  if (disk.state() != DiskState::kIdle) {
    std::ostringstream os;
    os << "request (offset " << req.offset << ", " << req.size
       << " B) entered service while the disk was " << to_string(disk.state());
    fail(disk.sim().now(), os.str());
  }
  check_scan_pick(disk, tracks_[&disk], req);
}

void DiskStateMachineCheck::on_request_submitted(const Disk& disk,
                                                 const DiskRequest& req) {
  DiskTrack& track = tracks_[&disk];
  (req.background ? track.background : track.demand)
      .emplace(req.offset, Queued{req.size, req.is_write});
  if (disk.current_rpm() != disk.params().max_rpm ||
      disk.desired_rpm() != disk.params().max_rpm) {
    track.last_slow_arrival = disk.sim().now();
  }
}

}  // namespace dasched
