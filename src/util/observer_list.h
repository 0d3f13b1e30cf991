// Multiplexing observer list shared by every observable simulation layer.
//
// Each layer (simulator, disk, I/O node, storage system) exposes passive
// observer hooks that both the invariant auditor (src/check) and the
// telemetry recorder (src/telemetry) tap — often simultaneously.  Instead of
// every consumer stacking its own fan-out shim over a single observer slot,
// the layers hold one `ObserverList` and notify every attached observer in
// registration order.  The empty list costs one begin/end load per hook
// site, so the hooks stay in release builds; attachment is setup-time work
// and the only place the list may allocate.
#pragma once

#include <algorithm>
#include <vector>

namespace dasched {

template <typename Observer>
class ObserverList {
 public:
  /// Registers `obs` (nullptr and duplicates are ignored).
  void add(Observer* obs) {
    if (obs == nullptr || contains(obs)) return;
    // dasched-lint: allow(hot-alloc): per-run observer install; erase keeps
    // the capacity warm, so re-registration on a warm list never grows
    taps_.push_back(obs);
  }

  /// Detaches everything; the capacity stays warm for the next run's add.
  void clear() { taps_.clear(); }

  [[nodiscard]] bool empty() const { return taps_.empty(); }
  [[nodiscard]] bool contains(Observer* obs) const {
    return std::find(taps_.begin(), taps_.end(), obs) != taps_.end();
  }

  /// Invokes `fn(observer)` on every attached observer, in attach order.
  /// Observers are passive: they must not detach themselves mid-notify.
  template <typename Fn>
  void notify(Fn&& fn) const {
    for (Observer* obs : taps_) fn(obs);
  }

 private:
  std::vector<Observer*> taps_;
};

}  // namespace dasched
