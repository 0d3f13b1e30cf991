#include "storage/io_node.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "util/rng.h"

namespace dasched {

IoNode::IoNode(Simulator& sim, IoNodeConfig cfg, int node_id, std::uint64_t seed)
    : sim_(sim),
      cfg_(cfg),
      node_id_(node_id),
      cache_(cfg.cache_capacity, cfg.cache_block_size),
      disk_(sim, cfg_.disk, derive_seed(seed, 0)),
      policy_(make_policy(cfg_.policy, cfg_.policy_cfg)) {
  disk_.set_policy(policy_.get());
}

void IoNode::issue_disk_requests(Bytes offset, Bytes size, bool is_write,
                                 JoinId join, bool background) {
  assert(offset >= 0 && size > 0);
  const Bytes block = cache_.block_size();
  const Bytes end = offset + size;
  const auto count = static_cast<std::size_t>(
      (cache_.align(end - 1) - cache_.align(offset)) / block + 1);
  observers_.notify(
      [&](IoNodeObserver* o) { o->on_disk_requests_issued(*this, count); });
  // One request per block the range touches, clipped to the range.
  for (Bytes pos = offset; pos < end;) {
    const Bytes len = std::min(end - pos, block - pos % block);
    EventFn on_complete;
    if (join) {
      join_pool_.add(join);
      on_complete = join_pool_.arrival(join);
    }
    disk_.submit(
        DiskRequest{pos, len, is_write, background, std::move(on_complete)});
    pos += len;
  }
}

void IoNode::prefetch_after_miss(Bytes block_offset) {
  if (cfg_.prefetch_depth <= 0) return;
  // Snapshot the candidates before inserting any of them: an insert can
  // evict a block that a later candidate would have found cached.
  StorageCache::PrefetchList candidates;
  cache_.prefetch_candidates(block_offset, cfg_.prefetch_depth, candidates);
  for (const Bytes next : candidates) {
    observers_.notify(
        [&](IoNodeObserver* o) { o->on_prefetch_issued(*this, next); });
    cache_.insert(next);
    // Fire-and-forget disk reads; nobody waits on prefetches.
    issue_disk_requests(next, cache_.block_size(), /*is_write=*/false,
                        JoinId{}, /*background=*/true);
  }
}

void IoNode::read(Bytes offset, Bytes size, EventFn done, bool background) {
  assert(offset >= 0 && size > 0);
  observers_.notify(
      [&](IoNodeObserver* o) { o->on_read(*this, offset, size, background); });
  const JoinId join = join_pool_.open(std::move(done));

  const Bytes first = cache_.align(offset);
  const Bytes last = cache_.align(offset + size - 1);
  for (Bytes b = first; b <= last; b += cache_.block_size()) {
    const bool hit = cache_.lookup(b);
    observers_.notify(
        [&](IoNodeObserver* o) { o->on_block_lookup(*this, b, hit); });
    if (hit) {
      join_pool_.add(join);
      sim_.schedule_after(cfg_.cache_hit_latency, join_pool_.arrival(join));
    } else {
      // Whole-block fill, as real storage caches do.
      cache_.insert(b);
      issue_disk_requests(b, cache_.block_size(), /*is_write=*/false, join,
                          background);
      prefetch_after_miss(b);
    }
  }
  join_pool_.arrive(join);  // release the guard
}

void IoNode::write(Bytes offset, Bytes size, EventFn done) {
  assert(offset >= 0 && size > 0);
  observers_.notify(
      [&](IoNodeObserver* o) { o->on_write(*this, offset, size); });
  // Ack-early write-behind: the storage cache absorbs the write and the
  // client continues after the cache latency; the disk writes drain in the
  // background.  (AccuSim's server caches behave the same way; this is what
  // keeps disks busy through write bursts instead of lock-stepping clients.)
  issue_disk_requests(offset, size, /*is_write=*/true, JoinId{});

  const Bytes first = cache_.align(offset);
  const Bytes last = cache_.align(offset + size - 1);
  for (Bytes b = first; b <= last; b += cache_.block_size()) cache_.insert(b);

  if (done) sim_.schedule_after(cfg_.cache_hit_latency, std::move(done));
}

IoNodeStats IoNode::finalize() {
  IoNodeStats out;
  finalize_into(out);
  return out;
}

void IoNode::finalize_into(IoNodeStats& out) {
  const DiskStats& s = disk_.finalize();
  out.energy_j = s.energy_j;
  out.disk_requests = s.requests;
  out.spin_downs = s.spin_downs;
  out.spin_ups = s.spin_ups;
  out.rpm_changes = s.rpm_changes;
  // clear + merge rather than copy: `out`'s buckets stay allocated.
  out.idle_periods.clear();
  out.idle_periods.merge(s.idle_periods);
  out.cache = cache_.stats();
  out.requests = out.cache.hits + out.cache.misses;
  observers_.notify([&](IoNodeObserver* o) { o->on_finalized(*this, out); });
}

void IoNode::reset(const IoNodeConfig& cfg, std::uint64_t seed) {
  const bool cache_same = cfg.cache_capacity == cfg_.cache_capacity &&
                          cfg.cache_block_size == cfg_.cache_block_size;
  const bool policy_same =
      cfg.policy == cfg_.policy && cfg.policy_cfg == cfg_.policy_cfg;
  cfg_ = cfg;
  if (cache_same) {
    cache_.reset();
  } else {
    cache_ = StorageCache(cfg.cache_capacity, cfg.cache_block_size);
  }
  join_pool_.reset();
  disk_.reset(cfg_.disk, derive_seed(seed, 0));
  if (policy_same) {
    if (policy_ != nullptr) policy_->reset();
  } else {
    policy_ = make_policy(cfg_.policy, cfg_.policy_cfg);
  }
  disk_.set_policy(policy_.get());
}

}  // namespace dasched
