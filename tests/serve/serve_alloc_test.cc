// Zero-allocation proof for the daemon steady state: the second-and-later
// identical kRun requests on a warm tenant workspace must perform ZERO heap
// allocations end to end — frame parse, config reset, app resolution, the
// full simulation, result serialization and the reply frames.  The same
// counter bounds what the result decoder allocates for a hostile payload.
//
// Same global operator new/delete interposer as
// tests/driver/workspace_alloc_test.cc, pointed at TenantSession::handle —
// the transport-independent request handler the socket server drives, so
// everything above the socket write() is covered.  The sink reuses a
// capacity-kept capture buffer the same way the real connection reuses its
// write scratch.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/server.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

void note_allocation(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t n) {
  note_allocation(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  note_allocation(n);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n == 0 ? align : n) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

// Replaceable global allocation functions — every variant the runtime may
// pick, so no allocation slips past the counter.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note_allocation(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note_allocation(n);
  return std::malloc(n == 0 ? 1 : n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dasched::serve {
namespace {

/// Captures reply frames into one reused buffer (capacity is kept across
/// requests, like the connection's write scratch).
class CaptureSink : public TenantSession::Sink {
 public:
  bool write_frame(FrameType t,
                   std::span<const std::uint8_t> payload) override {
    types_.push_back(t);
    bytes_.insert(bytes_.end(), payload.begin(), payload.end());
    return true;
  }
  void reset() {
    types_.clear();
    bytes_.clear();
  }
  const std::vector<FrameType>& types() const { return types_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<FrameType> types_;
  std::vector<std::uint8_t> bytes_;
};

std::span<const std::uint8_t> as_span(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// The frame of a small hand-made result: a default CellHeader, app "a",
/// an edgeless storage histogram and no per-node entries, so the fields
/// the decoder must bound sit at fixed offsets.
std::vector<std::uint8_t> small_frame() {
  ExperimentResult r;
  r.app = std::string("a");
  r.storage.idle_periods = DurationHistogram(std::vector<double>{});
  std::vector<std::uint8_t> wire;
  serialize_result(CellHeader{}, r, wire);
  return wire;
}

// u32 index | u8 has_sweep | u16 0 | f64 sweep_value | u16 1 "a" | u8 policy
// | u8 scheme | 3 x 8 bytes | u8 audited | ...
constexpr std::size_t kHasSweepAt = 4;
constexpr std::size_t kPolicyAt = 18;
constexpr std::size_t kSchemeAt = 19;
constexpr std::size_t kAuditedAt = 44;
// ... | u32 edge count, i64 count, i64 total, f64 msec | u32 per_node count |
// 16 x 8 bytes of runtime and schedule stats.
constexpr std::size_t kTailBytes = 16 * 8;
constexpr std::size_t kPerNodeFromEnd = kTailBytes + 4;
constexpr std::size_t kEdgesFromEnd = kPerNodeFromEnd + 4 + 3 * 8;

void put_u32_at(std::vector<std::uint8_t>& wire, std::size_t at,
                std::uint32_t v) {
  for (int k = 0; k < 4; ++k) wire[at + k] = static_cast<std::uint8_t>(v >> (8 * k));
}

TEST(ServeAlloc, ResultDecoderRejectsHostileCountsBeforeAllocating) {
  const std::vector<std::uint8_t> good = small_frame();
  CellHeader cell;
  ExperimentResult out;
  deserialize_result(good, cell, out);
  ASSERT_EQ(out.app, "a");
  ASSERT_TRUE(out.storage.per_node.empty());
  ASSERT_TRUE(out.storage.idle_periods.edges_msec().empty());

  // The offsets name the fields they patch: 1 in each decodes as set.
  std::vector<std::uint8_t> set = good;
  for (const std::size_t at : {kHasSweepAt, kSchemeAt, kAuditedAt}) set[at] = 1;
  set[kPolicyAt] = static_cast<std::uint8_t>(PolicyKind::kStaggered);
  deserialize_result(set, cell, out);
  EXPECT_TRUE(cell.has_sweep);
  EXPECT_TRUE(out.scheme);
  EXPECT_TRUE(out.audited);
  EXPECT_EQ(out.policy, PolicyKind::kStaggered);

  // Each bad payload throws ProtocolError, having allocated no more than
  // its own size on the way.
  const auto rejects = [&](std::size_t at, std::uint32_t v, int width) {
    std::vector<std::uint8_t> bad = good;
    if (width == 4) {
      put_u32_at(bad, at, v);
    } else {
      bad[at] = static_cast<std::uint8_t>(v);
    }
    g_allocated_bytes.store(0);
    g_counting.store(true);
    EXPECT_THROW(deserialize_result(bad, cell, out), ProtocolError)
        << "offset " << at << " value " << v;
    g_counting.store(false);
    EXPECT_LE(g_allocated_bytes.load(), bad.size())
        << "offset " << at << " value " << v;
  };
  // Counts the payload cannot hold: 2^20 nodes of at least 116 bytes each
  // and 2^20 histogram edges of 16 bytes each, in a frame of ~270 bytes.
  rejects(good.size() - kPerNodeFromEnd, 1u << 20, 4);
  rejects(good.size() - kPerNodeFromEnd, 0xffffffffu, 4);
  rejects(good.size() - kEdgesFromEnd, 1u << 20, 4);
  // Two nodes, with bytes left for one (the 128-byte tail).
  rejects(good.size() - kPerNodeFromEnd, 2, 4);
  // Flag bytes other than 0/1 and a policy byte past the last PolicyKind.
  rejects(kHasSweepAt, 2, 1);
  rejects(kSchemeAt, 0xff, 1);
  rejects(kAuditedAt, 7, 1);
  rejects(kPolicyAt, static_cast<std::uint32_t>(PolicyKind::kStaggered) + 1, 1);
}

TEST(ServeAlloc, WarmTenantRunRequestAllocatesNothing) {
  // The same small cell as workspace_alloc_test.cc, shipped over the wire.
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = true;
  // A plain run: the wire's audit=0 reaches the daemon's config, so the
  // count does not include an auditor (DASCHED_AUDIT=ON builds audit by
  // default).
  cfg.audit = false;
  std::string payload;
  format_run_request(cfg, payload);

  TenantSession session(/*tenant_id=*/1);
  CaptureSink sink;

  // Warm-up: request 1 builds the whole stack, request 2 re-touches the
  // exact steady-state path (compile-cache hit, pools at high-water marks,
  // request/reply buffers at capacity).
  ASSERT_TRUE(session.handle(FrameType::kRun, as_span(payload), sink));
  const std::vector<std::uint8_t> first = sink.bytes();
  sink.reset();
  ASSERT_TRUE(session.handle(FrameType::kRun, as_span(payload), sink));
  ASSERT_EQ(sink.bytes(), first);
  sink.reset();

  g_allocations.store(0);
  g_counting.store(true);
  const bool keep = session.handle(FrameType::kRun, as_span(payload), sink);
  g_counting.store(false);

  EXPECT_TRUE(keep);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "daemon steady state hit the heap on request "
      << session.requests_served();
  // The counted request did real work, bit-identically.
  EXPECT_EQ(sink.bytes(), first);
  ASSERT_EQ(sink.types().size(), 2u);
  EXPECT_EQ(sink.types()[0], FrameType::kResult);
  EXPECT_EQ(sink.types()[1], FrameType::kDone);
  // ...on the warm workspace, not a rebuilt one.
  EXPECT_EQ(session.requests_served(), 3u);
  EXPECT_EQ(session.workspace().engine_rebuilds(), 1u);
  EXPECT_EQ(session.workspace().workload_builds(), 1u);
  EXPECT_EQ(session.workspace().compile_misses(), 1u);
}

TEST(ServeAlloc, PingIsAllocationFreeOnWarmSession) {
  TenantSession session(2);
  CaptureSink sink;
  ASSERT_TRUE(
      session.handle(FrameType::kPing, std::span<const std::uint8_t>{}, sink));
  sink.reset();

  g_allocations.store(0);
  g_counting.store(true);
  const bool keep =
      session.handle(FrameType::kPing, std::span<const std::uint8_t>{}, sink);
  g_counting.store(false);
  EXPECT_TRUE(keep);
  EXPECT_EQ(g_allocations.load(), 0u);
  ASSERT_EQ(sink.types().size(), 1u);
  EXPECT_EQ(sink.types()[0], FrameType::kPong);
}

}  // namespace
}  // namespace dasched::serve
