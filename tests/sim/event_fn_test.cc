// Unit tests for the small-buffer event callback (src/sim/event_fn.h).
//
// Global operator new/delete are replaced with counting versions gated by a
// flag (the interposer of tests/sim/event_queue_alloc_test.cc, plus a
// deallocation count), so each case can tell the inline path (no
// allocation) from the heap path (one allocation, freed exactly once).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_fn.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_deallocations{0};

void note_allocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void counted_free(void* p) {
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_deallocations.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(p);
}

void* counted_alloc(std::size_t n) {
  note_allocation();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  note_allocation();
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
  note_allocation();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(n == 0 ? 1 : n);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace dasched {
namespace {

/// Counts heap traffic while alive.
class AllocScope {
 public:
  AllocScope() {
    g_allocations.store(0);
    g_deallocations.store(0);
    g_counting.store(true);
  }
  ~AllocScope() { g_counting.store(false); }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

  [[nodiscard]] std::uint64_t allocations() const { return g_allocations.load(); }
  [[nodiscard]] std::uint64_t deallocations() const {
    return g_deallocations.load();
  }
};

/// Exactly fills the inline buffer: a result pointer and six values.
struct Plain56 {
  std::uint64_t* out;
  std::uint64_t v[6];
  void operator()() const {
    *out = v[0] + v[1] + v[2] + v[3] + v[4] + v[5];
  }
};
static_assert(sizeof(Plain56) == EventFn::kInlineSize);
static_assert(std::is_trivially_copyable_v<Plain56>);
static_assert(EventFn::fits_inline<Plain56>);

/// One byte too many for the buffer.
std::uint64_t g_bytes57_sum = 0;
struct Bytes57 {
  unsigned char b[57];
  void operator()() const { g_bytes57_sum += b[0] + b[56]; }
};
static_assert(sizeof(Bytes57) == EventFn::kInlineSize + 1);
static_assert(!EventFn::fits_inline<Bytes57>);

/// Small, but aligned past the buffer's 8 bytes.
struct alignas(16) Aligned16 {
  std::uint64_t* out;
  std::uint64_t v;
  void operator()() const { *out = v; }
};
static_assert(!EventFn::fits_inline<Aligned16>);

/// Owns a resource: counts its live instances and its move constructions.
struct Counted {
  static inline int live = 0;
  static inline int moves = 0;
  int* out;
  int value;
  Counted(int* o, int val) : out(o), value(val) { ++live; }
  Counted(Counted&& other) noexcept : out(other.out), value(other.value) {
    ++live;
    ++moves;
  }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  ~Counted() { --live; }
  void operator()() const { *out = value; }
};
static_assert(EventFn::fits_inline<Counted>);
static_assert(!std::is_trivially_copyable_v<Counted>);

TEST(EventFn, IsOneCacheLine) {
  static_assert(sizeof(EventFn) == 64);
  EXPECT_EQ(sizeof(EventFn), 64u);
  EXPECT_EQ(EventFn::kInlineSize, 56u);
}

TEST(EventFn, FullBufferPlainCaptureStaysInline) {
  std::uint64_t out = 0;
  AllocScope scope;
  EventFn a(Plain56{&out, {1, 2, 3, 4, 5, 6}});
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(out, 21u);

  // Move-assign over a live target: the target's own capture is dropped and
  // the source's bytes take its place.
  EventFn live(Plain56{&out, {100, 0, 0, 0, 0, 0}});
  live = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  out = 0;
  live();
  EXPECT_EQ(out, 21u);
  EXPECT_EQ(scope.allocations(), 0u);
}

TEST(EventFn, OversizedCaptureTakesHeapAndIsFreedOnce) {
  g_bytes57_sum = 0;
  {
    AllocScope scope;
    {
      Bytes57 big{};
      big.b[0] = 3;
      big.b[56] = 4;
      EventFn a(big);
      EXPECT_EQ(scope.allocations(), 1u);
      EventFn b(std::move(a));
      EventFn c;
      c = std::move(b);
      EXPECT_EQ(scope.allocations(), 1u);  // moves steal the pointer
      EXPECT_EQ(scope.deallocations(), 0u);
      c();
    }
    EXPECT_EQ(scope.allocations(), 1u);
    EXPECT_EQ(scope.deallocations(), 1u);
  }
  EXPECT_EQ(g_bytes57_sum, 7u);
}

TEST(EventFn, OveralignedCaptureTakesHeapAndIsFreedOnce) {
  std::uint64_t out = 0;
  AllocScope scope;
  {
    EventFn a(Aligned16{&out, 42});
    EXPECT_EQ(scope.allocations(), 1u);
    EventFn b(std::move(a));
    b();
  }
  EXPECT_EQ(out, 42u);
  EXPECT_EQ(scope.allocations(), 1u);
  EXPECT_EQ(scope.deallocations(), 1u);
}

TEST(EventFn, OwningCaptureMovesThroughItsMoveConstructor) {
  Counted::live = 0;
  Counted::moves = 0;
  int out = 0;
  {
    AllocScope scope;
    EventFn a(Counted(&out, 9));
    EXPECT_EQ(Counted::live, 1);  // the temporary is gone, the copy inline
    const int moves_in = Counted::moves;
    EventFn b(std::move(a));
    EXPECT_EQ(Counted::moves, moves_in + 1);
    EXPECT_EQ(Counted::live, 1);
    EventFn c(Counted(&out, 1));
    EXPECT_EQ(Counted::live, 2);
    const int moves_before_assign = Counted::moves;
    c = std::move(b);  // drops c's own instance, relocates b's
    EXPECT_EQ(Counted::moves, moves_before_assign + 1);
    EXPECT_EQ(Counted::live, 1);
    c();
    EXPECT_EQ(scope.allocations(), 0u);
  }
  EXPECT_EQ(out, 9);
  EXPECT_EQ(Counted::live, 0);

  // A move-only owner of heap memory: inline, relocated, freed exactly once.
  AllocScope scope;
  {
    auto owned = std::make_unique<int>(5);
    EventFn a([p = std::move(owned), &out] { out = *p; });
    EventFn b(std::move(a));
    b();
    EXPECT_EQ(scope.allocations(), 1u);  // the make_unique only
  }
  EXPECT_EQ(out, 5);
  EXPECT_EQ(scope.deallocations(), 1u);
}

TEST(EventFn, ChainOfMovesInvokesTheRightTarget) {
  std::uint64_t plain_out = 0;
  std::uint64_t aligned_out = 0;
  int counted_out = 0;
  g_bytes57_sum = 0;
  Counted::live = 0;
  std::vector<EventFn> fns;
  fns.emplace_back(Plain56{&plain_out, {10, 0, 0, 0, 0, 1}});
  fns.emplace_back(Aligned16{&aligned_out, 77});
  fns.emplace_back(Counted(&counted_out, 13));
  Bytes57 big{};
  big.b[56] = 50;
  fns.emplace_back(big);

  // Rotate the callbacks through moves and move-assignments (and let the
  // vector relocate them as it grows) before invoking any.
  for (int round = 0; round < 3; ++round) {
    EventFn first = std::move(fns.front());
    for (std::size_t i = 0; i + 1 < fns.size(); ++i) {
      fns[i] = std::move(fns[i + 1]);
    }
    fns.back() = std::move(first);
    fns.emplace_back();
    fns.pop_back();
  }
  // Three rotations of four: the order is now big, plain, aligned, counted.
  fns[0]();
  EXPECT_EQ(g_bytes57_sum, 50u);
  EXPECT_EQ(plain_out, 0u);
  fns[1]();
  EXPECT_EQ(plain_out, 11u);
  fns[2]();
  EXPECT_EQ(aligned_out, 77u);
  fns[3]();
  EXPECT_EQ(counted_out, 13);
  EXPECT_EQ(Counted::live, 1);
  fns.clear();
  EXPECT_EQ(Counted::live, 0);
}

}  // namespace
}  // namespace dasched
