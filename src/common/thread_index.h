// Per-thread cells for counts many threads bump at once. Every thread gets a
// stable small index on first use, round-robin in order of arrival, so the
// first kThreadCells threads land on distinct cells. The metrics registry's
// counters and histograms, the tracker's completed-task count and the
// synopsis channel's direct-push shard all index by it.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace saad {

inline constexpr std::size_t kThreadCells = 8;

/// Stable small integer per thread (order of first call).
inline std::size_t thread_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// Monotonic count split over cache-line cells by thread_index(): add() is
/// one relaxed atomic add on the caller's own line, value() sums the cells
/// (a sum taken during concurrent adds may miss some of them).
class StripedCounter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    cells_[thread_index() % kThreadCells].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& cell : cells_)
      sum += cell.value.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() noexcept {
    for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Cell, kThreadCells> cells_{};
};

}  // namespace saad
