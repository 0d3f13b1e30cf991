#include "core/scheduling_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace dasched {
namespace {

ScheduledAccess scheduled(int id, int process, Slot slot) {
  ScheduledAccess s;
  s.id = id;
  s.process = process;
  s.slot = slot;
  return s;
}

std::vector<std::uint32_t> rows_of(const SchedulingTable& table, int process) {
  const auto rows = table.entries(process);
  return {rows.begin(), rows.end()};
}

TEST(SchedulingTable, GroupsEntriesByProcess) {
  const std::vector<ScheduledAccess> placed = {
      scheduled(0, 0, 5),
      scheduled(1, 1, 3),
      scheduled(2, 0, 1),
  };
  const SchedulingTable table(placed);
  EXPECT_EQ(table.num_processes(), 2);
  EXPECT_EQ(table.total_entries(), 3);
  EXPECT_EQ(rows_of(table, 0), (std::vector<std::uint32_t>{2, 0}));
  EXPECT_EQ(rows_of(table, 1), (std::vector<std::uint32_t>{1}));
}

TEST(SchedulingTable, EntriesSortedBySlotThenId) {
  // Rows are listed out of id order: the tie at slot 2 breaks on the id,
  // not on the row.
  const std::vector<ScheduledAccess> placed = {
      scheduled(0, 0, 9),
      scheduled(2, 0, 2),
      scheduled(1, 0, 2),
  };
  const SchedulingTable table(placed);
  EXPECT_EQ(rows_of(table, 0), (std::vector<std::uint32_t>{2, 1, 0}));
}

TEST(SchedulingTable, ProcessWithoutAccessesHasNoRows) {
  // Processes are numbered densely up to the largest one seen; a process
  // in between with no reads has an empty list.
  const std::vector<ScheduledAccess> placed = {
      scheduled(0, 2, 4),
      scheduled(1, 0, 1),
  };
  const SchedulingTable table(placed);
  EXPECT_EQ(table.num_processes(), 3);
  EXPECT_EQ(rows_of(table, 0), (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(table.entries(1).empty());
  EXPECT_EQ(rows_of(table, 2), (std::vector<std::uint32_t>{0}));
}

TEST(SchedulingTable, UnknownProcessReturnsEmpty) {
  const SchedulingTable table({scheduled(0, 0, 1)});
  EXPECT_TRUE(table.entries(5).empty());
  EXPECT_TRUE(table.entries(-1).empty());
}

TEST(SchedulingTable, EmptyTableIsValid) {
  const SchedulingTable table{std::vector<ScheduledAccess>{}};
  EXPECT_EQ(table.num_processes(), 0);
  EXPECT_EQ(table.total_entries(), 0);
  EXPECT_TRUE(table.entries(0).empty());
  EXPECT_TRUE(SchedulingTable{}.entries(0).empty());
}

}  // namespace
}  // namespace dasched
