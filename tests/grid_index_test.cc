#include "index/grid_index.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace scuba {
namespace {

GridIndex MakeGrid(double extent = 100.0, uint32_t cells = 10) {
  Result<GridIndex> g = GridIndex::Create(Rect{0, 0, extent, extent}, cells);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(GridIndexTest, CreateRejectsBadArgs) {
  EXPECT_TRUE(
      GridIndex::Create(Rect{0, 0, 10, 10}, 0).status().IsInvalidArgument());
  EXPECT_TRUE(
      GridIndex::Create(Rect{10, 0, 0, 10}, 5).status().IsInvalidArgument());
  EXPECT_TRUE(
      GridIndex::Create(Rect{0, 0, 0, 10}, 5).status().IsInvalidArgument());
}

TEST(GridIndexTest, Geometry) {
  GridIndex g = MakeGrid(100.0, 10);
  EXPECT_EQ(g.CellCount(), 100u);
  EXPECT_EQ(g.cells_per_side(), 10u);
  EXPECT_EQ(g.CellIndexOf({5, 5}), 0u);
  EXPECT_EQ(g.CellIndexOf({15, 5}), 1u);
  EXPECT_EQ(g.CellIndexOf({5, 15}), 10u);
  EXPECT_EQ(g.CellIndexOf({95, 95}), 99u);
}

TEST(GridIndexTest, OutOfRegionPointsClampToBorder) {
  GridIndex g = MakeGrid(100.0, 10);
  EXPECT_EQ(g.CellIndexOf({-50, -50}), 0u);
  EXPECT_EQ(g.CellIndexOf({150, 150}), 99u);
  EXPECT_EQ(g.CellIndexOf({50, -50}), 5u);
  EXPECT_EQ(g.CellIndexOf({100.0, 100.0}), 99u);  // max boundary
}

TEST(GridIndexTest, CellBounds) {
  GridIndex g = MakeGrid(100.0, 10);
  EXPECT_EQ(g.CellBounds(0), (Rect{0, 0, 10, 10}));
  EXPECT_EQ(g.CellBounds(11), (Rect{10, 10, 20, 20}));
  EXPECT_EQ(g.CellBounds(99), (Rect{90, 90, 100, 100}));
}

TEST(GridIndexTest, InsertPointAndLookup) {
  GridIndex g = MakeGrid();
  ASSERT_TRUE(g.Insert(7, Point{15, 25}).ok());
  EXPECT_TRUE(g.Contains(7));
  EXPECT_EQ(g.size(), 1u);
  const std::vector<uint32_t>& entries = g.EntriesNear({15, 25});
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0], 7u);
  EXPECT_TRUE(g.EntriesNear({95, 95}).empty());
}

TEST(GridIndexTest, DuplicateInsertFails) {
  GridIndex g = MakeGrid();
  ASSERT_TRUE(g.Insert(1, Point{5, 5}).ok());
  EXPECT_TRUE(g.Insert(1, Point{50, 50}).IsAlreadyExists());
}

TEST(GridIndexTest, InsertRectSpansCells) {
  GridIndex g = MakeGrid(100.0, 10);
  ASSERT_TRUE(g.Insert(3, Rect{5, 5, 25, 15}).ok());
  // Overlaps cells (0,0),(1,0),(2,0),(0,1),(1,1),(2,1).
  EXPECT_EQ(g.EntriesNear({6, 6}).size(), 1u);
  EXPECT_EQ(g.EntriesNear({24, 14}).size(), 1u);
  EXPECT_TRUE(g.EntriesNear({6, 26}).empty());
}

TEST(GridIndexTest, InsertEmptyRectFails) {
  GridIndex g = MakeGrid();
  EXPECT_TRUE(g.Insert(3, Rect{5, 5, 4, 4}).IsInvalidArgument());
}

TEST(GridIndexTest, InsertCircleRefinesCorners) {
  GridIndex g = MakeGrid(100.0, 10);
  // Circle centered on a cell-corner junction with radius that reaches the
  // 4 adjacent cells but NOT the diagonal cells' interiors beyond... use a
  // circle at (50,50), r=12: bounding box covers cells 3..6 in each axis
  // (x from 38 to 62), 9 candidate cells; corner cells like (30..40,30..40)
  // are outside the disk.
  ASSERT_TRUE(g.Insert(9, Circle{{50, 50}, 12}).ok());
  EXPECT_EQ(g.EntriesNear({45, 45}).size(), 1u);  // cell containing center
  EXPECT_EQ(g.EntriesNear({55, 45}).size(), 1u);
  EXPECT_EQ(g.EntriesNear({45, 39}).size(), 1u);  // below: disk reaches 38
  // Diagonal cell [30,40)x[30,40): closest point (40,40) is distance
  // sqrt(200) ~ 14.1 > 12 from the center: must not be registered.
  EXPECT_TRUE(g.EntriesNear({35, 35}).empty());
}

TEST(GridIndexTest, ZeroRadiusCircleActsAsPoint) {
  GridIndex g = MakeGrid();
  ASSERT_TRUE(g.Insert(4, Circle{{33, 44}, 0.0}).ok());
  EXPECT_EQ(g.EntriesNear({33, 44}).size(), 1u);
  EXPECT_EQ(g.size(), 1u);
}

TEST(GridIndexTest, RemoveErasesEverywhere) {
  GridIndex g = MakeGrid(100.0, 10);
  ASSERT_TRUE(g.Insert(5, Rect{5, 5, 35, 35}).ok());
  ASSERT_TRUE(g.Remove(5).ok());
  EXPECT_FALSE(g.Contains(5));
  EXPECT_EQ(g.size(), 0u);
  for (uint32_t c = 0; c < g.CellCount(); ++c) {
    EXPECT_TRUE(g.CellEntries(c).empty());
  }
}

TEST(GridIndexTest, RemoveMissingIsNotFound) {
  GridIndex g = MakeGrid();
  EXPECT_TRUE(g.Remove(42).IsNotFound());
}

TEST(GridIndexTest, UpdateMoves) {
  GridIndex g = MakeGrid();
  ASSERT_TRUE(g.Insert(1, Point{5, 5}).ok());
  ASSERT_TRUE(g.Update(1, Point{95, 95}).ok());
  EXPECT_TRUE(g.EntriesNear({5, 5}).empty());
  EXPECT_EQ(g.EntriesNear({95, 95}).size(), 1u);
  EXPECT_EQ(g.size(), 1u);
}

TEST(GridIndexTest, UpdateMissingIsNotFound) {
  GridIndex g = MakeGrid();
  EXPECT_TRUE(g.Update(1, Point{5, 5}).IsNotFound());
}

TEST(GridIndexTest, UpdateWithEmptyRectLeavesKeyIntact) {
  GridIndex g = MakeGrid();
  ASSERT_TRUE(g.Insert(1, Point{5, 5}).ok());
  EXPECT_TRUE(g.Update(1, Rect{9, 9, 2, 2}).IsInvalidArgument());
  // The failed update must not have stranded the key half-removed.
  EXPECT_TRUE(g.Contains(1));
  EXPECT_EQ(g.EntriesNear({5, 5}).size(), 1u);
}

TEST(GridIndexTest, CollectInRectDedups) {
  GridIndex g = MakeGrid(100.0, 10);
  // Key 8 spans 4 cells; collecting over all of them must return it once.
  ASSERT_TRUE(g.Insert(8, Rect{5, 5, 25, 25}).ok());
  ASSERT_TRUE(g.Insert(9, Point{50, 50}).ok());
  std::vector<uint32_t> out;
  g.CollectInRect(Rect{0, 0, 100, 100}, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{8, 9}));
}

TEST(GridIndexTest, CollectInEmptyRectIsNoop) {
  GridIndex g = MakeGrid();
  ASSERT_TRUE(g.Insert(1, Point{5, 5}).ok());
  std::vector<uint32_t> out;
  g.CollectInRect(Rect{5, 5, 4, 4}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(GridIndexTest, ClearRemovesEverything) {
  GridIndex g = MakeGrid();
  ASSERT_TRUE(g.Insert(1, Point{5, 5}).ok());
  ASSERT_TRUE(g.Insert(2, Point{15, 15}).ok());
  g.Clear();
  EXPECT_EQ(g.size(), 0u);
  EXPECT_FALSE(g.Contains(1));
  // Reinsert works after clear.
  EXPECT_TRUE(g.Insert(1, Point{5, 5}).ok());
}

TEST(GridIndexTest, MemoryGrowsWithEntriesAndCells) {
  GridIndex small = MakeGrid(100.0, 10);
  GridIndex big = MakeGrid(100.0, 100);
  EXPECT_GT(big.EstimateMemoryUsage(), small.EstimateMemoryUsage());
  size_t before = small.EstimateMemoryUsage();
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(small.Insert(i, Point{static_cast<double>(i), 50.0}).ok());
  }
  EXPECT_GT(small.EstimateMemoryUsage(), before);
}

// Property: the set of keys found via cells overlapping a probe rect equals a
// brute-force filter over tracked placements.
class GridIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GridIndexPropertyTest, CollectMatchesBruteForce) {
  Rng rng(GetParam());
  GridIndex g = MakeGrid(1000.0, 20);
  struct Entry {
    uint32_t key;
    Rect bounds;
  };
  std::vector<Entry> entries;
  for (uint32_t k = 0; k < 200; ++k) {
    double x = rng.NextDouble(0, 950);
    double y = rng.NextDouble(0, 950);
    Rect r{x, y, x + rng.NextDouble(0.1, 50), y + rng.NextDouble(0.1, 50)};
    ASSERT_TRUE(g.Insert(k, r).ok());
    entries.push_back({k, r});
  }
  for (int probe = 0; probe < 50; ++probe) {
    double x = rng.NextDouble(0, 900);
    double y = rng.NextDouble(0, 900);
    Rect pr{x, y, x + rng.NextDouble(1, 100), y + rng.NextDouble(1, 100)};
    std::vector<uint32_t> got;
    g.CollectInRect(pr, &got);
    std::set<uint32_t> got_set(got.begin(), got.end());
    // Everything whose bounds intersect the probe must be found (the grid may
    // legitimately return extras that share cells without true overlap).
    for (const Entry& e : entries) {
      if (Intersects(e.bounds, pr)) {
        EXPECT_TRUE(got_set.count(e.key))
            << "missing key " << e.key << " for probe";
      }
    }
    // And no duplicates.
    EXPECT_EQ(got.size(), got_set.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridIndexPropertyTest,
                         ::testing::Values(101, 202, 303));

TEST(GridIndexTest, GenerationCountsEveryMutation) {
  GridIndex grid = GridIndex::Create(Rect{0, 0, 1000, 1000}, 10).value();
  EXPECT_EQ(grid.generation(), 0u);
  ASSERT_TRUE(grid.Insert(1, Point{100, 100}).ok());
  const uint64_t after_insert = grid.generation();
  EXPECT_GT(after_insert, 0u);
  // Update re-places the key: the generation must advance (consumers caching
  // FlattenEntries snapshots key on it).
  ASSERT_TRUE(grid.Update(1, Point{900, 900}).ok());
  const uint64_t after_update = grid.generation();
  EXPECT_GT(after_update, after_insert);
  ASSERT_TRUE(grid.Remove(1).ok());
  const uint64_t after_remove = grid.generation();
  EXPECT_GT(after_remove, after_update);
  // Reads leave the generation alone.
  std::vector<uint32_t> offsets, entries;
  grid.FlattenEntries(&offsets, &entries);
  (void)grid.CellEntries(0);
  EXPECT_EQ(grid.generation(), after_remove);
  grid.Clear();
  EXPECT_GT(grid.generation(), after_remove);
}

TEST(GridIndexTest, UntouchedCellsStayEmptyWhileOthersFill) {
  GridIndex g = MakeGrid(100.0, 10);
  // Fill the left half's cells; the right half is never inserted into.
  for (uint32_t k = 0; k < 200; ++k) {
    const double x = 2.0 + (k % 5) * 10.0;
    const double y = 2.0 + (k / 5 % 10) * 10.0;
    ASSERT_TRUE(g.Insert(k, Point{x, y}).ok());
  }
  for (uint32_t c = 0; c < g.CellCount(); ++c) {
    const bool left = c % 10 < 5;
    EXPECT_EQ(g.CellEntries(c).size(), left ? 4u : 0u) << "cell " << c;
  }
  EXPECT_TRUE(g.EntriesNear({95, 95}).empty());
}

TEST(GridIndexTest, CellEmptiedByRemoveRefills) {
  GridIndex g = MakeGrid(100.0, 10);
  ASSERT_TRUE(g.Insert(1, Point{55, 55}).ok());
  ASSERT_TRUE(g.Insert(2, Point{56, 56}).ok());
  ASSERT_TRUE(g.Remove(1).ok());
  ASSERT_TRUE(g.Remove(2).ok());
  EXPECT_TRUE(g.EntriesNear({55, 55}).empty());
  ASSERT_TRUE(g.Insert(3, Point{57, 57}).ok());
  EXPECT_EQ(g.EntriesNear({55, 55}), std::vector<uint32_t>{3});
  // A cell next door, never touched, stays empty.
  EXPECT_TRUE(g.EntriesNear({45, 55}).empty());
  g.Clear();
  EXPECT_TRUE(g.EntriesNear({55, 55}).empty());
  ASSERT_TRUE(g.Insert(4, Point{55, 55}).ok());
  EXPECT_EQ(g.EntriesNear({55, 55}), std::vector<uint32_t>{4});
}

TEST(GridIndexTest, FlattenEntriesMatchesCellEntriesAfterChurn) {
  Rng rng(4242);
  GridIndex g = MakeGrid(1000.0, 20);
  std::vector<char> present(300, 0);
  auto random_circle = [&rng]() {
    return Circle{{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)},
                  rng.NextDouble(0, 120)};
  };
  for (int step = 0; step < 3000; ++step) {
    const uint32_t key = static_cast<uint32_t>(rng.NextDouble(0, 300));
    const double op = rng.NextDouble(0, 1);
    if (!present[key]) {
      ASSERT_TRUE(g.Insert(key, random_circle()).ok());
      present[key] = 1;
    } else if (op < 0.4) {
      ASSERT_TRUE(g.Remove(key).ok());
      present[key] = 0;
    } else {
      ASSERT_TRUE(g.Update(key, random_circle()).ok());
    }
  }
  std::vector<uint32_t> offsets, entries;
  g.FlattenEntries(&offsets, &entries);
  ASSERT_EQ(offsets.size(), g.CellCount() + 1);
  EXPECT_EQ(offsets.back(), entries.size());
  for (uint32_t c = 0; c < g.CellCount(); ++c) {
    const std::vector<uint32_t> flat(entries.begin() + offsets[c],
                                     entries.begin() + offsets[c + 1]);
    EXPECT_EQ(flat, g.CellEntries(c)) << "cell " << c;
  }
}

TEST(GridIndexTest, EmptyGridIsSmall) {
  // One 4-byte slot per cell plus the shared empty list: the 100x100
  // ClusterGrid costs well under one vector header per cell.
  GridIndex g = MakeGrid(10000.0, 100);
  EXPECT_LT(g.EstimateMemoryUsage(), 50u * 1024u);
}

}  // namespace
}  // namespace scuba
