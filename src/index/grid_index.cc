#include "index/grid_index.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/memory_usage.h"

namespace scuba {

Result<GridIndex> GridIndex::Create(const Rect& region, uint32_t cells_per_side) {
  if (region.Empty() || region.Width() <= 0.0 || region.Height() <= 0.0) {
    return Status::InvalidArgument("grid region must have positive area");
  }
  if (cells_per_side == 0) {
    return Status::InvalidArgument("cells_per_side must be positive");
  }
  return GridIndex(region, cells_per_side);
}

GridIndex::GridIndex(const Rect& region, uint32_t cells_per_side)
    : region_(region),
      cells_per_side_(cells_per_side),
      cell_width_(region.Width() / cells_per_side),
      cell_height_(region.Height() / cells_per_side),
      cell_list_(static_cast<size_t>(cells_per_side) * cells_per_side, 0),
      lists_(1) {}

uint32_t GridIndex::ColOf(double x) const {
  double rel = (x - region_.min_x) / cell_width_;
  if (rel < 0.0) return 0;
  uint32_t col = static_cast<uint32_t>(rel);
  return std::min(col, cells_per_side_ - 1);
}

uint32_t GridIndex::RowOf(double y) const {
  double rel = (y - region_.min_y) / cell_height_;
  if (rel < 0.0) return 0;
  uint32_t row = static_cast<uint32_t>(rel);
  return std::min(row, cells_per_side_ - 1);
}

uint32_t GridIndex::CellIndexOf(Point p) const {
  return CellOf(ColOf(p.x), RowOf(p.y));
}

Rect GridIndex::CellBounds(uint32_t cell) const {
  SCUBA_CHECK(cell < cell_list_.size());
  uint32_t row = cell / cells_per_side_;
  uint32_t col = cell % cells_per_side_;
  return Rect{region_.min_x + col * cell_width_,
              region_.min_y + row * cell_height_,
              region_.min_x + (col + 1) * cell_width_,
              region_.min_y + (row + 1) * cell_height_};
}

void GridIndex::CellsOverlapping(const Rect& bounds,
                                 std::vector<uint32_t>* out) const {
  uint32_t c0 = ColOf(bounds.min_x);
  uint32_t c1 = ColOf(bounds.max_x);
  uint32_t r0 = RowOf(bounds.min_y);
  uint32_t r1 = RowOf(bounds.max_y);
  for (uint32_t r = r0; r <= r1; ++r) {
    for (uint32_t c = c0; c <= c1; ++c) {
      out->push_back(CellOf(c, r));
    }
  }
}

Status GridIndex::InsertIntoCells(uint32_t key, std::vector<uint32_t> cell_ids) {
  if (placements_.contains(key)) {
    return Status::AlreadyExists("key " + std::to_string(key) +
                                 " is already indexed");
  }
  for (uint32_t cell : cell_ids) {
    if (cell_list_[cell] == 0) {  // first insert: the cell gets its own list
      cell_list_[cell] = static_cast<uint32_t>(lists_.size());
      lists_.emplace_back();
    }
    lists_[cell_list_[cell]].push_back(key);
  }
  placements_.emplace(key, std::move(cell_ids));
  ++generation_;
  return Status::OK();
}

Status GridIndex::Insert(uint32_t key, Point p) {
  return InsertIntoCells(key, {CellIndexOf(p)});
}

Status GridIndex::Insert(uint32_t key, const Rect& bounds) {
  if (bounds.Empty()) {
    return Status::InvalidArgument("cannot index an empty rectangle");
  }
  std::vector<uint32_t> cell_ids;
  CellsOverlapping(bounds, &cell_ids);
  return InsertIntoCells(key, std::move(cell_ids));
}

void GridIndex::CellsForCircle(const Circle& c,
                               std::vector<uint32_t>* out) const {
  Rect box{c.center.x - c.radius, c.center.y - c.radius,
           c.center.x + c.radius, c.center.y + c.radius};
  std::vector<uint32_t> candidates;
  CellsOverlapping(box, &candidates);
  // Refine: keep only cells the disk actually touches (matters for large
  // radii, where the bounding box covers up to 27% more cells).
  size_t first_new = out->size();
  for (uint32_t cell : candidates) {
    if (Intersects(CellBounds(cell), c)) out->push_back(cell);
  }
  if (out->size() == first_new) out->push_back(CellIndexOf(c.center));
}

Status GridIndex::Insert(uint32_t key, const Circle& c) {
  std::vector<uint32_t> cell_ids;
  CellsForCircle(c, &cell_ids);
  return InsertIntoCells(key, std::move(cell_ids));
}

Status GridIndex::Remove(uint32_t key) {
  auto it = placements_.find(key);
  if (it == placements_.end()) {
    return Status::NotFound("key " + std::to_string(key) + " is not indexed");
  }
  for (uint32_t cell : it->second) {
    std::vector<uint32_t>& entries = lists_[cell_list_[cell]];
    auto pos = std::find(entries.begin(), entries.end(), key);
    SCUBA_CHECK(pos != entries.end());
    *pos = entries.back();
    entries.pop_back();
  }
  placements_.erase(it);
  ++generation_;
  return Status::OK();
}

Status GridIndex::Update(uint32_t key, Point p) {
  SCUBA_RETURN_IF_ERROR(Remove(key));
  return Insert(key, p);
}

Status GridIndex::Update(uint32_t key, const Rect& bounds) {
  // Validate before removing so a bad argument cannot strand the key
  // half-removed.
  if (bounds.Empty()) {
    return Status::InvalidArgument("cannot index an empty rectangle");
  }
  SCUBA_RETURN_IF_ERROR(Remove(key));
  return Insert(key, bounds);
}

Status GridIndex::Update(uint32_t key, const Circle& c) {
  SCUBA_RETURN_IF_ERROR(Remove(key));
  return Insert(key, c);
}

void GridIndex::CellsForRect(const Rect& r, std::vector<uint32_t>* out) const {
  if (r.Empty()) return;
  CellsOverlapping(r, out);
}

void GridIndex::CollectInRect(const Rect& r, std::vector<uint32_t>* out) const {
  if (r.Empty()) return;
  std::vector<uint32_t> cell_ids;
  CellsOverlapping(r, &cell_ids);
  size_t first_new = out->size();
  for (uint32_t cell : cell_ids) {
    const std::vector<uint32_t>& entries = CellEntries(cell);
    out->insert(out->end(), entries.begin(), entries.end());
  }
  // Keys spanning several cells appear once per cell; dedup the appended tail.
  std::sort(out->begin() + first_new, out->end());
  out->erase(std::unique(out->begin() + first_new, out->end()), out->end());
}

void GridIndex::FlattenEntries(std::vector<uint32_t>* offsets,
                               std::vector<uint32_t>* entries) const {
  offsets->clear();
  entries->clear();
  offsets->reserve(cell_list_.size() + 1);
  size_t total = 0;
  for (const auto& list : lists_) total += list.size();
  entries->reserve(total);
  uint32_t offset = 0;
  for (uint32_t list : cell_list_) {
    const std::vector<uint32_t>& cell = lists_[list];
    offsets->push_back(offset);
    entries->insert(entries->end(), cell.begin(), cell.end());
    offset += static_cast<uint32_t>(cell.size());
  }
  offsets->push_back(offset);
}

std::vector<uint32_t> GridIndex::Keys() const {
  std::vector<uint32_t> keys;
  keys.reserve(placements_.size());
  for (const auto& [key, cells] : placements_) {
    (void)cells;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void GridIndex::Clear() {
  for (auto& list : lists_) list.clear();
  placements_.clear();
  ++generation_;
}

size_t GridIndex::EstimateMemoryUsage() const {
  size_t bytes = VectorMemoryUsage(cell_list_) + VectorMemoryUsage(lists_);
  for (const auto& list : lists_) bytes += VectorMemoryUsage(list);
  bytes += UnorderedMapMemoryUsage(placements_);
  for (const auto& [key, cell_ids] : placements_) {
    (void)key;
    bytes += VectorMemoryUsage(cell_ids);
  }
  return bytes;
}

}  // namespace scuba
