#include "place/bstar_tree.h"

namespace tqec::place {

void BStarTree::restore(Snapshot&& in) {
  for (int item : state_.items) slot_of_item_[static_cast<std::size_t>(item)] = -1;
  std::swap(state_, in.state_);
  for (std::size_t slot = 0; slot < state_.slots.size(); ++slot)
    index_item(state_.slots[slot].item, static_cast<int>(slot));
}

bool BStarTree::contains(int item) const {
  return item >= 0 && item < static_cast<int>(slot_of_item_.size()) &&
         slot_of_item_[static_cast<std::size_t>(item)] >= 0;
}

int BStarTree::slot_of(int item) const {
  TQEC_REQUIRE(contains(item), "item not in this B*-tree");
  return slot_of_item_[static_cast<std::size_t>(item)];
}

void BStarTree::index_item(int item, int slot) {
  if (item >= static_cast<int>(slot_of_item_.size()))
    slot_of_item_.resize(static_cast<std::size_t>(item) + 1, -1);
  slot_of_item_[static_cast<std::size_t>(item)] = slot;
}

void BStarTree::add_slot(int item) {
  TQEC_REQUIRE(!contains(item), "item already in tree");
  const int slot = size();
  state_.slots.push_back({item, -1, -1, -1});
  state_.packed.push_back({});
  // A fresh slot has no packed position yet; the sentinel keeps it in the
  // dirty suffix no matter where the watermark sits.
  state_.pos.push_back(kClean);
  state_.items.push_back(item);
  index_item(item, slot);
}

void BStarTree::insert(int item, Rng& rng) {
  add_slot(item);
  const int slot = size() - 1;
  state_.last_inserted = item;

  if (state_.root < 0) {
    state_.root = slot;
    if (state_.pack_valid) mark_dirty_at(0);
    return;
  }
  // Walk random child pointers until a free slot is found; expected
  // O(log n) on the evolving trees.
  int cur = state_.root;
  for (;;) {
    Slot& s = state_.slots[static_cast<std::size_t>(cur)];
    const bool go_left = rng.chance(0.5);
    int& child = go_left ? s.left : s.right;
    if (child < 0) {
      child = slot;
      state_.slots[static_cast<std::size_t>(slot)].parent = cur;
      // The new leaf lands somewhere inside the parent's subtree; its
      // preorder position is at least parent's + 1, so that is a sound
      // (conservative) watermark.
      mark_dirty_below(cur);
      return;
    }
    cur = child;
  }
}

void BStarTree::insert_chain(int item) {
  add_slot(item);
  const int slot = size() - 1;
  if (state_.root < 0) {
    state_.root = slot;
    if (state_.pack_valid) mark_dirty_at(0);
  } else {
    const int parent = slot_of(state_.last_inserted);
    TQEC_ASSERT(state_.slots[static_cast<std::size_t>(parent)].left < 0,
                "chain insertion point occupied");
    state_.slots[static_cast<std::size_t>(parent)].left = slot;
    state_.slots[static_cast<std::size_t>(slot)].parent = parent;
    mark_dirty_below(parent);
  }
  state_.last_inserted = item;
}

void BStarTree::replace_child(int parent, int old_slot, int new_slot) {
  if (parent < 0) {
    TQEC_ASSERT(state_.root == old_slot, "detached slot is not the root");
    state_.root = new_slot;
  } else {
    Slot& p = state_.slots[static_cast<std::size_t>(parent)];
    if (p.left == old_slot)
      p.left = new_slot;
    else if (p.right == old_slot)
      p.right = new_slot;
    else
      TQEC_ASSERT(false, "parent does not own child slot");
  }
  if (new_slot >= 0)
    state_.slots[static_cast<std::size_t>(new_slot)].parent = parent;
}

void BStarTree::erase_slot(int slot) {
  std::vector<Slot>& slots = state_.slots;
  const int last = size() - 1;
  if (slot != last) {
    // Move the last slot into the vacated index and rewire references.
    const Slot moved = slots[static_cast<std::size_t>(last)];
    slots[static_cast<std::size_t>(slot)] = moved;
    slot_of_item_[static_cast<std::size_t>(moved.item)] = slot;
    if (moved.parent >= 0) {
      Slot& p = slots[static_cast<std::size_t>(moved.parent)];
      if (p.left == last) p.left = slot;
      if (p.right == last) p.right = slot;
    } else {
      state_.root = slot;
    }
    if (moved.left >= 0) slots[static_cast<std::size_t>(moved.left)].parent = slot;
    if (moved.right >= 0)
      slots[static_cast<std::size_t>(moved.right)].parent = slot;
    // Carry the packing cache along with the renamed slot; if it is a
    // clean-prefix slot, the preorder index must keep pointing at it.
    state_.packed[static_cast<std::size_t>(slot)] =
        state_.packed[static_cast<std::size_t>(last)];
    const int moved_pos = state_.pos[static_cast<std::size_t>(last)];
    state_.pos[static_cast<std::size_t>(slot)] = moved_pos;
    if (moved_pos >= 0 && moved_pos < static_cast<int>(state_.order.size()) &&
        state_.order[static_cast<std::size_t>(moved_pos)] == last)
      state_.order[static_cast<std::size_t>(moved_pos)] = slot;
  }
  slots.pop_back();
  state_.packed.pop_back();
  state_.pos.pop_back();
}

void BStarTree::remove(int item, Rng& rng) {
  int slot = slot_of(item);
  // Everything at or after the detached slot's preorder position can move;
  // the bubble-down below only swaps items within its subtree (all deeper
  // positions), so this single mark covers the whole operation.
  mark_dirty_slot(slot);
  // Bubble the item down by swapping with a random child until it has at
  // most one child, then splice it out. Swapping items (not slots) keeps
  // all structural pointers intact.
  std::vector<Slot>& slots = state_.slots;
  for (;;) {
    Slot& s = slots[static_cast<std::size_t>(slot)];
    if (s.left >= 0 && s.right >= 0) {
      const int child = rng.chance(0.5) ? s.left : s.right;
      std::swap(slots[static_cast<std::size_t>(slot)].item,
                slots[static_cast<std::size_t>(child)].item);
      slot_of_item_[static_cast<std::size_t>(
          slots[static_cast<std::size_t>(slot)].item)] = slot;
      slot = child;
      slot_of_item_[static_cast<std::size_t>(item)] = slot;
    } else {
      break;
    }
  }
  const Slot s = slots[static_cast<std::size_t>(slot)];
  const int child = s.left >= 0 ? s.left : s.right;
  replace_child(s.parent, slot, child);
  slot_of_item_[static_cast<std::size_t>(item)] = -1;
  state_.items.erase(
      std::find(state_.items.begin(), state_.items.end(), item));
  if (state_.last_inserted == item) state_.last_inserted = -1;
  erase_slot(slot);
}

void BStarTree::swap_items(int a, int b) {
  const int sa = slot_of(a);
  const int sb = slot_of(b);
  mark_dirty_slot(sa);
  mark_dirty_slot(sb);
  std::swap(state_.slots[static_cast<std::size_t>(sa)].item,
            state_.slots[static_cast<std::size_t>(sb)].item);
  slot_of_item_[static_cast<std::size_t>(a)] = sb;
  slot_of_item_[static_cast<std::size_t>(b)] = sa;
}

void BStarTree::mark_item_dirty(int item) { mark_dirty_slot(slot_of(item)); }

int BStarTree::packed_x(int item) const {
  TQEC_ASSERT(pack_cache_clean(), "packed_x on an unpacked tree");
  return state_.packed[static_cast<std::size_t>(slot_of(item))].x;
}

int BStarTree::packed_z(int item) const {
  TQEC_ASSERT(pack_cache_clean(), "packed_z on an unpacked tree");
  return state_.packed[static_cast<std::size_t>(slot_of(item))].z;
}

int BStarTree::packed_width() const {
  TQEC_ASSERT(pack_cache_clean(), "packed_width on an unpacked tree");
  return state_.width;
}

int BStarTree::packed_depth() const {
  TQEC_ASSERT(pack_cache_clean(), "packed_depth on an unpacked tree");
  return state_.depth;
}

void BStarTree::check_invariants() const {
  const std::vector<Slot>& slots = state_.slots;
  TQEC_ASSERT(state_.packed.size() == slots.size() &&
                  state_.pos.size() == slots.size(),
              "packing cache out of sync with slots");
  if (state_.root < 0) {
    TQEC_ASSERT(slots.empty(), "rootless tree with slots");
    return;
  }
  TQEC_ASSERT(slots[static_cast<std::size_t>(state_.root)].parent == -1,
              "root has a parent");
  std::size_t visited = 0;
  std::vector<int> stack{state_.root};
  while (!stack.empty()) {
    const int slot = stack.back();
    stack.pop_back();
    ++visited;
    const Slot& s = slots[static_cast<std::size_t>(slot)];
    TQEC_ASSERT(slot_of_item_[static_cast<std::size_t>(s.item)] == slot,
                "item map out of sync");
    for (int child : {s.left, s.right}) {
      if (child < 0) continue;
      TQEC_ASSERT(slots[static_cast<std::size_t>(child)].parent == slot,
                  "child/parent pointer mismatch");
      stack.push_back(child);
    }
  }
  TQEC_ASSERT(visited == slots.size(), "unreachable slots in tree");
  TQEC_ASSERT(state_.items.size() == slots.size(), "item list out of sync");
  std::size_t indexed = 0;
  for (int slot : slot_of_item_)
    if (slot >= 0) ++indexed;
  TQEC_ASSERT(indexed == slots.size(), "item map holds absent items");
}

}  // namespace tqec::place
