#include "util/dsu.h"

#include <algorithm>
#include <cassert>

namespace esd::util {

namespace {

bool IsRoot(uint32_t word) { return (word & kDsuRoot) != 0; }

}  // namespace

size_t KeyedDsu::LowerBound(uint32_t v) const {
  const std::span<const Slot> s = slots();
  return static_cast<size_t>(
      std::lower_bound(s.begin(), s.end(), v,
                       [](const Slot& slot, uint32_t key) {
                         return slot.vertex < key;
                       }) -
      s.begin());
}

uint32_t KeyedDsu::SlotOf(uint32_t v) const {
  const size_t i = LowerBound(v);
  assert(i < NumMembers() && slots()[i].vertex == v);
  return static_cast<uint32_t>(i);
}

bool KeyedDsu::AddMember(uint32_t v) {
  if (Contains(v)) return false;
  AddMembers({&v, 1});
  return true;
}

void KeyedDsu::AddMembers(std::span<const uint32_t> vs) {
  if (vs.empty()) return;
  size_t old = NumMembers(), add = vs.size();
  assert(old + add < kDsuRoot);
  // A slot moves up by the number of new members below it, and so does
  // every word that points at it; an append moves none.
  std::span<Slot> s = slots();
  if (old > 0 && vs.front() < s[old - 1].vertex) {
    for (Slot& slot : s) {
      if (IsRoot(slot.parent)) continue;
      const uint32_t parent = s[slot.parent].vertex;
      slot.parent += static_cast<uint32_t>(
          std::lower_bound(vs.begin(), vs.end(), parent) - vs.begin());
    }
  }
  // Merge from the back, in place.
  s = runs_->Resize(run_, old + add);
  for (size_t k = s.size(); add > 0;) {
    --k;
    if (old > 0 && s[old - 1].vertex > vs[add - 1]) {
      s[k] = s[--old];
    } else {
      assert(old == 0 || s[old - 1].vertex != vs[add - 1]);
      s[k] = {vs[--add], kDsuRoot | 1};
    }
  }
}

bool KeyedDsu::Contains(uint32_t v) const {
  const size_t i = LowerBound(v);
  return i < NumMembers() && slots()[i].vertex == v;
}

uint32_t KeyedDsu::Find(uint32_t v) {
  return slots()[FindSlot(SlotOf(v))].vertex;
}

uint32_t KeyedDsu::ComponentSize(uint32_t v) {
  return slots()[FindSlot(SlotOf(v))].parent & ~kDsuRoot;
}

size_t KeyedDsu::NumComponents() const {
  const std::span<const Slot> s = slots();
  return static_cast<size_t>(std::count_if(
      s.begin(), s.end(), [](const Slot& slot) { return IsRoot(slot.parent); }));
}

void KeyedDsu::Clear() { runs_->Resize(run_, 0); }

bool KeyedDsu::RemoveSingleton(uint32_t v) {
  const size_t pos = LowerBound(v);
  std::span<Slot> s = slots();
  if (pos == s.size() || s[pos].vertex != v ||
      s[pos].parent != (kDsuRoot | 1)) {
    return false;
  }
  std::copy(s.begin() + static_cast<ptrdiff_t>(pos) + 1, s.end(),
            s.begin() + static_cast<ptrdiff_t>(pos));
  s = runs_->Resize(run_, s.size() - 1);
  // A singleton is no member's parent: words past it move down one slot.
  for (Slot& slot : s) {
    if (!IsRoot(slot.parent) && slot.parent > pos) --slot.parent;
  }
  return true;
}

void KeyedDsu::ComponentMembers(uint32_t v, std::vector<uint32_t>* out) {
  const uint32_t root = FindSlot(SlotOf(v));
  const auto n = static_cast<uint32_t>(NumMembers());
  out->clear();
  for (uint32_t i = 0; i < n; ++i) {
    if (FindSlot(i) == root) out->push_back(slots()[i].vertex);
  }
}

void KeyedDsu::RemoveComponent(uint32_t v) {
  const uint32_t root = FindSlot(SlotOf(v));
  std::span<Slot> s = slots();
  const auto n = static_cast<uint32_t>(s.size());
  // Every member points straight at its root.
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t r = FindSlot(i);
    if (r != i) s[i].parent = r;
  }
  // Mark v's component kGone; every other root's word becomes kDsuRoot |
  // its index once the component is gone. Both lie above any slot index.
  constexpr uint32_t kGone = ~0u;
  uint32_t gone = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t& word = s[i].parent;
    if (i == root || word == root) {
      word = kGone;
      ++gone;
    } else if (IsRoot(word)) {
      word = kDsuRoot | (i - gone);
    }
  }
  for (Slot& slot : s) {
    if (!IsRoot(slot.parent)) slot.parent = s[slot.parent].parent & ~kDsuRoot;
  }
  const auto kept = std::remove_if(
      s.begin(), s.end(), [](const Slot& slot) { return slot.parent == kGone; });
  s = runs_->Resize(run_, static_cast<size_t>(kept - s.begin()));
  // Recount the sizes the new indices displaced.
  for (Slot& slot : s) {
    if (IsRoot(slot.parent)) slot.parent = kDsuRoot | 1;
  }
  for (Slot& slot : s) {
    if (!IsRoot(slot.parent)) ++s[slot.parent].parent;
  }
}

void KeyedDsu::ComponentSizes(std::vector<uint32_t>* out) const {
  out->clear();
  ForEachComponent([out](uint32_t, uint32_t size) { out->push_back(size); });
  std::sort(out->begin(), out->end());
}

}  // namespace esd::util
