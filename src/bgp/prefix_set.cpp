#include "bgp/prefix_set.hpp"

#include <algorithm>

namespace bgpsdn::bgp {

std::uint32_t PrefixIndex::intern(const net::Prefix& prefix) {
  if (const Slot* slot = slots_.find(prefix); slot != nullptr) return slot->id;
  const auto id = static_cast<std::uint32_t>(prefixes_.size());
  prefixes_.push_back(prefix);
  slots_.put(prefix, Slot{id});
  return id;
}

// lint: hotpath(every scheduled (peer, prefix) export lands here; a flag
// write plus an amortized append, where std::set allocated a node)
bool PrefixSet::insert(std::uint32_t slot) {
  if (slot >= flags_.size()) {
    flags_.resize(std::max<std::size_t>(slot + 1, flags_.size() * 2), 0);
  }
  std::uint8_t& flags = flags_[slot];
  if ((flags & kMember) != 0) return false;
  if ((flags & kListed) == 0) items_.push_back(slot);
  flags = kMember | kListed;
  ++size_;
  return true;
}

std::size_t PrefixSet::erase(std::uint32_t slot) {
  if (!contains(slot)) return 0;
  flags_[slot] = kListed;
  --size_;
  return 1;
}

void PrefixSet::clear() {
  for (const std::uint32_t slot : items_) flags_[slot] = 0;
  items_.clear();
  size_ = 0;
}

// lint: hotpath(drained once per flush of every peer; sorts the members
// instead of keeping a tree ordered on every insert)
void PrefixSet::take_sorted(const PrefixIndex& index,
                            std::vector<std::uint32_t>& out) {
  out.clear();
  out.reserve(size_);
  for (const std::uint32_t slot : items_) {
    if ((flags_[slot] & kMember) != 0) out.push_back(slot);
    flags_[slot] = 0;
  }
  items_.clear();
  size_ = 0;
  std::sort(out.begin(), out.end(), [&](std::uint32_t a, std::uint32_t b) {
    return index.prefix(a) < index.prefix(b);
  });
}

}  // namespace bgpsdn::bgp
