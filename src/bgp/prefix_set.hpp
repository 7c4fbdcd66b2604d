// Dense prefix sets: a router-wide prefix -> slot index and per-peer sets of
// slots, replacing one std::set<Prefix> node per (peer, pending prefix).
//
// A PrefixSet behaves exactly like std::set<Prefix> for insert, erase,
// size and empty, and hands its members out in sorted-prefix order, so
// UPDATE content and order are those of the node-based sets it replaces.
// Membership is a flag byte per slot plus an item list; the list is sorted
// once per drain instead of keeping a tree ordered on every insert.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/rib.hpp"
#include "net/ip.hpp"

namespace bgpsdn::bgp {

/// Router-wide prefix -> dense slot id. Slots are never reused: a router
/// sees a bounded set of prefixes, and stable ids let every per-peer set be
/// a flag array indexed by slot.
class PrefixIndex {
 public:
  /// The slot of `prefix`, created on first sight.
  std::uint32_t intern(const net::Prefix& prefix);
  const net::Prefix& prefix(std::uint32_t slot) const { return prefixes_[slot]; }
  std::size_t size() const { return prefixes_.size(); }

 private:
  struct Slot {
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
    std::uint32_t id{kNone};
    static Slot empty() { return {}; }
    bool is_empty() const { return id == kNone; }
  };

  detail::PrefixTable<Slot> slots_;
  std::vector<net::Prefix> prefixes_;
};

/// A set of PrefixIndex slots with std::set<Prefix> semantics.
class PrefixSet {
 public:
  /// True if `slot` was not a member.
  bool insert(std::uint32_t slot);
  /// 1 if `slot` was a member, else 0.
  std::size_t erase(std::uint32_t slot);
  bool contains(std::uint32_t slot) const {
    return slot < flags_.size() && (flags_[slot] & kMember) != 0;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();
  /// Move the members into `out` (replacing its contents) in sorted-prefix
  /// order and leave the set empty.
  void take_sorted(const PrefixIndex& index, std::vector<std::uint32_t>& out);

 private:
  static constexpr std::uint8_t kMember = 1;
  /// The slot is on items_ (members, and slots erased since the last drain).
  static constexpr std::uint8_t kListed = 2;

  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> items_;
  std::size_t size_{0};
};

}  // namespace bgpsdn::bgp
