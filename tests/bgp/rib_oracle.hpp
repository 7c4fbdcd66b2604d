// std::map twins of the three RIB APIs (bgp/rib.hpp), the oracle the unit
// fuzz suites check the slab-backed RIBs against. Node-based, sorted and
// deliberately naive: same return values, iteration order and generation
// counting, no memory accounting, no scratch storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "bgp/rib.hpp"

namespace bgpsdn::bgp::oracle {

class AdjRibIn {
 public:
  bool put(const Route& route) {
    auto& slot = by_prefix_[route.prefix];
    const auto it = slot.find(route.learned_from);
    if (it == slot.end()) {
      slot.emplace(route.learned_from, route);
      return true;
    }
    const Route& old = it->second;
    const bool changed = !(old.attributes == route.attributes &&
                           old.installed_at == route.installed_at &&
                           old.peer_bgp_id == route.peer_bgp_id &&
                           old.peer_address == route.peer_address);
    it->second = route;
    return changed;
  }

  bool erase(const net::Prefix& prefix, core::SessionId session) {
    const auto it = by_prefix_.find(prefix);
    if (it == by_prefix_.end()) return false;
    const bool erased = it->second.erase(session) > 0;
    if (it->second.empty()) by_prefix_.erase(it);
    return erased;
  }

  std::vector<net::Prefix> erase_session(core::SessionId session) {
    std::vector<net::Prefix> affected;
    for (auto it = by_prefix_.begin(); it != by_prefix_.end();) {
      if (it->second.erase(session) > 0) affected.push_back(it->first);
      it = it->second.empty() ? by_prefix_.erase(it) : std::next(it);
    }
    return affected;
  }

  const Route* find(const net::Prefix& prefix, core::SessionId session) const {
    const auto it = by_prefix_.find(prefix);
    if (it == by_prefix_.end()) return nullptr;
    const auto rit = it->second.find(session);
    return rit == it->second.end() ? nullptr : &rit->second;
  }

  std::vector<const Route*> candidates(const net::Prefix& prefix) const {
    std::vector<const Route*> out;
    const auto it = by_prefix_.find(prefix);
    if (it == by_prefix_.end()) return out;
    for (const auto& [sid, route] : it->second) out.push_back(&route);
    return out;
  }

  std::size_t route_count() const {
    std::size_t count = 0;
    for (const auto& [prefix, slot] : by_prefix_) count += slot.size();
    return count;
  }

  std::vector<net::Prefix> prefixes() const {
    std::vector<net::Prefix> out;
    for (const auto& [prefix, slot] : by_prefix_) out.push_back(prefix);
    return out;
  }

 private:
  std::map<net::Prefix, std::map<core::SessionId, Route>> by_prefix_;
};

class LocRib {
 public:
  bool install(const Route& route) {
    const auto it = routes_.find(route.prefix);
    if (it != routes_.end() && it->second.attributes == route.attributes &&
        it->second.learned_from == route.learned_from) {
      return false;
    }
    routes_[route.prefix] = route;
    ++generation_;
    return true;
  }

  bool remove(const net::Prefix& prefix) {
    if (routes_.erase(prefix) == 0) return false;
    ++generation_;
    return true;
  }

  const Route* find(const net::Prefix& prefix) const {
    const auto it = routes_.find(prefix);
    return it == routes_.end() ? nullptr : &it->second;
  }

  std::size_t size() const { return routes_.size(); }

  std::vector<net::Prefix> prefixes() const {
    std::vector<net::Prefix> out;
    for (const auto& [prefix, route] : routes_) out.push_back(prefix);
    return out;
  }

  std::uint64_t generation() const { return generation_; }

 private:
  std::map<net::Prefix, Route> routes_;
  std::uint64_t generation_{0};
};

class RibOutStore {
 public:
  std::uint16_t add_column() {
    cols_.emplace_back();
    return static_cast<std::uint16_t>(cols_.size() - 1);
  }

  bool advertise(std::uint16_t col, const net::Prefix& prefix,
                 const AttrSetRef& attrs) {
    auto& advertised = cols_[col];
    const auto it = advertised.find(prefix);
    if (it != advertised.end() && it->second == attrs) return false;
    advertised[prefix] = attrs;
    return true;
  }

  bool withdraw(std::uint16_t col, const net::Prefix& prefix) {
    return cols_[col].erase(prefix) > 0;
  }

  const PathAttributes* advertised(std::uint16_t col,
                                   const net::Prefix& prefix) const {
    const auto it = cols_[col].find(prefix);
    return it == cols_[col].end() ? nullptr : &*it->second;
  }

  std::size_t size(std::uint16_t col) const { return cols_[col].size(); }
  void clear(std::uint16_t col) { cols_[col].clear(); }

  std::vector<net::Prefix> prefixes(std::uint16_t col) const {
    std::vector<net::Prefix> out;
    for (const auto& [prefix, attrs] : cols_[col]) out.push_back(prefix);
    return out;
  }

 private:
  std::vector<std::map<net::Prefix, AttrSetRef>> cols_;
};

}  // namespace bgpsdn::bgp::oracle
