// Path-attribute interning (the Quagga `attrhash` idea) and the export cache.
//
// A converged emulation carries the same attribute bundle in many places at
// once: every NLRI of an UPDATE, every Adj-RIB-In entry it produced, the
// Loc-RIB winner, per-peer Adj-RIBs-Out, the speaker's relay RIBs, and the
// IDR controller's external RIB. Storing `PathAttributes` by value copies
// the AS-path and community vectors at each of those hops. Instead one
// AttrRegistry per simulation (the Experiment wires it through every
// router, the speaker and the controller) owns one immutable bundle per
// distinct attribute set:
//
//  - Bundles are value-hashed and refcounted without atomics: a store and
//    every handle into it live on the one thread that runs the simulation.
//    A bundle is freed the moment its last reference drops, so there is no
//    weak reference, no sweep, and no state that outlives the simulation.
//  - Two kinds of reference share one count: AttrSetRef handles (Routes,
//    RIB scratch, controller tables) and 4-byte registry indices, which the
//    RIBs store instead of a handle per entry (acquire/retain/release).
//  - Mutation is copy-on-write by construction: to change attributes, copy
//    the bundle out (`PathAttributes a = *ref`), edit, re-intern.
//  - The export cache memoizes a router's export transform per (input
//    bundle, export class) and forgets an entry as soon as its input or its
//    result is freed, so it never keeps a bundle alive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bgp/path_attributes.hpp"

namespace bgpsdn::bgp {

/// Hash of a full attribute bundle (all fields that participate in
/// PathAttributes::operator==).
std::size_t hash_value(const PathAttributes& attrs);

class AttrRegistry;

namespace detail {

inline constexpr std::uint32_t kNoAttr = 0xFFFFFFFFu;

/// One interned bundle: the value plus the owning store's bookkeeping.
struct AttrBundle {
  PathAttributes attrs;
  std::size_t hash{0};
  /// AttrSetRef handles plus registry-index holds.
  std::uint32_t refs{0};
  /// The registry-index holds among `refs`; they die with the store.
  std::uint32_t holds{0};
  /// Slot in the owning store's id table, assigned when a RIB first holds
  /// the bundle by index.
  std::uint32_t id{kNoAttr};
  /// Null once the store is destroyed (the bundle is then an orphan, freed
  /// by its last handle).
  AttrRegistry* store{nullptr};
  /// Heads of the export-cache chains keyed by / resolving to this bundle.
  std::uint32_t exports{kNoAttr};
  std::uint32_t exported_by{kNoAttr};
};

/// Called when the last reference drops.
void free_bundle(AttrBundle* bundle);

/// The value default-constructed handles read. Constant-initialized, so
/// handles made during static initialization are safe.
extern const PathAttributes kDefaultAttrs;

}  // namespace detail

/// Handle to an interned, immutable PathAttributes. Never dangling: a
/// default-constructed (or moved-from) ref reads as the default bundle.
class AttrSetRef {
 public:
  AttrSetRef() = default;
  AttrSetRef(const AttrSetRef& other) noexcept
      : bundle_{other.bundle_}, value_{other.value_} {
    if (bundle_ != nullptr) ++bundle_->refs;
  }
  AttrSetRef(AttrSetRef&& other) noexcept
      : bundle_{std::exchange(other.bundle_, nullptr)},
        value_{std::exchange(other.value_, &detail::kDefaultAttrs)} {}
  AttrSetRef& operator=(const AttrSetRef& other) noexcept {
    AttrSetRef{other}.swap(*this);
    return *this;
  }
  AttrSetRef& operator=(AttrSetRef&& other) noexcept {
    AttrSetRef{std::move(other)}.swap(*this);
    return *this;
  }
  ~AttrSetRef() {
    if (bundle_ != nullptr && --bundle_->refs == 0) {
      detail::free_bundle(bundle_);
    }
  }

  const PathAttributes& operator*() const { return *value_; }
  const PathAttributes* operator->() const { return &**this; }
  const PathAttributes& get() const { return **this; }

  /// True when both handles share one bundle (pointer identity).
  bool same_set(const AttrSetRef& other) const {
    return value_ == other.value_;
  }

  /// Value equality. One store holds one bundle per value, so two distinct
  /// bundles of the same store differ without a deep compare; anything else
  /// (default refs, different stores, orphans) compares by value.
  bool operator==(const AttrSetRef& other) const {
    if (value_ == other.value_) return true;
    if (bundle_ != nullptr && other.bundle_ != nullptr &&
        bundle_->store != nullptr && bundle_->store == other.bundle_->store) {
      return false;
    }
    return **this == *other;
  }
  bool operator==(const PathAttributes& value) const { return **this == value; }

  void swap(AttrSetRef& other) noexcept {
    std::swap(bundle_, other.bundle_);
    std::swap(value_, other.value_);
  }

 private:
  friend class AttrRegistry;
  explicit AttrSetRef(detail::AttrBundle* bundle)
      : bundle_{bundle}, value_{&bundle->attrs} {
    ++bundle_->refs;
  }

  /// The referenced bundle; null for the default value.
  detail::AttrBundle* bundle_{nullptr};
  /// `bundle_->attrs`, or kDefaultAttrs: dereference is one load, with no
  /// null test on the decision and export paths.
  const PathAttributes* value_{&detail::kDefaultAttrs};
};

/// The per-simulation attribute store: interner, refcounted 4-byte index
/// table for the compact RIBs, and the export cache.
///
/// Every footprint figure is deterministic: slot counts depend only on the
/// intern/acquire/release sequence, never on heap addresses.
class AttrRegistry {
 public:
  static constexpr std::uint32_t kNone = detail::kNoAttr;

  AttrRegistry() = default;
  AttrRegistry(const AttrRegistry&) = delete;
  AttrRegistry& operator=(const AttrRegistry&) = delete;
  /// Drops the index holds still outstanding and orphans the bundles that
  /// handles still reference: those stay valid and are freed by their last
  /// handle.
  ~AttrRegistry();

  /// The store's bundle for `attrs`, created on first sight.
  AttrSetRef intern(PathAttributes attrs);

  /// Index of `ref`'s bundle, refcount +1. A bundle of another store (or
  /// the default bundle) is interned here by value first.
  std::uint32_t acquire(const AttrSetRef& ref);
  /// Refcount +1 on an index already held.
  void retain(std::uint32_t index) {
    ++bundles_[index]->refs;
    ++bundles_[index]->holds;
  }
  /// Refcount -1; the bundle is freed at zero.
  void release(std::uint32_t index);
  /// A handle to an index held by the caller.
  AttrSetRef at(std::uint32_t index) const { return AttrSetRef{bundles_[index]}; }

  // --- export cache -------------------------------------------------------

  enum class Cached : std::uint8_t { kMiss, kRejected, kExported };

  /// The cached outcome of exporting `in` under export class `klass`; sets
  /// `out` on kExported.
  Cached find_export(const AttrSetRef& in, std::uint64_t klass,
                     AttrSetRef& out) const;
  /// Record an outcome: `out` is the exported bundle, or null when the
  /// export was rejected. Both bundles must belong to this store.
  void cache_export(const AttrSetRef& in, std::uint64_t klass,
                    const AttrSetRef* out);

  // --- introspection ------------------------------------------------------

  /// Live bundles.
  std::size_t size() const { return live_; }
  /// Live export-cache entries.
  std::size_t export_entries() const { return export_live_; }
  std::uint64_t interns() const { return interns_; }
  /// intern() calls resolved to an existing bundle.
  std::uint64_t hits() const { return hits_; }
  /// Deterministic bytes (core/mem_stats.hpp model) of the live bundles,
  /// the value index and the export cache: reported as mem.attr_pool.
  std::uint64_t pool_bytes() const;
  /// Deterministic bytes of the id table behind the RIBs' 4-byte indices:
  /// reported as mem.attr_registry (zero while no RIB stores an index).
  std::uint64_t index_bytes() const;

 private:
  friend void detail::free_bundle(detail::AttrBundle* bundle);

  /// One memoized export: `in` exported under `klass` gives `out` (null:
  /// rejected). Entries are chained per input and per result bundle.
  struct ExportEntry {
    std::uint64_t klass{0};
    detail::AttrBundle* in{nullptr};
    detail::AttrBundle* out{nullptr};
    std::uint32_t in_prev{kNone};
    std::uint32_t in_next{kNone};
    std::uint32_t out_prev{kNone};
    std::uint32_t out_next{kNone};
  };

  bool owns(const AttrSetRef& ref) const {
    return ref.bundle_ != nullptr && ref.bundle_->store == this;
  }
  /// Unindex a bundle whose last reference dropped.
  void erase(detail::AttrBundle* bundle);
  void drop_export(std::uint32_t entry);
  static std::uint64_t model_bytes(const PathAttributes& attrs);
  void grow();

  /// Index-held bundles by id; null marks a free id.
  std::vector<detail::AttrBundle*> bundles_;
  std::vector<std::uint32_t> free_;
  /// Open-addressing value index over every live bundle (null = empty),
  /// probed by the bundle hash. Linear probing with backshift deletion, 70%
  /// max load.
  std::vector<detail::AttrBundle*> slots_;
  std::size_t slot_mask_{0};
  std::size_t live_{0};
  std::uint64_t bundle_bytes_{0};
  std::uint64_t interns_{0};
  std::uint64_t hits_{0};

  std::vector<ExportEntry> exports_;
  std::vector<std::uint32_t> free_exports_;
  std::size_t export_live_{0};
};

using AttrRegistryRef = std::shared_ptr<AttrRegistry>;

}  // namespace bgpsdn::bgp
