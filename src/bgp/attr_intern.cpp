#include "bgp/attr_intern.hpp"

#include "core/mem_stats.hpp"

namespace bgpsdn::bgp {

std::size_t hash_value(const PathAttributes& attrs) {
  std::size_t h = static_cast<std::size_t>(attrs.origin);
  const auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const auto as : attrs.as_path.hops()) mix(as.value());
  mix(attrs.next_hop.bits());
  mix(attrs.med ? (std::uint64_t{1} << 32) | *attrs.med : 0);
  mix(attrs.local_pref ? (std::uint64_t{1} << 32) | *attrs.local_pref : 0);
  for (const auto c : attrs.communities) mix(c);
  return h;
}

namespace {

/// splitmix64 finalizer: the probe start must use every bit of the bundle
/// hash under power-of-two masking.
std::size_t spread(std::size_t h) {
  std::uint64_t x = h + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

}  // namespace

namespace detail {

void free_bundle(AttrBundle* bundle) {
  if (bundle->store != nullptr) bundle->store->erase(bundle);
  delete bundle;
}

constinit const PathAttributes kDefaultAttrs{};

}  // namespace detail

AttrRegistry::~AttrRegistry() {
  for (detail::AttrBundle* bundle : slots_) {
    if (bundle == nullptr) continue;
    bundle->store = nullptr;
    bundle->refs -= bundle->holds;
    bundle->holds = 0;
    if (bundle->refs == 0) delete bundle;
  }
}

std::uint64_t AttrRegistry::model_bytes(const PathAttributes& attrs) {
  // The bundle node, then the heap arrays behind the AS-path and community
  // vectors (element counts, not capacities).
  std::uint64_t bytes = core::alloc_block_bytes(sizeof(detail::AttrBundle));
  if (!attrs.as_path.hops().empty()) {
    bytes += core::alloc_block_bytes(attrs.as_path.hops().size() *
                                     sizeof(core::AsNumber));
  }
  if (!attrs.communities.empty()) {
    bytes += core::alloc_block_bytes(attrs.communities.size() *
                                     sizeof(std::uint32_t));
  }
  return bytes;
}

// lint: hotpath(every imported and exported bundle is interned here; the hit
// path is one hash, a short probe and one value compare)
AttrSetRef AttrRegistry::intern(PathAttributes attrs) {
  ++interns_;
  const std::size_t h = spread(hash_value(attrs));
  if (slots_.empty() || (live_ + 1) * 10 > slots_.size() * 7) grow();
  std::size_t i = h & slot_mask_;
  while (slots_[i] != nullptr) {
    detail::AttrBundle* b = slots_[i];
    if (b->hash == h && b->attrs == attrs) {
      ++hits_;
      return AttrSetRef{b};
    }
    i = (i + 1) & slot_mask_;
  }
  // lint: alloc-ok(first sighting of a distinct bundle: the store's one
  // node per value, freed with its last reference)
  auto* b = new detail::AttrBundle{};
  b->attrs = std::move(attrs);
  b->hash = h;
  b->store = this;
  slots_[i] = b;
  ++live_;
  bundle_bytes_ += model_bytes(b->attrs);
  return AttrSetRef{b};
}

std::uint32_t AttrRegistry::acquire(const AttrSetRef& ref) {
  if (!owns(ref)) {
    const AttrSetRef own = intern(*ref);
    return acquire(own);
  }
  detail::AttrBundle* b = ref.bundle_;
  if (b->id == kNone) {
    if (!free_.empty()) {
      b->id = free_.back();
      free_.pop_back();
      bundles_[b->id] = b;
    } else {
      b->id = static_cast<std::uint32_t>(bundles_.size());
      bundles_.push_back(b);
    }
  }
  ++b->refs;
  ++b->holds;
  return b->id;
}

void AttrRegistry::release(std::uint32_t index) {
  detail::AttrBundle* b = bundles_[index];
  --b->holds;
  if (--b->refs == 0) detail::free_bundle(b);
}

void AttrRegistry::erase(detail::AttrBundle* bundle) {
  while (bundle->exports != kNone) drop_export(bundle->exports);
  while (bundle->exported_by != kNone) drop_export(bundle->exported_by);
  std::size_t i = bundle->hash & slot_mask_;
  while (slots_[i] != bundle) i = (i + 1) & slot_mask_;
  // Backshift: pull later entries of the probe chain over the hole so
  // lookups never need tombstones.
  std::size_t hole = i;
  std::size_t j = i;
  for (;;) {
    j = (j + 1) & slot_mask_;
    if (slots_[j] == nullptr) break;
    const std::size_t ideal = slots_[j]->hash & slot_mask_;
    if (((j - ideal) & slot_mask_) >= ((j - hole) & slot_mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = nullptr;
  if (bundle->id != kNone) {
    bundles_[bundle->id] = nullptr;
    free_.push_back(bundle->id);
  }
  --live_;
  bundle_bytes_ -= model_bytes(bundle->attrs);
}

void AttrRegistry::grow() {
  std::vector<detail::AttrBundle*> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, nullptr);
  slot_mask_ = slots_.size() - 1;
  for (detail::AttrBundle* b : old) {
    if (b == nullptr) continue;
    std::size_t i = b->hash & slot_mask_;
    while (slots_[i] != nullptr) i = (i + 1) & slot_mask_;
    slots_[i] = b;
  }
}

// lint: hotpath(one lookup per (prefix, peer) export evaluation; walks the
// input bundle's short chain of export classes)
AttrRegistry::Cached AttrRegistry::find_export(const AttrSetRef& in,
                                               std::uint64_t klass,
                                               AttrSetRef& out) const {
  if (!owns(in)) return Cached::kMiss;
  for (std::uint32_t e = in.bundle_->exports; e != kNone;
       e = exports_[e].in_next) {
    const ExportEntry& entry = exports_[e];
    if (entry.klass != klass) continue;
    if (entry.out == nullptr) return Cached::kRejected;
    out = AttrSetRef{entry.out};
    return Cached::kExported;
  }
  return Cached::kMiss;
}

void AttrRegistry::cache_export(const AttrSetRef& in, std::uint64_t klass,
                                const AttrSetRef* out) {
  if (!owns(in) || (out != nullptr && !owns(*out))) return;
  std::uint32_t e;
  if (!free_exports_.empty()) {
    e = free_exports_.back();
    free_exports_.pop_back();
  } else {
    e = static_cast<std::uint32_t>(exports_.size());
    exports_.emplace_back();
  }
  ExportEntry& entry = exports_[e];
  entry = ExportEntry{};
  entry.klass = klass;
  entry.in = in.bundle_;
  entry.in_next = entry.in->exports;
  if (entry.in->exports != kNone) exports_[entry.in->exports].in_prev = e;
  entry.in->exports = e;
  if (out != nullptr) {
    entry.out = out->bundle_;
    entry.out_next = entry.out->exported_by;
    if (entry.out->exported_by != kNone) {
      exports_[entry.out->exported_by].out_prev = e;
    }
    entry.out->exported_by = e;
  }
  ++export_live_;
}

void AttrRegistry::drop_export(std::uint32_t e) {
  const ExportEntry entry = exports_[e];
  if (entry.in_prev != kNone) {
    exports_[entry.in_prev].in_next = entry.in_next;
  } else {
    entry.in->exports = entry.in_next;
  }
  if (entry.in_next != kNone) exports_[entry.in_next].in_prev = entry.in_prev;
  if (entry.out != nullptr) {
    if (entry.out_prev != kNone) {
      exports_[entry.out_prev].out_next = entry.out_next;
    } else {
      entry.out->exported_by = entry.out_next;
    }
    if (entry.out_next != kNone) {
      exports_[entry.out_next].out_prev = entry.out_prev;
    }
  }
  free_exports_.push_back(e);
  --export_live_;
}

std::uint64_t AttrRegistry::pool_bytes() const {
  return bundle_bytes_ +
         static_cast<std::uint64_t>(slots_.size()) *
             sizeof(detail::AttrBundle*) +
         static_cast<std::uint64_t>(exports_.size()) * sizeof(ExportEntry) +
         static_cast<std::uint64_t>(free_exports_.size()) *
             sizeof(std::uint32_t);
}

std::uint64_t AttrRegistry::index_bytes() const {
  return static_cast<std::uint64_t>(bundles_.size()) *
             sizeof(detail::AttrBundle*) +
         static_cast<std::uint64_t>(free_.size()) * sizeof(std::uint32_t);
}

}  // namespace bgpsdn::bgp
