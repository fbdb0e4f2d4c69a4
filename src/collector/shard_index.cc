#include "collector/shard_index.h"

#include <iterator>

namespace dta::collector {

std::size_t ShardIndexVersion::first_leaf_not_below(
    const proto::TelemetryKey& key) const {
  // Leaves partition the key space in order; find the first leaf whose
  // last entry is >= key.
  std::size_t lo = 0, hi = leaves_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const auto& entries = leaves_[mid]->entries;
    if (!entries.empty() && index_key_less(entries.back().key, key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::uint8_t ShardIndexVersion::lookup(const proto::TelemetryKey& key) const {
  const std::size_t leaf = first_leaf_not_below(key);
  if (leaf >= leaves_.size()) return 0;
  const auto& entries = leaves_[leaf]->entries;
  const auto it =
      std::lower_bound(entries.begin(), entries.end(), key, entry_below_key);
  if (it == entries.end() || it->key != key) return 0;
  return it->primitives;
}

ShardIndexBuilder::ShardIndexBuilder(std::uint32_t target_leaf_entries)
    : target_leaf_entries_(std::max<std::uint32_t>(target_leaf_entries, 2)) {}

void ShardIndexBuilder::apply(common::Span<const IndexDelta> window) {
  keys_.clear();
  for (const IndexDelta& delta : window) {
    generation_ = std::max(generation_, delta.generation);
    for (const auto& [list, entries] : delta.append_deltas) {
      if (list >= append_heads_.size()) append_heads_.resize(list + 1, 0);
      append_heads_[list] += entries;
    }
    keys_.insert(keys_.end(), delta.keys.begin(), delta.keys.end());
  }
  if (keys_.empty()) return;

  // Sort the whole window once and OR-merge duplicate masks.
  std::sort(keys_.begin(), keys_.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return index_key_less(a.key, b.key);
            });
  std::size_t unique = 0;
  for (std::size_t i = 1; i < keys_.size(); ++i) {
    if (keys_[i].key == keys_[unique].key) {
      keys_[unique].primitives |= keys_[i].primitives;
    } else {
      keys_[++unique] = keys_[i];
    }
  }
  keys_.resize(unique + 1);

  // One ordered pass over the leaves. Untouched leaves move across to
  // next_ as they are; the run of keys that lands in one leaf (the last
  // whose first key is <= the run's first, else leaf 0) is merged into
  // one fresh copy of it. Every leaf is non-empty, except the stand-in
  // for an empty builder, which the first run replaces.
  if (leaves_.empty()) leaves_.push_back(std::make_shared<const IndexLeaf>());
  const auto below_leaf = [](const proto::TelemetryKey& key,
                             const std::shared_ptr<const IndexLeaf>& leaf) {
    return index_key_less(key, leaf->entries.front().key);
  };
  next_.clear();
  auto settled = leaves_.begin();  // leaves before it are in next_
  for (auto key = keys_.begin(); key != keys_.end();) {
    const auto after =
        std::upper_bound(settled + 1, leaves_.end(), key->key, below_leaf);
    const auto leaf = after - 1;
    next_.insert(next_.end(), std::make_move_iterator(settled),
                 std::make_move_iterator(leaf));
    auto run_end = keys_.end();
    if (after != leaves_.end()) {
      const proto::TelemetryKey& bound = (*after)->entries.front().key;
      run_end = std::lower_bound(key + 1, keys_.end(), bound, entry_below_key);
    }
    const std::vector<IndexEntry>& old = (*leaf)->entries;
    if (!old.empty()) ++leaf_copies_;

    // Merge: bulk-copy the old entries between insertion points.
    auto fresh = std::make_shared<IndexLeaf>();
    std::vector<IndexEntry>& merged = fresh->entries;
    merged.reserve(old.size() + static_cast<std::size_t>(run_end - key));
    auto from = old.begin();
    for (; key != run_end; ++key) {
      const auto at =
          std::lower_bound(from, old.end(), key->key, entry_below_key);
      merged.insert(merged.end(), from, at);
      from = at;
      if (at != old.end() && at->key == key->key) {
        merged.push_back(*from++);
        merged.back().primitives |= key->primitives;
      } else {
        merged.push_back(*key);
        ++key_count_;
      }
    }
    merged.insert(merged.end(), from, old.end());

    // Only fresh leaves split. One over 2 x target (the first window
    // lands every key in one leaf) becomes n / target even pieces.
    const std::size_t n = merged.size();
    if (n <= 2u * target_leaf_entries_) {
      next_.push_back(std::move(fresh));
    } else {
      const std::size_t pieces = n / target_leaf_entries_;
      for (std::size_t p = 0; p < pieces; ++p) {
        auto piece = std::make_shared<IndexLeaf>();
        piece->entries.assign(merged.begin() + n * p / pieces,
                              merged.begin() + n * (p + 1) / pieces);
        next_.push_back(std::move(piece));
      }
    }
    settled = after;
  }
  next_.insert(next_.end(), std::make_move_iterator(settled),
               std::make_move_iterator(leaves_.end()));
  leaves_.swap(next_);
  next_.clear();  // drops the replaced leaves (published versions keep theirs)
}

std::shared_ptr<const ShardIndexVersion> ShardIndexBuilder::publish() const {
  return std::make_shared<const ShardIndexVersion>(generation_, leaves_,
                                                   append_heads_, key_count_);
}

}  // namespace dta::collector
