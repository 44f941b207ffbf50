#include "qsa/overlay/value_store.hpp"

#include <algorithm>
#include <iterator>

namespace qsa::overlay {

void ValueStore::insert(Key key, std::uint64_t value) {
  std::vector<std::uint64_t>& values = keys_[key];
  const auto at = std::lower_bound(values.begin(), values.end(), value);
  if (at == values.end() || *at != value) values.insert(at, value);
}

void ValueStore::erase(Key key, std::uint64_t value) {
  const auto it = keys_.find(key);
  if (it == keys_.end()) return;
  std::vector<std::uint64_t>& values = it->second;
  const auto at = std::lower_bound(values.begin(), values.end(), value);
  if (at == values.end() || *at != value) return;
  values.erase(at);
  if (values.empty()) keys_.erase(it);
}

std::span<const std::uint64_t> ValueStore::values(Key key) const {
  const auto it = keys_.find(key);
  if (it == keys_.end()) return {};
  return it->second;
}

void ValueStore::merge(Key key, std::vector<std::uint64_t>&& values) {
  QSA_ASSERT(!values.empty());
  std::vector<std::uint64_t>& mine = keys_[key];
  if (mine.empty()) {
    mine = std::move(values);
    return;
  }
  std::vector<std::uint64_t> merged;
  merged.reserve(mine.size() + values.size());
  std::set_union(mine.begin(), mine.end(), values.begin(), values.end(),
                 std::back_inserter(merged));
  mine.swap(merged);
}

}  // namespace qsa::overlay
