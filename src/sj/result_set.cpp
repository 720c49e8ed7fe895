#include "sj/result_set.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gsj {

void ResultSet::absorb(ResultSet&& other) {
  GSJ_CHECK_MSG(store_ == other.store_, "absorb across storage modes");
  if (store_) {
    // Respect this set's batch storage clamp: everything is counted but
    // only the pairs that fit the batch capacity are kept (mirrors the
    // per-emit clamp; only reachable while a batch is overflowing, i.e.
    // on content that is about to be rolled back anyway).
    const std::uint64_t room =
        store_limit_ == kUnlimited
            ? other.pairs_.size()
            : std::min<std::uint64_t>(
                  other.pairs_.size(),
                  store_limit_ - std::min(store_limit_, count_));
    pairs_.insert(pairs_.end(), other.pairs_.begin(),
                  other.pairs_.begin() + static_cast<std::ptrdiff_t>(room));
  }
  count_ += other.count_;
  other.clear();
}

void ResultSet::canonicalize() {
  GSJ_CHECK_MSG(store_, "canonicalize requires stored pairs");
  std::sort(pairs_.begin(), pairs_.end());
}

}  // namespace gsj
