#include "tesla/chain_auth.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "common/contracts.h"

namespace dap::tesla {

ChainAuthenticator::ChainAuthenticator(crypto::PrfDomain domain,
                                       std::size_t key_size,
                                       common::Bytes commitment,
                                       std::uint32_t anchor_index,
                                       std::uint32_t checkpoint_stride)
    : domain_(domain),
      key_size_(key_size),
      stride_(checkpoint_stride == 0 ? 1 : checkpoint_stride),
      anchor_index_(anchor_index),
      floor_index_(anchor_index),
      anchor_key_(std::move(commitment)) {
  if (anchor_key_.empty()) {
    throw std::invalid_argument("ChainAuthenticator: empty commitment");
  }
  if (key_size_ == 0) {
    throw std::invalid_argument("ChainAuthenticator: key_size must be >= 1");
  }
  known_[anchor_index_] = anchor_key_;
}

bool ChainAuthenticator::accept(std::uint32_t i, common::ByteView key) {
  // rejected_ counts reveals *proven* inconsistent with the chain, on
  // every mismatch path (anchor, below-anchor, above-anchor walk).
  // Malformed (empty) keys and rebased-away indices return false uncounted:
  // neither is evidence of forgery — one is a framing error, the other
  // is unverifiable, exactly as a cache miss was before checkpointing.
  if (key.empty()) return false;
  if (i == anchor_index_) {
    // The anchor survives any rebase, so it always verifies directly.
    if (!common::constant_time_equal(anchor_key_, key)) {
      ++rejected_;
      return false;
    }
    return true;
  }
  if (i < anchor_index_) {
    // Below-anchor reveals re-derive the authentic key instead of
    // looking it up.
    if (i < floor_index_) return false;
    if (!common::constant_time_equal(derive(i), key)) {
      ++rejected_;
      return false;
    }
    return true;
  }
  // One downward pass from the candidate to the anchor: verifies the
  // chain AND collects the checkpoints, where the pre-checkpoint code
  // paid a second full walk to populate its every-key cache.
  const std::uint32_t old_anchor = anchor_index_;
  std::vector<std::pair<std::uint32_t, common::Bytes>> checkpoints;
  common::Bytes current(key.begin(), key.end());
  for (std::uint32_t j = i; j > old_anchor; --j) {
    if (j == i || j % stride_ == 0) {
      checkpoints.emplace_back(j, current);
    }
    current = crypto::chain_walk(domain_, current, 1, key_size_);
    ++walk_steps_;
  }
  if (!common::constant_time_equal(current, anchor_key_)) {
    ++rejected_;
    return false;
  }
  for (auto& [index, checkpoint_key] : checkpoints) {
    known_[index] = std::move(checkpoint_key);
  }
  anchor_index_ = i;
  anchor_key_ = known_[i];
  ++accepted_;
  // The anchor only ever moves forward, and every interval between the
  // old and new anchor is now derivable from a cached checkpoint.
  DAP_ENSURE(anchor_index_ > old_anchor,
             "ChainAuthenticator: anchor index must advance monotonically");
  DAP_ENSURE(known_.count(anchor_index_) == 1,
             "ChainAuthenticator: accepted key missing from the cache");
  return true;
}

common::Bytes ChainAuthenticator::derive(std::uint32_t i) const {
  const auto it = known_.lower_bound(i);
  DAP_INVARIANT(it != known_.end(),
                "ChainAuthenticator::derive: no checkpoint at or above index");
  if (it->first == i) return it->second;
  const std::uint32_t gap = it->first - i;
  walk_steps_ += gap;
  return crypto::chain_walk(domain_, it->second, gap, key_size_);
}

std::optional<common::Bytes> ChainAuthenticator::key(std::uint32_t i) const {
  if (i == anchor_index_) return anchor_key_;
  if (i < floor_index_ || i > anchor_index_) return std::nullopt;
  return derive(i);
}

std::optional<common::Bytes> ChainAuthenticator::mac_key(
    std::uint32_t i) const {
  const auto k = key(i);
  if (!k) return std::nullopt;
  return crypto::prf_bytes(crypto::PrfDomain::kMacKey, *k);
}

void ChainAuthenticator::rebase_to_newest() {
  // accept() keeps the anchor at the newest authenticated key, so the
  // rebase only needs to drop the volatile checkpoints around it.
  known_.clear();
  known_[anchor_index_] = anchor_key_;
  floor_index_ = anchor_index_;
}

}  // namespace dap::tesla
