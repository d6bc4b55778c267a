#include "core/aggregator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "util/assert.hpp"

namespace meloppr::core {

void ExactAggregator::add(graph::NodeId node, double delta) {
  scores_[node] += delta;
}

std::vector<ScoredNode> ExactAggregator::top(std::size_t k) const {
  return ppr::top_k(scores_, k);
}

std::size_t ExactAggregator::bytes() const {
  // unordered_map footprint: bucket array + one heap node per entry
  // (key+value+next pointer, rounded to malloc granularity).
  const std::size_t per_entry =
      sizeof(graph::NodeId) + sizeof(double) + 2 * sizeof(void*);
  return scores_.bucket_count() * sizeof(void*) +
         scores_.size() * per_entry;
}

TopCKAggregator::TopCKAggregator(std::size_t capacity, double admit_epsilon)
    : capacity_(capacity), epsilon_(admit_epsilon) {
  if (capacity == 0) {
    throw std::invalid_argument("TopCKAggregator: capacity must be positive");
  }
  if (!(admit_epsilon >= 0.0)) {  // rejects negatives and NaN
    throw std::invalid_argument(
        "TopCKAggregator: admit_epsilon must be non-negative");
  }
  // Load factor ≤ 1/2 at full capacity keeps linear-probe chains short.
  const std::size_t buckets = std::bit_ceil(2 * capacity);
  index_.assign(buckets, {graph::kInvalidNode, 0});
  index_mask_ = buckets - 1;
  index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  slots_.reserve(capacity);
  heap_.reserve(2 * capacity);
}

std::size_t TopCKAggregator::find_bucket(graph::NodeId node) const {
  std::size_t b = home_bucket(node);
  while (index_[b].node != node && index_[b].node != graph::kInvalidNode) {
    b = (b + 1) & index_mask_;
  }
  return b;
}

void TopCKAggregator::erase_bucket(std::size_t b) {
  for (std::size_t next = (b + 1) & index_mask_;
       index_[next].node != graph::kInvalidNode;
       next = (next + 1) & index_mask_) {
    // An entry may fill the hole only if its home bucket does not lie
    // cyclically in (b, next] — otherwise moving it would put it before
    // its own home and lookups would miss it.
    const std::size_t home = home_bucket(index_[next].node);
    const bool stays = b <= next ? (b < home && home <= next)
                                 : (b < home || home <= next);
    if (stays) continue;
    index_[b] = index_[next];
    b = next;
  }
  index_[b].node = graph::kInvalidNode;
}

void TopCKAggregator::rebuild_heap() {
  heap_.clear();
  heap_.reserve(2 * capacity_);
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    heap_.push_back({slots_[s].score, s});
  }
  std::make_heap(heap_.begin(), heap_.end(), heap_after);
}

void TopCKAggregator::push_snapshot(double key, std::uint32_t slot) {
  // Every snapshot producer funnels through here so the growth guard
  // catches all churn — in particular long negative-update streams that
  // never reach settle_min() (the table not full, or drops keeping the
  // cached minimum valid) must not outgrow the c·k memory envelope.
  if (heap_.size() > 4 * capacity_ + 8) {
    rebuild_heap();
    return;  // the rebuild snapshots every live slot, `slot` included
  }
  heap_.push_back({key, slot});
  std::push_heap(heap_.begin(), heap_.end(), heap_after);
}

std::uint32_t TopCKAggregator::settle_min() {
  // Lazy-heap invariant: every live slot always has at least one heap
  // entry with key ≤ its live score (inserts and negative updates push a
  // fresh snapshot; positive in-place updates only make old snapshots
  // stale *low*). Settling in key order therefore meets only stale or
  // re-tenanted snapshots before the first accurate one, and the first
  // accurate snapshot is the true minimum.
  for (;;) {
    if (heap_.empty()) rebuild_heap();
    const HeapEntry e = heap_.front();
    if (slots_[e.slot].score == e.key) return e.slot;
    // Stale (score moved since the snapshot) or re-tenanted slot: refresh.
    std::pop_heap(heap_.begin(), heap_.end(), heap_after);
    heap_.back() = {slots_[e.slot].score, e.slot};
    std::push_heap(heap_.begin(), heap_.end(), heap_after);
  }
}

void TopCKAggregator::refresh_min() {
  if (min_valid_) return;
  min_slot_ = settle_min();
  min_score_ = slots_[min_slot_].score;
  min_valid_ = true;
}

void TopCKAggregator::add(graph::NodeId node, double delta) {
  MELO_DCHECK(node != graph::kInvalidNode);
  const std::size_t bucket = find_bucket(node);
  if (index_[bucket].node == node) {
    // In-place BRAM update: always allowed, no eviction. Only decreases
    // need a fresh snapshot (see settle_min); the common positive update
    // is one addition, no heap traffic.
    const std::uint32_t slot = index_[bucket].slot;
    Slot& entry = slots_[slot];
    entry.score += delta;
    if (delta < 0.0) {
      push_snapshot(entry.score, slot);
      if (min_valid_ && entry.score < min_score_) {
        // Sank below the cached minimum — it is the minimum now.
        min_slot_ = slot;
        min_score_ = entry.score;
      } else if (min_valid_ && slot == min_slot_) {
        min_score_ = entry.score;
      }
    } else if (min_valid_ && slot == min_slot_) {
      // The cached minimum rose; some other slot may be smaller now.
      min_valid_ = false;
    }
    return;
  }
  if (slots_.size() < capacity_) {
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back({node, delta});
    push_snapshot(delta, slot);
    index_[bucket] = {node, slot};  // the empty bucket the probe ended on
    if (min_valid_ && delta < min_score_) {
      min_slot_ = slot;
      min_score_ = delta;
    }
    return;
  }
  // Full: the new score competes with the current minimum. Contributions
  // smaller than the table minimum — or inside the ε·|min| hysteresis
  // margin above it — are dropped: this is where precision loss for small
  // c comes from, and where the margin suppresses evict/readmit churn on
  // boundary noise. A drop leaves the minimum unchanged, so the cached
  // minimum makes it heap-free. Either way the losing score feeds the
  // eviction bound, the table's own fidelity certificate.
  refresh_min();
  if (delta <= min_score_ + epsilon_ * std::abs(min_score_)) {
    bound_ = std::max(bound_, delta);
    if (delta > min_score_) ++margin_drops_;
    return;
  }
  bound_ = std::max(bound_, min_score_);
  ++evictions_;
  // Erasing may shift entries back, so the insert re-probes.
  erase_bucket(find_bucket(slots_[min_slot_].node));
  slots_[min_slot_] = {node, delta};
  index_[find_bucket(node)] = {node, min_slot_};
  if (!heap_.empty() && heap_.front().slot == min_slot_) {
    // The front is the evicted slot's own snapshot (settle_min just put it
    // there): re-key it in place to the slot's new live score instead of
    // pushing a second entry that the next settle_min would only refresh
    // into a duplicate. Every other slot keeps its entries, so the
    // lazy-heap invariant holds.
    std::pop_heap(heap_.begin(), heap_.end(), heap_after);
    heap_.back() = {delta, min_slot_};
    std::push_heap(heap_.begin(), heap_.end(), heap_after);
  } else {
    push_snapshot(delta, min_slot_);
  }
  min_valid_ = false;  // the old minimum's slot now holds a larger score
}

std::vector<ScoredNode> TopCKAggregator::top(std::size_t k) const {
  std::vector<ScoredNode> all;
  all.reserve(slots_.size());
  for (const Slot& slot : slots_) all.push_back({slot.node, slot.score});
  return ppr::top_k(std::move(all), k);
}

std::size_t TopCKAggregator::bytes() const {
  // The hardware table is `capacity` slots of (node id, 32-bit score) plus a
  // comparator tree; model as capacity × 8 bytes, matching the BRAM budget
  // the paper reserves for the global score table.
  return capacity_ * (sizeof(graph::NodeId) + sizeof(std::uint32_t));
}

void TopCKAggregator::clear() {
  // Every buffer keeps its storage, so pooled arenas (AggregatorPool)
  // reuse warm memory; the index is refilled with empty markers.
  std::fill(index_.begin(), index_.end(),
            IndexEntry{graph::kInvalidNode, 0});
  slots_.clear();
  heap_.clear();
  evictions_ = 0;
  margin_drops_ = 0;
  min_valid_ = false;
  bound_ = -std::numeric_limits<double>::infinity();
}

std::unique_ptr<ScoreAggregator> make_serial_aggregator(AggregationMode mode,
                                                        std::size_t k,
                                                        std::size_t c,
                                                        double epsilon) {
  if (mode == AggregationMode::kBounded) {
    return std::make_unique<TopCKAggregator>(std::max<std::size_t>(1, c * k),
                                             epsilon);
  }
  return std::make_unique<ExactAggregator>();
}

AggregatorPool::AggregatorPool(std::size_t slots, Factory factory)
    : factory_(std::move(factory)) {
  if (slots == 0) {
    throw std::invalid_argument("AggregatorPool: need at least one slot");
  }
  if (!factory_) {
    factory_ = [] { return std::make_unique<ExactAggregator>(); };
  }
  arenas_.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    arenas_.push_back(factory_());
  }
  busy_.assign(slots, 0);
  used_once_.assign(slots, 0);
}

AggregatorPool::Lease AggregatorPool::acquire(std::size_t preferred) {
  const std::size_t want = preferred % arenas_.size();
  std::size_t picked = want;
  {
    util::MutexLock lock(mu_);
    for (;;) {
      if (!busy_[want]) {
        picked = want;
        break;
      }
      // Preferred slot busy (another batch shares the pool): any free slot
      // keeps the arena warm for *someone*.
      bool found = false;
      for (std::size_t s = 0; s < busy_.size() && !found; ++s) {
        if (!busy_[s]) {
          picked = s;
          found = true;
        }
      }
      if (found) break;
      slot_free_.wait(lock.native());
    }
    busy_[picked] = 1;
    if (used_once_[picked]) reuses_.fetch_add(1, std::memory_order_relaxed);
    used_once_[picked] = 1;
  }
  acquires_.fetch_add(1, std::memory_order_relaxed);
  // clear() keeps the arena's storage (buckets / BRAM slots) — the point.
  arenas_[picked]->clear();
  return Lease(this, picked);
}

void AggregatorPool::release(std::size_t slot) {
  {
    util::MutexLock lock(mu_);
    busy_[slot] = 0;
  }
  slot_free_.notify_one();
}

AggregatorPool::Lease::~Lease() {
  if (pool_ != nullptr) pool_->release(slot_);
}

ScoreAggregator& AggregatorPool::Lease::operator*() const {
  return *pool_->arenas_[slot_];
}

ScoreAggregator* AggregatorPool::Lease::operator->() const {
  return pool_->arenas_[slot_].get();
}

}  // namespace meloppr::core
