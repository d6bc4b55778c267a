#include "core/aggregator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "util/assert.hpp"

namespace meloppr::core {

void NodeIndex::assign(std::size_t buckets) {
  MELO_DCHECK(std::has_single_bit(buckets));
  buckets_.assign(buckets, kEmpty);
  mask_ = buckets - 1;
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
}

void NodeIndex::erase(std::size_t b, std::span<const ScoredNode> entries) {
  for (std::size_t next = (b + 1) & mask_; buckets_[next] != kEmpty;
       next = (next + 1) & mask_) {
    // An entry may fill the hole only if its home bucket does not lie
    // cyclically in (b, next] — otherwise moving it would put it before
    // its own home and lookups would miss it.
    const std::size_t h = home(entries[buckets_[next]].node);
    const bool stays = b <= next ? (b < h && h <= next) : (b < h || h <= next);
    if (stays) continue;
    buckets_[b] = buckets_[next];
    b = next;
  }
  buckets_[b] = kEmpty;
}

namespace {
/// A fresh exact table's bucket count; pooled arenas grow past it once.
constexpr std::size_t kInitialBuckets = 64;
}  // namespace

ExactAggregator::ExactAggregator() {
  index_.assign(kInitialBuckets);
  entries_.reserve(kInitialBuckets / 2);
}

void ExactAggregator::add(graph::NodeId node, double delta) {
  std::size_t b = index_.find(node, entries_);
  if (index_[b] != NodeIndex::kEmpty) {
    entries_[index_[b]].score += delta;
    return;
  }
  if (2 * (entries_.size() + 1) > index_.buckets()) {
    grow();
    b = index_.find(node, entries_);
  }
  index_[b] = static_cast<std::uint32_t>(entries_.size());
  // 0.0 + delta, not delta: the first add of −0.0 yields +0.0, exactly as
  // `+=` into a value-initialised score does.
  entries_.push_back({node, 0.0 + delta});
}

void ExactAggregator::grow() {
  index_.assign(2 * index_.buckets());
  entries_.reserve(index_.buckets() / 2);
  for (std::uint32_t pos = 0; pos < entries_.size(); ++pos) {
    index_[index_.find(entries_[pos].node, entries_)] = pos;
  }
}

void ExactAggregator::clear() {
  // Last inserted first: each entry's probe chain then holds only earlier
  // entries, which are still in place, so find() reaches its bucket (grow()
  // re-inserts in entry order, which keeps this true across doublings).
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    index_[index_.find(it->node, entries_)] = NodeIndex::kEmpty;
  }
  entries_.clear();
}

std::vector<ScoredNode> ExactAggregator::top(std::size_t k) const {
  return ppr::top_k({entries_.begin(), entries_.end()}, k);
}

std::size_t ExactAggregator::bytes() const {
  return index_.bytes() + entries_.capacity() * sizeof(ScoredNode);
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
  // Load ≤ 1/4 at full capacity: a full table mostly drops, and every drop
  // is a miss that probes to an empty bucket.
  index_.assign(std::bit_ceil(4 * capacity));
  slots_.reserve(capacity);
  heap_.reserve(2 * capacity);
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
    replace_front({slots_[e.slot].score, e.slot});
  }
}

void TopCKAggregator::replace_front(HeapEntry e) {
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && heap_after(heap_[child], heap_[child + 1])) ++child;
    if (!heap_after(e, heap_[child])) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = e;
}

void TopCKAggregator::refresh_min() {
  if (min_valid_) return;
  min_slot_ = settle_min();
  min_score_ = slots_[min_slot_].score;
  min_valid_ = true;
}

void TopCKAggregator::add(graph::NodeId node, double delta) {
  MELO_DCHECK(node != graph::kInvalidNode);
  const std::size_t bucket = index_.find(node, slots_);
  if (index_[bucket] != NodeIndex::kEmpty) {
    // In-place BRAM update: always allowed, no eviction. Only decreases
    // need a fresh snapshot (see settle_min); the common positive update
    // is one addition, no heap traffic.
    const std::uint32_t slot = index_[bucket];
    ScoredNode& entry = slots_[slot];
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
    index_[bucket] = slot;  // the empty bucket the probe ended on
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
  index_.erase(index_.find(slots_[min_slot_].node, slots_), slots_);
  slots_[min_slot_] = {node, delta};
  index_[index_.find(node, slots_)] = min_slot_;
  if (!heap_.empty() && heap_.front().slot == min_slot_) {
    // The front is the evicted slot's own snapshot (settle_min just put it
    // there): re-key it in place to the slot's new live score instead of
    // pushing a second entry that the next settle_min would only refresh
    // into a duplicate. Every other slot keeps its entries, so the
    // lazy-heap invariant holds.
    replace_front({delta, min_slot_});
  } else {
    push_snapshot(delta, min_slot_);
  }
  min_valid_ = false;  // the old minimum's slot now holds a larger score
}

std::vector<ScoredNode> TopCKAggregator::top(std::size_t k) const {
  return ppr::top_k({slots_.begin(), slots_.end()}, k);
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
  index_.assign(index_.buckets());
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
