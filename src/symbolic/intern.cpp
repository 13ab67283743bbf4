#include "symbolic/intern.hpp"

#include <type_traits>
#include <utility>

#include "obs/obs.hpp"
#include "obs/profiler.hpp"

namespace ad::sym {

// ---------------------------------------------------------------------------
// Serialization & fingerprints
// ---------------------------------------------------------------------------

void serializeExpr(const Expr& e, std::string& out) {
  out += '(';
  for (const auto& m : e.terms()) {
    out += std::to_string(m.coeff().num());
    out += '/';
    out += std::to_string(m.coeff().den());
    for (const auto& f : m.symbols()) {
      out += 's';
      out += std::to_string(f.id);
      out += '^';
      out += std::to_string(f.power);
    }
    if (m.hasPow2()) {
      out += 'p';
      serializeExpr(m.pow2Exponent(), out);
    }
    out += ';';
  }
  out += ')';
}

std::uint64_t fingerprintExpr(const Expr& e) {
  // FNV-1a over the structural pieces; no allocation.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& m : e.terms()) {
    mix(static_cast<std::uint64_t>(m.coeff().num()));
    mix(static_cast<std::uint64_t>(m.coeff().den()));
    for (const auto& f : m.symbols()) {
      mix((static_cast<std::uint64_t>(f.id) << 8) | static_cast<std::uint64_t>(f.power & 0xff));
    }
    if (m.hasPow2()) mix(fingerprintExpr(m.pow2Exponent()) | 1ULL);
  }
  return h;
}

std::string serializeAssumptions(const Assumptions& a) {
  // Everything the prover reads: per-symbol kind + effective bounds (the
  // kind-based defaults included, through lower()/upper()), then the facts.
  std::string out;
  const SymbolTable& table = a.table();
  for (SymbolId id = 0; id < table.size(); ++id) {
    out += 'k';
    out += std::to_string(static_cast<int>(table.kind(id)));
    if (const auto lo = a.lower(id)) {
      out += 'L';
      serializeExpr(*lo, out);
    }
    if (const auto hi = a.upper(id)) {
      out += 'U';
      serializeExpr(*hi, out);
    }
    out += '|';
  }
  for (const Expr& f : a.facts()) {
    out += 'F';
    serializeExpr(f, out);
  }
  return out;
}

namespace {

std::uint64_t fnv1aBytes(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

const Assumptions::MemoKey& Assumptions::memoKey() const {
  if (!memoKey_) {
    auto key = std::make_shared<MemoKey>();
    key->text = serializeAssumptions(*this);
    key->hash = fnv1aBytes(key->text);
    memoKey_ = std::move(key);
  }
  return *memoKey_;
}

// ---------------------------------------------------------------------------
// ExprIntern
// ---------------------------------------------------------------------------

namespace detail {
std::atomic<bool> gDegenerateHash{false};
}  // namespace detail

namespace {

/// Deep heap footprint of one stored normal form (vectors by capacity, plus
/// nested pow2 exponents). Approximate by design — it feeds a gauge, not an
/// allocator.
std::size_t exprFootprint(const Expr& e) {
  std::size_t b = e.terms().capacity() * sizeof(Monomial);
  for (const auto& m : e.terms()) {
    b += m.symbols().capacity() * sizeof(SymbolFactor);
    if (m.hasPow2()) b += sizeof(Expr) + exprFootprint(m.pow2Exponent());
  }
  return b;
}

/// Probe start for a shard-local table. The low log2(kShards) bits of the
/// hash are constant within a shard (they selected it), so start from the
/// bits above them or every entry would cluster in two slots.
std::size_t probeStart(std::uint64_t hash, std::size_t mask) {
  return static_cast<std::size_t>(hash >> 6) & mask;
}

void insertInternSlot(std::vector<const detail::InternNode*>& slots,
                      const detail::InternNode* node) {
  const std::size_t mask = slots.size() - 1;
  std::size_t slot = probeStart(node->hash, mask);
  while (slots[slot] != nullptr) slot = (slot + 1) & mask;
  slots[slot] = node;
}

}  // namespace

ExprIntern& ExprIntern::global() {
  static ExprIntern instance;
  return instance;
}

template <typename E>
InternedExpr ExprIntern::internImpl(E&& e) {
  const std::uint64_t h = internHash(e);
  const std::size_t idx = static_cast<std::size_t>(h % kShards);
  Shard& shard = shards_[idx];
  const bool profiled = obs::profiler().enabled();
  obs::ShardLock lock(shard.mu, obs::ShardFamily::kExprIntern, idx);

  std::size_t bytesDelta = 0;
  if (shard.slots.empty()) {
    shard.slots.assign(kInitialSlots, nullptr);
    bytesDelta += kInitialSlots * sizeof(const detail::InternNode*);
  }

  // Linear probe; the cached hash rejects almost every non-match before the
  // structural compare, and under the degenerate-hash hook the structural
  // compare alone disambiguates (slower, never wrong).
  std::size_t mask = shard.slots.size() - 1;
  std::size_t slot = probeStart(h, mask);
  std::size_t steps = 0;
  const detail::InternNode* found = nullptr;
  while (shard.slots[slot] != nullptr) {
    ++steps;
    const detail::InternNode* cand = shard.slots[slot];
    if (cand->hash == h && cand->expr == e) {
      found = cand;
      break;
    }
    slot = (slot + 1) & mask;
  }
  if (steps == 0) steps = 1;  // an empty first slot still costs one inspection
  const bool hit = found != nullptr;

  if (found == nullptr) {
    // Grow at 70% occupancy so probes stay short.
    if ((shard.count + 1) * kGrowDen > shard.slots.size() * kGrowNum) {
      std::vector<const detail::InternNode*> next(shard.slots.size() * 2, nullptr);
      for (const detail::InternNode* n : shard.slots) {
        if (n != nullptr) insertInternSlot(next, n);
      }
      bytesDelta += (next.size() - shard.slots.size()) * sizeof(const detail::InternNode*);
      shard.slots = std::move(next);
      mask = shard.slots.size() - 1;
    }
    // Bump-allocate the node from the shard's current slab.
    if (shard.chunks.empty() || shard.lastChunkUsed == kChunkNodes) {
      shard.chunks.push_back(std::make_unique<detail::InternNode[]>(kChunkNodes));
      shard.lastChunkUsed = 0;
      bytesDelta += kChunkNodes * sizeof(detail::InternNode);
    }
    detail::InternNode* node = &shard.chunks.back()[shard.lastChunkUsed++];
    node->hash = h;
    node->expr = std::forward<E>(e);  // the one and only copy (or move)
    insertInternSlot(shard.slots, node);
    ++shard.count;
    bytesDelta += exprFootprint(node->expr);
    shard.bytes += bytesDelta;
    found = node;

    static obs::Gauge& exprs = obs::metrics().gauge("ad.intern.exprs");
    exprs.set(static_cast<std::int64_t>(count_.fetch_add(1, std::memory_order_relaxed)) + 1);
    static obs::Gauge& bytes = obs::metrics().gauge("ad.intern.bytes");
    bytes.set(static_cast<std::int64_t>(bytes_.fetch_add(bytesDelta, std::memory_order_relaxed) +
                                        bytesDelta));
  }

  if (profiled) {
    obs::ShardStats& stats = obs::profiler().shard(obs::ShardFamily::kExprIntern, idx);
    (hit ? stats.hits : stats.misses).fetch_add(1, std::memory_order_relaxed);
    stats.probeSteps.fetch_add(steps, std::memory_order_relaxed);
  }
  return InternedExpr(found);
}

InternedExpr ExprIntern::intern(const Expr& e) { return internImpl(e); }
InternedExpr ExprIntern::intern(Expr&& e) { return internImpl(std::move(e)); }

std::size_t ExprIntern::size() const {
  // Atomic mirror of the per-shard counts: readable without touching any
  // shard lock (summing the shards directly would race their writers).
  return count_.load(std::memory_order_relaxed);
}

std::size_t ExprIntern::bytes() const { return bytes_.load(std::memory_order_relaxed); }

ExprIntern::TableStats ExprIntern::tableStats() const {
  TableStats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.exprs += shard.count;
    out.bytes += shard.bytes;
    out.slots += shard.slots.size();
  }
  return out;
}

void ExprIntern::clear() {
  // The proof memo keys entries by node pointers into this arena; drop it
  // first so nothing can hit a dangling key while the slabs are freed.
  ProofMemo::global().clear();
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.slots.clear();
    shard.chunks.clear();
    shard.lastChunkUsed = 0;
    shard.count = 0;
    shard.bytes = 0;
  }
  count_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  obs::metrics().gauge("ad.intern.exprs").set(0);
  obs::metrics().gauge("ad.intern.bytes").set(0);
}

DegenerateHashGuard::DegenerateHashGuard()
    : previous_(detail::gDegenerateHash.load(std::memory_order_relaxed)) {
  // Nodes interned under one hash regime are unfindable under the other, so
  // the arena (and with it the pointer-keyed memo) restarts cold on both
  // edges of the guard.
  ExprIntern::global().clear();
  detail::gDegenerateHash.store(true, std::memory_order_relaxed);
}

DegenerateHashGuard::~DegenerateHashGuard() {
  detail::gDegenerateHash.store(previous_, std::memory_order_relaxed);
  ExprIntern::global().clear();
}

// ---------------------------------------------------------------------------
// ProofMemoContext
// ---------------------------------------------------------------------------

namespace {

/// Distinct probe sequences for the same expression under different ops, so
/// e.g. kNonNegative and kPositive entries for one node don't chain onto
/// each other.
std::uint64_t mixOp(std::uint64_t hash, ProofMemoContext::Op op) {
  return hash ^ ((static_cast<std::uint64_t>(op) + 1) * 0x9e3779b97f4a7c15ULL);
}

/// Per-context-row hit/miss + probe-length attribution for the profiler
/// ("memo.context" family); one relaxed load when disabled.
void noteMemoProbe(std::size_t idx, bool hit, std::size_t steps) {
  obs::Profiler& p = obs::profiler();
  if (!p.enabled()) return;
  obs::ShardStats& stats = p.shard(obs::ShardFamily::kMemoContext, idx);
  (hit ? stats.hits : stats.misses).fetch_add(1, std::memory_order_relaxed);
  stats.probeSteps.fetch_add(steps, std::memory_order_relaxed);
}

}  // namespace

template <typename Value>
const Value* ProofMemoContext::OpPtrTable<Value>::find(Op op, const InternedExpr& e,
                                                       std::size_t& steps) const {
  steps = 1;
  if (slots.empty()) return nullptr;
  const std::size_t mask = slots.size() - 1;
  std::size_t slot = static_cast<std::size_t>(mixOp(e.hash(), op) >> 6) & mask;
  while (slots[slot].node != nullptr) {
    const Slot& s = slots[slot];
    if (s.node == e.node_ && s.op == op) return &s.value;
    slot = (slot + 1) & mask;
    ++steps;
  }
  return nullptr;
}

template <typename Value>
void ProofMemoContext::OpPtrTable<Value>::insert(Op op, const InternedExpr& e, Value value) {
  if (slots.empty()) slots.resize(16);
  if ((count + 1) * 10 > slots.size() * 7) grow();
  const std::size_t mask = slots.size() - 1;
  std::size_t slot = static_cast<std::size_t>(mixOp(e.hash(), op) >> 6) & mask;
  while (slots[slot].node != nullptr) {
    // Two workers can race to publish the same (context, query) answer; the
    // purity contract makes the values identical, first writer wins.
    if (slots[slot].node == e.node_ && slots[slot].op == op) return;
    slot = (slot + 1) & mask;
  }
  slots[slot] = Slot{e.node_, op, std::move(value)};
  ++count;
}

template <typename Value>
void ProofMemoContext::OpPtrTable<Value>::grow() {
  std::vector<Slot> old = std::move(slots);
  slots.assign(old.size() * 2, Slot{});
  const std::size_t mask = slots.size() - 1;
  for (Slot& s : old) {
    if (s.node == nullptr) continue;
    std::size_t slot = static_cast<std::size_t>(mixOp(s.node->hash, s.op) >> 6) & mask;
    while (slots[slot].node != nullptr) slot = (slot + 1) & mask;
    slots[slot] = std::move(s);
  }
}

template <typename T>
auto& ProofMemoContext::tableFor() {
  if constexpr (std::is_same_v<T, bool>) {
    return bools_;
  } else if constexpr (std::is_same_v<T, std::optional<int>>) {
    return signs_;
  } else {
    static_assert(std::is_same_v<T, std::optional<Expr>>);
    return exprs_;
  }
}

template <typename T>
std::optional<T> ProofMemoContext::lookup(Op op, const InternedExpr& e) {
  obs::ShardLock lock(mu_, obs::ShardFamily::kMemoContext, profileRow_);
  std::size_t steps = 0;
  const auto* v = tableFor<T>().find(op, e, steps);
  noteMemoProbe(profileRow_, v != nullptr, steps);
  if (v == nullptr) return std::nullopt;
  if constexpr (std::is_same_v<T, std::optional<Expr>>) {
    // Found; copy out of the interned value node (inner nullopt: no bound).
    return v->has_value() ? T(*v->value()) : T();
  } else {
    return *v;
  }
}

template <typename T>
void ProofMemoContext::store(Op op, const InternedExpr& e, const T& value) {
  auto stored = [&] {
    if constexpr (std::is_same_v<T, std::optional<Expr>>) {
      // Bound results recur across queries; interning the value (outside the
      // context lock — the arena has its own) dedupes their storage.
      return value ? std::optional<InternedExpr>(ExprIntern::global().intern(*value))
                   : std::nullopt;
    } else {
      return value;
    }
  }();
  obs::ShardLock lock(mu_, obs::ShardFamily::kMemoContext, profileRow_);
  tableFor<T>().insert(op, e, std::move(stored));
}

template std::optional<bool> ProofMemoContext::lookup(Op, const InternedExpr&);
template std::optional<std::optional<int>> ProofMemoContext::lookup(Op, const InternedExpr&);
template std::optional<std::optional<Expr>> ProofMemoContext::lookup(Op, const InternedExpr&);
template void ProofMemoContext::store(Op, const InternedExpr&, const bool&);
template void ProofMemoContext::store(Op, const InternedExpr&, const std::optional<int>&);
template void ProofMemoContext::store(Op, const InternedExpr&, const std::optional<Expr>&);

// ---------------------------------------------------------------------------
// ProofMemo
// ---------------------------------------------------------------------------

namespace {
std::atomic<bool> gMemoEnabled{true};
}  // namespace

ProofMemo& ProofMemo::global() {
  static ProofMemo instance;
  return instance;
}

bool ProofMemo::enabled() { return gMemoEnabled.load(std::memory_order_relaxed); }
void ProofMemo::setEnabled(bool on) { gMemoEnabled.store(on, std::memory_order_relaxed); }

std::shared_ptr<ProofMemoContext> ProofMemo::context(const Assumptions& a) {
  const Assumptions::MemoKey& key = a.memoKey();  // cached: no rebuild, no allocation
  const std::uint64_t h = detail::degenerateHashForced() ? 0 : key.hash;
  const bool profiled = obs::profiler().enabled();
  obs::ShardLock lock(mu_, obs::ShardFamily::kMemoRegistry, 0);
  std::vector<Entry>& bucket = buckets_[h];
  std::size_t steps = 0;
  for (Entry& entry : bucket) {
    ++steps;
    // Only entries of the same hash: a hit costs one string compare and zero
    // allocations.
    if (entry.key == key.text) {
      if (profiled) {
        obs::ShardStats& stats = obs::profiler().shard(obs::ShardFamily::kMemoRegistry, 0);
        stats.hits.fetch_add(1, std::memory_order_relaxed);
        stats.probeSteps.fetch_add(steps, std::memory_order_relaxed);
      }
      return entry.ctx;
    }
  }
  bucket.push_back(
      Entry{key.text, std::make_shared<ProofMemoContext>(static_cast<std::size_t>(h % kContextRows))});
  if (profiled) {
    obs::ShardStats& stats = obs::profiler().shard(obs::ShardFamily::kMemoRegistry, 0);
    stats.misses.fetch_add(1, std::memory_order_relaxed);
    stats.probeSteps.fetch_add(steps == 0 ? 1 : steps, std::memory_order_relaxed);
  }
  static obs::Gauge& contexts = obs::metrics().gauge("ad.intern.contexts");
  contexts.set(contextCount_.fetch_add(1, std::memory_order_relaxed) + 1);
  return bucket.back().ctx;
}

ProofMemo::Stats ProofMemo::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.contexts = contextCount_.load(std::memory_order_relaxed);
  return s;
}

void ProofMemo::clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    buckets_.clear();
  }
  contextCount_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  obs::metrics().gauge("ad.intern.contexts").set(0);
}

void ProofMemo::recordHit() {
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Resolved once: a registry lookup per probe would lock the registry mutex
  // on the hottest path of the whole engine (millions of probes per batch).
  static obs::Counter& proofHits = obs::metrics().counter("ad.intern.proof_hits");
  proofHits.add(1);
}

void ProofMemo::recordMiss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& proofMisses = obs::metrics().counter("ad.intern.proof_misses");
  proofMisses.add(1);
}

}  // namespace ad::sym
