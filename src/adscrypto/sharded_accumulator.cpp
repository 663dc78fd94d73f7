#include "adscrypto/sharded_accumulator.hpp"

#include <algorithm>
#include <iterator>

#include "adscrypto/multiset_hash.hpp"
#include "common/env.hpp"
#include "common/errors.hpp"
#include "common/metrics.hpp"
#include "common/serial.hpp"
#include "common/thread_pool.hpp"

namespace slicer::adscrypto {

using bigint::BigUint;
using bigint::Montgomery;

std::size_t default_shard_count() {
  // 256 shards is already far past the useful range for one process; the
  // clamp keeps a typo from allocating thousands of Montgomery contexts.
  return env::size_knob("SLICER_SHARDS", 1, 1, 256);
}

std::size_t shard_of(const BigUint& x, std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  // splitmix64 finalizer over the normalized limbs — the same mix as
  // std::hash<BigUint>, but spelled out so the routing can never drift with
  // a standard-library implementation.
  std::uint64_t h = 0x9e3779b97f4a7c15ull + x.limb_count();
  for (const std::uint64_t limb : x.limbs()) {
    h ^= limb;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
  }
  return static_cast<std::size_t>(h % shard_count);
}

BigUint fold_shard_digests(std::span<const BigUint> values) {
  if (values.empty()) throw CryptoError("fold_shard_digests: no shards");
  // One shard: the digest IS the accumulation value, exactly as before
  // sharding existed — this is what keeps K=1 chains byte-compatible.
  if (values.size() == 1) return values[0];
  MultisetHash::Digest acc = MultisetHash::empty();
  for (std::size_t s = 0; s < values.size(); ++s) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(s));
    w.bytes(values[s].to_bytes_be());
    acc = MultisetHash::add(acc, MultisetHash::hash_element(w.view()));
  }
  return acc;
}

ShardedAccumulator::ShardedAccumulator(AccumulatorParams params,
                                       std::size_t shard_count,
                                       bool use_fixed_base)
    : params_(std::move(params)), mont_(params_.modulus) {
  const std::size_t k = shard_count == 0 ? default_shard_count() : shard_count;
  shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) shards_.emplace_back(params_, use_fixed_base);
  primes_.resize(k);
  values_.assign(k, params_.generator);
  exponents_.assign(k, BigUint(1));
}

ShardedAccumulator::Batch ShardedAccumulator::route(
    std::span<const BigUint> xs) {
  Batch batch;
  const std::size_t k = shards_.size();
  batch.routed.resize(k);
  batch.old_values = values_;
  batch.old_counts.resize(k);
  for (std::size_t s = 0; s < k; ++s) batch.old_counts[s] = primes_[s].size();
  batch.empty = xs.empty();
  for (const BigUint& x : xs) {
    const std::size_t s = shard_of(x, k);
    // Overwrite-on-duplicate: a re-inserted element resolves to its newest
    // position, matching the cloud's historical prime_pos_ map semantics.
    index_[x] = Pos{static_cast<std::uint32_t>(s),
                    static_cast<std::uint32_t>(primes_[s].size())};
    batch.routed[s].push_back(x);
    primes_[s].push_back(x);
    ++total_;
  }
  return batch;
}

ShardedAccumulator::Batch ShardedAccumulator::insert(
    std::span<const BigUint> xs) {
  // The sharded insert IS the accumulate step — it records the same
  // histogram the single accumulator's accumulate() fed, so the
  // phase-breakdown schema stays satisfied at every K.
  static metrics::Histogram& accumulate_ns =
      metrics::histogram("adscrypto.accumulator.accumulate_ns");
  static metrics::Counter& batches =
      metrics::counter("adscrypto.sharded.batches");
  const metrics::ScopedTimer timer(accumulate_ns);
  batches.add();
  Batch batch = route(xs);
  if (batch.empty) return batch;
  // Each touched shard raises its value by the routed product — independent
  // slots, so the shards update in parallel (product_tree nests on the pool).
  ThreadPool::instance().parallel_for(shards_.size(), [&](std::size_t s) {
    if (batch.routed[s].empty()) return;
    const BigUint exponent = product_tree(batch.routed[s]);
    values_[s] = mont_.pow(values_[s], exponent);
  });
  exponents_valid_ = false;
  return batch;
}

ShardedAccumulator::Batch ShardedAccumulator::insert(
    std::span<const BigUint> xs, const AccumulatorTrapdoor& trapdoor) {
  static metrics::Histogram& accumulate_ns =
      metrics::histogram("adscrypto.accumulator.accumulate_ns");
  static metrics::Counter& batches =
      metrics::counter("adscrypto.sharded.batches");
  const metrics::ScopedTimer timer(accumulate_ns);
  batches.add();
  Batch batch = route(xs);
  if (batch.empty) return batch;
  const BigUint phi = trapdoor.phi();
  if (!exponents_valid_) {
    // A public insert interleaved earlier; refold every shard's exponent
    // from its full prime list (the modular product is order-independent,
    // so this lands on the same value a pure-trapdoor history would hold).
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      BigUint e(1);
      for (const BigUint& x : primes_[s]) e = (e * x) % phi;
      exponents_[s] = std::move(e);
    }
    exponents_valid_ = true;
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s)
      for (const BigUint& x : batch.routed[s])
        exponents_[s] = (exponents_[s] * x) % phi;
  }
  ThreadPool::instance().parallel_for(shards_.size(), [&](std::size_t s) {
    if (batch.routed[s].empty()) return;
    values_[s] = shards_[s].pow_generator(exponents_[s]);
  });
  return batch;
}

ShardedAccumulator::Batch ShardedAccumulator::insert_with_values(
    std::span<const BigUint> xs, std::span<const BigUint> values_after) {
  if (values_after.size() != shards_.size())
    throw ProtocolError("shard value count mismatch in update");
  Batch batch = route(xs);
  values_.assign(values_after.begin(), values_after.end());
  exponents_valid_ = false;
  return batch;
}

void ShardedAccumulator::rebuild(std::span<const BigUint> primes,
                                 const AccumulatorTrapdoor* trapdoor) {
  if (total_ != 0) throw ProtocolError("rebuild on a non-empty accumulator");
  route(primes);
  if (trapdoor != nullptr) {
    const BigUint phi = trapdoor->phi();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      BigUint e(1);
      for (const BigUint& x : primes_[s]) e = (e * x) % phi;
      exponents_[s] = std::move(e);
    }
    ThreadPool::instance().parallel_for(shards_.size(), [&](std::size_t s) {
      if (!primes_[s].empty())
        values_[s] = shards_[s].pow_generator(exponents_[s]);
    });
    exponents_valid_ = true;
  } else {
    ThreadPool::instance().parallel_for(shards_.size(), [&](std::size_t s) {
      if (!primes_[s].empty())
        values_[s] = mont_.pow(params_.generator, product_tree(primes_[s]));
    });
    exponents_valid_ = false;
  }
}

std::optional<ShardedAccumulator::Pos> ShardedAccumulator::find(
    const BigUint& x) const {
  const auto it = index_.find(x);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::span<const BigUint> ShardedAccumulator::shard_primes(
    std::size_t shard) const {
  return primes_.at(shard);
}

const BigUint& ShardedAccumulator::shard_value(std::size_t shard) const {
  return values_.at(shard);
}

BigUint ShardedAccumulator::witness(Pos pos) const {
  if (pos.shard >= shards_.size() ||
      pos.index >= primes_[pos.shard].size())
    throw CryptoError("witness position out of range");
  return shards_[pos.shard].witness(primes_[pos.shard], pos.index);
}

ShardedAccumulator::WitnessCache ShardedAccumulator::all_witnesses() const {
  WitnessCache out(shards_.size());
  // Serial over shards: the root-factor recursion inside each shard already
  // saturates the pool, and shard sizes are skewed enough that an outer
  // parallel_for would just serialize on the largest shard anyway.
  for (std::size_t s = 0; s < shards_.size(); ++s)
    out[s] = shards_[s].grouped_witnesses(primes_[s], params_.generator,
                                          kWitnessGroup);
  return out;
}

void ShardedAccumulator::refresh_witnesses(WitnessCache& caches,
                                           const Batch& batch) const {
  static metrics::Histogram& refresh_ns =
      metrics::histogram("adscrypto.sharded.refresh_ns");
  // Deterministic cost counters: exponent bits over every refresh modexp,
  // and the pre-batch groups whose leaves were re-derived from their root.
  static metrics::Counter& exp_bits =
      metrics::counter("adscrypto.sharded.refresh_exp_bits");
  static metrics::Counter& groups_rederived =
      metrics::counter("adscrypto.sharded.refresh_groups_rederived");
  const metrics::ScopedTimer timer(refresh_ns);
  constexpr std::size_t m = kWitnessGroup;
  if (caches.size() != shards_.size() ||
      batch.routed.size() != shards_.size())
    throw CryptoError("witness cache shard mismatch");
  const auto pow = [&](const BigUint& base, const BigUint& exponent) {
    exp_bits.add(exponent.bit_length());
    return mont_.pow(base, exponent);
  };
  ThreadPool& pool = ThreadPool::instance();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<BigUint>& routed = batch.routed[s];
    if (routed.empty()) continue;
    GroupedWitnesses& cache = caches[s];
    const std::size_t n = batch.old_counts[s];
    const std::size_t r = routed.size();
    if (cache.leaves.size() != n || cache.roots.size() != (n + m - 1) / m ||
        primes_[s].size() < n + r)
      throw CryptoError("witness cache size mismatch");
    // Shard primes through the end of this batch: old ones, then `routed`.
    const std::span<const BigUint> primes(primes_[s].data(), n + r);
    // The first new primes fill the partial tail group; the rest form new
    // groups.
    const std::size_t fill = n % m == 0 ? 0 : std::min(m - n % m, r);
    const std::span<const BigUint> joining = primes.subspan(n, fill);
    const std::span<const BigUint> rest = primes.subspan(n + fill);
    const BigUint product = product_tree(routed);
    const BigUint rest_product = product_tree(rest);

    const std::size_t old_groups = cache.roots.size();
    cache.leaves.reserve(n + r);
    cache.leaves.resize(n + fill);
    cache.roots.reserve((n + r + m - 1) / m);
    pool.parallel_for(old_groups, [&](std::size_t j) {
      const std::size_t lo = j * m;
      // Only the tail group is partial; it takes in `joining`, so its root
      // owes just the product of the other new primes.
      const bool tail = n - lo < m;
      const std::size_t hi = tail ? n + fill : lo + m;
      if (!tail) {
        cache.roots[j] = pow(cache.roots[j], product);
      } else if (!rest.empty()) {
        cache.roots[j] = pow(cache.roots[j], rest_product);
      }
      std::vector<BigUint> fresh =
          shards_[s]
              .grouped_witnesses(primes.subspan(lo, hi - lo), cache.roots[j],
                                 m, &exp_bits)
              .leaves;
      std::move(fresh.begin(), fresh.end(), cache.leaves.begin() + lo);
      groups_rederived.add();
    });
    if (rest.empty()) continue;
    // New groups: g^(S'/x) = A_old^(P/x), and A_old^(∏joining) already
    // carries the joining primes, so one grouped batch over `rest` yields
    // both the new leaves and the new roots.
    const BigUint& a_old = batch.old_values[s];
    const BigUint base = fill == 0 ? a_old : pow(a_old, product_tree(joining));
    GroupedWitnesses fresh =
        shards_[s].grouped_witnesses(rest, base, m, &exp_bits);
    std::move(fresh.leaves.begin(), fresh.leaves.end(),
              std::back_inserter(cache.leaves));
    std::move(fresh.roots.begin(), fresh.roots.end(),
              std::back_inserter(cache.roots));
  }
}

bool ShardedAccumulator::verify(const AccumulatorParams& params,
                                std::span<const BigUint> shard_values,
                                const BigUint& element,
                                const BigUint& witness) {
  const Montgomery mont(params.modulus);
  return verify(mont, shard_values, element, witness);
}

bool ShardedAccumulator::verify(const Montgomery& mont,
                                std::span<const BigUint> shard_values,
                                const BigUint& element,
                                const BigUint& witness) {
  if (shard_values.empty()) return false;
  const std::size_t s = shard_of(element, shard_values.size());
  return RsaAccumulator::verify(mont, shard_values[s], element, witness);
}

}  // namespace slicer::adscrypto
