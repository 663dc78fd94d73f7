#include "adscrypto/accumulator.hpp"

#include <algorithm>

#include "bigint/primes.hpp"
#include "common/errors.hpp"
#include "common/metrics.hpp"
#include "common/serial.hpp"
#include "common/thread_pool.hpp"

namespace slicer::adscrypto {

using bigint::BigUint;
using bigint::Montgomery;

namespace {

/// Ranges at least this wide fork their recursion halves onto the pool;
/// below it the per-task overhead outweighs the subtree's exponentiations.
constexpr std::size_t kWitnessForkThreshold = 8;

}  // namespace

Bytes AccumulatorParams::serialize() const {
  Writer w;
  w.bytes(modulus.to_bytes_be());
  w.bytes(generator.to_bytes_be());
  return std::move(w).take();
}

AccumulatorParams AccumulatorParams::deserialize(BytesView data) {
  Reader r(data);
  AccumulatorParams out;
  out.modulus = BigUint::from_bytes_be(r.bytes());
  out.generator = BigUint::from_bytes_be(r.bytes());
  r.expect_end();
  return out;
}

BigUint AccumulatorTrapdoor::phi() const {
  return (p - BigUint(1)) * (q - BigUint(1));
}

RsaAccumulator::RsaAccumulator(AccumulatorParams params, bool use_fixed_base)
    : params_(std::move(params)), mont_(params_.modulus) {
  if (params_.generator.is_zero() || params_.generator.is_one() ||
      params_.generator >= params_.modulus)
    throw CryptoError("accumulator generator out of range");
  if (use_fixed_base)
    fixed_g_ = std::make_unique<Montgomery::FixedBase>(mont_,
                                                       params_.generator);
}

BigUint RsaAccumulator::pow_g(const BigUint& exponent) const {
  // Fixed-base comb hits vs generic sliding-window falls: the ratio is the
  // paper-facing evidence that accumulator exponentiations stay on the
  // fast path (DESIGN.md §3d).
  static metrics::Counter& fixed_base_pows =
      metrics::counter("adscrypto.accumulator.fixed_base_pows");
  static metrics::Counter& generic_pows =
      metrics::counter("adscrypto.accumulator.generic_pows");
  Montgomery::Scratch scratch;
  if (fixed_g_) {
    fixed_base_pows.add();
    return fixed_g_->pow(exponent, scratch);
  }
  generic_pows.add();
  return mont_.pow(params_.generator, exponent, scratch);
}

std::pair<AccumulatorParams, AccumulatorTrapdoor> RsaAccumulator::setup(
    crypto::Drbg& rng, std::size_t modulus_bits, bool safe_primes) {
  if (modulus_bits < 32)
    throw CryptoError("accumulator modulus too small");
  const std::size_t half = modulus_bits / 2;

  BigUint p, q;
  do {
    p = safe_primes ? bigint::generate_safe_prime(rng, half)
                    : bigint::generate_prime(rng, half);
    q = safe_primes ? bigint::generate_safe_prime(rng, modulus_bits - half)
                    : bigint::generate_prime(rng, modulus_bits - half);
  } while (p == q);

  const BigUint n = p * q;

  // Generator of QR_n: square a random unit. The square of a uniform unit is
  // uniform over QR_n; rejecting 1 (and 0) keeps it a generator with
  // overwhelming probability for safe-prime moduli.
  const bigint::Montgomery mont(n);
  BigUint g;
  do {
    const BigUint a = bigint::random_below(rng, n);
    g = mont.mul(a, a);
  } while (g.is_zero() || g.is_one());

  return {AccumulatorParams{n, g}, AccumulatorTrapdoor{p, q}};
}

BigUint RsaAccumulator::accumulate(
    std::span<const BigUint> primes) const {
  static metrics::Histogram& accumulate_ns =
      metrics::histogram("adscrypto.accumulator.accumulate_ns");
  const metrics::ScopedTimer timer(accumulate_ns);
  if (primes.empty()) return params_.generator;
  const BigUint exponent = product_tree(primes);
  return pow_g(exponent);
}

BigUint RsaAccumulator::accumulate(std::span<const BigUint> primes,
                                   const AccumulatorTrapdoor& trapdoor) const {
  static metrics::Histogram& accumulate_ns =
      metrics::histogram("adscrypto.accumulator.accumulate_ns");
  const metrics::ScopedTimer timer(accumulate_ns);
  if (primes.empty()) return params_.generator;
  const BigUint phi = trapdoor.phi();
  BigUint exponent(1);
  for (const BigUint& x : primes) exponent = (exponent * x) % phi;
  return pow_g(exponent);
}

BigUint RsaAccumulator::witness(std::span<const BigUint> primes,
                                std::size_t index) const {
  static metrics::Histogram& witness_ns =
      metrics::histogram("adscrypto.accumulator.witness_ns");
  const metrics::ScopedTimer timer(witness_ns);
  if (index >= primes.size())
    throw CryptoError("witness index out of range");
  // Exponent = product of all primes except primes[index], assembled from
  // the two balanced sub-products around the hole.
  const BigUint left = product_tree(primes.subspan(0, index));
  const BigUint right = product_tree(primes.subspan(index + 1));
  return pow_g(left * right);
}

void RsaAccumulator::all_witnesses_rec(std::span<const BigUint> primes,
                                       const Montgomery::Elem& base,
                                       std::size_t lo, std::size_t hi,
                                       std::size_t group, GroupedWitnesses& out,
                                       metrics::Counter* exp_bits,
                                       Montgomery::Scratch& scratch,
                                       const Montgomery::FixedBase* fixed) const {
  if (group != 0 && hi - lo <= group) {
    // The range is exactly one group: its base is the group root.
    out.roots[lo / group] = mont_.from_mont(base, scratch);
    group = 0;
  }
  if (hi - lo == 1) {
    out.leaves[lo] = mont_.from_mont(base, scratch);
    return;
  }
  // Across groups, split on the group boundary nearest the middle, so every
  // group ends up as one subtree; inside a group, split at the middle.
  const std::size_t mid =
      group != 0 ? lo + ((hi - lo + group - 1) / group / 2) * group
                 : lo + (hi - lo) / 2;
  const BigUint prod_left = product_tree(primes.subspan(lo, mid - lo));
  const BigUint prod_right = product_tree(primes.subspan(mid, hi - mid));
  if (exp_bits != nullptr)
    exp_bits->add(prod_left.bit_length() + prod_right.bit_length());

  // Left half still owes the right half's primes in its exponent, and vice
  // versa — the classic root-factor recursion. The base stays in Montgomery
  // form across every level; only the leaves convert back. At the root the
  // base is still g, so the two half-exponent pows go through the comb
  // table; below that the bases are derived values and use the generic
  // sliding window.
  ThreadPool& pool = ThreadPool::instance();
  const bool fork = !pool.is_serial() && hi - lo >= kWitnessForkThreshold;

  const auto half_pow = [&](const BigUint& exponent, Montgomery::Elem& dst,
                            Montgomery::Scratch& s) {
    if (fixed != nullptr) {
      fixed->pow_mont(exponent, dst, s);
    } else {
      mont_.pow_mont(base, exponent, dst, s);
    }
  };

  Montgomery::Elem left_base, right_base;
  if (fork) {
    // The two half-exponent pows sit on the critical path — fork them too.
    pool.invoke2(
        [&] {
          Montgomery::Scratch s;
          half_pow(prod_right, left_base, s);
        },
        [&] {
          Montgomery::Scratch s;
          half_pow(prod_left, right_base, s);
        });
    pool.invoke2(
        [&] {
          Montgomery::Scratch s;
          all_witnesses_rec(primes, left_base, lo, mid, group, out, exp_bits,
                            s, nullptr);
        },
        [&] {
          Montgomery::Scratch s;
          all_witnesses_rec(primes, right_base, mid, hi, group, out, exp_bits,
                            s, nullptr);
        });
  } else {
    half_pow(prod_right, left_base, scratch);
    half_pow(prod_left, right_base, scratch);
    all_witnesses_rec(primes, left_base, lo, mid, group, out, exp_bits, scratch,
                      nullptr);
    all_witnesses_rec(primes, right_base, mid, hi, group, out, exp_bits,
                      scratch, nullptr);
  }
}

std::vector<BigUint> RsaAccumulator::all_witnesses(
    std::span<const BigUint> primes) const {
  // One group spanning every prime: the single root is g itself.
  return grouped_witnesses(primes, params_.generator,
                           std::max<std::size_t>(primes.size(), 1))
      .leaves;
}

GroupedWitnesses RsaAccumulator::grouped_witnesses(
    std::span<const BigUint> primes, const BigUint& base, std::size_t group,
    metrics::Counter* exp_bits) const {
  static metrics::Histogram& all_witnesses_ns =
      metrics::histogram("adscrypto.accumulator.all_witnesses_ns");
  const metrics::ScopedTimer timer(all_witnesses_ns);
  if (base.is_zero() || base >= params_.modulus)
    throw CryptoError("all_witnesses base out of range");
  if (group == 0) throw CryptoError("grouped_witnesses: zero group size");
  GroupedWitnesses out;
  out.leaves.resize(primes.size());
  out.roots.resize((primes.size() + group - 1) / group);
  if (primes.empty()) return out;
  Montgomery::Scratch scratch;
  const Montgomery::Elem base_mont = mont_.to_mont(base, scratch);
  // The comb table is bound to g; only hand it down when the base really is
  // the generator (an arbitrary-base call must use the sliding window).
  const Montgomery::FixedBase* fixed =
      base == params_.generator ? fixed_g_.get() : nullptr;
  all_witnesses_rec(primes, base_mont, 0, primes.size(), group, out, exp_bits,
                    scratch, fixed);
  return out;
}

bool RsaAccumulator::verify(const AccumulatorParams& params, const BigUint& ac,
                            const BigUint& element, const BigUint& witness) {
  const bigint::Montgomery mont(params.modulus);
  return verify(mont, ac, element, witness);
}

bool RsaAccumulator::verify(const bigint::Montgomery& mont, const BigUint& ac,
                            const BigUint& element, const BigUint& witness) {
  static metrics::Counter& verifies =
      metrics::counter("adscrypto.accumulator.verifies");
  verifies.add();
  if (witness.is_zero() || witness >= mont.modulus()) return false;
  if (element.is_zero()) return false;
  return mont.pow(witness, element) == ac;
}

BigUint product_tree(std::span<const BigUint> values) {
  if (values.empty()) return BigUint(1);
  if (values.size() == 1) return values[0];

  // Bottom-up pairwise reduction: constant stack depth for any input size,
  // and each level is an independent batch of multiplications the pool can
  // split. An odd element rides along to the next level unchanged.
  ThreadPool& pool = ThreadPool::instance();
  std::vector<BigUint> level(values.begin(), values.end());
  std::vector<BigUint> next;
  while (level.size() > 1) {
    const std::size_t pairs = level.size() / 2;
    const bool odd = (level.size() & 1) != 0;
    next.resize(pairs + (odd ? 1 : 0));
    // Low levels have many cheap multiplications, high levels few huge
    // ones; scaling the grain with the pair count serves both.
    const std::size_t grain =
        std::max<std::size_t>(1, pairs / (2 * pool.thread_count()));
    pool.parallel_for(
        pairs,
        [&](std::size_t i) { next[i] = level[2 * i] * level[2 * i + 1]; },
        grain);
    if (odd) next[pairs] = std::move(level.back());
    level.swap(next);
  }
  return level[0];
}

}  // namespace slicer::adscrypto
