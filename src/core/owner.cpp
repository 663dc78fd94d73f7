#include "core/owner.hpp"

#include <chrono>

#include "adscrypto/hash_to_prime.hpp"
#include "common/errors.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "crypto/prf.hpp"
#include "sore/sore.hpp"

namespace slicer::core {

using adscrypto::MultisetHash;
using bigint::BigUint;

std::size_t UpdateOutput::entries_byte_size() const {
  std::size_t total = 0;
  for (const auto& [l, d] : entries) total += l.size() + d.size();
  return total;
}

DataOwner::DataOwner(
    Config config, Keys keys, adscrypto::TrapdoorPublicKey trapdoor_pk,
    adscrypto::TrapdoorSecretKey trapdoor_sk,
    adscrypto::AccumulatorParams accumulator_params,
    std::optional<adscrypto::AccumulatorTrapdoor> accumulator_trapdoor,
    crypto::Drbg rng, std::size_t shard_count)
    : config_(std::move(config)),
      keys_(std::move(keys)),
      perm_(std::move(trapdoor_pk)),
      trapdoor_inverse_(trapdoor_sk),
      sharded_(std::move(accumulator_params), shard_count),
      accumulator_trapdoor_(std::move(accumulator_trapdoor)),
      rng_(std::move(rng)),
      ac_(sharded_.digest()) {
  if (keys_.k.size() != 32 || keys_.k_r.size() != 16)
    throw CryptoError("DataOwner: bad key sizes");
  if (config_.value_bits == 0 || config_.value_bits > sore::kMaxBits)
    throw CryptoError("DataOwner: bad value bit width");
}

void DataOwner::claim_id(RecordId id) {
  if (!used_ids_.insert(id).second)
    throw ProtocolError("record id already inserted: " + std::to_string(id));
}

void DataOwner::add_postings(
    std::map<std::string, std::vector<RecordId>>& grouped,
    std::string_view attribute, std::uint64_t value, RecordId id) const {
  const std::size_t b = config_.value_bits;
  auto as_key = [](const Bytes& w) {
    return std::string(w.begin(), w.end());
  };
  grouped[as_key(sore::encode_value_keyword(value, b, attribute))].push_back(id);
  for (const Bytes& ct : sore::cipher_tuples(value, b, attribute))
    grouped[as_key(ct)].push_back(id);
}

UpdateOutput DataOwner::build(std::span<const Record> db) {
  if (!trapdoor_states_.empty())
    throw ProtocolError("build called on non-empty state; use insert");
  return insert(db);
}

UpdateOutput DataOwner::build(std::span<const MultiRecord> db) {
  if (!trapdoor_states_.empty())
    throw ProtocolError("build called on non-empty state; use insert");
  return insert(db);
}

UpdateOutput DataOwner::insert(std::span<const Record> db_plus) {
  // Validate the whole batch before touching any state (strong exception
  // guarantee: a rejected batch leaves no half-claimed ids behind).
  std::unordered_set<RecordId> batch_ids;
  for (const Record& r : db_plus) {
    sore::validate(r.value, config_.value_bits);
    if (used_ids_.contains(r.id) || !batch_ids.insert(r.id).second)
      throw ProtocolError("record id already inserted: " +
                          std::to_string(r.id));
  }
  std::map<std::string, std::vector<RecordId>> grouped;
  for (const Record& r : db_plus) {
    claim_id(r.id);
    add_postings(grouped, config_.attribute, r.value, r.id);
  }
  return ingest(grouped);
}

UpdateOutput DataOwner::insert(std::span<const MultiRecord> db_plus) {
  std::unordered_set<RecordId> batch_ids;
  for (const MultiRecord& r : db_plus) {
    for (const AttributeValue& av : r.values)
      sore::validate(av.value, config_.value_bits);
    if (used_ids_.contains(r.id) || !batch_ids.insert(r.id).second)
      throw ProtocolError("record id already inserted: " +
                          std::to_string(r.id));
  }
  std::map<std::string, std::vector<RecordId>> grouped;
  for (const MultiRecord& r : db_plus) {
    claim_id(r.id);
    for (const AttributeValue& av : r.values)
      add_postings(grouped, av.attribute, av.value, r.id);
  }
  return ingest(grouped);
}

UpdateOutput DataOwner::ingest(
    const std::map<std::string, std::vector<RecordId>>& grouped) {
  // The index/ADS split feeds both last_ingest_stats() (the benches' wall-
  // clock counters) and the always-on phase histograms (the "phases"
  // section of every BENCH_*.json).
  static metrics::Histogram& index_ns =
      metrics::histogram("core.owner.ingest.index_ns");
  static metrics::Histogram& ads_ns =
      metrics::histogram("core.owner.ingest.ads_ns");
  static metrics::Counter& keywords_ingested =
      metrics::counter("core.owner.keywords_ingested");
  static metrics::Counter& primes_derived =
      metrics::counter("core.owner.primes_derived");
  const trace::Span ingest_span("owner.ingest");

  const RecordCipher cipher(keys_.k_r);
  UpdateOutput out;
  ThreadPool& pool = ThreadPool::instance();

  // Phase 1 — encrypted index: trapdoor chains, (l, d) entries, set hashes.
  //
  // Pass A (serial, keyword order): everything that touches shared owner
  // state — the DRBG draw for fresh trapdoors, the chain advance, and the
  // set-hash pop. Keyword order fixes the DRBG consumption, so the output
  // is bit-identical at any thread count.
  const auto index_start = std::chrono::steady_clock::now();

  struct KeywordJob {
    const std::vector<RecordId>* ids = nullptr;
    Bytes g1, g2, t_enc;
    std::uint32_t j = 0;
    MultisetHash::Digest h;  // carried-forward digest (updated in pass B)
    std::vector<std::pair<Bytes, Bytes>> entries;  // filled in pass B
    Bytes preimage;                                // filled in pass B
  };
  std::vector<KeywordJob> jobs;
  jobs.reserve(grouped.size());

  for (const auto& [keyword, ids] : grouped) {
    const Bytes w(keyword.begin(), keyword.end());
    auto [g1, g2] = crypto::derive_keyword_keys(keys_.k, w);

    BigUint trapdoor;
    std::uint32_t j = 0;
    MultisetHash::Digest h = MultisetHash::empty();

    const auto it = trapdoor_states_.find(keyword);
    if (it == trapdoor_states_.end()) {
      // First appearance of this keyword: fresh random trapdoor, j = 0.
      trapdoor = perm_.random_trapdoor(rng_);
    } else {
      // Forward security: advance the chain with the secret key and carry
      // the cumulative result hash forward.
      const TrapdoorState& old = it->second;
      const Bytes old_key = state_key(perm_.encode(old.trapdoor), old.j, g1, g2);
      const auto h_it = set_hashes_.find(
          std::string(old_key.begin(), old_key.end()));
      if (h_it == set_hashes_.end())
        throw ProtocolError("missing set-hash state for keyword");
      h = h_it->second;
      set_hashes_.erase(h_it);  // S.pop
      trapdoor = perm_.inverse(trapdoor_inverse_, old.trapdoor);
      j = old.j + 1;
    }
    trapdoor_states_[keyword] = TrapdoorState{trapdoor, j};

    KeywordJob job;
    job.ids = &ids;
    job.g1 = std::move(g1);
    job.g2 = std::move(g2);
    job.t_enc = perm_.encode(trapdoor);
    job.j = j;
    job.h = std::move(h);
    jobs.push_back(std::move(job));
  }

  // Pass B (parallel over keywords): record-id encryption, index addresses
  // and pads, and the per-keyword multiset-hash fold — all pure functions
  // of the job's inputs, written to per-keyword slots.
  pool.parallel_for(jobs.size(), [&](std::size_t ji) {
    // Crash/fault injection inside the worker: proves the pool propagates
    // the first exception and that snapshot-restore recovers the owner.
    fault_point_throw("core.owner.ingest.worker");
    KeywordJob& job = jobs[ji];
    job.entries.reserve(job.ids->size());
    std::uint64_t c = 0;
    for (const RecordId id : *job.ids) {
      const Bytes enc_id = cipher.encrypt(id);
      const Bytes l = index_address(job.g1, job.t_enc, c);
      const Bytes d = xor_bytes(index_pad(job.g2, job.t_enc, c), enc_id);
      job.entries.emplace_back(l, d);
      job.h = MultisetHash::add(job.h, MultisetHash::hash_element(enc_id));
      ++c;
    }
    job.preimage = prime_preimage(job.t_enc, job.j, job.g1, job.g2, job.h);
  });

  // Pass C (serial, keyword order): splice results into the output and the
  // owner's set-hash dictionary exactly as the serial loop did.
  std::vector<Bytes> new_preimages;  // inputs for phase 2
  new_preimages.reserve(jobs.size());
  for (KeywordJob& job : jobs) {
    for (auto& entry : job.entries) out.entries.push_back(std::move(entry));
    const Bytes new_key = state_key(job.t_enc, job.j, job.g1, job.g2);
    set_hashes_[std::string(new_key.begin(), new_key.end())] = job.h;
    new_preimages.push_back(std::move(job.preimage));
  }
  const auto ads_start = std::chrono::steady_clock::now();

  // Phase 2 — ADS: prime representatives (independent per keyword, so the
  // hash-to-prime searches fan out) and the accumulation value. The primes
  // land in the process-wide memo cache, so the cloud's prove() and the
  // verifier re-derive them as lookups when co-located (tests, benches,
  // the simulated chain).
  out.new_primes = pool.parallel_map<BigUint>(
      new_preimages.size(), [&](std::size_t i) {
        return adscrypto::hash_to_prime(new_preimages[i], config_.prime_bits);
      });
  primes_.insert(primes_.end(), out.new_primes.begin(), out.new_primes.end());
  if (accumulator_trapdoor_.has_value()) {
    sharded_.insert(out.new_primes, *accumulator_trapdoor_);
  } else {
    sharded_.insert(out.new_primes);
  }
  ac_ = sharded_.digest();
  out.accumulator_value = ac_;
  out.shard_values = sharded_.shard_values();

  const auto ads_end = std::chrono::steady_clock::now();
  last_stats_.index_seconds =
      std::chrono::duration<double>(ads_start - index_start).count();
  last_stats_.ads_seconds =
      std::chrono::duration<double>(ads_end - ads_start).count();
  index_ns.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(ads_start -
                                                           index_start)
          .count()));
  ads_ns.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(ads_end - ads_start)
          .count()));
  keywords_ingested.add(jobs.size());
  primes_derived.add(out.new_primes.size());
  return out;
}

UserState DataOwner::export_user_state() const {
  return UserState{config_, keys_, trapdoor_states_, perm_.trapdoor_width()};
}

std::size_t DataOwner::ads_byte_size() const {
  return primes_.size() * ((config_.prime_bits + 7) / 8);
}

}  // namespace slicer::core
