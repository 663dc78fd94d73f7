// Fairness dispute: the full four-party workflow of Fig. 1 on the simulated
// blockchain — escrowed payment, public verification by the smart contract,
// and the two outcomes the paper's threat model cares about:
//   * an honest cloud is paid even if the data user would like to repudiate
//     the (correct) results, and
//   * a cheating cloud that drops a record is refused and the user refunded.
// Exits 1 when either verdict is wrong (run it under any SLICER_SHARDS).
//
//   ./build/examples/fairness_dispute
#include <cstdio>

#include "adscrypto/params.hpp"
#include "bench/bench_common.hpp"
#include "chain/slicer_contract.hpp"

using namespace slicer;
using namespace slicer::chain;

namespace {

void balances(const Blockchain& chain, const Address& user,
              const Address& cloud) {
  std::printf("    balances: user %llu, cloud %llu\n",
              (unsigned long long)chain.balance(user),
              (unsigned long long)chain.balance(cloud));
}

}  // namespace

int main() {
  // --- the off-chain world --------------------------------------------------
  auto world = bench::make_world(/*bits=*/16, /*count=*/500);

  // --- the chain --------------------------------------------------------
  Blockchain chain({Address::from_label("authority-1"),
                    Address::from_label("authority-2"),
                    Address::from_label("authority-3")});
  const Address owner_addr = Address::from_label("data-owner");
  const Address user_addr = Address::from_label("data-user");
  const Address cloud_addr = Address::from_label("cloud");
  chain.credit(owner_addr, 5'000'000);
  chain.credit(user_addr, 5'000'000);
  chain.credit(cloud_addr, 5'000'000);

  const Address contract_addr = chain.submit_deployment(
      owner_addr, std::make_unique<SlicerContract>(),
      SlicerContract::encode_ctor(world->acc_params,
                                  world->owner->accumulator_value(),
                                  world->config.prime_bits));
  chain.seal_block();
  std::printf("contract deployed at %s (%llu gas)\n",
              contract_addr.to_hex().substr(0, 12).c_str(),
              (unsigned long long)chain.receipts().back().gas_used);
  // The contract verifies each reply against its prime's shard value, so
  // the owner publishes the per-shard values it accumulated.
  const auto& shard_values = world->owner->shard_values();
  chain.submit(chain.make_tx(owner_addr, contract_addr, 0,
                             encode_update_shards(shard_values)));
  chain.seal_block();
  std::printf("owner publishes %zu shard value(s) (%llu gas)\n\n",
              shard_values.size(),
              (unsigned long long)chain.receipts().back().gas_used);

  auto paid_search = [&](bool cloud_cheats) {
    const std::uint64_t payment = 25'000;
    const auto tokens =
        world->user->make_tokens(30'000, core::MatchCondition::kGreater);
    std::printf("  user escrows %llu and submits %zu search tokens\n",
                (unsigned long long)payment, tokens.size());
    const Bytes qtx = chain.submit(chain.make_tx(
        user_addr, contract_addr, payment, encode_submit_query(tokens)));
    chain.seal_block();
    const auto query_receipt = chain.receipt_of(qtx);
    Reader out(query_receipt->output);
    const std::uint64_t query_id = out.u64();

    auto replies = world->cloud->search(tokens);
    std::size_t total = 0;
    for (const auto& r : replies) total += r.encrypted_results.size();
    if (cloud_cheats) {
      for (auto& r : replies) {
        if (!r.encrypted_results.empty()) {
          r.encrypted_results.pop_back();  // silently drop one match
          break;
        }
      }
      std::printf("  cloud CHEATS: drops one of the %zu matching records\n",
                  total);
    } else {
      std::printf("  cloud answers honestly with %zu matching records\n",
                  total);
    }
    const auto proven =
        attach_counters(tokens, replies, world->config.prime_bits);
    const Bytes rtx = chain.submit(
        chain.make_tx(cloud_addr, contract_addr, 0,
                      encode_submit_result(query_id, tokens, proven)));
    chain.seal_block();
    const auto receipt = chain.receipt_of(rtx);
    Reader vr(receipt->output);
    const bool verified = vr.u8() == 1;
    std::printf("  contract verdict: %s (%llu gas)  ->  %s\n",
                verified ? "VALID" : "INVALID",
                (unsigned long long)receipt->gas_used,
                verified ? "payment released to cloud"
                         : "payment refunded to user");
    for (const auto& log : receipt->logs) std::printf("    event: %s\n",
                                                      log.c_str());
    balances(chain, user_addr, cloud_addr);
    return verified;
  };

  std::printf("== round 1: honest cloud, user cannot repudiate ==\n");
  const bool honest_paid = paid_search(/*cloud_cheats=*/false);

  std::printf("\n== round 2: cheating cloud, caught by public verification ==\n");
  const bool cheater_paid = paid_search(/*cloud_cheats=*/true);

  std::printf("\nchain audit (hash chain, seals, rotation): %s\n",
              chain.verify_chain() ? "OK" : "FAILED");
  std::printf("blocks sealed: %zu\n", chain.blocks().size());
  return honest_paid && !cheater_paid ? 0 : 1;
}
