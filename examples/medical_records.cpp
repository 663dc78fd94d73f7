// Medical-records scenario (the paper's motivating workload): a hospital
// outsources patient ages, runs verifiable range queries, and exercises the
// dynamic features — forward-secure insertion, deletion and update via the
// dual-instance construction (§V-F).
//
//   ./build/examples/medical_records
#include <cstdio>

#include "adscrypto/params.hpp"
#include "core/dual.hpp"

using namespace slicer;
using core::Pred;

namespace {

struct Patient {
  core::RecordId id;
  const char* name;
  std::uint64_t age;
};

// An honest cloud's proofs must verify: any INVALID fails the example.
bool g_all_valid = true;

void show(const char* what, const core::DualQueryResult& r,
          const std::vector<Patient>& roster) {
  g_all_valid = g_all_valid && r.verified;
  std::printf("%-34s [proofs %s] ", what, r.verified ? "VALID" : "INVALID");
  for (const auto id : r.ids) {
    for (const Patient& p : roster)
      if (p.id == id) std::printf("%s ", p.name);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  core::Config config;
  config.value_bits = 8;  // ages fit in 8 bits

  crypto::Drbg rng = crypto::Drbg::from_os_entropy();
  auto [acc_params, acc_trapdoor] = adscrypto::RsaAccumulator::setup(rng, 1024);

  core::DualSlicer clinic(config, adscrypto::default_trapdoor_public_key(),
                          adscrypto::default_trapdoor_secret_key(), acc_params,
                          acc_trapdoor, crypto::Drbg(rng.generate(32)));

  const std::vector<Patient> roster = {
      {1, "ana", 34},  {2, "ben", 67},  {3, "carol", 45},
      {4, "dmitri", 8}, {5, "elena", 81}, {6, "farid", 29},
  };
  for (const Patient& p : roster)
    clinic.insert(core::Record{p.id, p.age});
  std::printf("enrolled %zu patients (encrypted ages outsourced)\n\n",
              clinic.live_count());

  show("seniors (age > 60):",
       clinic.query(Pred::value().gt(60)), roster);
  show("minors (age < 18):",
       clinic.query(Pred::value().lt(18)), roster);
  show("exactly 45:",
       clinic.query(Pred::value().eq(45)), roster);
  show("adults 18-65, not 34:",
       clinic.query(Pred::value().between_inclusive(18, 65) &&
                    !Pred::value().eq(34)),
       roster);

  // A patient leaves the practice: GDPR-style removal via the dual index.
  std::printf("\n-- ben transfers out (delete) --\n");
  clinic.erase(2);
  show("seniors (age > 60):",
       clinic.query(Pred::value().gt(60)), roster);
  show("over 30 or under 10:",
       clinic.query(Pred::value().gt(30) || Pred::value().lt(10)), roster);

  // A birthday: update = delete + forward-secure re-insert.
  std::printf("\n-- carol turns 46 (update) --\n");
  clinic.update(3, 46);
  show("exactly 45:",
       clinic.query(Pred::value().eq(45)), roster);
  show("exactly 46:",
       clinic.query(Pred::value().eq(46)), roster);

  std::printf("\nadd-instance Ac: %s...\n",
              clinic.add_accumulator().to_hex().substr(0, 16).c_str());
  std::printf("del-instance Ac: %s...\n",
              clinic.delete_accumulator().to_hex().substr(0, 16).c_str());
  std::printf("both accumulator values are what a blockchain would store to "
              "guarantee freshness.\n");
  return g_all_valid ? 0 : 1;
}
