// Umbrella header: the public face of the Slicer library.
//
// Pulls in every type an integrator needs to run the full protocol —
// DataOwner / CloudServer / DataUser / QueryClient, the on-chain contract
// and its submission helpers, the ADS crypto parameters, and the
// observability subsystem (metrics + trace). Internal building blocks
// (bigint, crypto primitives, baselines) are deliberately not re-exported;
// include their headers directly when you need them.
//
// Quick start:
//
//   #include "slicer.hpp"
//
//   slicer::core::Config config;
//   crypto::Drbg rng(slicer::str_bytes("demo-seed"));
//   auto [acc, trapdoor] = slicer::adscrypto::RsaAccumulator::setup(rng, 1024);
//   slicer::core::DataOwner owner(...);
//   slicer::core::CloudServer cloud(...);
//   slicer::core::QueryClient client(...);
//   using slicer::core::Pred;
//   auto result = client.query(Pred::attr("value").between(10, 20));
//
// Every header included here is self-contained (each compiles as its own
// translation unit — enforced by tests/headers).
#pragma once

// Foundations: byte utilities, error taxonomy, parallel runtime.
#include "common/bytes.hpp"
#include "common/errors.hpp"
#include "common/thread_pool.hpp"

// Observability: counters / gauges / histograms and scoped trace spans.
#include "common/metrics.hpp"
#include "common/trace.hpp"

// ADS cryptography: RSA accumulator, trapdoor permutation, parameters.
#include "adscrypto/accumulator.hpp"
#include "adscrypto/hash_to_prime.hpp"
#include "adscrypto/multiset_hash.hpp"
#include "adscrypto/params.hpp"
#include "adscrypto/trapdoor.hpp"

// Protocol roles and messages.
#include "core/client.hpp"
#include "core/cloud.hpp"
#include "core/messages.hpp"
#include "core/owner.hpp"
#include "core/query.hpp"
#include "core/types.hpp"
#include "core/user.hpp"
#include "core/verify.hpp"

// Blockchain layer: simulated chain, the Slicer contract, tx submission,
// finality-aware digest reads.
#include "chain/blockchain.hpp"
#include "chain/finality.hpp"
#include "chain/slicer_contract.hpp"
#include "chain/tx_submitter.hpp"

// Wire protocol: standalone TCP CloudServer front-end and client channel.
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
