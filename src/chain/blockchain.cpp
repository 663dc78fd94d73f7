#include "chain/blockchain.hpp"

#include <algorithm>

#include "common/errors.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/serial.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace slicer::chain {

namespace {

/// Per-category gas attribution: every executed transaction's breakdown is
/// folded into chain.gas.<category> counters so a run's gas profile (Table
/// II shape) appears in the metrics snapshot alongside the timing phases.
void record_gas_metrics(const Receipt& receipt) {
  if (!metrics::enabled()) return;
  metrics::counter("chain.tx.executed").add();
  metrics::counter("chain.gas.total").add(receipt.gas_used);
  for (const auto& [category, amount] : receipt.gas_breakdown)
    metrics::counter("chain.gas." + category).add(amount);
}

/// Filler fee used by the chain.mempool.flood site: high enough to displace
/// fee-0 submissions, low enough that a few capped fee bumps outbid it.
constexpr std::uint64_t kFloodFee = 64;
constexpr std::size_t kFloodBurst = 64;

bool is_zero_hash(BytesView hash) {
  return std::all_of(hash.begin(), hash.end(),
                     [](std::uint8_t b) { return b == 0; });
}

/// Fork-choice tie-break key: SHA-256 of the seal, compared
/// lexicographically (lowest wins). Hashing (rather than comparing seals
/// directly) keeps the ordering unpredictable to the sealer — it cannot
/// grind a "small" seal, mirroring how real chains randomize tie-breaks.
Bytes seal_sort_key(const Block& block) {
  return crypto::Sha256::digest(block.seal);
}

}  // namespace

Blockchain::ChainState Blockchain::ChainState::clone() const {
  ChainState out;
  out.balances = balances;
  out.executed_nonces = executed_nonces;
  for (const auto& [addr, contract] : contracts)
    out.contracts[addr] = contract->clone();
  return out;
}

Blockchain::Blockchain(std::vector<Address> validators, GasSchedule schedule,
                       BlockchainConfig config)
    : schedule_(schedule), config_(config), validators_(std::move(validators)) {
  if (validators_.empty())
    throw ProtocolError("blockchain needs at least one validator");
  mempool_cap_ = config_.mempool_cap != 0 ? config_.mempool_cap
                                          : kDefaultMempoolCap;
  if (config_.max_fork_depth == 0)
    throw ProtocolError("max_fork_depth must be at least 1");
  // Derive a deterministic seal key per validator. A real PoA network uses
  // ECDSA; an HMAC keyed per validator provides the same unforgeability
  // property inside the simulation boundary.
  for (const Address& v : validators_) {
    Bytes seed = str_bytes("slicer.chain.validator-key");
    append(seed, BytesView(v.bytes.data(), v.bytes.size()));
    validator_keys_[v] = crypto::Sha256::digest(seed);
  }
}

const Blockchain::BlockNode* Blockchain::node_of(BytesView hash) const {
  if (hash.empty() || is_zero_hash(hash)) return nullptr;
  const auto it = tree_.find(Bytes(hash.begin(), hash.end()));
  return it == tree_.end() ? nullptr : &it->second;
}

void Blockchain::credit(const Address& account, std::uint64_t amount) {
  // The faucet mints on every branch (and in the pre-block genesis state)
  // so a later fork from any parent sees the same endowment.
  genesis_state_.balances[account] += amount;
  live_.balances[account] += amount;
  for (auto& [hash, node] : tree_)
    if (node.has_state) node.state.balances[account] += amount;
}

std::uint64_t Blockchain::balance(const Address& account) const {
  const ChainState& st = exec_state_ ? *exec_state_ : live_;
  const auto it = st.balances.find(account);
  return it == st.balances.end() ? 0 : it->second;
}

std::uint64_t Blockchain::nonce(const Address& account) const {
  const auto it = nonces_.find(account);
  return it == nonces_.end() ? 0 : it->second;
}

Transaction Blockchain::make_tx(const Address& from, const Address& to,
                                std::uint64_t value, Bytes data,
                                std::uint64_t gas_limit, std::uint64_t fee) {
  Transaction tx;
  tx.from = from;
  tx.to = to;
  tx.value = value;
  tx.gas_limit = gas_limit;
  tx.fee = fee;
  tx.data = std::move(data);
  tx.nonce = nonces_[from]++;
  return tx;
}

void Blockchain::enqueue(Transaction tx) {
  if (mempool_.size() >= mempool_cap_) {
    // Fee-priority eviction: the cheapest entry makes room (first
    // occurrence among ties — FIFO fairness for equal bidders). An
    // incoming transaction that does not outbid the pool minimum is
    // itself the victim, exactly like a drop from the caller's view.
    const auto victim = std::min_element(
        mempool_.begin(), mempool_.end(),
        [](const Transaction& a, const Transaction& b) { return a.fee < b.fee; });
    ++stats_.mempool_evicted;
    if (metrics::enabled()) metrics::counter("chain.mempool.evicted").add();
    if (tx.fee <= victim->fee) return;
    mempool_.erase(victim);
  }
  mempool_.push_back(std::move(tx));
}

void Blockchain::inject_flood() {
  // A hostile account bursts moderately-priced fillers into the pool: with
  // the cap in force they crowd out cheap pending transactions, which the
  // submitter must fee-bump past (chain.mempool.flood).
  const Address flooder = Address::from_label("slicer.mempool-flooder");
  const std::size_t burst = std::min(kFloodBurst, mempool_cap_);
  for (std::size_t i = 0; i < burst; ++i) {
    enqueue(make_tx(flooder, flooder, 0, {}, 0, kFloodFee));
    ++stats_.flood_injected;
  }
}

Bytes Blockchain::submit(Transaction tx) {
  Bytes hash = tx.hash();
  if (fault_point("chain.mempool.drop")) return hash;
  if (fault_point("chain.mempool.flood")) inject_flood();
  if (fault_point("chain.mempool.duplicate")) enqueue(tx);
  enqueue(std::move(tx));
  return hash;
}

Address Blockchain::submit_deployment(const Address& from,
                                      std::unique_ptr<Contract> contract,
                                      Bytes ctor_data) {
  PendingDeployment dep;
  dep.from = from;
  dep.contract = std::move(contract);
  dep.ctor_data = std::move(ctor_data);
  dep.nonce = nonces_[from]++;
  // Contract address: hash of (creator, nonce) — CREATE semantics.
  Writer w;
  w.raw(BytesView(from.bytes.data(), from.bytes.size()));
  w.u64(dep.nonce);
  const Bytes digest = crypto::Sha256::digest(w.view());
  std::copy(digest.begin(), digest.begin() + 20, dep.at.bytes.begin());
  const Address at = dep.at;
  pending_deployments_.push_back(std::move(dep));
  return at;
}

void Blockchain::execute_deployment(ChainState& st, PendingDeployment& dep,
                                    std::uint64_t block_number,
                                    Receipt& receipt) {
  if (!st.executed_nonces[dep.from].insert(dep.nonce).second) {
    receipt.success = false;
    receipt.revert_reason = "stale nonce (duplicate delivery)";
    return;
  }
  GasMeter gas(schedule_);
  gas.charge(schedule_.tx_base, "tx_base");
  gas.charge(calldata_gas(schedule_, dep.ctor_data), "calldata");
  gas.charge(schedule_.create, "create");
  gas.charge(schedule_.code_deposit_per_byte * dep.contract->code_size(),
             "code_deposit");

  exec_state_ = &st;
  std::vector<std::string> logs;
  Contract::CallContext ctx{dep.from, dep.at, 0, block_number, &gas, this,
                            &logs};
  try {
    dep.contract->construct(ctx, dep.ctor_data);
    receipt.success = true;
    st.contracts[dep.at] = std::move(dep.contract);
  } catch (const ContractRevert& revert) {
    receipt.success = false;
    receipt.revert_reason = revert.what();
  }
  exec_state_ = nullptr;
  receipt.gas_used = gas.used();
  receipt.gas_breakdown = gas.breakdown();
  record_gas_metrics(receipt);
  // The deployer pays for gas regardless of outcome.
  std::uint64_t& sender = st.balances[dep.from];
  sender -= std::min(sender, receipt.gas_used);
}

void Blockchain::execute_call(ChainState& st, const Transaction& tx,
                              const Address& sealer,
                              std::uint64_t block_number, Receipt& receipt) {
  // Duplicate delivery (faulty mempool, retrying client) executes only once
  // per branch: the nonce is consumed by the first execution, replays fail
  // for free. On a competing branch the same transaction executes
  // genuinely — that branch never saw it.
  if (!st.executed_nonces[tx.from].insert(tx.nonce).second) {
    receipt.success = false;
    receipt.revert_reason = "stale nonce (duplicate delivery)";
    return;
  }

  GasMeter gas(schedule_, tx.gas_limit);
  // Snapshot balances so both ContractRevert and OutOfGas roll back every
  // transfer — including the attached value (EVM state-revert semantics).
  const auto snapshot = st.balances;
  exec_state_ = &st;
  try {
    gas.charge(schedule_.tx_base, "tx_base");
    gas.charge(calldata_gas(schedule_, tx.data), "calldata");

    std::uint64_t& sender = st.balances[tx.from];
    const auto contract_it = st.contracts.find(tx.to);

    if (sender < tx.value) {
      receipt.success = false;
      receipt.revert_reason = "insufficient balance for value transfer";
    } else if (contract_it == st.contracts.end()) {
      // Plain value transfer.
      sender -= tx.value;
      st.balances[tx.to] += tx.value;
      receipt.success = true;
    } else {
      sender -= tx.value;
      st.balances[tx.to] += tx.value;
      std::vector<std::string> logs;
      Contract::CallContext ctx{tx.from, tx.to,      tx.value, block_number,
                                &gas,    this,       &logs};
      receipt.output = contract_it->second->call(ctx, tx.data);
      receipt.success = true;
      receipt.logs = std::move(logs);
    }
  } catch (const ContractRevert& revert) {
    st.balances = snapshot;
    receipt.success = false;
    receipt.revert_reason = revert.what();
  } catch (const OutOfGas& oog) {
    // All gas is consumed (the meter capped used() at the limit), but the
    // attached value went back with the snapshot restore above.
    st.balances = snapshot;
    receipt.success = false;
    receipt.revert_reason = oog.what();
  }
  exec_state_ = nullptr;

  receipt.gas_used = gas.used();
  receipt.gas_breakdown = gas.breakdown();
  record_gas_metrics(receipt);
  std::uint64_t& payer = st.balances[tx.from];
  payer -= std::min(payer, receipt.gas_used);
  // Priority fee goes to the sealing validator, capped by what the payer
  // has left — the incentive that makes fee-bump resubmission meaningful.
  const std::uint64_t paid_fee = std::min(payer, tx.fee);
  payer -= paid_fee;
  st.balances[sealer] += paid_fee;
}

const Blockchain::BlockNode& Blockchain::seal_node(
    const Bytes& parent_hash, std::size_t validator_index,
    std::vector<Transaction> txs, bool run_deployments) {
  if (validator_index >= validators_.size())
    throw ProtocolError("validator index out of range");
  const BlockNode* parent = node_of(parent_hash);
  if (!parent && !(parent_hash.empty() || is_zero_hash(parent_hash)))
    throw ProtocolError("unknown parent block");
  if (parent && !parent->has_state)
    throw ProtocolError("cannot seal on a finalized (pruned) parent");

  const std::uint64_t number = parent ? parent->block.number + 1 : 0;
  const bool extends_canonical = parent_hash == canonical_tip_ ||
                                 (!parent && canonical_tip_.empty());
  // A canonical seal executes straight into the live state (stable
  // contract pointers on the happy path); a fork seal re-executes against
  // a clone of its parent's snapshot and never touches live state unless
  // fork choice later adopts the branch.
  ChainState branch_state;
  if (!extends_canonical)
    branch_state = parent ? parent->state.clone() : genesis_state_.clone();
  ChainState& st = extends_canonical ? live_ : branch_state;

  Block block;
  block.number = number;
  block.parent_hash = parent ? parent->hash : Bytes(32, 0);
  block.sealer = validators_[validator_index];
  block.difficulty =
      validator_index == number % validators_.size() ? 2 : 1;
  block.timestamp = ++clock_;

  std::vector<Receipt> receipts;
  if (run_deployments) {
    // Deployments execute first, then calls, in submission order.
    for (PendingDeployment& dep : pending_deployments_) {
      Receipt receipt;
      Writer w;
      w.raw(BytesView(dep.from.bytes.data(), dep.from.bytes.size()));
      w.u64(dep.nonce);
      receipt.tx_hash = crypto::Sha256::digest(w.view());
      receipt.block_number = number;
      execute_deployment(st, dep, number, receipt);
      receipts.push_back(std::move(receipt));

      Transaction marker;  // record the deployment in the block body
      marker.from = dep.from;
      marker.to = kZeroAddress;
      marker.nonce = dep.nonce;
      marker.data = dep.ctor_data;
      block.transactions.push_back(std::move(marker));
    }
    pending_deployments_.clear();
  }

  std::uint64_t branch_gas = 0;
  for (const Transaction& tx : txs) {
    Receipt receipt;
    receipt.tx_hash = tx.hash();
    receipt.block_number = number;
    execute_call(st, tx, block.sealer, number, receipt);
    branch_gas += receipt.gas_used;
    receipts.push_back(std::move(receipt));
    block.transactions.push_back(tx);
  }
  if (!extends_canonical && !txs.empty()) {
    // Executing transactions on a non-tip parent is the rollback-and-
    // re-execute work a reorg costs; Table II's contention rows read it.
    stats_.reexecuted_txs += txs.size();
    stats_.reexec_gas += branch_gas;
    if (metrics::enabled()) {
      metrics::counter("chain.reorg.reexecuted_txs").add(txs.size());
      metrics::counter("chain.reorg.reexec_gas").add(branch_gas);
    }
  }

  block.tx_root = Block::compute_tx_root(block.transactions);
  block.seal = seal_of(block, block.sealer);

  BlockNode node;
  node.block = std::move(block);
  node.hash = node.block.header_hash();
  node.weight = (parent ? parent->weight : 0) + node.block.difficulty;
  node.receipts = std::move(receipts);
  node.state = extends_canonical ? live_.clone() : std::move(branch_state);
  const auto [it, inserted] = tree_.emplace(node.hash, std::move(node));
  if (!inserted)
    throw ProtocolError("duplicate block sealed");  // timestamps are unique

  select_canonical();
  prune_finalized();
  return it->second;
}

const Block& Blockchain::seal_block() {
  // Validator outage: nothing executed, mempool and pending deployments
  // stay queued for the next (successful) seal attempt.
  if (fault_point("chain.seal.validator_down")) throw ValidatorUnavailable();

  const Bytes parent = canonical_tip_;
  const std::uint64_t number = height();
  const std::size_t in_turn = number % validators_.size();
  std::vector<Transaction> txs = std::move(mempool_);
  mempool_.clear();
  const BlockNode& sealed = seal_node(parent, in_turn, std::move(txs), true);

  if (fault_point("chain.fork.compete")) {
    // A competing out-of-turn seal of the same height carrying the same
    // calls (deployments stay with the original block): fork choice must
    // settle the same-height tie deterministically by lowest seal hash.
    std::vector<Transaction> calls;
    for (const Transaction& tx : sealed.block.transactions)
      if (tx.to != kZeroAddress) calls.push_back(tx);
    seal_node(parent, (in_turn + 1) % validators_.size(), std::move(calls),
              false);
  }
  if (fault_point("chain.reorg.during_dispute")) {
    // An adversarial branch grown from one block *behind* the parent
    // overtakes the block just sealed, orphaning it AND its predecessor:
    // a receipt a submitter saw in an earlier round genuinely vanishes —
    // the deep-reorg client story, not just a dropped tip. Nothing is
    // replayed here; noticing the vanished receipt and resubmitting is
    // the submitter's job.
    Bytes base = parent;
    std::uint64_t base_number = number;  // number of the first fork block
    if (const BlockNode* p = node_of(parent)) {
      const BlockNode* gp = node_of(p->block.parent_hash);
      if (!gp || gp->has_state) {  // cannot fork below a pruned block
        base = p->block.parent_hash;
        base_number = p->block.number;
      }
    }
    Bytes tip = std::move(base);
    for (std::uint64_t n = base_number; n <= number + 1; ++n)
      tip = seal_node(tip, (n + 1) % validators_.size(), {}, false).hash;
  }
  return blocks_.back();
}

const Block& Blockchain::seal_block_on(const Bytes& parent_hash,
                                       std::size_t validator,
                                       std::vector<Transaction> txs) {
  return seal_node(parent_hash, validator, std::move(txs), false).block;
}

bool Blockchain::tip_better(const BlockNode& a, const BlockNode& b) const {
  if (a.block.number != b.block.number) return a.block.number > b.block.number;
  if (a.weight != b.weight) return a.weight > b.weight;
  return seal_sort_key(a.block) < seal_sort_key(b.block);
}

void Blockchain::select_canonical() {
  const BlockNode* best = nullptr;
  for (const auto& [hash, node] : tree_)
    if (!best || tip_better(node, *best)) best = &node;
  manual_canonical_ = false;
  if (!best || best->hash == canonical_tip_) return;
  adopt_canonical(*best);
}

void Blockchain::reorg_to(const Bytes& tip_hash) {
  const BlockNode* node = node_of(tip_hash);
  if (!node) throw ProtocolError("reorg_to: unknown block");
  if (!node->has_state)
    throw ProtocolError("reorg_to: branch is finalized (state pruned)");
  if (node->hash != canonical_tip_) adopt_canonical(*node);
  manual_canonical_ = true;
}

void Blockchain::adopt_canonical(const BlockNode& tip) {
  // New canonical path, root -> tip.
  std::vector<const BlockNode*> path;
  for (const BlockNode* n = &tip; n; n = node_of(n->block.parent_hash))
    path.push_back(n);
  std::reverse(path.begin(), path.end());

  // Fork point: longest common prefix with the cached canonical chain.
  std::size_t common = 0;
  while (common < path.size() && common < blocks_.size() &&
         path[common]->hash == blocks_[common].header_hash())
    ++common;

  const std::size_t rollback = blocks_.size() - common;
  if (rollback > 0) {
    std::uint64_t orphaned = 0;
    for (std::size_t i = common; i < blocks_.size(); ++i)
      orphaned += blocks_[i].transactions.size();
    ++stats_.reorgs;
    stats_.max_reorg_depth = std::max<std::uint64_t>(stats_.max_reorg_depth,
                                                     rollback);
    stats_.orphaned_txs += orphaned;
    if (metrics::enabled()) {
      metrics::counter("chain.reorg.count").add();
      metrics::counter("chain.reorg.orphaned_txs").add(orphaned);
      metrics::histogram("chain.reorg.depth").record(rollback);
    }
  }

  blocks_.resize(common);
  std::size_t keep_receipts = 0;
  for (std::size_t i = 0; i < common; ++i)
    keep_receipts += path[i]->receipts.size();
  receipts_.resize(keep_receipts);
  for (std::size_t i = common; i < path.size(); ++i) {
    blocks_.push_back(path[i]->block);
    receipts_.insert(receipts_.end(), path[i]->receipts.begin(),
                     path[i]->receipts.end());
  }
  canonical_tip_ = tip.hash;
  // A genuine rollback means the live state belongs to the losing branch:
  // replace it wholesale from the winner's snapshot (this is the reorg's
  // "roll back and re-execute" made visible — the re-execution already
  // happened when the branch was sealed). Pure extensions executed into
  // the live state directly, so it is already current.
  if (rollback > 0) live_ = tip.state.clone();
}

void Blockchain::prune_finalized() {
  if (blocks_.size() <= config_.max_fork_depth) return;
  // Finalized = buried max_fork_depth or more below the canonical tip:
  // the snapshot is dropped and no branch may fork from there again.
  const std::uint64_t tip_number = blocks_.size() - 1;
  for (auto& [hash, node] : tree_) {
    if (node.has_state &&
        node.block.number + config_.max_fork_depth <= tip_number) {
      node.state = ChainState{};
      node.has_state = false;
    }
  }
}

void Blockchain::transfer(const Address& from, const Address& to,
                          std::uint64_t amount) {
  ChainState& st = exec_state_ ? *exec_state_ : live_;
  std::uint64_t& src = st.balances[from];
  if (src < amount) throw ContractRevert("contract balance underflow");
  src -= amount;
  st.balances[to] += amount;
}

Bytes Blockchain::seal_of(const Block& block, const Address& validator) const {
  const auto it = validator_keys_.find(validator);
  if (it == validator_keys_.end())
    throw ProtocolError("unknown validator cannot seal");
  return crypto::hmac_sha256(it->second, block.header_hash());
}

std::optional<Receipt> Blockchain::receipt_of(BytesView tx_hash) const {
  for (const Receipt& r : receipts_) {
    if (r.tx_hash.size() == tx_hash.size() &&
        std::equal(r.tx_hash.begin(), r.tx_hash.end(), tx_hash.begin()))
      return r;
  }
  return std::nullopt;
}

Contract* Blockchain::contract_at(const Address& addr) {
  const auto it = live_.contracts.find(addr);
  return it == live_.contracts.end() ? nullptr : it->second.get();
}

const Contract* Blockchain::contract_at_depth(const Address& addr,
                                              std::uint64_t depth) const {
  if (depth >= blocks_.size())
    throw ProtocolError("chain shorter than the requested finality depth");
  const BlockNode* n = node_of(canonical_tip_);
  for (std::uint64_t i = 0; i < depth && n; ++i)
    n = node_of(n->block.parent_hash);
  if (!n) throw ProtocolError("canonical ancestor walk broke");
  if (!n->has_state)
    throw ProtocolError("state at the requested depth was pruned");
  const auto it = n->state.contracts.find(addr);
  return it == n->state.contracts.end() ? nullptr : it->second.get();
}

const Block* Blockchain::block_at_depth(std::uint64_t depth) const {
  if (depth >= blocks_.size()) return nullptr;
  return &blocks_[blocks_.size() - 1 - depth];
}

bool Blockchain::is_canonical(BytesView hash) const {
  const BlockNode* node = node_of(hash);
  if (!node) return false;
  const std::uint64_t number = node->block.number;
  return number < blocks_.size() && blocks_[number].header_hash() == node->hash;
}

bool Blockchain::audit() const {
  // --- every tree node: linkage, numbering, roots, seals, difficulty ---
  for (const auto& [hash, node] : tree_) {
    const Block& b = node.block;
    if (node.hash != hash || node.hash != b.header_hash()) return false;
    const BlockNode* parent = node_of(b.parent_hash);
    if (parent) {
      if (b.number != parent->block.number + 1) return false;
    } else {
      // Roots must be genuine genesis blocks, not dangling parents.
      if (b.number != 0 || !is_zero_hash(b.parent_hash)) return false;
    }
    if (!validator_keys_.count(b.sealer)) return false;
    if (b.tx_root != Block::compute_tx_root(b.transactions)) return false;
    if (b.seal != seal_of(b, b.sealer)) return false;
    const auto it = std::find(validators_.begin(), validators_.end(), b.sealer);
    const std::size_t idx =
        static_cast<std::size_t>(it - validators_.begin());
    const std::uint64_t expected_difficulty =
        idx == b.number % validators_.size() ? 2 : 1;
    if (b.difficulty != expected_difficulty) return false;
    if (node.weight != (parent ? parent->weight : 0) + b.difficulty)
      return false;
  }

  // --- canonical caches: one block per height, linked, matching the tree ---
  const BlockNode* tip = node_of(canonical_tip_);
  if ((tip == nullptr) != blocks_.empty()) return false;
  std::size_t idx = blocks_.size();
  std::size_t cached_receipts = 0;
  for (const BlockNode* n = tip; n; n = node_of(n->block.parent_hash)) {
    if (idx == 0) return false;
    --idx;
    if (blocks_[idx].number != idx) return false;
    if (blocks_[idx].header_hash() != n->hash) return false;
    cached_receipts += n->receipts.size();
  }
  if (idx != 0) return false;
  if (cached_receipts != receipts_.size()) return false;
  for (std::size_t i = 1; i < blocks_.size(); ++i)
    if (blocks_[i].parent_hash != blocks_[i - 1].header_hash()) return false;

  // --- fork choice agreement (unless manually steered via reorg_to) ---
  if (!manual_canonical_ && !tree_.empty()) {
    const BlockNode* best = nullptr;
    for (const auto& [hash, node] : tree_)
      if (!best || tip_better(node, *best)) best = &node;
    if (best->hash != canonical_tip_) return false;
  }
  return true;
}

}  // namespace slicer::chain
