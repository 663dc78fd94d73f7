#include "net/protocol.hpp"

#include "common/errors.hpp"
#include "common/serial.hpp"

namespace slicer::net {

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kHello: return "hello";
    case Op::kApply: return "apply";
    case Op::kSearch: return "search";
    case Op::kFetch: return "fetch";
    case Op::kProve: return "prove";
    case Op::kPing: return "ping";
    case Op::kQueryPlan: return "query_plan";
    case Op::kHelloOk: return "hello_ok";
    case Op::kApplyOk: return "apply_ok";
    case Op::kSearchReply: return "search_reply";
    case Op::kFetchReply: return "fetch_reply";
    case Op::kProveReply: return "prove_reply";
    case Op::kPong: return "pong";
    case Op::kQueryPlanReply: return "query_plan_reply";
    case Op::kError: return "error";
  }
  return "unknown";
}

Bytes HelloRequest::serialize() const {
  Writer w;
  w.str(kProtocolMagic);
  w.str(tenant);
  return std::move(w).take();
}

HelloRequest HelloRequest::deserialize(BytesView data) {
  Reader r(data);
  if (r.str() != kProtocolMagic)
    throw DecodeError("hello: unknown protocol magic");
  HelloRequest out;
  out.tenant = r.str();
  r.expect_end();
  return out;
}

Bytes HelloReply::serialize() const {
  Writer w;
  w.str(tenant);
  w.u32(shard_count);
  w.u64(prime_count);
  return std::move(w).take();
}

HelloReply HelloReply::deserialize(BytesView data) {
  Reader r(data);
  HelloReply out;
  out.tenant = r.str();
  out.shard_count = r.u32();
  out.prime_count = r.u64();
  r.expect_end();
  return out;
}

Bytes ApplyReply::serialize() const {
  Writer w;
  w.u64(prime_count);
  return std::move(w).take();
}

ApplyReply ApplyReply::deserialize(BytesView data) {
  Reader r(data);
  ApplyReply out;
  out.prime_count = r.u64();
  r.expect_end();
  return out;
}

Bytes SearchRequest::serialize() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(tokens.size()));
  for (const core::SearchToken& t : tokens) w.bytes(t.serialize());
  return std::move(w).take();
}

SearchRequest SearchRequest::deserialize(BytesView data) {
  Reader r(data);
  SearchRequest out;
  const std::uint32_t n = r.count(4);
  out.tokens.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    out.tokens.push_back(core::SearchToken::deserialize(r.bytes()));
  r.expect_end();
  return out;
}

Bytes SearchReply::serialize() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(replies.size()));
  for (const core::TokenReply& reply : replies) w.bytes(reply.serialize());
  return std::move(w).take();
}

SearchReply SearchReply::deserialize(BytesView data) {
  Reader r(data);
  SearchReply out;
  const std::uint32_t n = r.count(4);
  out.replies.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    out.replies.push_back(core::TokenReply::deserialize(r.bytes()));
  r.expect_end();
  return out;
}

Bytes FetchRequest::serialize() const {
  Writer w;
  w.bytes(token.serialize());
  return std::move(w).take();
}

FetchRequest FetchRequest::deserialize(BytesView data) {
  Reader r(data);
  FetchRequest out;
  out.token = core::SearchToken::deserialize(r.bytes());
  r.expect_end();
  return out;
}

Bytes FetchReply::serialize() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const Bytes& er : results) w.bytes(er);
  return std::move(w).take();
}

FetchReply FetchReply::deserialize(BytesView data) {
  Reader r(data);
  FetchReply out;
  const std::uint32_t n = r.count(4);
  out.results.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.results.push_back(r.bytes());
  r.expect_end();
  return out;
}

Bytes ProveRequest::serialize() const {
  Writer w;
  w.bytes(token.serialize());
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const Bytes& er : results) w.bytes(er);
  return std::move(w).take();
}

ProveRequest ProveRequest::deserialize(BytesView data) {
  Reader r(data);
  ProveRequest out;
  out.token = core::SearchToken::deserialize(r.bytes());
  const std::uint32_t n = r.count(4);
  out.results.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.results.push_back(r.bytes());
  r.expect_end();
  return out;
}

Bytes QueryPlanRequest::serialize() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(clauses.size()));
  for (const core::ClauseRequest& clause : clauses) {
    w.u32(static_cast<std::uint32_t>(clause.tokens.size()));
    for (const core::SearchToken& t : clause.tokens) w.bytes(t.serialize());
  }
  return std::move(w).take();
}

QueryPlanRequest QueryPlanRequest::deserialize(BytesView data) {
  Reader r(data);
  QueryPlanRequest out;
  // Every clause occupies at least its token count (4 bytes).
  const std::uint32_t n = r.count(4);
  out.clauses.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    core::ClauseRequest clause;
    const std::uint32_t t = r.count(4);
    clause.tokens.reserve(t);
    for (std::uint32_t k = 0; k < t; ++k)
      clause.tokens.push_back(core::SearchToken::deserialize(r.bytes()));
    out.clauses.push_back(std::move(clause));
  }
  r.expect_end();
  return out;
}

Bytes QueryPlanReply::serialize() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(clauses.size()));
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    const core::ClauseReply& clause = clauses[i];
    w.u32(static_cast<std::uint32_t>(i));  // sequence-ordered clause tag
    w.u32(static_cast<std::uint32_t>(clause.replies.size()));
    for (const core::TokenReply& reply : clause.replies)
      w.bytes(reply.serialize());
  }
  return std::move(w).take();
}

QueryPlanReply QueryPlanReply::deserialize(BytesView data) {
  Reader r(data);
  QueryPlanReply out;
  // Every clause occupies at least index (4) + reply count (4) bytes.
  const std::uint32_t n = r.count(8);
  out.clauses.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    // The clause tag must be exactly the position: strictly ascending and
    // contiguous, so permuted/omitted/duplicated entries fail to decode.
    if (r.u32() != i)
      throw DecodeError("query_plan_reply: clause replies out of sequence");
    core::ClauseReply clause;
    const std::uint32_t t = r.count(4);
    clause.replies.reserve(t);
    for (std::uint32_t k = 0; k < t; ++k)
      clause.replies.push_back(core::TokenReply::deserialize(r.bytes()));
    out.clauses.push_back(std::move(clause));
  }
  r.expect_end();
  return out;
}

Bytes ErrorReply::serialize() const {
  Writer w;
  w.str(code);
  w.str(message);
  return std::move(w).take();
}

ErrorReply ErrorReply::deserialize(BytesView data) {
  Reader r(data);
  ErrorReply out;
  out.code = r.str();
  out.message = r.str();
  r.expect_end();
  return out;
}

}  // namespace slicer::net
