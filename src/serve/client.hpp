// Blocking client for the tass_serve wire protocol.
//
// One Client is one TCP connection; it is intentionally synchronous
// (send one frame, read one frame) because the batching happens inside
// a request — a locate/tally call ships the whole address batch in one
// frame and the server resolves it with one batch-kernel call.
// Concurrency comes from running one Client per connection/thread, which
// is exactly how the bench and the swap-stress test drive the daemon.
//
// Every query result is returned together with the ResponseHeader so
// the caller can bind the answer to the (generation, fingerprint) pair
// that produced it. A Status::kError response is raised as tass::Error
// carrying the server's message; protocol violations (truncated or
// malformed frames) raise tass::FormatError. A request whose frame would
// exceed kMaxFrameBytes is refused locally with tass::Error before
// anything is sent, so the connection stays usable.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/family.hpp"
#include "net/ipv6.hpp"
#include "serve/wire.hpp"

namespace tass::serve {

class Client {
 public:
  /// Connects to a tass_serve endpoint (throws tass::Error on failure).
  Client(const std::string& host, std::uint16_t port);
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  ResponseHeader ping();
  std::pair<ResponseHeader, InfoReply> info(net::AddressFamily family);
  std::pair<ResponseHeader, std::vector<RankRow>> rank(
      net::AddressFamily family, std::uint32_t top_n);
  std::pair<ResponseHeader, PlanReply> plan(net::AddressFamily family,
                                            const PlanParams& params);

  /// Sampled-scan budget allocation over the served ranking: the reply
  /// is the per-cell (universe, draws) design; drawing the concrete
  /// targets happens client-side (scan::SampledScopeT) from the
  /// echoed seed.
  std::pair<ResponseHeader, SampleReply> sample(net::AddressFamily family,
                                                const SampleParams& params);

  /// Density selection post-processed by bgp::reduce on the server: the
  /// reply's prefix list is the minimal overshoot-bounded cover of the
  /// selection (smaller than the kPlan list, never missing an address
  /// of it).
  std::pair<ResponseHeader, ReduceReply> reduce(net::AddressFamily family,
                                                const ReduceParams& params);

  /// Batched scope queries: cells[i] is the partition cell of
  /// addresses[i] (PrefixPartition::kNoCell when unrouted).
  std::pair<ResponseHeader, std::vector<std::uint32_t>> locate(
      std::span<const std::uint32_t> addresses);
  std::pair<ResponseHeader, std::vector<std::uint32_t>> locate(
      std::span<const net::Ipv6Address> addresses);

  /// Batched attribution histogram over the served partition.
  std::pair<ResponseHeader, TallyReply> tally(
      std::span<const std::uint32_t> addresses);
  std::pair<ResponseHeader, TallyReply> tally(
      std::span<const net::Ipv6Address> addresses);

  std::pair<ResponseHeader, StatsReply> stats();

  /// Asks for an asynchronous generation swap; an empty path means
  /// "reload the family's current image". Returns the reload ticket.
  std::pair<ResponseHeader, std::uint64_t> reload(
      net::AddressFamily family, const std::string& path = {});

  ResponseHeader shutdown();

 private:
  std::vector<std::uint8_t> roundtrip(const RequestHeader& request,
                                      std::span<const std::uint8_t> body);
  std::pair<ResponseHeader, Cursor> transact(
      const RequestHeader& request, std::span<const std::uint8_t> body,
      std::vector<std::uint8_t>& payload);

  template <class Word>
  std::pair<ResponseHeader, std::vector<std::uint32_t>> locate_impl(
      net::AddressFamily family, std::span<const Word> addresses);
  template <class Word>
  std::pair<ResponseHeader, TallyReply> tally_impl(
      net::AddressFamily family, std::span<const Word> addresses);

  int fd_ = -1;
  std::uint32_t next_request_id_ = 1;
};

}  // namespace tass::serve
