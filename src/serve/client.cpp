#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace tass::serve {

namespace {

void send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    throw Error(std::string("serve client: send: ") + std::strerror(errno));
  }
}

void recv_all(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) throw Error("serve client: connection closed by server");
    if (errno == EINTR) continue;
    throw Error(std::string("serve client: recv: ") + std::strerror(errno));
  }
}

net::GenericPrefix read_row_prefix(Cursor& cursor,
                                   net::AddressFamily family) {
  return read_prefix(cursor, family);
}

}  // namespace

Client::Client(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw Error(std::string("serve client: socket: ") +
                std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw Error("serve client: bad host address " + host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw Error("serve client: connect to " + host + ":" +
                std::to_string(port) + ": " + what);
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), next_request_id_(other.next_request_id_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    next_request_id_ = other.next_request_id_;
    other.fd_ = -1;
  }
  return *this;
}

std::vector<std::uint8_t> Client::roundtrip(
    const RequestHeader& request, std::span<const std::uint8_t> body) {
  // The server drops a connection that announces an over-cap frame, so
  // refuse it here and keep the connection usable.
  const std::size_t payload_bytes = kRequestHeaderBytes + body.size();
  if (payload_bytes > kMaxFrameBytes) {
    throw Error("serve client: request frame of " +
                std::to_string(payload_bytes) + " bytes exceeds the " +
                std::to_string(kMaxFrameBytes) +
                " byte cap; split the batch");
  }
  std::vector<std::uint8_t> out;
  out.reserve(4 + payload_bytes);
  put_u32(out, static_cast<std::uint32_t>(payload_bytes));
  encode_request_header(out, request);
  out.insert(out.end(), body.begin(), body.end());
  send_all(fd_, out.data(), out.size());

  std::uint8_t length_bytes[4];
  recv_all(fd_, length_bytes, sizeof length_bytes);
  std::uint32_t length;
  std::memcpy(&length, length_bytes, sizeof length);
  if (length > kMaxFrameBytes) {
    throw FormatError("serve client: oversized response frame");
  }
  std::vector<std::uint8_t> payload(length);
  recv_all(fd_, payload.data(), payload.size());
  return payload;
}

std::pair<ResponseHeader, Cursor> Client::transact(
    const RequestHeader& request, std::span<const std::uint8_t> body,
    std::vector<std::uint8_t>& payload) {
  RequestHeader stamped = request;
  stamped.request_id = next_request_id_++;
  payload = roundtrip(stamped, body);
  Cursor cursor{std::span<const std::uint8_t>(payload)};
  const ResponseHeader header = decode_response_header(cursor);
  if (header.request_id != stamped.request_id) {
    throw FormatError("serve client: response id mismatch");
  }
  if (header.status == Status::kError) {
    const auto message = cursor.bytes(header.count);
    throw Error("serve client: remote error: " +
                std::string(reinterpret_cast<const char*>(message.data()),
                            message.size()));
  }
  return {header, cursor};
}

ResponseHeader Client::ping() {
  RequestHeader request;
  request.op = Op::kPing;
  std::vector<std::uint8_t> payload;
  return transact(request, {}, payload).first;
}

std::pair<ResponseHeader, InfoReply> Client::info(
    net::AddressFamily family) {
  RequestHeader request;
  request.op = Op::kInfo;
  request.family = family;
  std::vector<std::uint8_t> payload;
  auto [header, cursor] = transact(request, {}, payload);
  InfoReply reply;
  reply.total_hosts = cursor.u64();
  reply.advertised_addresses = cursor.u64();
  reply.cells = cursor.u64();
  reply.live_cells = cursor.u64();
  reply.ranked = cursor.u64();
  reply.mode = cursor.u32();
  reply.family = cursor.u32();
  return {header, reply};
}

std::pair<ResponseHeader, std::vector<RankRow>> Client::rank(
    net::AddressFamily family, std::uint32_t top_n) {
  RequestHeader request;
  request.op = Op::kRank;
  request.family = family;
  request.count = top_n;
  std::vector<std::uint8_t> payload;
  auto [header, cursor] = transact(request, {}, payload);
  std::vector<RankRow> rows;
  rows.reserve(header.count);
  for (std::uint32_t i = 0; i < header.count; ++i) {
    RankRow row;
    row.prefix = read_row_prefix(cursor, family);
    row.hosts = cursor.u64();
    row.density = cursor.f64();
    rows.push_back(row);
  }
  return {header, std::move(rows)};
}

std::pair<ResponseHeader, PlanReply> Client::plan(
    net::AddressFamily family, const PlanParams& params) {
  RequestHeader request;
  request.op = Op::kPlan;
  request.family = family;
  std::vector<std::uint8_t> body;
  encode_plan_params(body, params);
  std::vector<std::uint8_t> payload;
  auto [header, cursor] = transact(request, body, payload);
  PlanReply reply;
  reply.selected_addresses = cursor.u64();
  reply.covered_hosts = cursor.u64();
  reply.total_hosts = cursor.u64();
  reply.prefixes.reserve(header.count);
  for (std::uint32_t i = 0; i < header.count; ++i) {
    reply.prefixes.push_back(read_row_prefix(cursor, family));
  }
  return {header, std::move(reply)};
}

std::pair<ResponseHeader, SampleReply> Client::sample(
    net::AddressFamily family, const SampleParams& params) {
  RequestHeader request;
  request.op = Op::kSample;
  request.family = family;
  std::vector<std::uint8_t> body;
  encode_sample_params(body, params);
  std::vector<std::uint8_t> payload;
  auto [header, cursor] = transact(request, body, payload);
  SampleReply reply;
  reply.total_draws = cursor.u64();
  reply.frame_units = cursor.u64();
  reply.seed = cursor.u64();
  reply.rows.reserve(header.count);
  for (std::uint32_t i = 0; i < header.count; ++i) {
    SampleRow row;
    row.cell = cursor.u32();
    if (cursor.u32() != 0) {
      throw FormatError("serve: non-zero reserved field in sample row");
    }
    row.prefix = read_row_prefix(cursor, family);
    row.universe = cursor.u64();
    row.draws = cursor.u64();
    row.seed_hosts = cursor.u64();
    reply.rows.push_back(row);
  }
  return {header, std::move(reply)};
}

std::pair<ResponseHeader, ReduceReply> Client::reduce(
    net::AddressFamily family, const ReduceParams& params) {
  RequestHeader request;
  request.op = Op::kReduce;
  request.family = family;
  std::vector<std::uint8_t> body;
  encode_reduce_params(body, params);
  std::vector<std::uint8_t> payload;
  auto [header, cursor] = transact(request, body, payload);
  ReduceReply reply;
  reply.selected_prefixes = cursor.u64();
  reply.selected_addresses = cursor.u64();
  reply.overshoot_addresses = cursor.u64();
  reply.merges = cursor.u64();
  reply.prefixes.reserve(header.count);
  for (std::uint32_t i = 0; i < header.count; ++i) {
    reply.prefixes.push_back(read_row_prefix(cursor, family));
  }
  return {header, std::move(reply)};
}

template <class Word>
std::pair<ResponseHeader, std::vector<std::uint32_t>> Client::locate_impl(
    net::AddressFamily family, std::span<const Word> addresses) {
  RequestHeader request;
  request.op = Op::kLocate;
  request.family = family;
  request.count = static_cast<std::uint32_t>(addresses.size());
  std::vector<std::uint8_t> body;
  for (const Word& word : addresses) put_address(body, word);
  std::vector<std::uint8_t> payload;
  auto [header, cursor] = transact(request, body, payload);
  std::vector<std::uint32_t> cells;
  cells.reserve(header.count);
  for (std::uint32_t i = 0; i < header.count; ++i) {
    cells.push_back(cursor.u32());
  }
  return {header, std::move(cells)};
}

std::pair<ResponseHeader, std::vector<std::uint32_t>> Client::locate(
    std::span<const std::uint32_t> addresses) {
  return locate_impl<std::uint32_t>(net::AddressFamily::kIpv4, addresses);
}

std::pair<ResponseHeader, std::vector<std::uint32_t>> Client::locate(
    std::span<const net::Ipv6Address> addresses) {
  return locate_impl<net::Ipv6Address>(net::AddressFamily::kIpv6,
                                       addresses);
}

template <class Word>
std::pair<ResponseHeader, TallyReply> Client::tally_impl(
    net::AddressFamily family, std::span<const Word> addresses) {
  RequestHeader request;
  request.op = Op::kTally;
  request.family = family;
  request.count = static_cast<std::uint32_t>(addresses.size());
  std::vector<std::uint8_t> body;
  for (const Word& word : addresses) put_address(body, word);
  std::vector<std::uint8_t> payload;
  auto [header, cursor] = transact(request, body, payload);
  TallyReply reply;
  reply.attributed = cursor.u64();
  reply.unattributed = cursor.u64();
  reply.cells.reserve(header.count);
  for (std::uint32_t i = 0; i < header.count; ++i) {
    const std::uint32_t cell = cursor.u32();
    const std::uint32_t count = cursor.u32();
    reply.cells.emplace_back(cell, count);
  }
  return {header, std::move(reply)};
}

std::pair<ResponseHeader, TallyReply> Client::tally(
    std::span<const std::uint32_t> addresses) {
  return tally_impl<std::uint32_t>(net::AddressFamily::kIpv4, addresses);
}

std::pair<ResponseHeader, TallyReply> Client::tally(
    std::span<const net::Ipv6Address> addresses) {
  return tally_impl<net::Ipv6Address>(net::AddressFamily::kIpv6, addresses);
}

std::pair<ResponseHeader, StatsReply> Client::stats() {
  RequestHeader request;
  request.op = Op::kStats;
  std::vector<std::uint8_t> payload;
  auto [header, cursor] = transact(request, {}, payload);
  StatsReply reply;
  reply.requests = cursor.u64();
  reply.batched_addresses = cursor.u64();
  reply.swaps = cursor.u64();
  reply.last_swap_install_us = cursor.u64();
  reply.last_swap_drain_us = cursor.u64();
  reply.generations_retired = cursor.u64();
  return {header, reply};
}

std::pair<ResponseHeader, std::uint64_t> Client::reload(
    net::AddressFamily family, const std::string& path) {
  RequestHeader request;
  request.op = Op::kReload;
  request.family = family;
  request.count = static_cast<std::uint32_t>(path.size());
  std::vector<std::uint8_t> payload;
  auto [header, cursor] = transact(
      request,
      {reinterpret_cast<const std::uint8_t*>(path.data()), path.size()},
      payload);
  return {header, cursor.u64()};
}

ResponseHeader Client::shutdown() {
  RequestHeader request;
  request.op = Op::kShutdown;
  std::vector<std::uint8_t> payload;
  return transact(request, {}, payload).first;
}

}  // namespace tass::serve
