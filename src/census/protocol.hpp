// Protocol registry and per-protocol deployment profiles.
//
// The paper evaluates FTP, HTTP, HTTPS and CWMP (TR-069); SSH and Telnet
// profiles are provided as extensions. Each profile parameterises the
// synthetic census: how many hosts exist, how they concentrate across
// prefixes (the Lorenz/tier table calibrated against Table 1 of the
// paper), which network types deploy the service, and how the population
// churns month over month (calibrated against Figures 5 and 6).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

namespace tass::census {

enum class Protocol : std::uint8_t {
  kFtp = 0,
  kHttp,
  kHttps,
  kCwmp,
  kSsh,
  kTelnet,
};

inline constexpr std::size_t kProtocolCount = 6;

/// The four protocols evaluated in the paper, in its presentation order.
std::span<const Protocol> paper_protocols() noexcept;
/// All protocols with presets (paper four + SSH, Telnet extensions).
std::span<const Protocol> all_protocols() noexcept;

std::string_view protocol_name(Protocol protocol) noexcept;
std::uint16_t protocol_port(Protocol protocol) noexcept;

/// Parses "ftp", "HTTP", ... Throws tass::ParseError on unknown names.
Protocol parse_protocol(std::string_view name);

/// Coarse network classification of an l-prefix; used to correlate where
/// different services deploy (CWMP lives in eyeball space, FTP/HTTP in
/// hosting/enterprise space).
enum class NetworkType : std::uint8_t {
  kHosting = 0,
  kEnterprise,
  kEyeball,
  kAcademic,
  kInfrastructure,
};

inline constexpr std::size_t kNetworkTypeCount = 5;

std::string_view network_type_name(NetworkType type) noexcept;

/// One density tier: `space_share` of the advertised address space holds
/// `host_share` of all responsive hosts. Tiers are listed densest-first
/// and partition both shares (sums are 1 apart from the zero tier, whose
/// host_share is 0). Tier tables are interpolated from the paper's
/// Table 1 (m-prefix column) at phi = 0.5, 0.7, 0.95, 0.99, 1.
struct DensityTier {
  double space_share;
  double host_share;
};

/// Everything the census generator needs to synthesise one protocol.
struct ProtocolProfile {
  Protocol protocol = Protocol::kFtp;

  /// Responsive hosts at scale 1.0 (the paper's order of magnitude).
  double base_hosts = 0;

  /// Density tiers over *occupied* space, densest first; the remainder of
  /// the advertised space up to 1.0 is the zero tier.
  std::array<DensityTier, 5> tiers{};

  /// Fraction of advertised space inside l-prefixes that contain no host
  /// of this protocol at all (Table 1, 1 - l-column at phi = 1). Must not
  /// exceed the zero-tier space share.
  double empty_l_space_share = 0;

  /// Deployment affinity per NetworkType (relative weights; higher means
  /// the protocol preferentially occupies prefixes of that type).
  std::array<double, kNetworkTypeCount> affinity{};

  /// Bias towards placing dense tiers in small partition cells; exponent
  /// on 1/cell_size in the tier-assignment score.
  double small_cell_bias = 0.25;

  /// Multiplicative within-tier density jitter (log-normal sigma).
  double density_jitter_sigma = 0.35;

  // --- churn (per month) -------------------------------------------------
  /// Fraction of hosts on dynamic addresses; they re-draw their address
  /// within their cell every month (kills address hitlists, not TASS).
  double volatile_fraction = 0;
  /// Of the volatile movers, fraction that land in a *different* cell of
  /// the same l-prefix instead of their own cell (hurts m-TASS slightly).
  double volatile_cross_cell = 0;
  /// Fraction of hosts that disappear each month (replaced by births so
  /// the population stays roughly stationary).
  double monthly_death_rate = 0;
  /// Fraction of the population born each month into m-cells that are
  /// currently empty but lie inside occupied l-prefixes (degrades m-TASS;
  /// paper Figure 6a: up to 0.7 %/month).
  double empty_m_birth_rate = 0;
  /// Fraction born into entirely empty l-prefixes (degrades both l- and
  /// m-TASS; paper: about 0.3 %/month).
  double empty_l_birth_rate = 0;

  /// Application-layer packets exchanged on a successful handshake (on
  /// top of the SYN probe); used by the scan cost model.
  double handshake_packets = 6;
};

/// Calibrated preset for a protocol. tests/calibration_test.cpp pins the
/// paper-shape targets the presets are calibrated to.
const ProtocolProfile& protocol_profile(Protocol protocol) noexcept;

}  // namespace tass::census
