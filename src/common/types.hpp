#pragma once
// Fundamental value types shared by every module: simulated time, node
// identity, and geographic regions.

#include <cstdint>
#include <functional>
#include <string>

namespace focus {

/// Simulated time in microseconds since the start of the scenario.
/// All protocol code receives time from the simulator; nothing reads a wall
/// clock, which keeps every run bit-reproducible.
using SimTime = std::int64_t;

/// Duration in microseconds (same unit as SimTime).
using Duration = std::int64_t;

inline constexpr Duration kMicrosecond = 1;
inline constexpr Duration kMillisecond = 1000;
inline constexpr Duration kSecond = 1000 * kMillisecond;
inline constexpr Duration kMinute = 60 * kSecond;
inline constexpr Duration kHour = 60 * kMinute;

/// Convert a microsecond time/duration to fractional seconds (for reports).
constexpr double to_seconds(Duration d) { return static_cast<double>(d) / 1e6; }

/// Convert a microsecond time/duration to fractional milliseconds.
constexpr double to_millis(Duration d) { return static_cast<double>(d) / 1e3; }

/// Identity of a node (an end host, a service process, a broker, ...).
/// Strongly typed so a NodeId cannot be confused with a port or a count.
struct NodeId {
  std::uint32_t value = 0;

  constexpr auto operator<=>(const NodeId&) const = default;
};

/// Render a NodeId as "node-<n>" for logs and JSON payloads.
inline std::string to_string(NodeId id) { return "node-" + std::to_string(id.value); }

/// Geographic region of a node. Mirrors the paper's EC2 testbed (four North
/// American regions) plus a region for the querying application itself.
enum class Region : std::uint8_t {
  Ohio = 0,
  Canada = 1,
  Oregon = 2,
  California = 3,
  AppEdge = 4,  ///< where querying applications / the FOCUS server live
};

inline constexpr int kNumDataRegions = 4;

/// Human-readable region name (also used as the location attribute value).
inline const char* to_string(Region r) {
  switch (r) {
    case Region::Ohio: return "us-east-2";
    case Region::Canada: return "ca-central-1";
    case Region::Oregon: return "us-west-2";
    case Region::California: return "us-west-1";
    case Region::AppEdge: return "app-edge";
  }
  return "unknown";
}

}  // namespace focus

template <>
struct std::hash<focus::NodeId> {
  std::size_t operator()(const focus::NodeId& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};
