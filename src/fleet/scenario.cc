#include "fleet/scenario.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/csv.h"

namespace dap::fleet {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON: objects, arrays, strings (\" and \\ escapes), numbers,
// booleans. Enough to round-trip ScenarioSpec; anything else is an error.
// All-digit numbers are held as exact uint64, every other number as a
// double.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<bool, double, std::uint64_t, std::string, JsonArray, JsonObject>
      value;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("scenario json: " + why + " at offset " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return JsonValue{parse_string()};
    if (c == 't' || c == 'f') return parse_bool();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject object;
    if (peek() == '}') {
      ++pos_;
      return JsonValue{std::move(object)};
    }
    while (true) {
      const std::string key = parse_string_at();
      expect(':');
      if (!object.emplace(key, parse_value()).second) {
        fail("duplicate key \"" + key + "\"");
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{std::move(object)};
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray array;
    if (peek() == ']') {
      ++pos_;
      return JsonValue{std::move(array)};
    }
    while (true) {
      array.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{std::move(array)};
    }
  }

  std::string parse_string_at() {
    if (peek() != '"') fail("expected string");
    return parse_string();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        if (e == '"' || e == '\\') {
          out.push_back(e);
        } else {
          fail("unsupported escape sequence");
        }
        continue;
      }
      out.push_back(c);
    }
    fail("unterminated string");
  }

  JsonValue parse_bool() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return JsonValue{true};
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return JsonValue{false};
    }
    fail("expected 'true' or 'false'");
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    // All-digit tokens stay exact (a 64-bit seed must round-trip). One
    // that overflows uint64 takes the double path below, so an integer
    // field reports it as too large.
    std::uint64_t integer = 0;
    const char* last = token.data() + token.size();
    if (const auto [ptr, ec] = std::from_chars(token.data(), last, integer);
        ec == std::errc() && ptr == last) {
      return JsonValue{integer};
    }
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number");
    return JsonValue{parsed};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Typed accessors with strict error messages.

/// The value as a T, else "<where> must be <what>".
template <class T>
const T& as(const JsonValue& v, const std::string& where, const char* what) {
  const auto* typed = std::get_if<T>(&v.value);
  if (typed == nullptr) {
    throw std::invalid_argument("scenario json: " + where + " must be " +
                                what);
  }
  return *typed;
}

double as_number(const JsonValue& v, const std::string& where) {
  if (const auto* integer = std::get_if<std::uint64_t>(&v.value)) {
    return static_cast<double>(*integer);
  }
  return as<double>(v, where, "a number");
}

/// Reads an integer into a field whose largest value is `max`: anything
/// wider is rejected, never wrapped.
std::uint64_t as_uint(const JsonValue& v, const std::string& where,
                      std::uint64_t max) {
  std::uint64_t value = 0;
  if (const auto* integer = std::get_if<std::uint64_t>(&v.value)) {
    value = *integer;
  } else {
    const double num = as_number(v, where);
    if (num < 0 || std::floor(num) != num) {
      throw std::invalid_argument("scenario json: " + where +
                                  " must be a non-negative integer");
    }
    // Cap at 2^53 (the last exactly-representable range): a larger
    // non-digit number (1e17) is a typo or an attack, and the cast below
    // must stay defined.
    if (num > 9007199254740992.0) {
      throw std::invalid_argument("scenario json: " + where +
                                  " is too large");
    }
    value = static_cast<std::uint64_t>(num);
  }
  if (value > max) {
    throw std::invalid_argument("scenario json: " + where + " is too large");
  }
  return value;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// The shortest %.{6..17}g that strtod maps back to `v`, so every double
/// round-trips; a value %.6g already prints exactly keeps those bytes.
std::string json_number(double v) {
  std::string out = common::format_number(v);
  for (int digits = 7;
       std::isfinite(v) && std::strtod(out.c_str(), nullptr) != v;
       ++digits) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.*g", digits, v);
    out = buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// The schema: one table of rows per JSON object, in emission order.
// read_value() and write_value() walk the same rows, so each key is
// spelled once, and what to_json() emits is what parse() reads back.

template <class S>
struct Row {
  const char* key;
  void (*read)(const JsonValue& value, const std::string& path, S& out);
  /// The serialized value, or "" when the row is left out.
  std::string (*write)(const S& in);
  bool required = false;
};

/// Specialized below for every struct that is a JSON object.
template <class S>
struct Schema;

template <class M>
struct MemberOf;
template <class S, class T>
struct MemberOf<T S::*> {
  using Owner = S;
};

template <class T>
struct IsVector : std::false_type {};
template <class T>
struct IsVector<std::vector<T>> : std::true_type {};

/// A block whose `enabled` row is false is left out whole.
constexpr const char* kEnabled = "enabled";
/// The topology object's discriminator; its other keys follow from it.
constexpr const char* kKind = "kind";

std::string where(const std::string& path) {
  return path.empty() ? "document" : path;
}

/// Rejects keys the rows do not know (naming the first offender), then
/// reads every row present. `path` is the object's key path ("" = root).
template <class S>
void read_rows(const JsonObject& object, const std::string& path,
               std::type_identity_t<std::span<const Row<S>>> rows, S& out,
               const char* also_known = nullptr) {
  for (const auto& entry : object) {
    const std::string& key = entry.first;
    // lint: allow(secret-taint): JSON field name, not key material
    bool known = also_known != nullptr && key == also_known;
    for (const Row<S>& row : rows) {
      // lint: allow(secret-taint): JSON field name, not key material
      known = known || key == row.key;
    }
    if (!known) {
      throw std::invalid_argument("scenario json: unknown key \"" + key +
                                  "\" in " + where(path));
    }
  }
  for (const Row<S>& row : rows) {
    const auto it = object.find(row.key);
    if (it != object.end()) {
      row.read(it->second, path.empty() ? row.key : path + "." + row.key,
               out);
    } else if (row.required) {
      throw std::invalid_argument("scenario json: missing \"" +
                                  std::string(row.key) + "\"");
    }
  }
}

template <class S>
std::string write_rows(const S& in,
                       std::type_identity_t<std::span<const Row<S>>> rows) {
  std::string body;
  for (const Row<S>& row : rows) {
    const std::string value = row.write(in);
    if (std::string_view(row.key) == kEnabled && value == "false") return "";
    if (value.empty()) continue;
    body += (body.empty() ? "" : ", ") + quote(row.key) + ": " + value;
  }
  return body;
}

template <class T>
void read_value(const JsonValue& value, const std::string& path, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out = as<bool>(value, path, "a boolean");
  } else if constexpr (std::is_same_v<T, double>) {
    out = as_number(value, path);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = as<std::string>(value, path, "a string");
  } else if constexpr (std::is_unsigned_v<T>) {
    out = static_cast<T>(as_uint(value, path, std::numeric_limits<T>::max()));
  } else if constexpr (IsVector<T>::value) {
    const auto& array = as<JsonArray>(value, path, "an array");
    out.assign(array.size(), {});
    for (std::size_t i = 0; i < array.size(); ++i) {
      read_value(array[i], path + "[" + std::to_string(i) + "]", out[i]);
    }
  } else {
    read_rows<T>(as<JsonObject>(value, where(path), "an object"), path,
                 Schema<T>::fields, out);
  }
}

template <class T>
std::string write_value(const T& in) {
  if constexpr (std::is_same_v<T, bool>) {
    return in ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    return json_number(in);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return quote(in);
  } else if constexpr (std::is_unsigned_v<T>) {
    return std::to_string(in);
  } else if constexpr (IsVector<T>::value) {
    // An array of blocks appears only when non-empty (canonical form).
    if (std::is_class_v<typename T::value_type> && in.empty()) return "";
    std::string out = "[";
    for (std::size_t i = 0; i < in.size(); ++i) {
      out += (i == 0 ? "" : ", ") + write_value(in[i]);
    }
    return out + "]";
  } else {
    // A block appears only when something inside it does.
    const std::string body = write_rows<T>(in, Schema<T>::fields);
    return body.empty() ? "" : "{" + body + "}";
  }
}

/// The row for one data member: `row<&HopSpec::loss>("loss")`.
template <auto member>
constexpr auto row(const char* key) {
  using S = typename MemberOf<decltype(member)>::Owner;
  return Row<S>{
      key,
      [](const JsonValue& value, const std::string& path, S& out) {
        read_value(value, path, out.*member);
      },
      [](const S& in) { return write_value(in.*member); }};
}

template <>
struct Schema<GuardConfig> {
  static constexpr Row<GuardConfig> fields[] = {
      row<&GuardConfig::capacity>("capacity"),
      row<&GuardConfig::budget_mbps>("budget_mbps"),
      row<&GuardConfig::burst_bits>("burst_bits"),
  };
};

template <>
struct Schema<HopSpec> {
  static constexpr Row<HopSpec> fields[] = {
      row<&HopSpec::loss>("loss"),
      row<&HopSpec::duplicate_probability>("duplicate_probability"),
      row<&HopSpec::latency_us>("latency_us"),
      row<&HopSpec::jitter_us>("jitter_us"),
  };
};

template <>
struct Schema<RelayCrashSpec> {
  static constexpr Row<RelayCrashSpec> fields[] = {
      row<&RelayCrashSpec::node>("node"),
      row<&RelayCrashSpec::at_interval>("at_interval"),
      row<&RelayCrashSpec::downtime_intervals>("downtime_intervals"),
      row<&RelayCrashSpec::reboot_skew_us>("reboot_skew_us"),
  };
};

template <>
struct Schema<LinkPartitionSpec> {
  static constexpr Row<LinkPartitionSpec> fields[] = {
      row<&LinkPartitionSpec::from>("from"),
      row<&LinkPartitionSpec::to>("to"),
      row<&LinkPartitionSpec::from_interval>("from_interval"),
      row<&LinkPartitionSpec::until_interval>("until_interval"),
  };
};

template <>
struct Schema<DegradedRelaySpec> {
  static constexpr Row<DegradedRelaySpec> fields[] = {
      row<&DegradedRelaySpec::node>("node"),
      row<&DegradedRelaySpec::budget_mbps>("budget_mbps"),
  };
};

template <>
struct Schema<FaultSpec> {
  static constexpr Row<FaultSpec> fields[] = {
      row<&FaultSpec::relay_crashes>("relay_crashes"),
      row<&FaultSpec::partitions>("partitions"),
      row<&FaultSpec::degraded>("degraded"),
  };
};

template <>
struct Schema<AdaptiveAdversarySpec> {
  static constexpr Row<AdaptiveAdversarySpec> fields[] = {
      row<&AdaptiveAdversarySpec::enabled>(kEnabled),
      row<&AdaptiveAdversarySpec::learning_rate>("learning_rate"),
      row<&AdaptiveAdversarySpec::initial_share>("initial_share"),
      row<&AdaptiveAdversarySpec::reward>("reward"),
      row<&AdaptiveAdversarySpec::cost>("cost"),
  };
};

template <>
struct Schema<SybilSpec> {
  static constexpr Row<SybilSpec> fields[] = {
      row<&SybilSpec::enabled>(kEnabled),
      row<&SybilSpec::cohort>("cohort"),
      row<&SybilSpec::reveal_stagger_us>("reveal_stagger_us"),
  };
};

template <>
struct Schema<CoopSpec> {
  static constexpr Row<CoopSpec> fields[] = {
      row<&CoopSpec::enabled>(kEnabled),
      row<&CoopSpec::audit_fraction>("audit_fraction"),
      row<&CoopSpec::poisoned>("poisoned"),
  };
};

template <>
struct Schema<StrategySpec> {
  static constexpr Row<StrategySpec> fields[] = {
      row<&StrategySpec::adaptive>("adaptive"),
      row<&StrategySpec::sybil>("sybil"),
      row<&StrategySpec::coop>("coop"),
  };
};

// Topology shape keys per kind; the fields live in ScenarioSpec itself.
constexpr Row<ScenarioSpec> kTreeShape[] = {
    row<&ScenarioSpec::depth>("depth"), row<&ScenarioSpec::fanout>("fanout")};
constexpr Row<ScenarioSpec> kGridShape[] = {
    row<&ScenarioSpec::rows>("rows"), row<&ScenarioSpec::cols>("cols")};
constexpr Row<ScenarioSpec> kGossipShape[] = {
    row<&ScenarioSpec::relays>("relays"), row<&ScenarioSpec::fanin>("fanin")};
constexpr Row<ScenarioSpec> kFloodShape[] = {
    row<&ScenarioSpec::receivers>("receivers")};

std::span<const Row<ScenarioSpec>> shape_rows(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kTree:
      return kTreeShape;
    case TopologyKind::kGrid:
      return kGridShape;
    case TopologyKind::kGossip:
      return kGossipShape;
    case TopologyKind::kFlood:
      return kFloodShape;
  }
  return {};
}

void read_topology(const JsonValue& value, const std::string& path,
                   ScenarioSpec& out) {
  const auto& topology = as<JsonObject>(value, path, "an object");
  const auto kind = topology.find(kKind);
  if (kind == topology.end()) {
    throw std::invalid_argument("scenario json: " + path + " missing \"" +
                                kKind + "\"");
  }
  out.kind = topology_kind_from_name(
      as<std::string>(kind->second, path + "." + kKind, "a string"));
  read_rows<ScenarioSpec>(topology, path, shape_rows(out.kind), out, kKind);
}

std::string write_topology(const ScenarioSpec& in) {
  const std::string shape = write_rows<ScenarioSpec>(in, shape_rows(in.kind));
  return "{" + quote(kKind) + ": " + quote(topology_kind_name(in.kind)) +
         (shape.empty() ? "" : ", ") + shape + "}";
}

template <>
struct Schema<ScenarioSpec> {
  static constexpr Row<ScenarioSpec> fields[] = {
      row<&ScenarioSpec::name>("name"),
      row<&ScenarioSpec::seed>("seed"),
      {"topology", read_topology, write_topology, /*required=*/true},
      row<&ScenarioSpec::members_per_cohort>("members_per_cohort"),
      row<&ScenarioSpec::buffers>("buffers"),
      row<&ScenarioSpec::cohorts_at_leaves_only>("cohorts_at_leaves_only"),
      row<&ScenarioSpec::intervals>("intervals"),
      row<&ScenarioSpec::interval_us>("interval_us"),
      row<&ScenarioSpec::forged_fraction>("forged_fraction"),
      row<&ScenarioSpec::attackers>("attackers"),
      row<&ScenarioSpec::relay_dedup>("relay_dedup"),
      row<&ScenarioSpec::guard>("guard"),
      row<&ScenarioSpec::faults>("faults"),
      row<&ScenarioSpec::strategy>("strategy"),
      row<&ScenarioSpec::hop>("hop"),
  };
};

/// Untrusted-input ceilings: a spec is a scenario description, not a
/// resource grant — parsing one must never commit the process to huge
/// allocations before anyone decides to run it.
constexpr std::uint64_t kMaxNodes = 1ULL << 22;          // relay graph
constexpr std::uint64_t kMaxMembersPerCohort = 1ULL << 24;
constexpr std::uint64_t kMaxBuffers = 1ULL << 16;
constexpr std::uint64_t kMaxIntervals = 1ULL << 20;
constexpr std::size_t kMaxGuardCapacity = 1ULL << 22;

/// Overflow-safe estimate of the node count a topology spec implies.
double estimated_nodes(const ScenarioSpec& spec) {
  switch (spec.kind) {
    case TopologyKind::kTree: {
      if (spec.fanout <= 1) return static_cast<double>(spec.depth) + 1.0;
      const double f = static_cast<double>(spec.fanout);
      return (std::pow(f, static_cast<double>(spec.depth) + 1.0) - 1.0) /
             (f - 1.0);
    }
    case TopologyKind::kGrid:
      return static_cast<double>(spec.rows) *
                 static_cast<double>(spec.cols) + 1.0;
    case TopologyKind::kGossip:
      return static_cast<double>(spec.relays) + 1.0;
    case TopologyKind::kFlood:
      return static_cast<double>(spec.receivers) + 1.0;
  }
  return 0.0;
}

}  // namespace

std::uint32_t FaultSpec::last_clear_interval() const noexcept {
  std::uint32_t clear = 0;
  for (const RelayCrashSpec& crash : relay_crashes) {
    const std::uint64_t up = static_cast<std::uint64_t>(crash.at_interval) +
                             crash.downtime_intervals;
    if (up > clear) clear = static_cast<std::uint32_t>(up);
  }
  for (const LinkPartitionSpec& partition : partitions) {
    if (partition.until_interval > clear) clear = partition.until_interval;
  }
  return clear;
}

Topology ScenarioSpec::build_topology() const {
  switch (kind) {
    case TopologyKind::kTree:
      return tree_topology(depth, fanout);
    case TopologyKind::kGrid:
      return grid_topology(rows, cols);
    case TopologyKind::kGossip:
      return gossip_topology(relays, fanin, seed);
    case TopologyKind::kFlood:
      return flood_topology(receivers);
  }
  throw std::invalid_argument("ScenarioSpec: unknown topology kind");
}

std::uint64_t ScenarioSpec::total_members() const {
  const Topology topo = build_topology();
  const std::uint64_t cohorts =
      cohorts_at_leaves_only
          ? static_cast<std::uint64_t>(topo.leaves().size())
          : static_cast<std::uint64_t>(topo.node_count) - 1;
  return cohorts * members_per_cohort;
}

std::string ScenarioSpec::id() const {
  std::string shape;
  switch (kind) {
    case TopologyKind::kTree:
      shape = "d" + std::to_string(depth) + "f" + std::to_string(fanout);
      break;
    case TopologyKind::kGrid:
      shape = std::to_string(rows) + "x" + std::to_string(cols);
      break;
    case TopologyKind::kGossip:
      shape = "n" + std::to_string(relays) + "k" + std::to_string(fanin);
      break;
    case TopologyKind::kFlood:
      shape = "n" + std::to_string(receivers);
      break;
  }
  return std::string(topology_kind_name(kind)) + "_" + shape + "_m" +
         std::to_string(members_per_cohort) + "_p" +
         common::format_number(forged_fraction) +
         (faults.empty() ? "" : "_chaos") +
         (strategy.adaptive.enabled ? "_adapt" : "") +
         (strategy.sybil.enabled ? "_sybil" : "") +
         (strategy.coop.enabled
              ? (strategy.coop.poisoned ? "_coop_poison" : "_coop")
              : "");
}

std::string ScenarioSpec::to_json() const { return write_value(*this); }

ScenarioSpec ScenarioSpec::parse(const std::string& json) {
  ScenarioSpec spec;
  read_value(JsonParser(json).parse(), "", spec);
  spec.validate();
  return spec;
}

void ScenarioSpec::validate() const {
  if (members_per_cohort == 0 || members_per_cohort > kMaxMembersPerCohort) {
    throw std::invalid_argument(
        "ScenarioSpec: members_per_cohort must be in [1, 2^24]");
  }
  if (buffers == 0 || buffers > kMaxBuffers) {
    throw std::invalid_argument("ScenarioSpec: buffers must be in [1, 2^16]");
  }
  if (intervals == 0 || intervals > kMaxIntervals) {
    throw std::invalid_argument(
        "ScenarioSpec: intervals must be in [1, 2^20]");
  }
  if (interval_us == 0 ||
      static_cast<double>(interval_us) *
              (static_cast<double>(intervals) + 8.0) >
          9.0e18) {
    throw std::invalid_argument(
        "ScenarioSpec: interval_us out of range (run would overflow "
        "sim time)");
  }
  // Range checks are written so that NaN fails them.
  if (!(forged_fraction >= 0.0 && forged_fraction < 1.0)) {
    throw std::invalid_argument(
        "ScenarioSpec: forged_fraction must be in [0, 1)");
  }
  if (!(hop.loss >= 0.0 && hop.loss < 1.0)) {
    throw std::invalid_argument("ScenarioSpec: hop.loss must be in [0, 1)");
  }
  if (!(hop.duplicate_probability >= 0.0 &&
        hop.duplicate_probability <= 1.0)) {
    throw std::invalid_argument(
        "ScenarioSpec: hop.duplicate_probability must be in [0, 1]");
  }
  if (guard.capacity == 0 || guard.capacity > kMaxGuardCapacity ||
      (guard.capacity & (guard.capacity - 1)) != 0) {
    throw std::invalid_argument(
        "ScenarioSpec: guard.capacity must be a power of two in [1, 2^22]");
  }
  if (!std::isfinite(guard.budget_mbps) || guard.budget_mbps < 0.0) {
    throw std::invalid_argument(
        "ScenarioSpec: guard.budget_mbps must be finite and >= 0");
  }
  if (!std::isfinite(guard.burst_bits) || guard.burst_bits < 0.0) {
    throw std::invalid_argument(
        "ScenarioSpec: guard.burst_bits must be finite and >= 0");
  }
  // Resource ceiling BEFORE materializing the graph: a parsed spec is
  // untrusted input, and the topology builders allocate O(nodes).
  if (estimated_nodes(*this) > static_cast<double>(kMaxNodes)) {
    throw std::invalid_argument(
        "ScenarioSpec: topology implies more than 2^22 nodes");
  }
  const Topology topo = build_topology();  // validates the shape itself
  const auto adjacency = topo.adjacency();
  for (const std::uint32_t a : attackers) {
    if (a >= topo.node_count) {
      throw std::invalid_argument("ScenarioSpec: attacker node out of range");
    }
    if (adjacency[a].empty()) {
      throw std::invalid_argument(
          "ScenarioSpec: attacker node has no out-edges to inject into");
    }
  }
  for (const RelayCrashSpec& crash : faults.relay_crashes) {
    if (crash.node == 0 || crash.node >= topo.node_count) {
      throw std::invalid_argument(
          "ScenarioSpec: relay_crashes node must be a non-root node");
    }
    if (crash.at_interval == 0 || crash.at_interval > intervals) {
      throw std::invalid_argument(
          "ScenarioSpec: relay_crashes at_interval must be in [1, "
          "intervals]");
    }
    if (crash.downtime_intervals == 0 ||
        crash.downtime_intervals > kMaxIntervals) {
      throw std::invalid_argument(
          "ScenarioSpec: relay_crashes downtime_intervals must be in [1, "
          "2^20]");
    }
    if (crash.reboot_skew_us >
        static_cast<sim::SimTime>(kMaxIntervals) * interval_us) {
      throw std::invalid_argument(
          "ScenarioSpec: relay_crashes reboot_skew_us out of range");
    }
  }
  for (const LinkPartitionSpec& partition : faults.partitions) {
    if (partition.from >= topo.node_count ||
        partition.to >= topo.node_count) {
      throw std::invalid_argument(
          "ScenarioSpec: partition endpoint out of range");
    }
    bool edge = false;
    for (const std::uint32_t to : adjacency[partition.from]) {
      if (to == partition.to) {
        edge = true;
        break;
      }
    }
    if (!edge) {
      throw std::invalid_argument(
          "ScenarioSpec: partition does not match a topology edge");
    }
    if (partition.from_interval == 0 ||
        partition.until_interval <= partition.from_interval) {
      throw std::invalid_argument(
          "ScenarioSpec: partition window must satisfy 1 <= from < until");
    }
  }
  if (strategy.adaptive.enabled) {
    if (!std::isfinite(strategy.adaptive.learning_rate) ||
        strategy.adaptive.learning_rate <= 0.0 ||
        strategy.adaptive.learning_rate > 1.0) {
      throw std::invalid_argument(
          "ScenarioSpec: strategy.adaptive.learning_rate must be in (0, 1]");
    }
    if (!(strategy.adaptive.initial_share > 0.0 &&
          strategy.adaptive.initial_share < 1.0)) {
      throw std::invalid_argument(
          "ScenarioSpec: strategy.adaptive.initial_share must be in (0, 1)");
    }
    if (!std::isfinite(strategy.adaptive.reward) ||
        !std::isfinite(strategy.adaptive.cost) ||
        strategy.adaptive.cost <= 0.0 ||
        strategy.adaptive.reward <= strategy.adaptive.cost) {
      // Mirrors game::GameParams::validate (Ra > k1 > 0): the replicator
      // payoff only has the paper's structure under these signs.
      throw std::invalid_argument(
          "ScenarioSpec: strategy.adaptive requires reward > cost > 0");
    }
    if (forged_fraction <= 0.0) {
      throw std::invalid_argument(
          "ScenarioSpec: strategy.adaptive needs forged_fraction > 0 (it "
          "bounds the per-interval flood intensity)");
    }
  }
  if (strategy.sybil.enabled) {
    if (strategy.sybil.cohort == 0 || strategy.sybil.cohort > 64) {
      throw std::invalid_argument(
          "ScenarioSpec: strategy.sybil.cohort must be in [1, 64]");
    }
    if (strategy.sybil.reveal_stagger_us >= interval_us) {
      throw std::invalid_argument(
          "ScenarioSpec: strategy.sybil.reveal_stagger_us must be smaller "
          "than interval_us");
    }
  }
  if (strategy.coop.enabled) {
    if (!std::isfinite(strategy.coop.audit_fraction) ||
        strategy.coop.audit_fraction < 0.0 ||
        strategy.coop.audit_fraction > 1.0) {
      throw std::invalid_argument(
          "ScenarioSpec: strategy.coop.audit_fraction must be in [0, 1]");
    }
  } else if (strategy.coop.poisoned) {
    throw std::invalid_argument(
        "ScenarioSpec: strategy.coop.poisoned requires strategy.coop.enabled");
  }
  for (const DegradedRelaySpec& degraded : faults.degraded) {
    if (degraded.node >= topo.node_count) {
      throw std::invalid_argument(
          "ScenarioSpec: degraded node out of range");
    }
    if (!std::isfinite(degraded.budget_mbps) || degraded.budget_mbps <= 0.0) {
      throw std::invalid_argument(
          "ScenarioSpec: degraded budget_mbps must be finite and > 0");
    }
  }
}

}  // namespace dap::fleet
