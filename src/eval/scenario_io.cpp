#include "eval/scenario_io.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "eval/canonical.hpp"

namespace hawkeye::eval {

namespace {

using fault::MaybeConst;
using telemetry::TelemetryMode;

constexpr std::string_view kMagic = "hawkeye-hunt-case v1";
constexpr std::string_view kJitter = "rtt_jitter";
constexpr std::string_view kNote = "note";

std::string_view to_string(TelemetryMode m) {
  switch (m) {
    case TelemetryMode::kFull: return "full";
    case TelemetryMode::kPortOnly: return "port-only";
    case TelemetryMode::kFlowOnly: return "flow-only";
  }
  return "?";
}

[[noreturn]] void fail(const std::string& line, const std::string& why) {
  throw std::invalid_argument("scenario_io: " + why + " in line \"" + line +
                              "\"");
}

std::vector<std::string> split(const std::string& s, char d) {
  std::vector<std::string> out(1);
  for (const char ch : s) {
    if (ch == d) out.emplace_back();
    else out.back() += ch;
  }
  return out;
}

// ---- One writer (encode) and one reader (decode) per field type ----

std::string encode(bool v) { return v ? "1" : "0"; }
std::string encode(double v) { return canonical_double(v); }
template <std::integral T>
std::string encode(T v) {
  return std::to_string(v);
}
template <typename E>
  requires std::is_enum_v<E>
std::string encode(E v) {
  return std::string(to_string(v));
}
std::string encode(std::string v) {
  std::ranges::replace_if(v, [](char ch) { return ch == '\n' || ch == '\r'; },
                          ' ');
  return v;
}
std::string encode(const std::vector<std::uint32_t>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(v[i]);
  }
  return out;
}

void decode(const std::string& line, const std::string& v, bool& out) {
  if (v != "0" && v != "1") fail(line, "bad bool (want 0 or 1)");
  out = v == "1";
}

void decode(const std::string& line, const std::string& v, double& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(out)) {
    fail(line, "bad number");
  }
}

/// Only values the field's own type holds parse: a 32-bit node id rejects
/// 4294967299 instead of wrapping it to 3.
template <std::integral T>
void decode(const std::string& line, const std::string& v, T& out) {
  const char* last = v.data() + v.size();
  const auto [end, ec] = std::from_chars(v.data(), last, out);
  if (ec != std::errc{} || end != last) fail(line, "bad integer");
}

/// Enums decode by name: each enum in the format numbers its values from 0,
/// and its to_string names the first value past the last one "?".
template <typename E>
  requires std::is_enum_v<E>
void decode(const std::string& line, const std::string& v, E& out) {
  for (int i = 0; encode(static_cast<E>(i)) != "?"; ++i) {
    if (encode(static_cast<E>(i)) == v) {
      out = static_cast<E>(i);
      return;
    }
  }
  fail(line, "unknown name");
}

void decode(const std::string&, const std::string& v, std::string& out) {
  out = v;
}

void decode(const std::string& line, const std::string& v,
            std::vector<std::uint32_t>& out) {
  out.clear();
  if (v.empty()) return;
  for (const std::string& tok : split(v, ',')) {
    decode(line, tok, out.emplace_back());
  }
}

// ---- Field lists, in case-file order ----
// Like fault::fields: `f(key, member)` per field. A third argument is the
// range config_error checks (parse_case calls it once every line is read),
// so a rule may span two fields.

template <MaybeConst<RunConfig> C, typename F>
void fields(C& c, F&& f) {
  f("scenario", c.scenario);
  f("seed", c.seed);
  f("method", c.method);
  // telemetry::EpochConfig takes bits [shift, shift + index_bits + kIdBits)
  // of a 64-bit timestamp (index, then the epoch id).
  f("epoch_shift", c.epoch_shift, [&c](int s) {
    const std::int64_t top = std::int64_t{s} + c.epoch_index_bits +
                             telemetry::EpochConfig::kIdBits;
    return s >= 0 && top < 64;
  });
  f("epoch_index_bits", c.epoch_index_bits,
    [](int b) { return b >= 1 && b <= 30; });
  f("threshold_factor", c.threshold_factor);
  f("tele_mode", c.tele_mode);
  f("one_bit_meter", c.one_bit_meter);
  f("background_load", c.background_load, [](double l) { return l >= 0; });
  f("fat_tree_k", c.fat_tree_k, [](int k) { return k >= 4 && k % 2 == 0; });
  f("shards", c.shards);
  f("max_repolls", c.max_repolls);
  f("fleet_workload", c.fleet_workload);
  f("fleet_severity", c.fleet_severity, [](double s) { return s > 0; });
}

template <MaybeConst<fault::FaultPlan> P, typename F>
void plan_fields(P& p, F&& f) {
  f("seed", p.seed);
}

template <MaybeConst<workload::ScenarioOverlay> O, typename F>
void fields(O& o, F&& f) {
  f("drop_flows", o.drop_flows);
  f("size_scale", o.size_scale);
  f("rate_scale", o.rate_scale);
  f("arrival_stride_ns", o.arrival_stride_ns);
  f("duration_add_ns", o.duration_add_ns);
  f("fault_rate_scale", o.fault_rate_scale);
  f("fault_window_scale", o.fault_window_scale);
}

template <MaybeConst<HuntCase> H, typename F>
void expected_fields(H& c, F&& f) {
  f("class", c.expected_class);
  f("verdict", c.expected_verdict);
  f("truth", c.expected_truth);
}

/// Grow-on-demand spec access: the serializer emits indices in order, but
/// the parser tolerates any order so a hand-edited fixture stays valid.
template <typename V>
V& spec_at(std::vector<V>& v, const std::string& line,
           const std::string& idx) {
  std::size_t i = 0;
  decode(line, idx, i);
  if (i > 4096) fail(line, "spec index out of range");
  if (v.size() <= i) v.resize(i + 1);
  return v[i];
}

/// Decodes `val` into the field the dotted `key` names; false when no field
/// has that key.
bool assign(HuntCase& c, const std::string& line, const std::string& key,
            const std::string& val) {
  if (key == kNote) {
    c.note = val;
    return true;
  }
  bool hit = false;
  // A field-list visitor that decodes `val` into the member keyed `name`.
  const auto into = [&](std::string_view name) {
    return [&hit, &line, &val, name](std::string_view k, auto& member,
                                     auto&&...) {
      if (k != name) return;
      decode(line, val, member);
      hit = true;
    };
  };
  RunConfig& cfg = c.cfg;
  fault::FaultPlan& fp = cfg.faults;
  const std::vector<std::string> k = split(key, '.');
  if (k.size() == 1) {
    fields(cfg, into(key));
  } else if (k.size() == 2 && k[0] == "overlay") {
    fields(cfg.overlay, into(k[1]));
  } else if (k.size() == 2 && k[0] == "expected") {
    expected_fields(c, into(k[1]));
  } else if (k.size() == 2 && k[0] == "faults") {
    plan_fields(fp, into(k[1]));
  } else if (k.size() == 3 && k[0] == "faults" && k[1] == kJitter) {
    fields(fp.rtt_jitter, into(k[2]));
  } else if (k.size() == 4 && k[0] == "faults") {
    fault::FaultPlan::families(
        fp, [&](std::string_view family, std::string_view, auto& specs) {
          if (family == k[1]) fields(spec_at(specs, line, k[2]), into(k[3]));
        });
  }
  return hit;
}

}  // namespace

std::string serialize_case(const HuntCase& c) {
  std::ostringstream os;
  // A field-list visitor writing `<prefix><key>=<value>` lines. Empty
  // strings and lists are omitted; they parse back as the default.
  const auto under = [&os](std::string prefix) {
    return [&os, prefix = std::move(prefix)](std::string_view key,
                                             const auto& v, auto&&...) {
      const std::string text = encode(v);
      if (!text.empty()) os << prefix << key << '=' << text << '\n';
    };
  };
  const RunConfig& cfg = c.cfg;

  os << kMagic << '\n';
  fields(cfg, under(""));
  if (cfg.faults.enabled()) {
    const fault::FaultPlan& fp = cfg.faults;
    plan_fields(fp, under("faults."));
    fault::FaultPlan::families(fp, [&](std::string_view family,
                                       std::string_view, const auto& specs) {
      // v1 files carry the jitter pair between the pfc and fleet families.
      if (family == "degraded" &&
          (fp.rtt_jitter.prob != 0 || fp.rtt_jitter.magnitude != 0)) {
        fields(fp.rtt_jitter, under("faults." + std::string(kJitter) + "."));
      }
      for (std::size_t i = 0; i < specs.size(); ++i) {
        fields(specs[i], under("faults." + std::string(family) + "." +
                               std::to_string(i) + "."));
      }
    });
  }
  if (cfg.overlay.enabled()) fields(cfg.overlay, under("overlay."));
  if (!c.expected_class.empty()) expected_fields(c, under("expected."));
  under("")(kNote, c.note);
  return os.str();
}

std::string config_error(const RunConfig& cfg) {
  std::string err;
  fields(cfg, [&err](std::string_view key, const auto& v, auto&&... ok) {
    if (err.empty() && !(ok(v) && ...)) {
      err = std::string(key) + "=" + encode(v);
    }
  });
  return err;
}

HuntCase parse_case(const std::string& text) {
  HuntCase c;
  std::istringstream in(text);
  std::string line;
  bool saw_magic = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (!saw_magic) {
      if (line != kMagic) {
        fail(line, "bad magic/version (want '" + std::string(kMagic) + "')");
      }
      saw_magic = true;
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) fail(line, "missing '='");
    if (!assign(c, line, line.substr(0, eq), line.substr(eq + 1))) {
      fail(line, "unknown key");
    }
  }
  if (!saw_magic) fail("<empty>", "missing magic line");
  if (const std::string err = config_error(c.cfg); !err.empty()) {
    fail(err, "value out of range");
  }
  // A parsed case must be installable: a corrupted fixture fails here, at
  // parse time, instead of deep inside Testbed::install_faults.
  if (c.cfg.faults.enabled()) {
    const std::string err = c.cfg.faults.validate();
    if (!err.empty()) fail(err, "invalid fault plan");
  }
  {
    const std::string err = c.cfg.overlay.validate();
    if (!err.empty()) fail(err, "invalid overlay");
  }
  return c;
}

std::uint64_t case_fingerprint(const HuntCase& c) {
  const std::string s = serialize_case(c);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace hawkeye::eval
