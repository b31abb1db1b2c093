#include "wcle/analysis/cli.hpp"

#include <stdexcept>

#include "wcle/support/strict_parse.hpp"

namespace wcle {

CliArgs CliArgs::parse(int argc, const char* const* argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      if (args.command_.empty())
        args.command_ = token;
      else
        args.positionals_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      args.options_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0 &&
               !args.command_.empty()) {
      // `--key value` form (only after a command, so bare flags before the
      // command never swallow it).
      args.options_[body] = argv[++i];
    } else {
      args.options_[body] = "";  // bare flag
    }
  }
  return args;
}

bool CliArgs::has(const std::string& key) const {
  consumed_.insert(key);
  return options_.count(key) > 0;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  consumed_.insert(key);
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::uint64_t CliArgs::get_u64(const std::string& key,
                               std::uint64_t fallback) const {
  consumed_.insert(key);
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  if (const auto v = strict_u64(it->second)) return *v;
  throw std::invalid_argument("CliArgs: --" + key +
                              " expects a non-negative integer, got '" +
                              it->second + "'");
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  consumed_.insert(key);
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  std::size_t used = 0;
  const double v = std::stod(it->second, &used);
  if (used != it->second.size())
    throw std::invalid_argument("CliArgs: bad number for --" + key);
  return v;
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  consumed_.insert(key);
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  if (it->second.empty() || it->second == "true" || it->second == "1")
    return true;
  if (it->second == "false" || it->second == "0") return false;
  throw std::invalid_argument("CliArgs: bad boolean for --" + key);
}

HostPort CliArgs::get_host_port(const std::string& key,
                                const std::string& fallback_host,
                                std::uint16_t fallback_port) const {
  consumed_.insert(key);
  HostPort hp{fallback_host, fallback_port};
  const auto it = options_.find(key);
  if (it == options_.end()) return hp;
  const std::string& value = it->second;
  if (value.empty())
    throw std::invalid_argument("CliArgs: --" + key +
                                " expects HOST:PORT, got an empty value");

  const auto parse_port = [&key](const std::string& text) {
    if (const auto v = strict_u64(text); v && *v <= 65535)
      return static_cast<std::uint16_t>(*v);
    throw std::invalid_argument("CliArgs: --" + key + " port '" + text +
                                "' is not in 0..65535");
  };

  const std::size_t colon = value.find(':');
  if (colon == std::string::npos) {
    // "8080" is a port, anything else is a host (IPv4 hosts contain dots).
    if (value.find_first_not_of("0123456789") == std::string::npos)
      hp.port = parse_port(value);
    else
      hp.host = value;
    return hp;
  }
  const std::string host = value.substr(0, colon);
  const std::string port = value.substr(colon + 1);
  if (host.empty() && port.empty())
    throw std::invalid_argument("CliArgs: --" + key +
                                " expects HOST:PORT, got ':'");
  if (port.find(':') != std::string::npos)
    throw std::invalid_argument("CliArgs: --" + key + "=" + value +
                                " holds more than one ':' (IPv6 literals are "
                                "not supported)");
  if (!host.empty()) hp.host = host;
  if (!port.empty()) hp.port = parse_port(port);
  return hp;
}

std::vector<std::string> CliArgs::keys() const {
  std::vector<std::string> out;
  out.reserve(options_.size());
  for (const auto& [k, v] : options_) out.push_back(k);
  return out;
}

std::vector<std::string> CliArgs::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : options_)
    if (consumed_.count(k) == 0) out.push_back(k);
  return out;
}

}  // namespace wcle
