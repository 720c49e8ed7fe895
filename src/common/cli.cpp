#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "common/check.hpp"

namespace gsj {

std::int64_t parse_int(const std::string& text, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const std::int64_t parsed = std::strtoll(text.c_str(), &end, 10);
  GSJ_CHECK_MSG(end != text.c_str() && *end == '\0' && errno != ERANGE,
                what << ": expected an integer, got '" << text << "'");
  return parsed;
}

std::int64_t parse_int(const std::string& text, const std::string& what,
                       std::int64_t lo, std::int64_t hi) {
  const std::int64_t parsed = parse_int(text, what);
  GSJ_CHECK_MSG(parsed >= lo && parsed <= hi,
                what << ": expected an integer in [" << lo << ", " << hi
                     << "], got '" << text << "'");
  return parsed;
}

double parse_double(const std::string& text, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text.c_str(), &end);
  GSJ_CHECK_MSG(end != text.c_str() && *end == '\0' && errno != ERANGE,
                what << ": expected a number, got '" << text << "'");
  return parsed;
}

Cli::Cli(int argc, const char* const* argv) {
  prog_ = argc > 0 ? argv[0] : "prog";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        values_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[body] = argv[++i];
      } else {
        values_[body] = "true";  // bare flag == boolean true
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

void Cli::note(const std::string& name, const std::string& def,
               const std::string& help) {
  for (const auto& [n, _] : registered_) {
    if (n == name) return;
  }
  registered_.emplace_back(name, std::make_pair(def, help));
}

std::string Cli::get(const std::string& name, const std::string& def,
                     const std::string& help) {
  note(name, def, help);
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def,
                          const std::string& help) {
  return parse_int(get(name, std::to_string(def), help), "--" + name);
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def,
                          std::int64_t lo, std::int64_t hi,
                          const std::string& help) {
  return parse_int(get(name, std::to_string(def), help), "--" + name, lo, hi);
}

double Cli::get_double(const std::string& name, double def,
                       const std::string& help) {
  std::ostringstream d;
  d << def;
  return parse_double(get(name, d.str(), help), "--" + name);
}

bool Cli::get_bool(const std::string& name, bool def, const std::string& help) {
  const std::string v = get(name, def ? "true" : "false", help);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::vector<std::string> Cli::unknown() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    if (std::none_of(registered_.begin(), registered_.end(),
                     [&](const auto& r) { return r.first == name; })) {
      out.push_back(name);
    }
  }
  return out;
}

std::string Cli::help_text() const {
  std::ostringstream os;
  os << "usage: " << prog_ << " [--flag value]...\n\nflags:\n";
  for (const auto& [name, dh] : registered_) {
    os << "  --" << name << " (default: " << dh.first << ")";
    if (!dh.second.empty()) os << "  " << dh.second;
    os << '\n';
  }
  return os.str();
}

}  // namespace gsj
