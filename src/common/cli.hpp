// Minimal command-line flag parser for the benchmark and example
// binaries: `--name value` and `--name=value` forms, typed getters with
// defaults, and an auto-generated --help.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gsj {

/// Strict numeric parses behind Cli's getters, shared with the tools'
/// own token parsers (CSV flag values, request-file keys): all of
/// `text` must be one base-10 integer / one number. Trailing garbage,
/// an empty string or an out-of-range magnitude throws CheckError
/// "<what>: expected an integer, got '<text>'" (or "a number"), so
/// `what` names the flag or key the text came from.
[[nodiscard]] std::int64_t parse_int(const std::string& text,
                                     const std::string& what);
/// parse_int bounded to [lo, hi]: a value outside throws CheckError
/// "<what>: expected an integer in [lo, hi], got '<text>'", so a caller
/// narrowing the result to a smaller type never wraps or truncates.
[[nodiscard]] std::int64_t parse_int(const std::string& text,
                                     const std::string& what, std::int64_t lo,
                                     std::int64_t hi);
[[nodiscard]] double parse_double(const std::string& text,
                                  const std::string& what);

class Cli {
 public:
  /// Parses argv. Flags that no getter ever reads are reported by
  /// `unknown()`; flags registered after parsing still resolve
  /// (registration only feeds --help and default values).
  Cli(int argc, const char* const* argv);

  /// Registers a flag for --help output and returns its value (or
  /// `def` when absent). Safe to call multiple times.
  [[nodiscard]] std::string get(const std::string& name, const std::string& def,
                                const std::string& help = "");
  /// Numeric getters parse strictly: trailing garbage, empty values and
  /// out-of-range magnitudes throw CheckError naming the flag, instead
  /// of silently yielding 0 or a truncated prefix.
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def,
                                     const std::string& help = "");
  /// get_int bounded to [lo, hi] (parse_int's ranged form); `def` must
  /// lie inside.
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def,
                                     std::int64_t lo, std::int64_t hi,
                                     const std::string& help = "");
  [[nodiscard]] double get_double(const std::string& name, double def,
                                  const std::string& help = "");
  [[nodiscard]] bool get_bool(const std::string& name, bool def,
                              const std::string& help = "");

  /// True when --help/-h was passed; callers should print `help_text()`
  /// and exit 0.
  [[nodiscard]] bool help_requested() const noexcept { return help_; }
  [[nodiscard]] std::string help_text() const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Names (without the leading "--") of the flags that were given but
  /// never read by a getter, in name order: misspellings, and flags the
  /// caller does not take. Call it once every flag has been read.
  [[nodiscard]] std::vector<std::string> unknown() const;

 private:
  void note(const std::string& name, const std::string& def,
            const std::string& help);

  std::string prog_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  // name -> (default, help), in registration order for --help.
  std::vector<std::pair<std::string, std::pair<std::string, std::string>>> registered_;
  bool help_ = false;
};

}  // namespace gsj
