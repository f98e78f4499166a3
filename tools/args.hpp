// Minimal command-line parsing shared by the rda_* tools.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/number.hpp"

namespace rda::tools {

/// "--key value" style arguments plus bare flags ("--quick").
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string token = argv[i];
      if (token.rfind("--", 0) != 0) {
        positional_.push_back(std::move(token));
        continue;
      }
      token = token.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[token] = argv[++i];
      } else {
        values_[token] = "";
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) != 0; }

  std::string get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() || it->second.empty() ? fallback : it->second;
  }

  /// Numeric values are checked: a malformed one exits with status 2
  /// (util::parse_number_or_exit).
  double get_double(const std::string& key, double fallback) const {
    return get_number(key, fallback);
  }

  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    return get_number(key, fallback);
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  template <typename T>
  T get_number(const std::string& key, T fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() || it->second.empty()
               ? fallback
               : util::parse_number_or_exit<T>("--" + key, it->second);
  }

  std::unordered_map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

[[noreturn]] inline void usage(const std::string& text) {
  std::cerr << text;
  std::exit(2);
}

}  // namespace rda::tools
