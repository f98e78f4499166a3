// Checked conversion of a command-line flag value to a number, shared by the
// bench and tool flag parsers.
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string_view>
#include <system_error>

namespace rda::util {

/// Parses all of `text`, the value given to `flag`, as a T (an integer or
/// floating-point type). A non-number, trailing junk, a sign on an unsigned
/// type or a value out of T's range prints
///   error: <flag> expects a number, got '<text>'
/// to stderr and exits with status 2, the usage-error status of every
/// binary in the repo.
template <typename T>
T parse_number_or_exit(std::string_view flag, std::string_view text) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || ec != std::errc() || end != last) {
    std::cerr << "error: " << flag << " expects a number, got '" << text
              << "'\n";
    std::exit(2);
  }
  return value;
}

}  // namespace rda::util
