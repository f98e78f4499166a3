#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::int64_t self_time(Interval parent, std::vector<Interval> children) {
  const std::int64_t length = std::max<std::int64_t>(0, parent.end - parent.start);
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t reach = parent.start;  // end of the coverage counted so far
  for (const Interval& c : children) {
    if (c.end <= c.start) continue;
    const std::int64_t from = std::max(c.start, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return length - covered;
}

SpanLog::SpanLog(std::size_t capacity)
    : epoch_(Clock::now()), spans_(capacity) {}

std::uint32_t SpanLog::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t SpanLog::open(std::uint32_t name, std::uint64_t request,
                           std::int64_t parent, std::uint32_t thread) {
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span& s = spans_[slot];
  s.name = name;
  s.thread = thread;
  s.parent = parent;
  s.request = request;
  s.end = -1;
  s.start = now();
  return static_cast<std::int64_t>(slot);
}

void SpanLog::close(std::int64_t index) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end = now();
}

std::int64_t SpanLog::add(std::uint32_t name, std::uint64_t request,
                          std::int64_t parent, std::uint32_t thread,
                          Clock::time_point start, Clock::time_point end) {
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  spans_[slot] = Span{name, thread, parent, request, to_ns(start - epoch_),
                      to_ns(end - epoch_)};
  return static_cast<std::int64_t>(slot);
}

std::size_t SpanLog::size() const {
  return std::min(next_.load(), spans_.size());
}

std::int64_t SpanLog::total_self(std::uint32_t name) const {
  const std::size_t n = size();
  std::unordered_map<std::int64_t, std::vector<Interval>> children;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 && s.end >= 0 &&
        spans_[static_cast<std::size_t>(s.parent)].name == name) {
      children[s.parent].push_back({s.start, s.end});
    }
  }
  std::int64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.name != name || s.end < 0) continue;
    const auto it = children.find(static_cast<std::int64_t>(i));
    total += self_time({s.start, s.end},
                       it == children.end() ? std::vector<Interval>{}
                                            : std::move(it->second));
  }
  return total;
}

std::int64_t SpanLog::total_duration(std::uint32_t name,
                                     std::uint64_t* count) const {
  std::int64_t total = 0;
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name || s.end < 0) continue;
    total += s.end - s.start;
    ++n;
  }
  if (count != nullptr) *count = n;
  return total;
}

std::string SpanLog::chrome_json(std::size_t limit) const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[512];
  bool first = true;
  const std::size_t n = std::min(size(), limit);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.end < 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%lld,\"request\":%llu}}",
                  first ? "" : ",", names_[s.name].c_str(), s.thread,
                  static_cast<double>(s.start) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
