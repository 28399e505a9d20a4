#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<std::uint64_t> nextLogUid{1};

/// Innermost open span of the calling thread (0 = none).
thread_local std::uint64_t tlsOpen = 0;

std::uint32_t threadNumber() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

}  // namespace

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), uid_(nextLogUid.fetch_add(1)) {}

SpanLog::Scope::Scope(SpanLog& log, const char* name)
    : log_(log.enabled() ? &log : nullptr), name_(name) {
  if (log_ == nullptr) return;
  id_ = log_->nextId_.fetch_add(1, std::memory_order_relaxed);
  parent_ = tlsOpen;
  tlsOpen = id_;
  startNs_ = nowNs();
}

void SpanLog::Scope::count(const char* key, double value) {
  if (log_ == nullptr || nArgs_ >= int(args_.size())) return;
  args_[nArgs_++] = {key, value};
}

void SpanLog::Scope::end() {
  if (log_ == nullptr) return;
  Record r;
  r.endNs = nowNs();
  r.id = id_;
  r.parent = parent_;
  r.thread = threadNumber();
  r.name = name_;
  r.startNs = startNs_;
  r.nArgs = nArgs_;
  r.args = args_;
  tlsOpen = parent_;
  log_->append(r);
  log_ = nullptr;
}

void SpanLog::append(const Record& r) {
  if (kept_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Each thread appends to its own buffer, registered on first use.
  thread_local std::uint64_t owner = 0;
  thread_local std::vector<Record>* buffer = nullptr;
  if (owner != uid_) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<std::vector<Record>>());
    buffer = buffers_.back().get();
    owner = uid_;
  }
  buffer->push_back(r);
}

std::vector<SpanLog::Record> SpanLog::all() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Record> out;
  for (const auto& b : buffers_) out.insert(out.end(), b->begin(), b->end());
  return out;
}

std::size_t SpanLog::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(kept_.load(), kMaxSpans));
}

std::vector<std::pair<std::string, double>> SpanLog::selfSeconds() const {
  const std::vector<Record> records = all();
  std::unordered_map<std::uint64_t, std::int64_t> childNs;
  for (const Record& r : records) {
    if (r.parent != 0) childNs[r.parent] += r.endNs - r.startNs;
  }
  std::map<std::string, double> self;
  for (const Record& r : records) {
    const auto it = childNs.find(r.id);
    const std::int64_t kids = it == childNs.end() ? 0 : it->second;
    self[r.name] += double(r.endNs - r.startNs - kids) * 1e-9;
  }
  return {self.begin(), self.end()};
}

void SpanLog::write(const std::string& path) const {
  const std::vector<Record> records = all();
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const std::int64_t t0 = records.empty() ? 0 : std::min_element(
      records.begin(), records.end(), [](const Record& a, const Record& b) {
        return a.startNs < b.startNs;
      })->startNs;
  out << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                  "\"id\":%llu,\"parent\":%llu",
                  i == 0 ? "" : ",", r.name, r.thread,
                  double(r.startNs - t0) * 1e-3,
                  double(r.endNs - r.startNs) * 1e-3,
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent));
    out << buf;
    for (int a = 0; a < r.nArgs; ++a) {
      std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", r.args[a].first,
                    r.args[a].second);
      out << buf;
    }
    out << "}}";
  }
  out << "\n],\"otherData\":{\"dropped\":" << dropped_.load() << "}}\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench
