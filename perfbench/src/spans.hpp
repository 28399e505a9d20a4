// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around each call it makes into a
// layer of the program (name "<layer>.<what>", start, end, parent span,
// thread, and up to four numeric counts taken at the same boundary). They
// stay in memory until the run ends and are then written as one Chrome
// trace-event JSON file. A disabled log records nothing and costs one
// branch per span, so the untraced run shares the traced run's code.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  explicit SpanLog(bool enabled);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: opens on construction, closes on destruction (or end()).
  /// Spans opened on one thread while another is open there become its
  /// children.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attach a count measured at this boundary (kept when <= 4 per span).
    void count(const char* key, double value);
    void end();

   private:
    SpanLog* log_;
    const char* name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::int64_t startNs_ = 0;
    int nArgs_ = 0;
    std::array<std::pair<const char*, double>, 4> args_{};
  };

  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint32_t thread = 0;
    const char* name = nullptr;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int nArgs = 0;
    std::array<std::pair<const char*, double>, 4> args{};
  };

  std::size_t size() const;
  std::uint64_t dropped() const { return dropped_.load(); }
  /// Self seconds per span name: duration minus the time its direct
  /// children cover, summed over spans of that name.
  std::vector<std::pair<std::string, double>> selfSeconds() const;
  /// Write every span as Chrome trace-event JSON; throws on I/O failure.
  void write(const std::string& path) const;

 private:
  /// Spans kept before further ones are only counted as dropped (bounds the
  /// traced run's memory on the request-rate workload). Read them back only
  /// after every recording thread has finished.
  static constexpr std::size_t kMaxSpans = 400000;

  void append(const Record& r);
  /// Every record of every thread, in no particular order.
  std::vector<Record> all() const;

  const bool enabled_;
  /// Process-unique id; keys each thread's cached buffer pointer.
  const std::uint64_t uid_;
  std::atomic<std::uint64_t> nextId_{1};
  std::atomic<std::uint64_t> kept_{0};
  std::atomic<std::uint64_t> dropped_{0};
  /// One buffer per recording thread, so threads never contend on a span.
  mutable std::mutex mutex_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<std::vector<Record>>> buffers_;
};

}  // namespace perfbench
