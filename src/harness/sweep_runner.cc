#include "harness/sweep_runner.h"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

namespace s4d::harness {

void RunIndexedParallel(int count, int jobs,
                        const std::function<void(int)>& body) {
  if (count <= 0) return;
  if (jobs <= 1 || count == 1) {
    for (int i = 0; i < count; ++i) body(i);
    return;
  }
  const int workers = jobs < count ? jobs : count;
  std::atomic<int> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::optional<std::uint64_t> ParseWholeDecimal(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

bool ParsePositiveFlag(const char* flag, const std::string& text, int& out) {
  const std::optional<std::uint64_t> value = ParseWholeDecimal(text);
  if (!value || *value < 1 ||
      *value > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    std::fprintf(stderr, "%s wants a positive integer, got '%s'\n", flag,
                 text.c_str());
    return false;
  }
  out = static_cast<int>(*value);
  return true;
}

}  // namespace s4d::harness
