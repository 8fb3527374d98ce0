// malloc_count: counts a process's calls to libc's malloc, calloc and
// realloc and prints the total to stderr when the process exits. It is a
// measurement helper, not a gate; EXPERIMENTS.md's "mallocs per rep"
// figures come from it. Preload it into any binary:
//
//   cmake --build build --target malloc_count
//   export LD_PRELOAD=$PWD/build/tools/libmalloc_count.so
//   .bench_build/s4d_perfbench --workload ior16k-mix --seed 1 --seconds 5
//
// One run counts start-up, the set-up samples and every rep together. To
// get the count per rep, run twice with different --seconds and divide the
// difference of the two totals by the difference of their rep counts (the
// "reps" field of perfbench's last line). The counter is a plain
// integer: exact for a single-threaded process such as perfbench or one
// s4dsim run, approximate under concurrent allocation.
#include <unistd.h>

#include <cstddef>
#include <cstdio>

extern "C" {
void* __libc_malloc(std::size_t size);
void* __libc_calloc(std::size_t count, std::size_t size);
void* __libc_realloc(void* ptr, std::size_t size);
}

namespace {

long g_calls = 0;

// Reports through write(2) at exit: stdio could allocate.
struct Reporter {
  ~Reporter() {
    char line[64];
    const int n = std::snprintf(line, sizeof(line), "malloc_count: %ld calls\n",
                                g_calls);
    if (n > 0) (void)!write(2, line, static_cast<std::size_t>(n));
  }
} g_reporter;

}  // namespace

extern "C" {

void* malloc(std::size_t size) noexcept {
  ++g_calls;
  return __libc_malloc(size);
}

void* calloc(std::size_t count, std::size_t size) noexcept {
  ++g_calls;
  return __libc_calloc(count, size);
}

void* realloc(void* ptr, std::size_t size) noexcept {
  ++g_calls;
  return __libc_realloc(ptr, size);
}

}  // extern "C"
