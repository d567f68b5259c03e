#include "common/timer.h"

#include <ctime>

namespace ebv {

#if defined(_WIN32)

// No clock_gettime on MSVC: fall back to std::clock (process CPU time
// per the C standard) — the reading is diagnostic-only.
double process_cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

#else

double process_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

#endif

}  // namespace ebv
