// Steady-clock seconds: the one timer behind the stage and phase timings.
#pragma once

#include <chrono>

namespace tqec {

/// Seconds elapsed on the steady clock since `start`.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace tqec
