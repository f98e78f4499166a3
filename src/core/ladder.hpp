// EscalationLadder: the rung state machine shared by the starvation
// watchdog (clamp → force), the service overload control (clamp
// → oversubscribe → shed) and the tenant penalty ladder (haircut →
// surcharge → deprioritize → quota). Each caller keeps its own rung
// actions, stats and events, keyed off the move a call returns.
//
// worse()/better() count consecutive samples; an opposite sample clears
// the other streak, and a streak that reaches its threshold moves the rung
// one step and restarts. At the top rung and at rung 0 the streak keeps
// counting (the tenant ledger's fingerprint mixes the streaks).
#pragma once

#include <cstdint>

namespace rda::core {

class EscalationLadder {
 public:
  int rung() const { return rung_; }
  std::uint32_t worse_streak() const { return worse_streak_; }
  std::uint32_t better_streak() const { return better_streak_; }

  /// One bad sample; climbs after `up_after` in a row, below `top`.
  bool worse(std::uint32_t up_after, int top) {
    better_streak_ = 0;
    if (++worse_streak_ < up_after || rung_ >= top) return false;
    worse_streak_ = 0;
    ++rung_;
    return true;
  }

  /// One good sample; descends after `down_after` in a row, above 0.
  bool better(std::uint32_t down_after) {
    worse_streak_ = 0;
    if (++better_streak_ < down_after || rung_ <= 0) return false;
    better_streak_ = 0;
    --rung_;
    return true;
  }

  /// Forced climb below `top`; restarts the worse streak either way.
  bool climb(int top) {
    worse_streak_ = 0;
    if (rung_ >= top) return false;
    ++rung_;
    return true;
  }

 private:
  int rung_ = 0;
  std::uint32_t worse_streak_ = 0;
  std::uint32_t better_streak_ = 0;
};

}  // namespace rda::core
