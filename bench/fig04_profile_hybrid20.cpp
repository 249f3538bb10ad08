// Figure 4: first steps of the factorization of a 5000x5000 matrix with
// static(20% dynamic) scheduling — threads that finish the panel early
// execute dynamic-section tasks instead of idling.
//
// --engine=NAME reruns the identical profile under any engine
// (e.g. --engine=priority-lookahead to compare its panel overlap and
// promotion count against the default hybrid look-ahead).
#include "bench/profile.h"

int main(int argc, char** argv) {
  using namespace calu::bench;
  profile_run("Figure 4", calu::core::Schedule::Hybrid, 0.20,
              calu::layout::Layout::BlockCyclic, "fig04_profile_hybrid20.svg",
              "almost no idle time: early panel finishers pick up dynamic "
              "tasks (red = panel, green = update)",
              engine_flag(argc, argv).c_str());
  return 0;
}
