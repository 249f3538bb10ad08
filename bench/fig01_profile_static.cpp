// Figure 1: profile of CALU using static scheduling on 16 cores — the
// motivating figure: pockets of idle time (white gaps) even in a statically
// optimized code.
// --engine=NAME reruns the profile under any engine.
#include "bench/profile.h"

int main(int argc, char** argv) {
  using namespace calu::bench;
  profile_run("Figure 1", calu::core::Schedule::Static, 0.0,
              calu::layout::Layout::TwoLevelBlock, "fig01_profile_static.svg",
              "unpredictable pockets of thread idle time scattered through "
              "the run; idle fraction visibly nonzero",
              engine_flag(argc, argv).c_str());
  return 0;
}
