// Figure 14: CALU dynamic with column-major layout — 90% of the threads
// become idle after only ~60% of the total factorization time (vs 80-90%
// for the other variants).
// --engine=NAME reruns the profile under any engine.
#include "bench/profile.h"

int main(int argc, char** argv) {
  using namespace calu::bench;
  profile_run("Figure 14", calu::core::Schedule::Dynamic, 1.0,
              calu::layout::Layout::ColumnMajor,
              "fig14_profile_dynamic_cm.svg",
              "90% of threads idle after ~60% of total time — late-stage "
              "starvation of the fully dynamic CM variant",
              engine_flag(argc, argv).c_str());
  return 0;
}
