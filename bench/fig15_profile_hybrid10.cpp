// Figure 15: CALU static(10% dynamic) with the two-level block layout on
// 16 cores — a small dynamic percentage keeps the cores busy and
// drastically reduces idle time.
// --engine=NAME reruns the profile under any engine.
#include "bench/profile.h"

int main(int argc, char** argv) {
  using namespace calu::bench;
  profile_run("Figure 15", 0.10, calu::layout::Layout::TwoLevelBlock,
              "fig15_profile_hybrid10.svg",
              "idle time drastically reduced relative to Figure 1 (static) "
              "and Figure 14 (dynamic CM); threads stay busy to the end",
              engine_flag(argc, argv).c_str());
  return 0;
}
