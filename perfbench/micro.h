// Isolated call costs for the traced run.
#ifndef PERFBENCH_MICRO_H_
#define PERFBENCH_MICRO_H_

#include <string>
#include <vector>

#include "world.h"

namespace perfbench {

struct Isolated {
  std::string name;
  double median_us = 0;
  size_t samples = 0;
};

// Interpreter construction plus agent-primitive binding, compile, warm
// admission check, cold analysis and SHA-256 on the world's CODE texts;
// encode and decode of its mid-journey arrival briefcase.  Clears *ok when a
// call fails.
std::vector<Isolated> MeasureIsolated(World& world, bool* ok);

}  // namespace perfbench

#endif  // PERFBENCH_MICRO_H_
