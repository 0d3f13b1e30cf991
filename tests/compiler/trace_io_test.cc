#include "compiler/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "compiler/trace_builder.h"

namespace dasched {
namespace {

CompiledProgram sample_trace() {
  TraceBuilder tb(2);
  tb.write(0, 0, 0, kib(64));
  tb.compute(0, 1'000);
  tb.end_slot(0);
  tb.compute(1, 2'500);
  tb.end_slot(1);
  tb.read(1, 0, 0, kib(64));
  tb.read(1, 1, kib(128), kib(32));
  tb.end_slot(1);
  return tb.build();
}

// `dasched_run --dump-trace` writes exactly this for the sample program:
// every slot of every process (alignment pads process 0 with an empty
// slot), each op as kind, file id, offset and size.
TEST(TraceIo, OutputIsHumanReadable) {
  std::ostringstream out;
  save_trace(sample_trace(), out);
  EXPECT_EQ(out.str(),
            "dasched-trace 1\n"
            "processes 2\n"
            "process 0\n"
            "slot 1000\n"
            "w 0 0 65536\n"
            "slot 0\n"
            "process 1\n"
            "slot 2500\n"
            "slot 0\n"
            "r 0 0 65536\n"
            "r 1 131072 32768\n");
}

}  // namespace
}  // namespace dasched
