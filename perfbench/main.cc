// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload batch_m32|batch_m128|service --seed N
//             --seconds S --trace 0|1
//
// Generates its inputs from the seed, drives the workload through the
// public API, checks the outputs, prints every metric by name with its
// unit, and ends with one JSON line: correct, attempted, failed, metrics.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit code 0 iff every correctness check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      continue;
    }
    const double number = std::strtod(value, &end);
    if (end == value || *end != '\0' || number < 0) {
      perfbench::Die("bad value for " + flag + ": " + value);
    }
    if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') perfbench::Die(std::string("bad seed: ") + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = number;
    } else if (flag == "--trace") {
      args.trace = number != 0;
    } else {
      perfbench::Die("unknown flag " + flag);
    }
  }
  if (!have_seed || args.seconds <= 0) {
    perfbench::Die("usage: perfbench --workload W --seed N --seconds S "
                   "--trace 0|1");
  }
  std::printf("identity: %s\n", perfbench::IdentityJson(args).c_str());

  perfbench::Results results;
  if (args.workload == "batch_m32") {
    perfbench::RunBatch(args, 32, 4096 * 256, &results);
  } else if (args.workload == "batch_m128") {
    perfbench::RunBatch(args, 128, 4096 * 64, &results);
  } else if (args.workload == "service") {
    perfbench::RunService(args, &results);
  } else {
    perfbench::Die("unknown workload '" + args.workload + "'");
  }
  return results.Finish();
}
