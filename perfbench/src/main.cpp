// ntr_perfbench: runs one benchmark workload and prints its result as one
// JSON line. perfbench/run.py builds it and wraps it in the benchmark's
// command-line contract.
//
//   ntr_perfbench --workload paper_tables|large_nets|serve_mix --seed N
//                 --seconds S --trace 0|1 [--serve-bin PATH] [--trace-out PATH]

#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench.h"
#include "serve/json.h"

namespace {

void print_result(const perfbench::RunResult& r) {
  using ntr::serve::Json;
  Json metrics = Json::object();
  for (const auto& [name, metric] : r.metrics) {
    // A non-finite value has no JSON number; null makes the wrapper reject
    // the run.
    metrics.set(name, Json::object({{"value", std::isfinite(metric.value)
                                                  ? Json::number(metric.value)
                                                  : Json{}},
                                    {"unit", Json::string(metric.unit)}}));
  }
  Json out = Json::object();
  out.set("correct", Json::boolean(r.correct));
  out.set("attempted", Json::number(static_cast<double>(r.attempted)));
  out.set("failed", Json::number(static_cast<double>(r.failed)));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument(flag + " expects a value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--serve-bin") {
        options.serve_bin = value;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ntr_perfbench: %s\n", e.what());
    return 2;
  }

  try {
    perfbench::RunResult result = options.workload == "serve_mix"
                                      ? perfbench::run_serve_mix(options)
                                      : perfbench::run_batch(options);
    for (const std::string& note : result.notes)
      std::fprintf(stderr, "ntr_perfbench: %s\n", note.c_str());
    print_result(result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ntr_perfbench: %s\n", e.what());
    return 1;
  }
}
