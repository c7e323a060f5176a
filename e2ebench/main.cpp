/**
 * @file
 * e2ebench: one run of one benchmark workload, printed as a JSON ledger.
 *
 *   e2ebench --workload=scorecard|undirected|gates --seed=N --seconds=S
 *            [--trace=0|1] [--trace-out=PATH] [--tiny] [--plant-gate-failure]
 *
 * --trace=0 is the timed run: set-up, then the workload repeated until
 * --seconds have passed, reporting the end-to-end metrics. --trace=1 is
 * the traced run: host-clock spans around every public call (written as
 * a Chrome trace to --trace-out) and a serial profile pass, reporting
 * the per-layer metrics. Every pool gets one worker per hardware
 * thread. The last stdout line is the ledger JSON;
 * python3 e2ebench/run.py turns it into the benchmark's result line.
 */
#include <exception>
#include <iostream>
#include <memory>

#include "core/flags.hpp"
#include "core/logging.hpp"
#include "core/thread_pool.hpp"
#include "workloads.hpp"

int
main(int argc, char** argv)
{
    using namespace e2ebench;
    eclsim::Flags flags(argc, argv);

    Options options;
    options.workload = flags.getString("workload", "");
    options.seed = static_cast<u64>(flags.getInt("seed", 12345));
    options.seconds = flags.getDouble("seconds", 10.0);
    options.traced = flags.getInt("trace", 0) != 0;
    options.jobs = eclsim::core::ThreadPool::defaultConcurrency();
    options.tiny = flags.getBool("tiny", false);
    options.plant_gate_failure = flags.getBool("plant-gate-failure", false);
    options.trace_path = flags.getString("trace-out", "");

    const bool table = options.workload == "scorecard" ||
                       options.workload == "undirected";
    if (!table && options.workload != "gates")
        eclsim::fatal("unknown --workload '{}' (expected scorecard, "
                      "undirected or gates)",
                      options.workload);

    Ledger ledger;
    const auto spans =
        options.traced ? std::make_unique<SpanRecorder>() : nullptr;
    try {
        if (table)
            runTableWorkload(options, ledger, spans.get());
        else
            runGatesWorkload(options, ledger, spans.get());
    } catch (const std::exception& e) {
        std::cerr << "e2ebench: " << options.workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }

    ledger.add("peak_rss_mb", peakRssMb(), "MiB");
    if (spans) {
        ledger.add("prof.spans", static_cast<double>(spans->spans()),
                   "count");
        if (!options.trace_path.empty()) {
            if (!spans->write(options.trace_path))
                eclsim::fatal("cannot write trace '{}'", options.trace_path);
            ledger.info("trace", options.trace_path);
        }
    }
    ledger.info("workload", options.workload);
    ledger.info("seed", std::to_string(options.seed));
    ledger.info("jobs", std::to_string(options.jobs));
    ledger.info("compiler", __VERSION__);
    ledger.info("build_type", E2EBENCH_BUILD_TYPE);
    std::cout << ledger.toJson() << std::endl;
    return 0;
}
