/**
 * @file
 * The benchmark's workloads and the layer accounting they share.
 *
 * Every workload is a single closed-loop caller: it issues one sweep at
 * a time through the modules' public entry points and times the calls
 * from outside. No file under src/ is instrumented.
 */
#pragma once

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "algos/common.hpp"
#include "ledger.hpp"

namespace e2ebench {

/** One InputCatalog entry a workload reads. */
struct InputKey
{
    std::string name;
    u32 divisor = 0;
    bool weighted = false;  ///< the MST copy (InputCatalog::getWeighted)

    bool operator<(const InputKey& o) const
    {
        return std::tie(name, divisor, weighted) <
               std::tie(o.name, o.divisor, o.weighted);
    }
};

/** Lower-case algorithm name, as used in metric names ("cc"). */
std::string algoKey(eclsim::algos::Algo algo);

/**
 * Build every key into a cold InputCatalog::shared() at least five times
 * and for at least a second, and add the graph-layer set-up metrics
 * (setup_s is the median build plus `extra_setup_s`). The catalog is
 * left populated.
 */
void timeSetup(const std::vector<InputKey>& keys, double extra_setup_s,
               Ledger& ledger, SpanRecorder* spans);

/** Catalog lookups and hits since a snapshot. */
struct CatalogWindow
{
    CatalogWindow();
    /** Add graph.catalog_{hits,lookups,hit_ratio} for the window. */
    void addMetrics(Ledger& ledger) const;

    u64 hits0 = 0;
    u64 misses0 = 0;
};

/** Per-run host time and simulated work of the algos and simt layers. */
struct RunTally
{
    void add(eclsim::algos::Algo algo, eclsim::algos::Variant variant,
             double host_s, const eclsim::algos::RunStats& stats);
    void merge(const RunTally& other);
    void addMetrics(Ledger& ledger) const;
    u64 accesses() const { return accesses_[0] + accesses_[1]; }
    double hostSeconds() const { return host_s_[0] + host_s_[1]; }

    std::map<std::string, double> algo_host_s;
    double host_s_[2] = {0.0, 0.0};  ///< by variant
    u64 accesses_[2] = {0, 0};       ///< by variant
    u64 atomic_accesses = 0;
    u64 cycles = 0;
    u64 iterations = 0;
    u64 launches = 0;
};

/**
 * Scheduler-layer metrics (harness.*) from serial per-cell seconds,
 * grouped by sweep (one suite call or gate sweep; the caller waits for
 * each before starting the next), and the wall/CPU of the parallel pass
 * that scheduled the same cells.
 */
void addSchedulerMetrics(Ledger& ledger,
                         const std::vector<std::vector<double>>& sweeps,
                         double sched_wall_s, double pass_wall_s,
                         double pass_cpu_s, u32 jobs);

/** scorecard / undirected: the paper-table suites. */
void runTableWorkload(const Options& options, Ledger& ledger,
                      SpanRecorder* spans);

/** gates: racecheck, staticrace, chaos, and repair at their defaults. */
void runGatesWorkload(const Options& options, Ledger& ledger,
                      SpanRecorder* spans);

}  // namespace e2ebench
