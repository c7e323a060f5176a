#include <algorithm>
#include <cctype>

#include "graph/input_catalog.hpp"
#include "workloads.hpp"

namespace e2ebench {

using eclsim::graph::InputCatalog;

std::string
algoKey(eclsim::algos::Algo algo)
{
    std::string key = eclsim::algos::algoName(algo);
    for (char& c : key)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return key;
}

void
timeSetup(const std::vector<InputKey>& keys, double extra_setup_s,
          Ledger& ledger, SpanRecorder* spans)
{
    InputCatalog& catalog = InputCatalog::shared();
    std::vector<double> build_s;
    double total_s = 0.0;
    // At least five builds and at least a second of building, so a
    // small input set still gives a steady median.
    for (u32 rep = 0; (rep < 5 || total_s < 1.0) && rep < 100; ++rep) {
        ScopedSpan span(spans, "workload", "setup",
                        {{"rep", std::to_string(rep)}});
        catalog.clear();
        const double t0 = nowSeconds();
        for (const InputKey& key : keys) {
            if (key.weighted)
                catalog.getWeighted(key.name, key.divisor);
            else
                catalog.get(key.name, key.divisor);
        }
        build_s.push_back(nowSeconds() - t0);
        total_s += build_s.back();
    }
    const double build = medianOf(build_s);
    ledger.add("setup_s", build + extra_setup_s, "s");
    ledger.add("graph.build_s", build, "s");
    ledger.addExact("graph.inputs", catalog.size(), "count");
    ledger.add("graph.resident_mb",
               static_cast<double>(catalog.sizeBytes()) / (1024.0 * 1024.0),
               "MiB");
    ledger.info("setup_samples", std::to_string(build_s.size()));
}

CatalogWindow::CatalogWindow()
    : hits0(InputCatalog::shared().hits()),
      misses0(InputCatalog::shared().misses())
{
}

void
CatalogWindow::addMetrics(Ledger& ledger) const
{
    const InputCatalog& catalog = InputCatalog::shared();
    const double hits = static_cast<double>(catalog.hits() - hits0);
    const double lookups =
        hits + static_cast<double>(catalog.misses() - misses0);
    ledger.add("graph.catalog_hits", hits, "count");
    ledger.add("graph.catalog_lookups", lookups, "count");
    ledger.addRatio("graph.catalog_hit_ratio", hits, lookups, "ratio");
}

void
RunTally::add(eclsim::algos::Algo algo, eclsim::algos::Variant variant,
              double host_s, const eclsim::algos::RunStats& stats)
{
    const int v = variant == eclsim::algos::Variant::kBaseline ? 0 : 1;
    algo_host_s[algoKey(algo)] += host_s;
    host_s_[v] += host_s;
    accesses_[v] += stats.mem.loads + stats.mem.stores + stats.mem.rmws;
    atomic_accesses += stats.mem.atomic_accesses;
    cycles += stats.cycles;
    iterations += stats.iterations;
    launches += stats.launches;
}

void
RunTally::merge(const RunTally& other)
{
    for (const auto& [key, seconds] : other.algo_host_s)
        algo_host_s[key] += seconds;
    for (int v = 0; v < 2; ++v) {
        host_s_[v] += other.host_s_[v];
        accesses_[v] += other.accesses_[v];
    }
    atomic_accesses += other.atomic_accesses;
    cycles += other.cycles;
    iterations += other.iterations;
    launches += other.launches;
}

void
RunTally::addMetrics(Ledger& ledger) const
{
    for (const auto& [key, seconds] : algo_host_s)
        ledger.add("algos." + key + ".host_s", seconds, "s");
    ledger.add("algos.baseline.host_s", host_s_[0], "s");
    ledger.add("algos.racefree.host_s", host_s_[1], "s");
    ledger.addExact("algos.iterations", iterations, "count");
    ledger.addExact("algos.launches", launches, "count");
    ledger.addExact("simt.accesses", accesses(), "count");
    ledger.addExact("simt.atomic_accesses", atomic_accesses, "count");
    ledger.addExact("simt.sim_cycles", cycles, "cycles");
    ledger.addRatio("simt.ns_per_access", hostSeconds() * 1e9,
                    static_cast<double>(accesses()), "ns");
    ledger.addRatio("simt.ns_per_access.baseline", host_s_[0] * 1e9,
                    static_cast<double>(accesses_[0]), "ns");
    ledger.addRatio("simt.ns_per_access.racefree", host_s_[1] * 1e9,
                    static_cast<double>(accesses_[1]), "ns");
    ledger.addRatio("simt.accesses_per_launch",
                    static_cast<double>(accesses()),
                    static_cast<double>(launches), "count");
}

void
addSchedulerMetrics(Ledger& ledger,
                    const std::vector<std::vector<double>>& sweeps,
                    double sched_wall_s, double pass_wall_s,
                    double pass_cpu_s, u32 jobs)
{
    // A sweep's cells cannot finish before max(its serial share per
    // worker, its longest cell); sweeps run one after another.
    const auto bound = [jobs](double serial, double longest) {
        return std::max(serial / static_cast<double>(jobs), longest);
    };
    std::vector<double> cell_s;
    double barrier_bound_s = 0.0;
    for (const auto& sweep : sweeps) {
        double serial = 0.0;
        for (const double s : sweep)
            serial += s;
        barrier_bound_s += bound(serial, maxOf(sweep));
        cell_s.insert(cell_s.end(), sweep.begin(), sweep.end());
    }
    double serial_s = 0.0;
    for (const double s : cell_s)
        serial_s += s;
    const double bound_s = bound(serial_s, maxOf(cell_s));
    ledger.add("harness.barrier_bound_s", barrier_bound_s, "s");
    ledger.addExact("harness.cells", cell_s.size(), "count");
    ledger.add("harness.serial_s", serial_s, "s");
    ledger.add("harness.cell_s.p50", medianOf(cell_s), "s");
    ledger.add("harness.cell_s.max", maxOf(cell_s), "s");
    ledger.add("harness.bound_s", bound_s, "s");
    ledger.add("harness.sched_wall_s", sched_wall_s, "s");
    ledger.add("harness.slack_s", sched_wall_s - bound_s, "s");
    ledger.addRatio("harness.parallel_eff", pass_cpu_s,
                    pass_wall_s * static_cast<double>(jobs), "ratio");
}

}  // namespace e2ebench
