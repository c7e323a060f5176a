/**
 * @file
 * The scorecard and undirected workloads: the paper-table suites.
 *
 * scorecard is the `scorecard` binary's cell set (Tables IV-VIII: one
 * undirected and one SCC suite call per GPU, eight calls); undirected
 * is Tables IV-VII alone (four calls). A timed run repeats the suite
 * calls until --seconds have passed, then re-runs every cell once
 * through harness::runOnce on a pool (the count pass) to total the
 * simulated accesses and to check that the suites' Measurement vector
 * is reproduced bit for bit. A traced run makes one untraced and one
 * traced pass, then a serial profile pass over the same cells.
 */
#include <algorithm>
#include <bit>
#include <future>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "graph/catalog.hpp"
#include "graph/input_catalog.hpp"
#include "harness/experiment.hpp"
#include "workloads.hpp"

namespace e2ebench {

namespace {

using namespace eclsim;
using harness::Algo;
using harness::Measurement;

/** One harness suite call. */
struct SuiteCall
{
    const simt::GpuSpec* gpu = nullptr;
    bool scc = false;

    std::string
    label() const
    {
        return gpu->name + (scc ? "/scc" : "/undirected");
    }
};

/** The suite calls of a workload, in the scorecard binary's order. */
std::vector<SuiteCall>
suiteCalls(bool scorecard)
{
    std::vector<SuiteCall> calls;
    for (const auto& gpu : simt::evaluationGpus()) {
        calls.push_back({&gpu, false});
        if (scorecard)
            calls.push_back({&gpu, true});
    }
    return calls;
}

/** Every catalog entry the suites read (MST reads the weighted copy). */
std::vector<InputKey>
tableInputs(bool scorecard, u32 divisor)
{
    std::vector<InputKey> keys;
    for (const auto& entry : graph::undirectedCatalog()) {
        keys.push_back({entry.name, divisor, false});
        keys.push_back({entry.name, divisor, true});
    }
    if (scorecard)
        for (const auto& entry : graph::directedCatalog())
            keys.push_back({entry.name, divisor, false});
    return keys;
}

/** One pass over the workload's suite calls. */
struct Pass
{
    std::vector<std::vector<Measurement>> suites;  ///< one per call
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double undirected_s = 0.0;
    double scc_s = 0.0;
};

Pass
runPass(const std::vector<SuiteCall>& calls,
        const harness::ExperimentConfig& config, SpanRecorder* spans,
        const std::string& name)
{
    harness::ProgressFn progress;
    if (spans) {
        progress = [spans](const Measurement& m) {
            spans->instant("cells",
                           std::string(harness::algoName(m.algo)) + "/" +
                               m.input,
                           {{"gpu", m.gpu}});
        };
    }
    ScopedSpan span(spans, "workload", name);
    Pass pass;
    const double t0 = nowSeconds();
    const double c0 = cpuSeconds();
    for (const SuiteCall& call : calls) {
        ScopedSpan suite(spans, "workload", call.label());
        const double s0 = nowSeconds();
        pass.suites.push_back(
            call.scc ? harness::runSccSuite(*call.gpu, config, progress)
                     : harness::runUndirectedSuite(*call.gpu, config,
                                                   progress));
        (call.scc ? pass.scc_s : pass.undirected_s) += nowSeconds() - s0;
    }
    pass.wall_s = nowSeconds() - t0;
    pass.cpu_s = cpuSeconds() - c0;
    return pass;
}

bool
sameMeasurement(const Measurement& a, const Measurement& b)
{
    return a.input == b.input && a.algo == b.algo && a.gpu == b.gpu &&
           std::bit_cast<u64>(a.baseline_ms) ==
               std::bit_cast<u64>(b.baseline_ms) &&
           std::bit_cast<u64>(a.racefree_ms) ==
               std::bit_cast<u64>(b.racefree_ms) &&
           a.baseline_iterations == b.baseline_iterations &&
           a.racefree_iterations == b.racefree_iterations;
}

bool
samePass(const Pass& a, const Pass& b)
{
    if (a.suites.size() != b.suites.size())
        return false;
    for (size_t s = 0; s < a.suites.size(); ++s) {
        if (a.suites[s].size() != b.suites[s].size())
            return false;
        for (size_t c = 0; c < a.suites[s].size(); ++c)
            if (!sameMeasurement(a.suites[s][c], b.suites[s][c]))
                return false;
    }
    return true;
}

std::vector<Measurement>
flatten(const Pass& pass)
{
    std::vector<Measurement> all;
    for (const auto& suite : pass.suites)
        all.insert(all.end(), suite.begin(), suite.end());
    return all;
}

/** FNV-1a of every cell's %.17g simulated ms and iteration counts. */
std::string
digestOf(const std::vector<Measurement>& all)
{
    std::string text;
    for (const Measurement& m : all) {
        text += m.gpu + "|" + harness::algoName(m.algo) + "|" + m.input +
                "|" + exactDouble(m.baseline_ms) + "|" +
                exactDouble(m.racefree_ms) + "|" +
                std::to_string(m.baseline_iterations) + "|" +
                std::to_string(m.racefree_iterations) + "\n";
    }
    return fnv1a64Hex(text);
}

/**
 * The scorecard binary's shape verdicts (those that apply). "MIS faster
 * race-free" is reported but not counted: at reps=1 its A100 and 4090
 * geomeans sit within seed noise of the 1.0 threshold (1.0005-1.03 over
 * seeds 1-11), so it would fail on a correct program at some seeds. At
 * a recorded seed the digest pins every cell, this verdict included.
 */
void
shapeChecks(const std::vector<Measurement>& all, bool scorecard,
            Ledger& ledger)
{
    const auto verdict = [&ledger](bool ok, const std::string& what,
                                   double value) {
        ledger.check("shape: " + what, ok, "geomean " + exactDouble(value));
    };
    const auto report = [&ledger](bool ok, const std::string& what,
                                  double value) {
        ledger.info("shape: " + what, std::string(ok ? "PASS" : "FAIL") +
                                          " geomean " + exactDouble(value));
    };
    double mildest_ccscc = 1e9;
    double newest_ccscc = 0.0;
    for (const auto& gpu : simt::evaluationGpus()) {
        const auto geo = [&](Algo algo) {
            return harness::geomeanSpeedup(all, algo, gpu.name);
        };
        const double cc = geo(Algo::kCc);
        const double gc = geo(Algo::kGc);
        const double mis = geo(Algo::kMis);
        const double mst = geo(Algo::kMst);
        verdict(cc < 0.9, "CC substantially slower on " + gpu.name, cc);
        verdict(gc >= 0.90 && gc <= 1.02,
                "GC nearly unaffected on " + gpu.name, gc);
        verdict(mst >= 0.90 && mst <= 1.02,
                "MST nearly unaffected on " + gpu.name, mst);
        report(mis >= 1.0, "MIS faster race-free on " + gpu.name, mis);
        if (!scorecard)
            continue;
        const double scc = geo(Algo::kScc);
        verdict(scc < 0.9, "SCC substantially slower on " + gpu.name, scc);
        mildest_ccscc = std::min(mildest_ccscc, cc * scc);
        if (gpu.name == "4090")
            newest_ccscc = cc * scc;
    }
    if (scorecard)
        verdict(newest_ccscc <= mildest_ccscc * 1.05,
                "newest GPU among the most affected (Fig. 6 trend)",
                newest_ccscc);
}

/** Serial host seconds of one cell and whether runOnce reproduced it. */
struct CellProfile
{
    double host_s = 0.0;
    bool reproduced = true;
};

/**
 * Re-run every cell of a pass through harness::runOnce, once per
 * variant and rep with the suite's seeds (rep r of cell c runs with
 * cellSeed(config.seed, c) + r). jobs == 1 is the serial profile;
 * jobs > 1 spreads cells over a pool, SCC cells (the long tail) first.
 */
std::vector<CellProfile>
profileCells(const std::vector<SuiteCall>& calls, const Pass& pass,
             const harness::ExperimentConfig& config, u32 jobs,
             SpanRecorder* spans, RunTally& tally)
{
    struct Task
    {
        size_t call = 0;
        size_t cell = 0;
        size_t slot = 0;
    };
    std::vector<Task> tasks;
    for (size_t s = 0; s < calls.size(); ++s)
        for (size_t c = 0; c < pass.suites[s].size(); ++c)
            tasks.push_back({s, c, tasks.size()});
    if (jobs > 1)
        std::stable_partition(tasks.begin(), tasks.end(),
                              [&](const Task& t) { return calls[t.call].scc; });

    std::vector<CellProfile> profiles(tasks.size());
    std::vector<RunTally> tallies(tasks.size());
    const auto runCell = [&](const Task& task) {
        const Measurement& m = pass.suites[task.call][task.cell];
        auto& catalog = graph::InputCatalog::shared();
        const graph::GraphPtr graph =
            m.algo == Algo::kMst
                ? catalog.getWeighted(m.input, config.graph_divisor)
                : catalog.get(m.input, config.graph_divisor);
        ScopedSpan span(spans, "profile",
                        std::string(harness::algoName(m.algo)) + "/" +
                            m.input,
                        {{"gpu", m.gpu}});
        const u64 seed_base = cellSeed(config.seed, task.cell);
        std::vector<double> ms[2];
        u32 iterations[2] = {0, 0};
        CellProfile& profile = profiles[task.slot];
        for (u32 rep = 0; rep < config.reps; ++rep) {
            for (const auto variant :
                 {algos::Variant::kBaseline, algos::Variant::kRaceFree}) {
                const int v = variant == algos::Variant::kBaseline ? 0 : 1;
                algos::RunStats stats;
                const double t0 = nowSeconds();
                ms[v].push_back(harness::runOnce(*calls[task.call].gpu,
                                                 *graph, m.algo, variant,
                                                 config, seed_base + rep,
                                                 &stats));
                const double dt = nowSeconds() - t0;
                profile.host_s += dt;
                tallies[task.slot].add(m.algo, variant, dt, stats);
                iterations[v] = stats.iterations;
            }
        }
        Measurement again = m;
        again.baseline_ms = medianOf(ms[0]);
        again.racefree_ms = medianOf(ms[1]);
        again.baseline_iterations = iterations[0];
        again.racefree_iterations = iterations[1];
        profile.reproduced = sameMeasurement(again, m);
    };

    if (jobs <= 1) {
        for (const Task& task : tasks)
            runCell(task);
    } else {
        core::ThreadPool pool(jobs);
        std::vector<std::future<void>> done;
        for (const Task& task : tasks)
            done.push_back(pool.submit([&runCell, task] { runCell(task); }));
        for (auto& future : done)
            future.get();
    }
    for (const RunTally& t : tallies)
        tally.merge(t);
    return profiles;
}

void
reproductionCheck(const std::vector<CellProfile>& profiles,
                  const std::string& what, Ledger& ledger)
{
    size_t bad = 0;
    for (const CellProfile& p : profiles)
        bad += p.reproduced ? 0 : 1;
    ledger.check(what + " reproduces the suites' Measurement vector", bad == 0,
                 std::to_string(bad) + " of " +
                     std::to_string(profiles.size()) + " cells differ");
}

}  // namespace

void
runTableWorkload(const Options& options, Ledger& ledger, SpanRecorder* spans)
{
    const bool scorecard = options.workload == "scorecard";
    harness::ExperimentConfig config;
    config.reps = 1;
    config.graph_divisor = options.tiny ? 8192 : 1024;
    config.seed = options.seed;
    config.jobs = options.jobs;
    const auto calls = suiteCalls(scorecard);
    ledger.info("divisor", std::to_string(config.graph_divisor));

    ScopedSpan workload(spans, "workload", options.workload);
    timeSetup(tableInputs(scorecard, config.graph_divisor), 0.0, ledger,
              spans);

    Pass first;
    RunTally tally;
    if (!options.traced) {
        CatalogWindow window;
        std::vector<double> walls, cpus;
        bool repeatable = true;
        const double t0 = nowSeconds();
        do {
            Pass pass = runPass(calls, config, nullptr, "timed");
            walls.push_back(pass.wall_s);
            cpus.push_back(pass.cpu_s);
            if (walls.size() == 1)
                first = std::move(pass);
            else
                repeatable = repeatable && samePass(first, pass);
        } while (nowSeconds() - t0 < options.seconds);
        window.addMetrics(ledger);
        ledger.check("every timed pass returns identical measurements",
                     repeatable, std::to_string(walls.size()) + " passes");

        const auto profiles =
            profileCells(calls, first, config, options.jobs, nullptr, tally);
        reproductionCheck(profiles, "count pass", ledger);

        const double wall = medianOf(walls);
        ledger.add("wall_s", wall, "s");
        ledger.add("cpu_s", medianOf(cpus), "s");
        ledger.addRatio("sim_maccess_per_s",
                        static_cast<double>(tally.accesses()) / 1e6, wall,
                        "M/s");
        ledger.info("wall_samples_s", joined(walls));
    } else {
        const Pass untraced = runPass(calls, config, nullptr, "untraced");
        CatalogWindow window;
        first = runPass(calls, config, spans, "traced");
        window.addMetrics(ledger);
        ledger.check("traced pass returns the untraced measurements",
                     samePass(untraced, first));

        const auto profiles =
            profileCells(calls, first, config, 1, spans, tally);
        reproductionCheck(profiles, "serial profile", ledger);

        // profiles are in call order, cells in suite order.
        std::vector<std::vector<double>> sweeps;
        size_t next = 0;
        for (const auto& suite : first.suites) {
            sweeps.emplace_back();
            for (size_t c = 0; c < suite.size(); ++c)
                sweeps.back().push_back(profiles[next++].host_s);
        }
        addSchedulerMetrics(ledger, sweeps, untraced.wall_s, untraced.wall_s,
                            untraced.cpu_s, options.jobs);
        ledger.add("harness.undirected_suite_s", untraced.undirected_s, "s");
        if (scorecard)
            ledger.add("harness.scc_suite_s", untraced.scc_s, "s");
        ledger.addRatio("prof.trace_overhead",
                        first.wall_s - untraced.wall_s, untraced.wall_s,
                        "ratio");
        ledger.add("wall_s", untraced.wall_s, "s");
        ledger.add("cpu_s", untraced.cpu_s, "s");
        ledger.addRatio("sim_maccess_per_s",
                        static_cast<double>(tally.accesses()) / 1e6,
                        untraced.wall_s, "M/s");
        ledger.info("wall_samples_s", exactDouble(untraced.wall_s));
    }
    tally.addMetrics(ledger);

    const auto all = flatten(first);
    shapeChecks(all, scorecard, ledger);
    ledger.info("digest", digestOf(all));
    ledger.info("cells", std::to_string(all.size()));
}

}  // namespace e2ebench
