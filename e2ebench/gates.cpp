/**
 * @file
 * The gates workload: the race-freedom gate (17 interleaved detector
 * cells), the staticrace soundness gate (static probe sweep, its own
 * dynamic sweep, coverage), the default chaos benignity campaign plus
 * the drop-atomic MST slice that must be caught, and the repair advisor
 * for cc, mis and pr — each at its binary's defaults.
 *
 * A timed run repeats the whole gate set until --seconds have passed. A
 * traced run makes one untraced and one traced pass, then a serial
 * profile: every racecheck, staticrace and chaos cell once through its
 * public per-cell entry point, and the racecheck cells once more through
 * harness::runOnce in ExecMode::kInterleaved with no detector attached,
 * which splits a detector cell's time into scheduler and detector.
 */
#include <algorithm>
#include <set>
#include <utility>

#include "chaos/campaign.hpp"
#include "core/rng.hpp"
#include "graph/input_catalog.hpp"
#include "harness/experiment.hpp"
#include "racecheck/runner.hpp"
#include "repair/advisor.hpp"
#include "staticrace/runner.hpp"
#include "workloads.hpp"

namespace e2ebench {

namespace {

using namespace eclsim;
using harness::Algo;

/** The gate set's configurations. */
struct GateConfigs
{
    racecheck::RunnerConfig race;
    chaos::CampaignConfig benign;
    chaos::CampaignConfig drop;
    std::vector<repair::AdvisorConfig> repairs;
};

GateConfigs
gateConfigs(const Options& options)
{
    GateConfigs g;
    g.race.seed = options.seed;
    g.race.jobs = options.jobs;
    g.benign.seed = options.seed;
    g.benign.jobs = options.jobs;
    g.drop.policies = {chaos::PolicyKind::kDropAtomic};
    g.drop.algos = {Algo::kMst};
    g.drop.undirected_inputs = {"internet"};
    g.drop.intensity = 1.0;
    g.drop.seed = options.seed;
    g.drop.jobs = options.jobs;
    if (options.tiny) {
        g.race.include_apsp = false;
        g.benign.algos = {Algo::kCc};
        g.benign.seeds_per_cell = 1;
    }
    for (const Algo algo : {Algo::kCc, Algo::kMis, Algo::kPr}) {
        repair::AdvisorConfig config;
        config.algo = algo;
        config.seed = options.seed;
        config.jobs = options.jobs;
        if (options.tiny) {
            config.measure_divisor = config.detect_divisor;
            config.reps = 1;
            config.exposure_seeds = 1;
        }
        g.repairs.push_back(config);
    }
    return g;
}

/** Every catalog entry the gate set reads. */
std::vector<InputKey>
gateInputs(const GateConfigs& g)
{
    std::set<InputKey> keys;
    for (const auto& cell : racecheck::racecheckCells(g.race))
        if (!cell.apsp)
            keys.insert({cell.input, g.race.graph_divisor,
                         cell.algo == Algo::kMst});
    for (const auto* campaign : {&g.benign, &g.drop})
        for (const auto& cell : chaos::campaignCells(*campaign))
            keys.insert({cell.input, campaign->graph_divisor,
                         cell.algo == Algo::kMst});
    for (const auto& config : g.repairs) {
        // runAdvisor's default detection input for the direction.
        const std::string input =
            !config.input.empty() ? config.input
            : algos::algoNeedsDirected(config.algo) ? "wikipedia"
                                                    : "rmat22.sym";
        const bool weighted = config.algo == Algo::kMst;
        keys.insert({input, config.detect_divisor, weighted});
        keys.insert({input, config.measure_divisor, weighted});
    }
    return {keys.begin(), keys.end()};
}

/** One pass over the gate set. */
struct GatePass
{
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double racecheck_s = 0.0;
    double static_probe_s = 0.0;
    double static_dynamic_s = 0.0;
    double soundness_s = 0.0;
    double chaos_s = 0.0;
    double drop_s = 0.0;
    std::vector<double> repair_s;  ///< per GateConfigs::repairs entry

    std::vector<racecheck::CellResult> races;
    racecheck::GateResult gate;
    std::vector<staticrace::StaticCellResult> statics;
    std::vector<racecheck::CellResult> dynamics;
    staticrace::SoundnessResult soundness;
    std::vector<chaos::CellOutcome> benign;
    std::vector<chaos::CellOutcome> dropped;
    std::vector<repair::AdvisorResult> repairs;

    /** Wall time of the cell-parallel sweeps (the scheduler layer). */
    double
    sweepWall() const
    {
        return racecheck_s + static_probe_s + static_dynamic_s + chaos_s +
               drop_s;
    }
};

/** Make the race-freedom gate fail: drop the races of the first racing
 *  baseline cell, which the gate requires to keep reporting them. */
void
plantGateFailure(std::vector<racecheck::CellResult>& results)
{
    for (auto& result : results) {
        if (!result.cell.apsp &&
            result.cell.variant == algos::Variant::kBaseline &&
            !result.races.empty()) {
            result.races.clear();
            result.total_pairs = 0;
            return;
        }
    }
}

GatePass
runGatePass(const GateConfigs& g, const Options& options,
            SpanRecorder* spans, const std::string& name)
{
    racecheck::RacecheckProgressFn race_progress;
    staticrace::StaticraceProgressFn static_progress;
    chaos::CampaignProgressFn chaos_progress;
    if (spans) {
        race_progress = [spans](const racecheck::CellResult& r) {
            spans->instant("cells", "racecheck/" + racecheck::cellName(r.cell));
        };
        static_progress = [spans](const staticrace::StaticCellResult& r) {
            spans->instant("cells",
                           "staticrace/" + racecheck::cellName(r.cell));
        };
        chaos_progress = [spans](const chaos::CellOutcome& o) {
            spans->instant("cells",
                           std::string(chaos::policyName(o.cell.policy)) +
                               "/" + algos::algoName(o.cell.algo) + "/" +
                               o.cell.input);
        };
    }
    const auto stage = [spans](const std::string& label, double& seconds,
                               const auto& fn) {
        ScopedSpan span(spans, "workload", label);
        const double t0 = nowSeconds();
        fn();
        seconds = nowSeconds() - t0;
    };

    ScopedSpan span(spans, "workload", name);
    GatePass p;
    const double t0 = nowSeconds();
    const double c0 = cpuSeconds();
    stage("racecheck", p.racecheck_s, [&] {
        p.races = racecheck::runRacecheck(g.race, race_progress);
        if (options.plant_gate_failure)
            plantGateFailure(p.races);
        p.gate = racecheck::evaluateGate(g.race, p.races);
    });
    {
        ScopedSpan staticrace(spans, "workload", "staticrace");
        stage("staticrace/probe", p.static_probe_s, [&] {
            p.statics = staticrace::runStaticrace(g.race, static_progress);
        });
        stage("staticrace/dynamic", p.static_dynamic_s, [&] {
            p.dynamics = racecheck::runRacecheck(g.race, race_progress);
        });
        stage("staticrace/soundness", p.soundness_s, [&] {
            p.soundness =
                staticrace::evaluateSoundness(g.race, p.statics, p.dynamics);
        });
    }
    {
        ScopedSpan chaos(spans, "workload", "chaos");
        stage("chaos/benign", p.chaos_s, [&] {
            p.benign = chaos::runCampaign(g.benign, chaos_progress);
        });
        stage("chaos/drop-atomic", p.drop_s, [&] {
            p.dropped = chaos::runCampaign(g.drop, chaos_progress);
        });
    }
    {
        ScopedSpan repair(spans, "workload", "repair");
        for (const auto& config : g.repairs) {
            p.repair_s.push_back(0.0);
            stage(std::string("repair/") + algos::algoName(config.algo),
                  p.repair_s.back(),
                  [&] { p.repairs.push_back(repair::runAdvisor(config)); });
        }
    }
    p.wall_s = nowSeconds() - t0;
    p.cpu_s = cpuSeconds() - c0;
    return p;
}

u64
totalChecks(const std::vector<racecheck::CellResult>& results)
{
    u64 checks = 0;
    for (const auto& r : results)
        checks += r.checks;
    return checks;
}

u64
perturbEvents(const std::vector<chaos::CellOutcome>& outcomes)
{
    u64 events = 0;
    for (const auto& o : outcomes)
        events += o.stale_reads + o.delayed_stores + o.dup_stores +
                  o.dropped_atomics + o.snapshot_skips;
    return events;
}

/** Dynamic race pairs of the soundness gate, and how many it covered. */
std::pair<u64, u64>
coverage(const GatePass& p)
{
    u64 dynamic = 0, covered = 0;
    for (const auto& row : p.soundness.rows) {
        dynamic += row.dynamic_races;
        covered += row.covered;
    }
    return {dynamic, covered};
}

u64
staticSamples(const GatePass& p)
{
    u64 samples = 0;
    for (const auto& s : p.statics)
        samples += s.samples;
    return samples;
}

/** The exact counts a pass produced, as one comparable string. */
std::string
signature(const GatePass& p)
{
    std::string s;
    for (const auto* sweep : {&p.races, &p.dynamics})
        for (const auto& r : *sweep)
            s += std::to_string(r.checks) + "/" +
                 std::to_string(r.total_pairs) + "/" +
                 std::to_string(r.races.size()) + " ";
    for (const auto& row : p.soundness.rows)
        s += std::to_string(row.covered) + "/" +
             std::to_string(row.static_pairs) + " ";
    for (const auto* outcomes : {&p.benign, &p.dropped})
        for (const auto& o : *outcomes)
            s += std::to_string(o.valid) + "/" +
                 std::to_string(o.iterations) + " ";
    for (const auto& r : p.repairs)
        s += std::to_string(r.rows.size()) + "/" +
             std::to_string(r.fixpoint_rounds) + " ";
    return s;
}

void
gateChecks(const GatePass& p, const GateConfigs& g, Ledger& ledger)
{
    ledger.check("racecheck gate passes", p.gate.pass,
                 p.gate.failures.empty() ? "" : p.gate.failures.front());
    ledger.check("staticrace soundness gate passes", p.soundness.pass,
                 p.soundness.failures.empty() ? ""
                                              : p.soundness.failures.front());
    const auto [dynamic, covered] = coverage(p);
    ledger.check("every dynamic race pair is statically covered",
                 covered == dynamic,
                 std::to_string(covered) + "/" + std::to_string(dynamic));
    const u64 benign = chaos::countViolations(p.benign);
    ledger.check("benign chaos policies produce no violations", benign == 0,
                 std::to_string(benign) + " violations");
    const u64 caught = chaos::countViolations(p.dropped);
    ledger.check("drop-atomic MST slice is caught", caught > 0,
                 std::to_string(caught) + " of " +
                     std::to_string(p.dropped.size()) + " cells");
    for (size_t i = 0; i < p.repairs.size(); ++i)
        ledger.check(std::string("repair advisor clean on ") +
                         algos::algoName(g.repairs[i].algo),
                     repair::advisorClean(p.repairs[i]),
                     std::to_string(p.repairs[i].rows.size()) + " sites");
}

/** Per-stage counts and walls of one pass (racecheck, staticrace,
 *  chaos, repair layers). */
void
addStageMetrics(const GatePass& p, const GateConfigs& g, Ledger& ledger)
{
    ledger.add("racecheck.s", p.racecheck_s, "s");
    ledger.addExact("racecheck.cells", p.races.size(), "count");
    ledger.addExact("racecheck.checks", totalChecks(p.races), "count");
    u64 pairs = 0;
    for (const auto& r : p.races)
        pairs += r.total_pairs;
    ledger.addExact("racecheck.pairs", pairs, "count");

    u64 top = 0, static_pairs = 0;
    for (const auto& s : p.statics) {
        top += s.top_sites;
        static_pairs += s.pairs.size();
    }
    const auto [dynamic, covered] = coverage(p);
    ledger.add("staticrace.s",
               p.static_probe_s + p.static_dynamic_s + p.soundness_s, "s");
    ledger.add("staticrace.probe_s", p.static_probe_s, "s");
    ledger.add("staticrace.dynamic_s", p.static_dynamic_s, "s");
    ledger.add("staticrace.soundness_s", p.soundness_s, "s");
    ledger.addExact("staticrace.samples", staticSamples(p), "count");
    ledger.addExact("staticrace.top_sites", top, "count");
    ledger.addExact("staticrace.pairs", static_pairs, "count");
    ledger.addExact("staticrace.covered", covered, "count");
    ledger.addExact("staticrace.dynamic_pairs", dynamic, "count");
    ledger.addRatio("staticrace.coverage", static_cast<double>(covered),
                    static_cast<double>(dynamic), "ratio");

    ledger.add("chaos.s", p.chaos_s + p.drop_s, "s");
    ledger.addExact("chaos.cells", p.benign.size() + p.dropped.size(),
                    "count");
    ledger.addExact("chaos.perturb_events",
                    perturbEvents(p.benign) + perturbEvents(p.dropped),
                    "count");
    ledger.addExact("chaos.violations",
                    chaos::countViolations(p.benign) +
                        chaos::countViolations(p.dropped),
                    "count");

    u64 rounds = 0, sites = 0;
    for (size_t i = 0; i < p.repairs.size(); ++i) {
        ledger.add("repair." + algoKey(g.repairs[i].algo) + ".s",
                   p.repair_s[i], "s");
        rounds += p.repairs[i].fixpoint_rounds;
        sites += p.repairs[i].rows.size();
    }
    ledger.addExact("repair.rounds", rounds, "count");
    ledger.addExact("repair.sites", sites, "count");
}

/** Simulated accesses the pass's detectors and probes examined. */
u64
examinedAccesses(const GatePass& p)
{
    return totalChecks(p.races) + totalChecks(p.dynamics) + staticSamples(p);
}

/** The serial profile of a traced run (see file comment). */
void
profileGates(const GatePass& pass, const GateConfigs& g,
             const Options& options, const GatePass& untraced,
             SpanRecorder* spans, Ledger& ledger)
{
    const auto cells = racecheck::racecheckCells(g.race);
    std::vector<double> race_cell_s;
    double race_nonapsp_s = 0.0;
    size_t race_mismatch = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
        ScopedSpan span(spans, "profile",
                        "racecheck/" + racecheck::cellName(cells[i]));
        const double t0 = nowSeconds();
        const auto result = racecheck::runRacecheckCell(
            g.race, cells[i], cellSeed(g.race.seed, i));
        const double dt = nowSeconds() - t0;
        race_cell_s.push_back(dt);
        if (!cells[i].apsp)
            race_nonapsp_s += dt;
        // Compared with the soundness gate's sweep, which a planted gate
        // failure leaves untouched.
        race_mismatch += result.checks != pass.dynamics[i].checks ||
                         result.total_pairs != pass.dynamics[i].total_pairs;
    }
    ledger.check("serial racecheck cells reproduce the sweep",
                 race_mismatch == 0,
                 std::to_string(race_mismatch) + " cells differ");

    // Interleaved scheduler alone: same cells, seeds and engine mode,
    // no detector.
    harness::ExperimentConfig interleaved;
    interleaved.exec_mode = simt::ExecMode::kInterleaved;
    interleaved.cache_divisor = g.race.cache_divisor;
    RunTally tally;
    auto& catalog = graph::InputCatalog::shared();
    for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].apsp)
            continue;
        const graph::GraphPtr graph =
            cells[i].algo == Algo::kMst
                ? catalog.getWeighted(cells[i].input, g.race.graph_divisor)
                : catalog.get(cells[i].input, g.race.graph_divisor);
        ScopedSpan span(spans, "profile",
                        "interleaved/" + racecheck::cellName(cells[i]));
        algos::RunStats stats;
        const double t0 = nowSeconds();
        harness::runOnce(simt::findGpu(g.race.gpu), *graph, cells[i].algo,
                         cells[i].variant, interleaved,
                         cellSeed(g.race.seed, i), &stats);
        tally.add(cells[i].algo, cells[i].variant, nowSeconds() - t0, stats);
    }
    tally.addMetrics(ledger);
    const double interleaved_s = tally.hostSeconds();
    ledger.add("simt.interleaved_s", interleaved_s, "s");
    ledger.addRatio("simt.interleaved_ns_per_access", interleaved_s * 1e9,
                    static_cast<double>(tally.accesses()), "ns");

    const u64 checks = totalChecks(pass.races);
    double race_serial_s = 0.0;
    for (const double s : race_cell_s)
        race_serial_s += s;
    ledger.add("racecheck.serial_s", race_serial_s, "s");
    ledger.add("racecheck.cell_s.max", maxOf(race_cell_s), "s");
    ledger.addRatio("racecheck.ns_per_check", race_serial_s * 1e9,
                    static_cast<double>(checks), "ns");
    ledger.add("racecheck.detector_s", race_nonapsp_s - interleaved_s, "s");

    std::vector<double> static_cell_s;
    for (size_t i = 0; i < cells.size(); ++i) {
        ScopedSpan span(spans, "profile",
                        "staticrace/" + racecheck::cellName(cells[i]));
        const double t0 = nowSeconds();
        staticrace::runStaticraceCell(g.race, cells[i],
                                      cellSeed(g.race.seed, i));
        static_cell_s.push_back(nowSeconds() - t0);
    }

    // The pass's sweeps in order; the soundness gate's dynamic sweep
    // runs the racecheck cells again.
    std::vector<std::vector<double>> sweeps = {race_cell_s, static_cell_s,
                                               race_cell_s};
    size_t chaos_mismatch = 0;
    for (const auto& [config, outcomes] :
         {std::pair{&g.benign, &pass.benign},
          std::pair{&g.drop, &pass.dropped}}) {
        const auto campaign = chaos::campaignCells(*config);
        std::vector<double>& chaos_cell_s = sweeps.emplace_back();
        for (size_t i = 0; i < campaign.size(); ++i) {
            ScopedSpan span(spans, "profile",
                            std::string("chaos/") +
                                chaos::policyName(campaign[i].policy) + "/" +
                                algos::algoName(campaign[i].algo) + "/" +
                                campaign[i].input);
            const double t0 = nowSeconds();
            const auto outcome = chaos::runCampaignCell(
                *config, campaign[i], cellSeed(config->seed, i), nullptr);
            chaos_cell_s.push_back(nowSeconds() - t0);
            chaos_mismatch += outcome.valid != (*outcomes)[i].valid ||
                              outcome.iterations != (*outcomes)[i].iterations;
        }
    }
    ledger.check("serial chaos cells reproduce the campaigns",
                 chaos_mismatch == 0,
                 std::to_string(chaos_mismatch) + " cells differ");
    ledger.add("chaos.cell_s.max",
               std::max(maxOf(sweeps[3]), maxOf(sweeps[4])), "s");

    addSchedulerMetrics(ledger, sweeps, untraced.sweepWall(),
                        untraced.wall_s, untraced.cpu_s, options.jobs);
}

}  // namespace

void
runGatesWorkload(const Options& options, Ledger& ledger, SpanRecorder* spans)
{
    const GateConfigs g = gateConfigs(options);
    ScopedSpan workload(spans, "workload", options.workload);

    double registry_s = 0.0;
    {
        ScopedSpan span(spans, "workload", "setup/site-registry");
        const double t0 = nowSeconds();
        racecheck::populateSiteRegistry();
        registry_s = nowSeconds() - t0;
    }
    ledger.add("racecheck.site_registry_s", registry_s, "s");
    timeSetup(gateInputs(g), registry_s, ledger, spans);

    GatePass first;
    if (!options.traced) {
        CatalogWindow window;
        std::vector<double> walls, cpus;
        bool repeatable = true;
        const double t0 = nowSeconds();
        do {
            GatePass pass = runGatePass(g, options, nullptr, "timed");
            walls.push_back(pass.wall_s);
            cpus.push_back(pass.cpu_s);
            if (walls.size() == 1)
                first = std::move(pass);
            else
                repeatable = repeatable && signature(pass) == signature(first);
        } while (nowSeconds() - t0 < options.seconds);
        window.addMetrics(ledger);
        ledger.check("every timed pass returns identical counts", repeatable,
                     std::to_string(walls.size()) + " passes");
        const double wall = medianOf(walls);
        ledger.add("wall_s", wall, "s");
        ledger.add("cpu_s", medianOf(cpus), "s");
        ledger.addRatio("sim_maccess_per_s",
                        static_cast<double>(examinedAccesses(first)) / 1e6,
                        wall, "M/s");
        ledger.info("wall_samples_s", joined(walls));
    } else {
        const GatePass untraced = runGatePass(g, options, nullptr, "untraced");
        CatalogWindow window;
        first = runGatePass(g, options, spans, "traced");
        window.addMetrics(ledger);
        ledger.check("traced pass returns the untraced counts",
                     signature(untraced) == signature(first));
        profileGates(first, g, options, untraced, spans, ledger);
        ledger.addRatio("prof.trace_overhead", first.wall_s - untraced.wall_s,
                        untraced.wall_s, "ratio");
        ledger.add("wall_s", untraced.wall_s, "s");
        ledger.add("cpu_s", untraced.cpu_s, "s");
        ledger.addRatio("sim_maccess_per_s",
                        static_cast<double>(examinedAccesses(untraced)) / 1e6,
                        untraced.wall_s, "M/s");
        ledger.info("wall_samples_s", exactDouble(untraced.wall_s));
    }
    addStageMetrics(first, g, ledger);
    gateChecks(first, g, ledger);
}

}  // namespace e2ebench
