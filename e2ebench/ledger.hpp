/**
 * @file
 * The benchmark's result ledger and host-clock span recorder.
 *
 * A Ledger collects what one run of a workload measured: named metrics
 * with units (ratios keep their numerator and denominator, counts that
 * must repeat exactly are marked), the correctness checks that feed the
 * error rate, and a few descriptive strings (digest, sample count,
 * build). It renders as one JSON object, which run.py reads.
 *
 * A SpanRecorder keeps host-clock spans and instants in memory, stamped
 * in microseconds since the recorder was created, and writes them out as
 * a Chrome trace when the run ends. It reuses prof::TraceSession purely
 * as an in-memory event list and its Chrome exporter; the session is
 * never handed to the harness or an engine, whose hookless fast path a
 * non-null prof sink would disable.
 */
#pragma once

#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "prof/trace.hpp"

namespace e2ebench {

using eclsim::u32;
using eclsim::u64;

/** One measured value. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Set for ratios: value == num / den. */
    std::optional<double> num;
    std::optional<double> den;
    /** A count that must repeat exactly for the same seed. */
    bool exact = false;
};

/** One correctness check. */
struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/** Everything one run measured (see file comment). */
class Ledger
{
  public:
    void add(const std::string& name, double value, const std::string& unit);
    /** value = num / den; a zero denominator records 0. */
    void addRatio(const std::string& name, double num, double den,
                  const std::string& unit);
    void addExact(const std::string& name, u64 value,
                  const std::string& unit);
    void check(const std::string& name, bool ok,
               const std::string& detail = "");
    void info(const std::string& key, const std::string& value);

    /** One JSON object: metrics, checks, info. */
    std::string toJson() const;

  private:
    std::vector<Metric> metrics_;
    std::vector<Check> checks_;
    std::vector<std::pair<std::string, std::string>> info_;
};

/** Seconds on the monotonic host clock. */
double nowSeconds();

/** User + system CPU seconds of this process so far. */
double cpuSeconds();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Host-clock Chrome-trace recorder (see file comment). Thread-safe. */
class SpanRecorder
{
  public:
    SpanRecorder();

    void begin(const std::string& track, const std::string& name,
               eclsim::prof::EventArgs args = {});
    void end(const std::string& track);
    void instant(const std::string& track, const std::string& name,
                 eclsim::prof::EventArgs args = {});

    /** Spans opened so far. */
    u64 spans() const;

    /** Write the Chrome trace JSON; false on an IO error. */
    bool write(const std::string& path) const;

  private:
    u64 nowMicros() const;

    const std::chrono::steady_clock::time_point t0_;
    mutable std::mutex mutex_;
    eclsim::prof::TraceSession session_;
    u64 spans_ = 0;
};

/** Opens a span on construction, closes it on destruction; a null
 *  recorder makes it a no-op (the untraced passes). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder* recorder, std::string track,
               const std::string& name, eclsim::prof::EventArgs args = {});
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanRecorder* recorder_;
    std::string track_;
};

/** FNV-1a 64-bit hash of a byte string, as 16 hex digits. */
std::string fnv1a64Hex(const std::string& bytes);

/** printf("%.17g"): the round-trip rendering of a double. */
std::string exactDouble(double value);

/** Space-separated %.17g rendering of a sample. */
std::string joined(const std::vector<double>& values);

/** Median and maximum of a sample (0 for an empty one). */
double medianOf(std::vector<double> values);
double maxOf(const std::vector<double>& values);

/** Run-level knobs shared by the workloads. */
struct Options
{
    std::string workload;
    u64 seed = 12345;
    double seconds = 10.0;
    bool traced = false;
    u32 jobs = 1;
    /** A tiny instance of every workload, for the self-test. */
    bool tiny = false;
    /** Plant a gate failure (self-test of the error accounting). */
    bool plant_gate_failure = false;
    /** Where a traced run writes its Chrome trace ("" = nowhere). */
    std::string trace_path;
};

}  // namespace e2ebench
