#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/stats.hpp"
#include "prof/trace_export.hpp"

namespace e2ebench {

namespace {

std::string
jsonString(const std::string& in)
{
    std::string out = "\"";
    for (const char c : in) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    return std::isfinite(value) ? exactDouble(value) : "null";
}

}  // namespace

void
Ledger::add(const std::string& name, double value, const std::string& unit)
{
    metrics_.push_back({name, value, unit, std::nullopt, std::nullopt,
                        false});
}

void
Ledger::addRatio(const std::string& name, double num, double den,
                 const std::string& unit)
{
    metrics_.push_back(
        {name, den != 0.0 ? num / den : 0.0, unit, num, den, false});
}

void
Ledger::addExact(const std::string& name, u64 value, const std::string& unit)
{
    metrics_.push_back({name, static_cast<double>(value), unit,
                        std::nullopt, std::nullopt, true});
}

void
Ledger::check(const std::string& name, bool ok, const std::string& detail)
{
    checks_.push_back({name, ok, detail});
}

void
Ledger::info(const std::string& key, const std::string& value)
{
    info_.emplace_back(key, value);
}

std::string
Ledger::toJson() const
{
    std::string out = "{\"metrics\":{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        out += (i ? "," : "") + jsonString(m.name) + ":{\"value\":" +
               jsonNumber(m.value) + ",\"unit\":" + jsonString(m.unit);
        if (m.num && m.den)
            out += ",\"num\":" + jsonNumber(*m.num) +
                   ",\"den\":" + jsonNumber(*m.den);
        if (m.exact)
            out += ",\"exact\":true";
        out += "}";
    }
    out += "},\"checks\":[";
    for (size_t i = 0; i < checks_.size(); ++i) {
        const Check& c = checks_[i];
        out += std::string(i ? "," : "") + "{\"name\":" +
               jsonString(c.name) + ",\"ok\":" + (c.ok ? "true" : "false") +
               ",\"detail\":" + jsonString(c.detail) + "}";
    }
    out += "],\"info\":{";
    for (size_t i = 0; i < info_.size(); ++i)
        out += (i ? "," : "") + jsonString(info_[i].first) + ":" +
               jsonString(info_[i].second);
    return out + "}}";
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

SpanRecorder::SpanRecorder() : t0_(std::chrono::steady_clock::now()) {}

u64
SpanRecorder::nowMicros() const
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
}

void
SpanRecorder::begin(const std::string& track, const std::string& name,
                    eclsim::prof::EventArgs args)
{
    std::lock_guard<std::mutex> lock(mutex_);
    session_.beginSpan(session_.track(track), name, nowMicros(),
                       std::move(args));
    ++spans_;
}

void
SpanRecorder::end(const std::string& track)
{
    std::lock_guard<std::mutex> lock(mutex_);
    session_.endSpan(session_.track(track), nowMicros());
}

void
SpanRecorder::instant(const std::string& track, const std::string& name,
                      eclsim::prof::EventArgs args)
{
    std::lock_guard<std::mutex> lock(mutex_);
    session_.instant(session_.track(track), name, nowMicros(),
                     std::move(args));
}

u64
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
SpanRecorder::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << eclsim::prof::toChromeTraceJson(session_);
    return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string track,
                       const std::string& name,
                       eclsim::prof::EventArgs args)
    : recorder_(recorder), track_(std::move(track))
{
    if (recorder_)
        recorder_->begin(track_, name, std::move(args));
}

ScopedSpan::~ScopedSpan()
{
    if (recorder_)
        recorder_->end(track_);
}

std::string
fnv1a64Hex(const std::string& bytes)
{
    u64 hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::string
exactDouble(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
joined(const std::vector<double>& values)
{
    std::string out;
    for (const double v : values)
        out += (out.empty() ? "" : " ") + exactDouble(v);
    return out;
}

double
medianOf(std::vector<double> values)
{
    return values.empty() ? 0.0 : eclsim::stats::median(std::move(values));
}

double
maxOf(const std::vector<double>& values)
{
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
}

}  // namespace e2ebench
