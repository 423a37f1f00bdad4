/**
 * @file
 * The span recorder, span self time, the percentile helper and the
 * behavioural digest.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "bench.hh"

namespace perfbench
{

int
Tracer::begin(const char *name, std::int32_t op)
{
    const std::int64_t in = nowNs();
    Span span;
    span.name = name;
    span.op = op;
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(span);
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    const std::int64_t start = nowNs();
    spans_[index].start = start;
    bookkeeping_ += start - in;
    return index;
}

void
Tracer::end(int index)
{
    const std::int64_t stop = nowNs();
    spans_[index].end = stop;
    // Scopes close in reverse order of opening.
    open_.pop_back();
    bookkeeping_ += nowNs() - stop;
}

std::string
Tracer::toJson() const
{
    const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start;
    std::ostringstream os;
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
           << s.name << "\", \"start_ns\": " << s.start - epoch
           << ", \"end_ns\": " << s.end - epoch
           << ", \"parent\": " << s.parent << ", \"op\": " << s.op
           << "}";
    }
    os << "\n]}\n";
    return os.str();
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            children[s.parent].emplace_back(s.start, s.end);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = p.start;  // covered up to here
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, reach);
            hi = std::min(hi, p.end);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = (p.end - p.start) - covered;
    }
    return self;
}

double
incompleteBeta(double x, double a, double b)
{
    if (x <= 0)
        return 0;
    if (x >= 1)
        return 1;
    // The continued fraction converges fast below the mean; use the
    // symmetry I_x(a, b) = 1 - I_{1-x}(b, a) above it.
    if (x > (a + 1) / (a + b + 2))
        return 1 - incompleteBeta(1 - x, b, a);
    const double front =
        std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                 a * std::log(x) + b * std::log1p(-x)) /
        a;
    // Modified Lentz evaluation of 1 / (1 + d1 / (1 + d2 / (1 + ...))).
    constexpr double tiny = 1e-300;
    double f = 1, c = 1, d = 0;
    for (int i = 0; i <= 1000; ++i) {
        const double m = i / 2;
        double num = 1;
        if (i > 0 && i % 2 == 0)
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m));
        else if (i > 0)
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1));
        d = 1 + num * d;
        d = 1 / (std::fabs(d) < tiny ? tiny : d);
        c = 1 + num / c;
        c = std::fabs(c) < tiny ? tiny : c;
        f *= c * d;
        if (std::fabs(1 - c * d) < 1e-15)
            break;
    }
    return front * (f - 1);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    const double q = p / 100.0;
    const double a = q * (n + 1), b = (1 - q) * (n + 1);
    // Order statistic i weighs the Beta(a, b) mass on [(i-1)/n, i/n].
    double sum = 0, below = 0;
    for (std::size_t i = 1; i <= values.size(); ++i) {
        const double upto = incompleteBeta(static_cast<double>(i) / n, a, b);
        sum += (upto - below) * values[i - 1];
        below = upto;
    }
    return sum;
}

namespace
{

std::uint64_t
fnv1a(std::string_view text, std::uint64_t hash = 0xcbf29ce484222325ull)
{
    for (const unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

} // namespace

std::string
digest(const std::map<std::string, std::string> &records)
{
    std::uint64_t hash = fnv1a("perfbench-digest-v1");
    for (const auto &[key, record] : records) {
        hash = fnv1a(key, hash);
        hash = fnv1a("\x1f", hash);
        hash = fnv1a(record, hash);
        hash = fnv1a("\x1e", hash);
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

} // namespace perfbench
