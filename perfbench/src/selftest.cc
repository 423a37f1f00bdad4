/**
 * @file
 * The benchmark's own self-tests, run before every measurement: a
 * benchmark whose statistics, span arithmetic, digest or output check
 * is wrong must not report numbers.
 */
#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>

#include "bench.hh"
#include "lab/experiments.hh"
#include "lab/lab.hh"
#include "sim.hh"

namespace perfbench
{

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::cerr << "perfbench self-test FAILED: " << what << '\n';
    }
}

bool
near(double got, double want, double tol)
{
    return std::fabs(got - want) <= tol;
}

void
testPercentile()
{
    // The incomplete beta function against closed forms and its
    // symmetry.
    for (const double x : {0.05, 0.3, 0.5, 0.77, 0.99}) {
        expect(near(incompleteBeta(x, 1, 1), x, 1e-12), "I_x(1,1) = x");
        expect(near(incompleteBeta(x, 3.5, 1), std::pow(x, 3.5), 1e-12),
               "I_x(a,1) = x^a");
        expect(near(incompleteBeta(x, 1, 0.3),
                    1 - std::pow(1 - x, 0.3), 1e-12),
               "I_x(1,b) = 1 - (1-x)^b");
        expect(near(incompleteBeta(x, 211.5, 23.5) +
                        incompleteBeta(1 - x, 23.5, 211.5),
                    1, 1e-12),
               "I_x(a,b) + I_(1-x)(b,a) = 1");
    }

    std::vector<double> v;
    for (int i = 1001; i >= 1; --i)
        v.push_back(i);
    // On 1..1001 every estimate lies within one of the exact quantile
    // 1 + p*1000/100.
    for (const double p : {10.0, 50.0, 90.0}) {
        expect(near(percentile(v, p), 1 + p * 10, 1.0),
               "p" + std::to_string(static_cast<int>(p)) +
                   " of 1..1001 is the exact quantile to within one");
    }
    expect(near(percentile(v, 50), 501, 1e-9),
           "p50 of symmetric values is their centre");
    expect(near(percentile({7.5}, 90), 7.5, 1e-12), "p90 of one value");
    expect(near(percentile(std::vector<double>(117, 3.25), 90), 3.25, 1e-12),
           "p90 of equal values is that value");

    // Monotone in p, inside the range of the values, and a small
    // change to one value moves the estimate by less than that change.
    std::uint64_t x = 12345;
    for (std::size_t n : {2u, 3u, 10u, 117u, 234u}) {
        std::vector<double> r;
        for (std::size_t i = 0; i < n; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            r.push_back(static_cast<double>(x >> 40) / 7.0);
        }
        const auto [lo, hi] = std::minmax_element(r.begin(), r.end());
        const std::string of = " of " + std::to_string(n) + " values";
        double last = *lo;
        for (const double p : {10.0, 50.0, 90.0, 99.0}) {
            const double q = percentile(r, p);
            expect(q >= last - 1e-9 && q <= *hi + 1e-9,
                   "percentiles rise with p and stay in range" + of);
            last = q;
            std::vector<double> bumped = r;
            bumped[n / 2] += 1.0;
            const double moved = percentile(bumped, p) - q;
            expect(moved >= -1e-9 && moved <= 1.0 + 1e-9,
                   "one value moved by 1 moves p" +
                       std::to_string(static_cast<int>(p)) +
                       " by at most 1" + of);
        }
    }
}

void
testSelfTime()
{
    // parent [0,100]; children [10,30] (with grandchild [12,14]),
    // [20,50] overlapping it, and [90,120] running past the parent.
    std::vector<Span> s(5);
    s[0] = {"parent", 0, 100, -1, 0};
    s[1] = {"a", 10, 30, 0, 0};
    s[2] = {"g", 12, 14, 1, 0};
    s[3] = {"b", 20, 50, 0, 0};
    s[4] = {"c", 90, 120, 0, 0};
    const auto self = selfTimes(s);
    expect(self[0] == 50, "parent self time: 100 - [10,50] - [90,100]");
    expect(self[1] == 18, "child self time minus its grandchild");
    expect(self[2] == 2 && self[3] == 30 && self[4] == 30,
           "leaf self time is the duration");

    Tracer t(true);
    {
        Scope outer(t, "outer", 3);
        Scope inner(t, "inner", 3);
    }
    { Scope next(t, "next", 4); }
    const auto &spans = t.spans();
    expect(spans.size() == 3 && spans[1].parent == 0 &&
               spans[2].parent == -1 && spans[2].op == 4,
           "scopes record parent links and op ids");
    expect(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end,
           "a child lies inside its parent");

    Tracer off(false);
    { Scope ignored(off, "x", 0); }
    expect(off.spans().empty(), "a disabled tracer records nothing");
}

void
testDigest()
{
    std::map<std::string, std::string> a{{"x", "1"}, {"y", "2"}};
    std::map<std::string, std::string> b;
    b.emplace("y", "2");
    b.emplace("x", "1");
    expect(digest(a) == digest(b), "digest ignores insertion order");
    b["y"] = "3";
    expect(digest(a) != digest(b), "digest sees a changed record");
    std::map<std::string, std::string> c{{"x", "1"}, {"z", "2"}};
    expect(digest(a) != digest(c), "digest sees a changed key");
    std::map<std::string, std::string> d{{"x1", ""}, {"y", "2"}};
    std::map<std::string, std::string> e{{"x", "1"}, {"y", "2"}};
    expect(digest(d) != digest(e), "key/record boundary is part of it");
}

lab::Job
fig6Job(const std::string &key)
{
    for (const lab::Job &job :
         lab::campaignByName("fig6", false).matrix.expand()) {
        if (job.key() == key)
            return job;
    }
    throw std::runtime_error("no fig6 job " + key);
}

/** One fig6 job on the fast tier, optionally with a sabotaged store. */
class OneJob : public Workload
{
  public:
    OneJob(SimOp op, liquid::fast::Sabotage sabotage)
        : op_(std::move(op)), sabotage_(sabotage)
    {
    }
    void setup(Ctx) override {}
    std::size_t opCount() const override { return 1; }
    std::string opKey(std::size_t) const override { return op_.job.key(); }
    OpResult
    runOp(std::size_t, Ctx ctx) override
    {
        return runFastOp(op_, ctx, sabotage_);
    }
    int companion(Ctx) override { return 0; }

  private:
    SimOp op_;
    liquid::fast::Sabotage sabotage_;
};

void
testOutputCheck()
{
    Tracer t(false);
    Counts counts;
    Goldens goldens;
    const SimOp op =
        prepareSimOp(fig6Job("fig6/lu/scalar"), goldens, Ctx{t, counts, 0});

    OneJob honest(op, liquid::fast::Sabotage::None);
    const PassResult good = runPass(honest, {0}, t, counts);
    expect(good.results.size() == 1 && good.results[0].ok,
           "an honest op passes its output check");

    // Every 17th scalar store is dropped: the output arrays are wrong.
    OneJob corrupt(op, liquid::fast::Sabotage::SkippedStore);
    const PassResult bad = runPass(corrupt, {0}, t, counts);
    expect(bad.results.size() == 1 && !bad.results[0].ok &&
               bad.results[0].error.find("array") != std::string::npos,
           "an op with a corrupted output array is counted as failed");
}

/** An op whose record changes from one run to the next. */
class Drifting : public Workload
{
  public:
    explicit Drifting(bool drift) : drift_(drift) {}
    void setup(Ctx) override {}
    std::size_t opCount() const override { return 1; }
    std::string opKey(std::size_t) const override { return "drift"; }
    OpResult
    runOp(std::size_t, Ctx) override
    {
        OpResult r;
        r.record = drift_ ? std::to_string(runs_++) : "same";
        return r;
    }
    int companion(Ctx) override { return 0; }

  private:
    bool drift_;
    int runs_ = 0;
};

void
testRepeats()
{
    Tracer t(false);
    Counts counts;
    const Repeat twice{/*maxRuns=*/2, /*budgetMs=*/1e9};
    Drifting steady(false);
    const PassResult good = runPass(steady, {0}, t, counts, twice);
    expect(good.results[0].ok && good.opMs[0].size() == 2,
           "a repeated op keeps one latency per run");
    Drifting drifting(true);
    const PassResult bad = runPass(drifting, {0}, t, counts, twice);
    expect(!bad.results[0].ok,
           "an op whose repeat behaves differently is counted as failed");
}

/** Field "name=value" pairs of a record segment. */
std::map<std::string, std::string>
fields(const std::string &segment)
{
    std::map<std::string, std::string> out;
    std::istringstream is(segment);
    std::string item;
    while (std::getline(is, item, ';')) {
        const auto eq = item.find('=');
        if (eq != std::string::npos)
            out[item.substr(0, eq)] = item.substr(eq + 1);
    }
    return out;
}

void
testMatchesLab()
{
    // The benchmark runs jobs through System itself (to read the output
    // arrays); it must reproduce lab::runBuilt's cycles and counters.
    Tracer t(false);
    Counts counts;
    Goldens goldens;
    for (const char *key : {"fig6/lu/liquid/w8/ideal", "fig6/lu/native/w8"}) {
        const SimOp op =
            prepareSimOp(fig6Job(key), goldens, Ctx{t, counts, 0});
        const OpResult mine = runCycleOp(op, Ctx{t, counts, 0});
        const lab::RunOutcome lab = lab::runBuilt(op.job, op.build);
        const std::string last =
            mine.record.substr(mine.record.rfind('|') + 1);
        std::map<std::string, std::string> want;
        want["cycles"] = std::to_string(lab.cycles);
        for (const auto &[name, value] : lab.counters)
            want[name] = std::to_string(value);
        expect(mine.ok && fields(last) == want,
               std::string(key) + " matches lab::runBuilt");
    }
}

} // namespace

int
runSelfTests()
{
    failures = 0;
    testPercentile();
    testSelfTime();
    testDigest();
    testOutputCheck();
    testRepeats();
    testMatchesLab();
    return failures;
}

} // namespace perfbench
