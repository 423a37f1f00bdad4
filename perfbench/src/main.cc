/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload sim_cycle|static_suite
 *             --seed N --seconds S --trace 0|1 [--trace-out FILE]
 *   perfbench --self-test
 *
 * One process, one thread. Inputs are built first (set-up, timed
 * several times, median reported), then whole passes over the op list
 * run until S seconds have elapsed and the workload's fewest passes
 * have run. Latencies are read on the thread's CPU clock, each op's
 * latency is the median of its runs, and end-to-end times are scaled
 * to a fixed host speed (HostSpeed). The seed permutes the op order;
 * the programs under test see only the op list. With --trace 1 every
 * call into a layer is recorded as a span and the per-layer metrics are
 * printed instead of the end-to-end ones.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.hh"

namespace perfbench
{

std::vector<std::size_t>
opOrder(const Workload &wl, std::uint64_t seed)
{
    std::vector<std::size_t> order(wl.opCount());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    // Fisher-Yates over splitmix64, so the order is the same on every
    // standard library.
    std::uint64_t state = seed;
    auto next = [&state] {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[next() % i]);
    std::stable_sort(order.begin(), order.end(),
                     [&wl](std::size_t a, std::size_t b) {
                         return wl.opPhase(a) < wl.opPhase(b);
                     });
    return order;
}

namespace
{

OpResult
runOnce(Workload &wl, std::size_t i, Tracer &tracer, Counts &counts)
{
    const auto op = static_cast<std::int32_t>(i);
    Scope s(tracer, "op", op);
    try {
        return wl.runOp(i, Ctx{tracer, counts, op});
    } catch (const std::exception &e) {
        OpResult r;
        r.ok = false;
        r.error = e.what();
        r.record = "threw";
        return r;
    }
}

} // namespace

PassResult
runPass(Workload &wl, const std::vector<std::size_t> &order, Tracer &tracer,
        Counts &counts, Repeat repeat, HostSpeed *speed)
{
    PassResult pass;
    pass.results.resize(wl.opCount());
    pass.opMs.resize(wl.opCount());
    const std::int64_t start = nowNs();
    for (const std::size_t i : order) {
        if (speed)
            speed->maybeSample();
        OpResult &first = pass.results[i];
        double spent = 0;
        for (unsigned run = 0;
             run == 0 || (run < repeat.maxRuns && spent < repeat.budgetMs);
             ++run) {
            const std::int64_t t0 = cpuNs();
            OpResult r = runOnce(wl, i, tracer, counts);
            const double ms = static_cast<double>(cpuNs() - t0) / 1e6;
            spent += ms;
            pass.opMs[i].push_back(ms);
            if (run == 0) {
                first = std::move(r);
                continue;
            }
            if (first.ok && (!r.ok || r.record != first.record)) {
                first.ok = false;
                first.error = r.ok ? "a repeat behaved differently"
                                   : "repeat: " + r.error;
            }
        }
    }
    wl.checkPass(pass.results);
    pass.wallNs = nowNs() - start;
    return pass;
}

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    bool selfTest = false;
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::stoull(value());
        else if (arg == "--seconds")
            opt.seconds = std::stod(value());
        else if (arg == "--trace")
            opt.trace = std::stoi(value()) != 0;
        else if (arg == "--trace-out")
            opt.traceOut = value();
        else if (arg == "--self-test")
            opt.selfTest = true;
        else
            throw std::invalid_argument("unknown argument " + arg);
    }
    return opt.selfTest || !opt.workload.empty();
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "sim_cycle")
        return makeSimWorkload();
    if (name == "static_suite")
        return makeStaticSuite();
    throw std::invalid_argument("unknown workload " + name);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    if (v.empty())
        return 0;
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Peak resident set of this process image (VmHWM; unlike
 *  ru_maxrss it does not carry over the parent's peak across exec). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** Span time and call counts of one part of the run. */
struct Bucket
{
    std::map<std::string, double> ns;
    std::map<std::string, double> calls;
    Counts counts;
    double scale = 1;  ///< per pass (or per set-up)

    bool
    has(const std::vector<std::string> &names) const
    {
        for (const std::string &n : names) {
            auto it = calls.find(n);
            if (it != calls.end() && it->second > 0)
                return true;
        }
        return false;
    }
    double
    sumNs(const std::vector<std::string> &names) const
    {
        double t = 0;
        for (const std::string &n : names) {
            auto it = ns.find(n);
            t += it == ns.end() ? 0 : it->second;
        }
        return t;
    }
    double
    count(const std::vector<std::string> &names) const
    {
        double t = 0;
        for (const std::string &n : names) {
            auto it = counts.find(n);
            t += it == counts.end() ? 0 : it->second;
        }
        return t;
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

/**
 * Per-layer metrics. Each reads the part of the traced run that called
 * its layer: the passes over the op list if they did, else set-up, else
 * the companion calls made after the passes.
 */
std::vector<Metric>
layerMetrics(const Bucket &pass, const Bucket &setup, const Bucket &comp,
             double overheadFrac)
{
    using Names = std::vector<std::string>;
    auto pick = [&](const Names &witness) -> const Bucket & {
        if (pass.has(witness))
            return pass;
        if (setup.has(witness))
            return setup;
        return comp;
    };
    std::vector<Metric> out;
    auto nsPerInst = [&](const std::string &name, const Names &spans,
                         const Names &insts) {
        const Bucket &b = pick(spans);
        out.push_back({name, "ns", ratio(b.sumNs(spans), b.count(insts))});
    };
    auto totalMs = [&](const std::string &name, const Names &spans) {
        const Bucket &b = pick(spans);
        out.push_back({name, "ms", b.sumNs(spans) * b.scale / 1e6});
    };
    auto counter = [&](const std::string &name, const Names &witness,
                       const Names &counts) {
        const Bucket &b = pick(witness);
        out.push_back({name, "count", b.count(counts) * b.scale});
    };
    auto fraction = [&](const std::string &name, const Names &witness,
                        const Names &num, const Names &den) {
        const Bucket &b = pick(witness);
        out.push_back({name, "ratio", ratio(b.count(num), b.count(den))});
    };

    const Names cycleRuns{"sim.run.scalar", "sim.run.liquid", "sim.run.native"};
    const Names liquidRun{"sim.run.liquid"};
    const Names fastRuns{"fast.run.scalar", "fast.run.native"};
    const Names verifies{"verifier.verify", "verifier.verify_facts"};

    nsPerInst("cpu.ns_per_inst.scalar", {"sim.run.scalar"}, {"cpu.insts.scalar"});
    nsPerInst("cpu.ns_per_inst.liquid", liquidRun, {"cpu.insts.liquid"});
    nsPerInst("cpu.ns_per_inst.native", {"sim.run.native"}, {"cpu.insts.native"});
    totalMs("sim.construct_ms", {"sim.construct"});
    totalMs("sim.run_ms", cycleRuns);
    totalMs("scalarizer.build_ms", {"scalarizer.build"});
    totalMs("workloads.golden_ms", {"workloads.golden"});
    totalMs("asm.assemble_ms", {"asm.assemble"});
    nsPerInst("fast.ns_per_inst.scalar", {"fast.run.scalar"}, {"fast.insts.scalar"});
    nsPerInst("fast.ns_per_inst.native", {"fast.run.native"}, {"fast.insts.native"});
    totalMs("fast.setup_ms", {"fast.setup"});
    totalMs("fast.run_ms", fastRuns);
    {
        // Cycle over functional ns/inst on the scalar and native jobs
        // both tiers ran.
        const Names cycleSN{"sim.run.scalar", "sim.run.native"};
        const Names cycleInsts{"cpu.insts.scalar", "cpu.insts.native"};
        const Names fastInsts{"fast.insts.scalar", "fast.insts.native"};
        const Bucket &c = pick(cycleSN);
        const Bucket &f = pick(fastRuns);
        out.push_back({"fast.speedup_vs_cycle", "x",
                       ratio(ratio(c.sumNs(cycleSN), c.count(cycleInsts)),
                             ratio(f.sumNs(fastRuns), f.count(fastInsts)))});
    }
    {
        const Names offline{"translator.offline"};
        const Bucket &b = pick(offline);
        const auto it = b.calls.find("translator.offline");
        const double calls = it == b.calls.end() ? 0 : it->second;
        out.push_back({"translator.offline_us", "us",
                       ratio(b.sumNs(offline), calls * 1e3)});
    }
    totalMs("range.solve_ms", {"range.solve"});
    totalMs("verifier.verify_ms", {"verifier.verify"});
    totalMs("verifier.verify_facts_ms", {"verifier.verify_facts"});
    totalMs("scan.scan_ms", {"scan.scan"});
    totalMs("poly.analyze_ms", {"poly.analyze"});
    totalMs("proof.prove_ms", {"proof.prove"});
    totalMs("bench.self_ms", {"bench.self"});
    out.push_back({"trace.overhead_frac", "frac", overheadFrac});

    counter("cpu.insts", cycleRuns,
            {"cpu.insts.scalar", "cpu.insts.liquid", "cpu.insts.native"});
    counter("cpu.cycles", cycleRuns, {"cpu.cycles"});
    counter("fast.insts", fastRuns, {"fast.insts.scalar", "fast.insts.native"});
    counter("translator.translations", liquidRun, {"translator.translations"});
    counter("translator.aborts", liquidRun, {"translator.aborts"});
    fraction("translator.commit_ratio", liquidRun, {"translator.translations"},
             {"translator.translations", "translator.aborts"});
    counter("translator.observed_insts", liquidRun,
            {"translator.observed_insts"});
    fraction("memory.ucode_hit_ratio", liquidRun, {"memory.ucode_hits"},
             {"memory.ucode_lookups"});
    fraction("memory.dcache_miss_ratio", cycleRuns, {"memory.dcache_misses"},
             {"memory.dcache_accesses"});
    counter("depcheck.events", verifies, {"depcheck.events"});
    counter("poly.events", {"poly.analyze"}, {"poly.events"});
    counter("verifier.ok", verifies, {"verifier.ok"});
    counter("verifier.warn", verifies, {"verifier.warn"});
    counter("verifier.error", verifies, {"verifier.error"});
    counter("proof.proved", {"proof.prove"}, {"proof.proved"});
    counter("proof.refuted", {"proof.prove"}, {"proof.refuted"});
    counter("proof.unknown", {"proof.prove"}, {"proof.unknown"});
    counter("proof.no_translation", {"proof.prove"}, {"proof.noTranslation"});
    return out;
}

/** All digits, no exponent surprises for the JSON reader. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0;
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << '"' << metrics[i].name
                  << "\": {\"value\": " << number(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

int
run(const Options &opt)
{
    std::unique_ptr<Workload> wl = makeWorkload(opt.workload);
    Tracer tracer(opt.trace);
    Counts setupCounts, passCounts, compCounts;

    // Set up at least three times, and until two seconds or fifty
    // set-ups have gone by, so even a 10 ms set-up has a steady median.
    // The inputs of the last one are used.
    HostSpeed speed;
    speed.sample();
    std::vector<double> setupS;
    double setupTotalS = 0;
    while (setupS.size() < 3 || (setupTotalS < 2.0 && setupS.size() < 50)) {
        const std::int64_t t0 = cpuNs();
        wl->setup(Ctx{tracer, setupCounts, setupOp});
        setupS.push_back(static_cast<double>(cpuNs() - t0) / 1e9);
        setupTotalS += setupS.back();
        speed.maybeSample();
    }

    // Whole passes for about S seconds, and at least the workload's
    // fewest passes. An untraced run repeats short ops within a pass; a
    // traced one runs each op once per pass, so that span totals are
    // per pass.
    const Repeat repeat =
        opt.trace ? Repeat{} : Repeat{/*maxRuns=*/5, /*budgetMs=*/100};
    const std::vector<std::size_t> order = opOrder(*wl, opt.seed);
    std::map<std::string, std::string> records;
    std::vector<std::vector<double>> samples(wl->opCount());
    std::vector<double> passS;
    std::size_t attempted = 0, failed = 0;
    double insts = 0;  // per pass; every pass retires the same ones
    std::int64_t bookkeeping = 0;
    std::vector<std::string> failures;
    const std::int64_t start = nowNs();
    bool more = true;
    do {
        const std::int64_t before = tracer.bookkeepingNs();
        PassResult pass =
            runPass(*wl, order, tracer, passCounts, repeat, &speed);
        bookkeeping += tracer.bookkeepingNs() - before;
        passS.push_back(static_cast<double>(pass.wallNs) / 1e9);
        const bool firstPass = passS.size() == 1;
        for (std::size_t i = 0; i < pass.results.size(); ++i) {
            OpResult &r = pass.results[i];
            const std::string key = wl->opKey(i);
            samples[i].insert(samples[i].end(), pass.opMs[i].begin(),
                              pass.opMs[i].end());
            // Every pass must reproduce the first pass's behaviour.
            auto [it, first] = records.emplace(key, r.record);
            if (!first && it->second != r.record && r.ok) {
                r.ok = false;
                r.error = "behaviour differs from the first pass";
            }
            ++attempted;
            if (firstPass)
                insts += r.insts;
            if (!r.ok) {
                ++failed;
                failures.push_back(key + ": " + r.error);
            }
        }
        // No pass starts that would, at the mean pass time so far, end
        // past S seconds.
        const double elapsedS = static_cast<double>(nowNs() - start) / 1e9;
        const double meanPassS = elapsedS / static_cast<double>(passS.size());
        more = passS.size() < wl->minPasses() ||
               elapsedS + meanPassS <= opt.seconds;
    } while (more);
    const double passTotalS =
        std::accumulate(passS.begin(), passS.end(), 0.0);
    // One pass at each op's median latency of the run. On a shared host
    // the speed of the same code moves by half from moment to moment;
    // the median of runs spread over the whole run follows that least.
    std::vector<double> opMs;
    for (const std::vector<double> &runs : samples)
        opMs.push_back(median(runs));
    speed.sample();
    // End-to-end times are CPU times scaled to the nominal host speed.
    const double scale = HostSpeed::nominalMs / speed.medianMs();
    for (double &ms : opMs)
        ms *= scale;
    const double typicalPassS =
        std::accumulate(opMs.begin(), opMs.end(), 0.0) / 1e3;

    int companionFailures = 0;
    if (opt.trace)
        companionFailures =
            wl->companion(Ctx{tracer, compCounts, companionOp});

    for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
        std::cerr << "perfbench: FAILED " << failures[i] << '\n';
    if (companionFailures)
        std::cerr << "perfbench: " << companionFailures
                  << " companion call(s) failed their check\n";

    std::cout << "perfbench: workload=" << opt.workload
              << " seed=" << opt.seed << " trace=" << opt.trace
              << " ops=" << wl->opCount() << " passes=" << passS.size()
              << '\n'
              << "perfbench: digest=" << digest(records) << '\n'
              << "perfbench: host_reference_ms=" << speed.medianMs()
              << " scale=" << scale << '\n';

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", "s", median(setupS) * scale},
            {"wall_s", "s", typicalPassS},
            {"op_ms_p50", "ms", percentile(opMs, 50)},
            {"op_ms_p90", "ms", percentile(opMs, 90)},
            {"sim_minsts_per_s", "Minst/s", insts / typicalPassS / 1e6},
            {"peak_rss_mb", "MB", peakRssMb()},
            {"ok_frac", "frac",
             static_cast<double>(attempted - failed) /
                 static_cast<double>(attempted)},
        };
    } else {
        Bucket pass, setup, comp;
        pass.counts = passCounts;
        pass.scale = 1.0 / static_cast<double>(passS.size());
        setup.counts = setupCounts;
        setup.scale = 1.0 / static_cast<double>(setupS.size());
        comp.counts = compCounts;
        const std::vector<Span> &spans = tracer.spans();
        const std::vector<std::int64_t> self = selfTimes(spans);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            Bucket &b = s.op >= 0 ? pass : s.op == setupOp ? setup : comp;
            b.ns[s.name] += static_cast<double>(s.end - s.start);
            b.calls[s.name] += 1;
            if (std::strcmp(s.name, "op") == 0) {
                // The op span's own time is the benchmark's checking.
                b.ns["bench.self"] += static_cast<double>(self[i]);
                b.calls["bench.self"] += 1;
            }
        }
        const double overhead =
            static_cast<double>(bookkeeping) /
            (passTotalS * 1e9 - static_cast<double>(bookkeeping));
        metrics = layerMetrics(pass, setup, comp, overhead);
        metrics.push_back({"bench.pass_ms", "ms", median(passS) * 1e3});
        metrics.push_back({"host.reference_ms", "ms", speed.medianMs()});
        if (!opt.traceOut.empty()) {
            std::ofstream os(opt.traceOut);
            os << tracer.toJson();
        }
    }
    printResult(failed == 0 && companionFailures == 0, attempted, failed,
                metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    try {
        if (!parseArgs(argc, argv, opt)) {
            std::cerr << "usage: perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--trace-out FILE]\n"
                         "       perfbench --self-test\n";
            return 2;
        }
        const int selfTestFailures = runSelfTests();
        if (selfTestFailures) {
            std::cerr << "perfbench: " << selfTestFailures
                      << " self-test(s) failed\n";
            return 1;
        }
        if (opt.selfTest) {
            std::cout << "perfbench: self-tests passed\n";
            return 0;
        }
        return run(opt);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 2;
    }
}
