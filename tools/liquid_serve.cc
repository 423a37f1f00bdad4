/**
 * @file
 * liquid-serve: translation-as-a-service with a tail-latency contract.
 *
 * The serve subsystem (src/serve/) wraps the repo's analysis pipelines
 * — simulate, verify, scan, chaos, proof — behind a long-lived
 * in-process server with an async job queue, request coalescing, a hot
 * result cache and per-request deadlines. This tool drives it three
 * ways:
 *
 *   liquid-serve run                       # exercise the live async
 *                                          # server (threads, futures)
 *   liquid-serve loadgen --qps 200         # deterministic virtual-time
 *                                          # load run -> p50/p95/p99
 *   liquid-serve sweep --qps 100,200,400 --p99-target-us 4000
 *                                          # saturation sweep against
 *                                          # the tail-latency contract
 *
 * loadgen and sweep reports are byte-identical for a given seed and
 * spec at any --jobs count (see docs/SERVE.md for the virtual-time
 * methodology); --lab-out renders them through the lab results schema
 * so `liquid-lab diff` gates BENCH_serve.json in CI.
 *
 * Exit status: 0 on success; 1 when the p99 target is violated (or no
 * sweep point meets it, or a live-server request fails); 2 on usage
 * errors.
 */

#include <fstream>
#include <future>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "lab/results.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"

using namespace liquid;
using namespace liquid::serve;

namespace
{

struct Options
{
    std::string command;
    /** The loadgen/sweep spec; run reads its request axes and caches. */
    LoadSpec spec;
    unsigned jobs = 0;                      ///< 0 = hardware threads
    std::vector<double> qpsList{200.0};
    std::string coldCacheDir;
    std::uint64_t p99TargetUs = 0;          ///< 0 = no gate (loadgen)
    unsigned repeat = 2;                    ///< run: submission rounds
    bool distribution = false;
    bool json = false;
    std::string out;
    std::string labOut;
};

/** Parse argv into @p opts; returns a status to exit with, or nullopt. */
std::optional<int>
parseArgs(int argc, char **argv, Options &opts)
{
    opts.command = argc > 1 ? argv[1] : "";
    if (opts.command == "sweep")
        opts.p99TargetUs = 4000;
    cli::Names<RequestClass> classNames;
    for (const RequestClass cls : allRequestClasses)
        classNames.emplace_back(className(cls), cls);
    const cli::Command cmd{
        "usage: liquid-serve <run|loadgen|sweep> [options]\n",
        {{"--workloads LIST", "suite names (default: fir,lu,fft)",
          cli::list(opts.spec.workloads)},
         {"--widths LIST", "SIMD widths (default: 4,8)",
          cli::widths(opts.spec.widths)},
         {"--classes LIST",
          "simulate,verify,scan,chaos,proof (default: all five)",
          cli::list(opts.spec.mix, classNames)},
         {"--jobs N", "execution threads (default: hardware)",
          cli::value(opts.jobs)},
         {"--json", "machine-readable report on stdout",
          cli::flag(opts.json)},
         {"--out FILE", "also write the report to FILE", cli::value(opts.out)},
         {"--queue-capacity N", "run: backpressure limit; loadgen/sweep: "
                                "rejection threshold (default 64)",
          cli::value(opts.spec.queueCapacity)},
         {"--hot-cache N", "hot-tier entries (default 256)",
          cli::value(opts.spec.hotCacheEntries)},
         {"--cold-cache DIR", "run: on-disk cold tier for simulate",
          cli::value(opts.coldCacheDir)},
         {"--repeat N", "run: submission rounds over the request set "
                        "(default 2; round 2 hits the hot tier)",
          cli::value(opts.repeat)},
         {"--seed S", "trace seed (default 1)", cli::value(opts.spec.seed)},
         {"--qps LIST", "offered load; one value for loadgen, a comma list "
                        "of sweep points (default 200)",
          cli::list(opts.qpsList)},
         {"--requests N", "trace length (default 64)",
          cli::value(opts.spec.requests)},
         {"--deadline-us N", "per-request budget; 0 = none",
          cli::value(opts.spec.deadlineUs)},
         {"--servers N", "virtual service slots (default 4)",
          cli::value(opts.spec.virtualServers)},
         {"--hit-cost-us N", "hot-hit service time (default 5)",
          cli::value(opts.spec.hitCostUs)},
         {"--overhead-us N", "per-execution overhead (default 20)",
          cli::value(opts.spec.overheadUs)},
         {"--units-per-us N", "work units per virtual us (default 1000)",
          cli::value(opts.spec.unitsPerUs)},
         {"--p99-target-us N",
          "tail contract; loadgen exits 1 when the overall p99 exceeds it, "
          "sweep exits 1 when no point meets it (sweep default 4000)",
          cli::value(opts.p99TargetUs)},
         {"--distribution", "include per-class latency histograms",
          cli::flag(opts.distribution)},
         {"--lab-out FILE", "write the lab-schema results file "
                            "(BENCH_serve.json) for liquid-lab diff",
          cli::value(opts.labOut)}}};
    // Without a command word, argv[1] is parsed too: --help, or a
    // diagnostic, or the usage.
    const bool known = opts.command == "run" ||
                       opts.command == "loadgen" || opts.command == "sweep";
    if (const auto rc = cli::parse(cmd, argc, argv, known ? 2 : 1))
        return rc;
    if (!known) {
        cli::printHelp(std::cout, cmd);
        return 2;
    }
    return std::nullopt;
}

/** The spec at the first --qps point. */
LoadSpec
specFromOptions(const Options &opts)
{
    LoadSpec spec = opts.spec;
    spec.qps = opts.qpsList.front();
    return spec;
}

void
emitReport(const Options &opts, const json::Value &report)
{
    if (opts.json)
        std::cout << report.toString() << '\n';
    if (!opts.out.empty()) {
        std::ofstream os(opts.out, std::ios::binary);
        if (!os)
            fatal("serve: cannot write '", opts.out, "'");
        os << report.toString();
    }
}

void
printClassTable(const LoadReport &report)
{
    auto row = [](const std::string &name, const ClassStats &cs) {
        std::cout << "  " << name << ": " << cs.submitted << " reqs, "
                  << cs.ok << " ok, " << cs.cancelled << " cancelled, "
                  << cs.rejected << " rejected, " << cs.hotHits
                  << " hot, " << cs.coalesced << " coalesced";
        if (cs.latency.count() > 0)
            std::cout << " | p50 " << cs.latency.quantile(0.50)
                      << "us p95 " << cs.latency.quantile(0.95)
                      << "us p99 " << cs.latency.quantile(0.99)
                      << "us";
        std::cout << '\n';
    };
    row("all", report.all);
    for (const auto &[name, cs] : report.classes)
        row(name, cs);
}

/** Build the live-server request set: one per class/workload/width. */
std::vector<Request>
liveRequestSet(const Options &opts)
{
    std::vector<RequestClass> classes(opts.spec.mix);
    if (classes.empty())
        classes.assign(std::begin(allRequestClasses),
                       std::end(allRequestClasses));
    std::vector<std::string> workloads(opts.spec.workloads);
    if (workloads.empty())
        workloads = {"fir", "lu", "fft"};
    std::vector<unsigned> widths(opts.spec.widths);
    if (widths.empty())
        widths = {4, 8};

    std::vector<Request> set;
    for (RequestClass cls : classes) {
        for (const std::string &workload : workloads) {
            for (unsigned width : widths) {
                Request r;
                r.cls = cls;
                r.job.experiment = "serve";
                r.job.workload = workload;
                r.job.mode = ExecMode::Liquid;
                r.job.width = width;
                set.push_back(std::move(r));
            }
        }
    }
    return set;
}

int
cmdRun(const Options &opts)
{
    ServerConfig config;
    config.workers = opts.jobs ? opts.jobs : 4;
    config.queueCapacity = opts.spec.queueCapacity;
    config.hotCacheEntries = opts.spec.hotCacheEntries;
    config.coldCacheDir = opts.coldCacheDir;
    Server server(config);

    const std::vector<Request> set = liveRequestSet(opts);
    json::Value rounds = json::Value::array();
    bool anyFailed = false;

    for (unsigned round = 0; round < std::max(1u, opts.repeat);
         ++round) {
        std::vector<std::future<Response>> futures;
        futures.reserve(set.size());
        for (const Request &r : set)
            futures.push_back(server.submit(r));
        json::Value responses = json::Value::array();
        for (std::size_t i = 0; i < set.size(); ++i) {
            const Response resp = futures[i].get();
            anyFailed |= resp.status == ResponseStatus::Failed;
            json::Value rv = json::Value::object();
            rv.set("key", set[i].key());
            rv.set("status", statusName(resp.status));
            rv.set("source", sourceName(resp.source));
            rv.set("digest", resp.digest);
            rv.set("workUnits", resp.workUnits);
            rv.set("summary", resp.summary);
            if (!resp.error.empty())
                rv.set("error", resp.error);
            responses.push(std::move(rv));
            if (!opts.json)
                std::cout << set[i].key() << ": "
                          << statusName(resp.status) << " ("
                          << sourceName(resp.source) << ") "
                          << resp.summary << '\n';
        }
        rounds.push(std::move(responses));
    }
    server.stop();

    const ServerStats stats = server.stats();
    const HotCacheStats cacheStats = server.hotCacheStats();
    json::Value report = json::toolReport(serveSchema, serveVersion);
    report.set("kind", "run");
    report.set("rounds", std::move(rounds));
    json::Value sv = json::Value::object();
    sv.set("accepted", stats.accepted);
    sv.set("coalesced", stats.coalesced);
    sv.set("hotHits", stats.hotHits);
    sv.set("coldHits", stats.coldHits);
    sv.set("executed", stats.executed);
    sv.set("cancelled", stats.cancelled);
    sv.set("rejected", stats.rejected);
    sv.set("failed", stats.failed);
    sv.set("completed", stats.completed);
    sv.set("maxQueueDepth", stats.maxQueueDepth);
    report.set("stats", std::move(sv));
    json::Value cv = json::Value::object();
    cv.set("hits", cacheStats.hits);
    cv.set("misses", cacheStats.misses);
    cv.set("insertions", cacheStats.insertions);
    cv.set("evictions", cacheStats.evictions);
    report.set("cache", std::move(cv));
    emitReport(opts, report);

    if (!opts.json)
        std::cout << "server: " << stats.executed << " executed, "
                  << stats.hotHits << " hot hits, " << stats.coalesced
                  << " coalesced, " << stats.failed << " failed\n";
    return anyFailed ? 1 : 0;
}

int
cmdLoadgen(const Options &opts)
{
    if (opts.qpsList.size() != 1) {
        std::cerr << "loadgen takes a single --qps value "
                     "(use sweep for a list)\n";
        return 2;
    }
    const LoadReport report = runLoad(specFromOptions(opts), opts.jobs);
    emitReport(opts, report.toJson(opts.distribution));
    if (!opts.labOut.empty())
        toLabResults(report).writeFile(opts.labOut);
    if (!opts.json) {
        std::cout << "loadgen: " << report.spec.requests
                  << " requests at " << report.spec.qps
                  << " qps, makespan " << report.makespanUs
                  << "us, trace 0x" << std::hex << report.traceHash
                  << std::dec << '\n';
        printClassTable(report);
    }
    const std::uint64_t p99 = report.all.latency.count() > 0
                                  ? report.all.latency.quantile(0.99)
                                  : 0;
    if (opts.p99TargetUs != 0 && p99 > opts.p99TargetUs) {
        std::cerr << "serve: p99 " << p99 << "us exceeds the "
                  << opts.p99TargetUs << "us target\n";
        return 1;
    }
    return 0;
}

int
cmdSweep(const Options &opts)
{
    const SweepReport sweep = runSweep(specFromOptions(opts),
                                       opts.qpsList, opts.p99TargetUs,
                                       opts.jobs);
    emitReport(opts, sweep.toJson(opts.distribution));
    if (!opts.labOut.empty()) {
        // The lab-schema rendering carries the run at the highest
        // passing qps (the operating point the contract certifies),
        // or the first point when nothing passed.
        std::size_t best = 0;
        for (std::size_t i = 0; i < sweep.points.size(); ++i) {
            if (sweep.points[i].pass &&
                sweep.points[i].qps == sweep.qpsAtTarget)
                best = i;
        }
        toLabResults(sweep.runs[best], &sweep).writeFile(opts.labOut);
    }
    if (!opts.json) {
        for (const SweepPoint &p : sweep.points)
            std::cout << "  " << p.qps << " qps: p99 " << p.p99Us
                      << "us, " << p.ok << " ok, " << p.rejected
                      << " rejected, " << p.cancelled << " cancelled"
                      << (p.pass ? " [pass]" : " [FAIL]") << '\n';
        if (sweep.anyPass())
            std::cout << "sweep: " << sweep.qpsAtTarget
                      << " qps sustains p99 <= " << sweep.p99TargetUs
                      << "us (" << sweep.usPerOpAtTarget
                      << " us/op)\n";
        else
            std::cout << "sweep: NO operating point meets p99 <= "
                      << sweep.p99TargetUs << "us\n";
    }
    return sweep.anyPass() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (const auto rc = parseArgs(argc, argv, opts))
        return *rc;
    try {
        if (opts.command == "run")
            return cmdRun(opts);
        if (opts.command == "loadgen")
            return cmdLoadgen(opts);
        return cmdSweep(opts);
    } catch (const FatalError &e) {
        std::cerr << "liquid-serve: " << e.what() << '\n';
        return 2;
    } catch (const PanicError &e) {
        std::cerr << "liquid-serve: " << e.what() << '\n';
        return 1;
    }
}
