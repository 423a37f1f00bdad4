/**
 * @file
 * liquid-fast: lockstep differential harness and throughput bench for
 * the functional execution tier (src/fast/).
 *
 * The functional interpreter must retire the exact architectural state
 * the cycle core retires, instruction for instruction. This tool is
 * that contract's gate:
 *
 *   liquid-fast                            # lockstep the whole suite
 *   liquid-fast --random 200               # + randomized kernels
 *   liquid-fast --sabotage                 # self-test: seeded handler
 *                                          # bugs must be CAUGHT
 *   liquid-fast --switch                   # portable dispatch loop
 *   liquid-fast --bench --out BENCH_fast.json
 *                                          # retired-instructions/sec,
 *                                          # functional vs cycle, with
 *                                          # a >= --min-speedup gate
 *
 * Per-retire lockstep covers ScalarBaseline and NativeSimd execution;
 * Liquid mode interleaves translated microcode into the retire stream
 * and is covered by the chaos oracle's end-state contract instead.
 *
 * Exit status: 0 when every lockstep run is equal (and every sabotage
 * mutation is caught, and the bench gate holds); 1 otherwise; 2 on
 * usage errors.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "fast/fast.hh"
#include "fast/lockstep.hh"
#include "lab/experiments.hh"
#include "lab/runner.hh"
#include "random_kernels.hh"
#include "workloads/workload.hh"

using namespace liquid;
using fast::Sabotage;

namespace
{

/** JSON output format identifier; bump on breaking layout changes. */
constexpr const char *fastSchema = "liquid-fast-v1";
/** Tool revision carried in the JSON header for drift detection. */
constexpr const char *fastToolVersion = "1.0";

struct Options
{
    std::vector<std::string> workloads;  ///< empty = whole suite
    std::vector<ExecMode> modes{ExecMode::ScalarBaseline,
                                ExecMode::NativeSimd};
    std::vector<unsigned> widths{8};     ///< native widths
    unsigned random = 0;                 ///< extra random kernels
    std::uint64_t seed = 1;
    bool switchDispatch = false;
    std::string faults;                  ///< schedule key for both tiers
    bool sabotage = false;
    bool bench = false;
    double minSpeedup = 10.0;
    std::string out = "BENCH_fast.json";
    std::string dumpDir;
    bool json = false;
};

const char *
lockstepModeName(ExecMode mode)
{
    return mode == ExecMode::ScalarBaseline ? "scalar" : "native";
}

/** One lockstep verdict for the report. */
struct LockstepRecord
{
    std::string name;   ///< workload or generated-kernel name
    ExecMode mode = ExecMode::ScalarBaseline;
    unsigned width = 0;
    fast::LockstepResult result;
};

std::string
recordKey(const LockstepRecord &rec)
{
    std::string key = rec.name;
    key += '/';
    key += lockstepModeName(rec.mode);
    if (rec.mode != ExecMode::ScalarBaseline)
        key += "/w" + std::to_string(rec.width);
    return key;
}

void
dumpDivergence(const std::string &dir, const LockstepRecord &rec)
{
    if (dir.empty())
        return;
    std::filesystem::create_directories(dir);
    std::string file = recordKey(rec);
    for (char &c : file) {
        if (c == '/' || c == '.')
            c = '_';
    }
    std::ofstream os(dir + "/" + file + ".txt");
    os << recordKey(rec) << ": " << rec.result.retires
       << " retires compared\n";
    for (const auto &d : rec.result.divergences)
        os << d << '\n';
}

/**
 * Lockstep one program and record the verdict. Returns equal-ness so
 * callers can tally failures.
 */
bool
checkOne(const Options &opts, std::vector<LockstepRecord> &records,
         const std::string &name, const Program &prog, ExecMode mode,
         unsigned width, Sabotage sabotage = Sabotage::None)
{
    fast::LockstepOptions lopts;
    lopts.switchDispatch = opts.switchDispatch;
    lopts.sabotage = sabotage;
    if (!opts.faults.empty())
        lopts.faults = FaultSchedule::parse(opts.faults);
    // The stale-decode mutation only bites when an SMC event exercises
    // the invalidation path it corrupts.
    if (sabotage == Sabotage::StaleDecodeAfterSmc && opts.faults.empty())
        lopts.faults = FaultSchedule::parse("smc@40");

    LockstepRecord rec{name, mode, width,
                       fast::runLockstep(prog, mode, width, lopts)};
    const bool equal = rec.result.equal;
    if (!equal)
        dumpDivergence(opts.dumpDir, rec);
    if (!opts.json && !equal && sabotage == Sabotage::None) {
        std::cout << "  " << recordKey(rec) << ": DIVERGED after "
                  << rec.result.retires << " retire(s)\n";
        for (const auto &d : rec.result.divergences)
            std::cout << "      " << d << '\n';
    }
    records.push_back(std::move(rec));
    return equal;
}

/** The selected suite workloads, built per mode. */
std::vector<std::unique_ptr<Workload>>
selectWorkloads(const Options &opts)
{
    std::vector<std::unique_ptr<Workload>> out;
    for (auto &wl : makeSuite()) {
        if (!opts.workloads.empty()) {
            bool wanted = false;
            for (const auto &name : opts.workloads)
                wanted = wanted || name == wl->name();
            if (!wanted)
                continue;
        }
        out.push_back(std::move(wl));
    }
    if (out.empty())
        fatal("liquid-fast: no matching workloads");
    return out;
}

/**
 * The lockstep sweep proper: the 15-workload suite (scalar runs the
 * Scalarized build so bl/ret and the call log are exercised; native
 * runs the Native build per width), plus --random generated kernels.
 */
int
runLockstepSweep(const Options &opts)
{
    std::vector<LockstepRecord> records;
    unsigned failures = 0;

    for (const auto &wl : selectWorkloads(opts)) {
        for (ExecMode mode : opts.modes) {
            if (mode == ExecMode::ScalarBaseline) {
                const auto build =
                    wl->build(EmitOptions::Mode::Scalarized, 8);
                if (!checkOne(opts, records, wl->name(), build.prog,
                              mode, 0))
                    ++failures;
            } else {
                for (unsigned width : opts.widths) {
                    const auto build =
                        wl->build(EmitOptions::Mode::Native, width);
                    if (!checkOne(opts, records, wl->name(),
                                  build.prog, mode, width))
                        ++failures;
                }
            }
        }
    }

    Rng rng(opts.seed);
    unsigned skipped = 0;
    for (unsigned i = 0; i < opts.random; ++i) {
        const GeneratedKernel g = generateKernel(rng, i);
        const std::string name = "rand" + std::to_string(i);
        Program scalarProg;
        Program nativeProg;
        try {
            Rng rs(opts.seed ^ (0x9e3779b97f4a7c15ull + i));
            scalarProg = buildGeneratedProgram(
                g, rs, EmitOptions::Mode::Scalarized, 8);
            Rng rn(opts.seed ^ (0x9e3779b97f4a7c15ull + i));
            nativeProg = buildGeneratedProgram(
                g, rn, EmitOptions::Mode::Native, 8);
        } catch (const PanicError &) {
            // Generator occasionally exceeds a scalarizer limit;
            // such kernels never run on either tier.
            ++skipped;
            continue;
        } catch (const FatalError &) {
            ++skipped;
            continue;
        }
        if (!checkOne(opts, records, name, scalarProg,
                      ExecMode::ScalarBaseline, 0))
            ++failures;
        if (!checkOne(opts, records, name, nativeProg,
                      ExecMode::NativeSimd, 8))
            ++failures;
    }
    if (skipped && !opts.json) {
        std::cout << skipped << " random kernel(s) skipped "
                     "(scalarizer limits)\n";
    }

    // Sabotage self-test: each seeded handler mutation must surface as
    // a lockstep divergence — a compare that misses a known-wrong
    // functional tier would also miss a real bug.
    std::vector<std::pair<std::string, bool>> sabotageCaught;
    if (opts.sabotage) {
        const auto suite = makeSuite();
        const Workload *victim = nullptr;
        for (const auto &wl : suite) {
            if (wl->name() == "fir")
                victim = wl.get();
        }
        LIQUID_ASSERT(victim, "suite lost the fir workload");
        const auto scalarBuild =
            victim->build(EmitOptions::Mode::Scalarized, 8);
        const auto nativeBuild =
            victim->build(EmitOptions::Mode::Native, 8);
        for (Sabotage s :
             {Sabotage::WrongFlagUpdate, Sabotage::SkippedStore,
              Sabotage::StaleDecodeAfterSmc, Sabotage::OffByOneBlock}) {
            std::vector<LockstepRecord> scratch;
            const bool scalarEqual = checkOne(
                opts, scratch, "sabotage", scalarBuild.prog,
                ExecMode::ScalarBaseline, 0, s);
            const bool nativeEqual = checkOne(
                opts, scratch, "sabotage", nativeBuild.prog,
                ExecMode::NativeSimd, 8, s);
            // Caught = at least one lockstep run diverged.
            const bool caught = !scalarEqual || !nativeEqual;
            const char *sname =
                s == Sabotage::WrongFlagUpdate ? "wrongFlagUpdate"
                : s == Sabotage::SkippedStore  ? "skippedStore"
                : s == Sabotage::StaleDecodeAfterSmc
                    ? "staleDecodeAfterSmc"
                    : "offByOneBlock";
            sabotageCaught.emplace_back(sname, caught);
            if (!caught)
                ++failures;
            if (!opts.json) {
                std::cout << "sabotage " << sname << ": "
                          << (caught ? "caught" : "MISSED") << '\n';
            }
        }
    }

    if (opts.json) {
        json::Value v = json::toolReport(fastSchema, fastToolVersion);
        v.set("dispatch",
              opts.switchDispatch ? "switch" : "computed-goto");
        v.set("checks", static_cast<std::uint64_t>(records.size()));
        v.set("failures", failures);
        json::Value arr = json::Value::array();
        for (const auto &rec : records) {
            json::Value r = json::Value::object();
            r.set("key", recordKey(rec));
            r.set("retires", rec.result.retires);
            r.set("equal", rec.result.equal);
            if (!rec.result.equal) {
                json::Value dd = json::Value::array();
                for (const auto &d : rec.result.divergences)
                    dd.push(json::Value(d));
                r.set("divergences", std::move(dd));
            }
            arr.push(std::move(r));
        }
        v.set("results", std::move(arr));
        if (!sabotageCaught.empty()) {
            json::Value sab = json::Value::object();
            for (const auto &[name, caught] : sabotageCaught)
                sab.set(name, caught);
            v.set("sabotageCaught", std::move(sab));
        }
        std::cout << v.toString() << '\n';
    } else {
        std::uint64_t retires = 0;
        for (const auto &rec : records)
            retires += rec.result.retires;
        std::cout << records.size() << " lockstep runs, " << retires
                  << " retires compared, " << failures
                  << " failure(s)\n";
    }
    return failures ? 1 : 0;
}

// ---- throughput bench -----------------------------------------------------

/** Wall-clock per tier over repeated runs of one build. */
struct TierTiming
{
    std::uint64_t insts = 0;
    double seconds = 0;
};

/** Repeat @p body until ~minSeconds of wall-clock accumulates. */
template <typename Body>
TierTiming
timeTier(double minSeconds, Body body)
{
    TierTiming t;
    const auto t0 = std::chrono::steady_clock::now();
    do {
        t.insts += body();
        t.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    } while (t.seconds < minSeconds);
    return t;
}

/**
 * Bench: run the "fast" lab campaign for the committed parity results,
 * then measure retired-instructions/sec on both tiers across the suite
 * and attach the throughput block. The functional tier must clear
 * --min-speedup over the cycle model.
 */
int
runBench(const Options &opts)
{
    // Parity results via the lab (smoke-sized: the committed baseline
    // must match what CI's smoke campaign produces).
    lab::Runner runner(0);
    lab::ResultSet results = runner.run(
        lab::campaignByName("fast", true).matrix.expand(), nullptr,
        nullptr, nullptr);

    // Throughput: full-sized workloads, both modes, both tiers.
    TierTiming cycle, functional;
    for (const auto &wl : selectWorkloads(opts)) {
        for (ExecMode mode : opts.modes) {
            const auto build = wl->build(
                mode == ExecMode::ScalarBaseline
                    ? EmitOptions::Mode::Scalarized
                    : EmitOptions::Mode::Native,
                8);
            const SystemConfig config = SystemConfig::make(mode, 8);
            const auto c = timeTier(0.05, [&]() -> std::uint64_t {
                System sys(config, build.prog);
                sys.run();
                return sys.core().stats().get("insts");
            });
            cycle.insts += c.insts;
            cycle.seconds += c.seconds;

            fast::FastConfig fc;
            fc.simdWidth =
                mode == ExecMode::ScalarBaseline ? 0 : config.simdWidth;
            fc.switchDispatch = opts.switchDispatch;
            const auto f = timeTier(0.05, [&]() -> std::uint64_t {
                MainMemory mem = MainMemory::forProgram(build.prog);
                fast::FastInterp interp(fc, build.prog, mem);
                interp.run();
                return interp.retired();
            });
            functional.insts += f.insts;
            functional.seconds += f.seconds;
        }
    }

    const double cycleRate =
        static_cast<double>(cycle.insts) / cycle.seconds;
    const double functionalRate =
        static_cast<double>(functional.insts) / functional.seconds;
    const double speedup = functionalRate / cycleRate;

    json::Value v = results.toJson();
    json::Value thr = json::Value::object();
    thr.set("schema", fastSchema);
    thr.set("dispatch",
            opts.switchDispatch ? "switch" : "computed-goto");
    json::Value cyc = json::Value::object();
    cyc.set("insts", cycle.insts);
    cyc.set("retiredPerSec", cycleRate);
    thr.set("cycle", std::move(cyc));
    json::Value fun = json::Value::object();
    fun.set("insts", functional.insts);
    fun.set("retiredPerSec", functionalRate);
    thr.set("functional", std::move(fun));
    thr.set("speedup", speedup);
    v.set("throughput", std::move(thr));

    std::ofstream os(opts.out, std::ios::binary);
    if (!os)
        fatal("liquid-fast: cannot write '", opts.out, "'");
    os << v.toString();

    std::cout << "cycle tier:      " << static_cast<std::uint64_t>(
                     cycleRate) << " retired insts/sec\n"
              << "functional tier: " << static_cast<std::uint64_t>(
                     functionalRate) << " retired insts/sec\n"
              << "speedup:         " << speedup << "x (gate: >= "
              << opts.minSpeedup << "x)\n"
              << "results + throughput -> " << opts.out << '\n';
    if (speedup < opts.minSpeedup) {
        std::cout << "FAIL: functional tier below the throughput "
                     "gate\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    const cli::Command cmd{
        "usage: liquid-fast [options]\n",
        {{"--workloads LIST", "comma-separated suite names (default: all)",
          cli::list(opts.workloads)},
         {"--modes LIST",
          "scalar,native (default: both; liquid is covered by liquid-chaos)",
          cli::list(opts.modes, {{"scalar", ExecMode::ScalarBaseline},
                                 {"native", ExecMode::NativeSimd}})},
         {"--widths LIST", "native SIMD widths (default: 8)",
          cli::widths(opts.widths)},
         {"--random N", "also lockstep N random kernels",
          cli::value(opts.random)},
         {"--seed S", "random-kernel RNG seed (default 1)",
          cli::value(opts.seed)},
         {"--switch", "force the portable switch dispatch loop",
          cli::flag(opts.switchDispatch)},
         {"--faults KEY",
          "retire-keyed schedule for both tiers, e.g. 'int@40+smc@100'",
          cli::value(opts.faults)},
         {"--sabotage", "self-test: seed each handler mutation and require "
                        "the lockstep compare to catch it",
          cli::flag(opts.sabotage)},
         {"--bench", "measure retired-instructions/sec on both tiers and "
                     "write a results file",
          cli::flag(opts.bench)},
         {"--min-speedup X", "bench gate: functional must be at least X "
                             "times the cycle tier (default 10)",
          cli::value(opts.minSpeedup)},
         {"--out FILE", "bench output path (default BENCH_fast.json)",
          cli::value(opts.out)},
         {"--dump-dir DIR",
          "write one divergence dump file per failing lockstep run",
          cli::value(opts.dumpDir)},
         {"--json", "machine-readable report on stdout",
          cli::flag(opts.json)}}};
    if (const auto rc = cli::parse(cmd, argc, argv))
        return *rc;

    try {
        if (opts.bench)
            return runBench(opts);
        return runLockstepSweep(opts);
    } catch (const FatalError &e) {
        std::cerr << "liquid-fast: " << e.what() << '\n';
        return 2;
    } catch (const PanicError &e) {
        std::cerr << "liquid-fast: " << e.what() << '\n';
        return 1;
    }
}
