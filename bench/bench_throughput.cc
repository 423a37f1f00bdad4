/**
 * @file
 * google-benchmark microbenchmarks of the simulator infrastructure
 * itself: simulated instructions per second in each execution mode,
 * translator event throughput, scalarizer compile speed, and the
 * static stack's dependence and clobber scans. These are
 * host-performance benchmarks (not paper results) for keeping the
 * toolchain fast enough to run the sweeps.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "asm/assembler.hh"
#include "scalarizer/scalarizer.hh"
#include "sim/system.hh"
#include "verifier/poly.hh"
#include "verifier/range.hh"
#include "verifier/scan.hh"
#include "verifier/verifier.hh"
#include "workloads/range_stress.hh"
#include "workloads/workload.hh"

namespace
{

using namespace liquid;

const Workload &
suiteWorkload(const std::string &name)
{
    static const auto suite = makeSuite();
    for (const auto &wl : suite) {
        if (wl->name() == name)
            return *wl;
    }
    std::abort();
}

void
BM_SimulateScalar(benchmark::State &state)
{
    const auto build =
        suiteWorkload("fir").build(EmitOptions::Mode::InlineScalar);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        System sys(SystemConfig::make(ExecMode::ScalarBaseline),
                   build.prog);
        sys.run();
        insts += sys.core().stats().get("insts");
    }
    state.counters["sim_insts_per_s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateScalar);

void
BM_SimulateLiquid(benchmark::State &state)
{
    const auto build =
        suiteWorkload("fir").build(EmitOptions::Mode::Scalarized);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        System sys(SystemConfig::make(ExecMode::Liquid, 8), build.prog);
        sys.run();
        insts += sys.core().stats().get("insts") +
                 sys.core().stats().get("ucodeInsts");
    }
    state.counters["sim_insts_per_s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateLiquid);

void
BM_ScalarizeSuite(benchmark::State &state)
{
    const auto suite = makeSuite();
    for (auto _ : state) {
        for (const auto &wl : suite) {
            auto build = wl->build(EmitOptions::Mode::Scalarized);
            benchmark::DoNotOptimize(build.prog.code().size());
        }
    }
}
BENCHMARK(BM_ScalarizeSuite);

void
BM_Assemble(benchmark::State &state)
{
    const std::string src = R"(
        .words src 1 2 3 4 5 6 7 8
        .data dst 32
        fn:
            mov r0, #0
        top:
            ldw r1, [src + r0]
            add r1, r1, #100
            stw [dst + r0], r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            halt
    )";
    for (auto _ : state) {
        Program prog = assemble(src);
        benchmark::DoNotOptimize(prog.code().size());
    }
}
BENCHMARK(BM_Assemble);

/**
 * liquid-poly on the suite's largest dependence trace (179.art_k0:
 * 65 536 events, validity probed to N = 4096). pair_tests is the
 * enumerator's partner-visit counter for one analysis.
 */
void
BM_PolyAnalyzeArt(benchmark::State &state)
{
    const auto build = suiteWorkload("179.art")
                           .build(EmitOptions::Mode::Scalarized, 8, true);
    const int entry = build.prog.labelIndex("179.art_k0");
    const TranslatorConfig config;
    std::uint64_t pairTests = 0;
    for (auto _ : state) {
        const PolyRegion r = analyzePoly(build.prog, entry, config);
        pairTests = r.pairTests();
        benchmark::DoNotOptimize(r.validity.okWidths.size());
    }
    state.counters["pair_tests"] = static_cast<double>(pairTests);
}
BENCHMARK(BM_PolyAnalyzeArt)->Unit(benchmark::kMillisecond);

/**
 * Facts-on verification of the rs_pair_budget range-stress case at
 * width 16: every load of its 5888-iteration loop consults the
 * AbsMachine clobber check.
 */
void
BM_VerifyFactsPairBudget(benchmark::State &state)
{
    const RangeStressCase *stress = nullptr;
    for (const RangeStressCase &c : rangeStressCases()) {
        if (std::string(c.name) == "rs_pair_budget")
            stress = &c;
    }
    if (stress == nullptr)
        std::abort();
    const Program prog = assemble(stress->src);
    const ProgramRanges ranges = solveProgramRanges(prog);
    VerifyOptions opts;
    opts.config.simdWidth = 16;
    opts.ranges = &ranges;
    std::uint64_t probes = 0;
    for (auto _ : state) {
        const ProgramReport rep = verifyProgram(prog, opts);
        probes = 0;
        for (const RegionReport &r : rep.regions)
            probes += r.clobberProbes;
    }
    state.counters["clobber_probes"] = static_cast<double>(probes);
}
BENCHMARK(BM_VerifyFactsPairBudget)->Unit(benchmark::kMillisecond);

/** liquid-scan --suite: discovery, per-width prediction and poly. */
void
BM_ScanSuite(benchmark::State &state)
{
    std::vector<Program> progs;
    for (const auto &wl : makeSuite())
        progs.push_back(
            wl->build(EmitOptions::Mode::Scalarized, 8, false).prog);
    const ScanOptions opts;
    for (auto _ : state) {
        for (const Program &prog : progs) {
            const ScanReport rep = scanProgram(prog, opts);
            benchmark::DoNotOptimize(rep.regions.size());
        }
    }
}
BENCHMARK(BM_ScanSuite)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
