/**
 * @file
 * Lockstep differential tests for the functional execution tier: the
 * interpreter must retire exactly the architectural state the cycle
 * core retires, instruction for instruction, across the whole workload
 * suite, randomized kernels, both dispatch loops and fault injection —
 * and the sabotage self-test proves the compare actually bites.
 *
 * Random-kernel count defaults to 200 and can be raised for fuzz runs
 * via LIQUID_LOCKSTEP_KERNELS.
 */

#include <gtest/gtest.h>

#include <string>

#include "chaos/fault_schedule.hh"
#include "chaos/oracle.hh"
#include "common/random.hh"
#include "fast/lockstep.hh"
#include "fast/reference.hh"
#include "random_kernels.hh"
#include "test_env.hh"
#include "workloads/workload.hh"

namespace liquid::fast
{
namespace
{

std::string
firstDivergence(const LockstepResult &r)
{
    return r.divergences.empty() ? std::string("(none)")
                                 : r.divergences.front();
}

/** Every suite workload, scalar build, per-retire equal. */
TEST(FastLockstep, SuiteScalarBaseline)
{
    for (const auto &wl : makeSuite()) {
        const auto build = wl->build(EmitOptions::Mode::Scalarized, 8);
        const LockstepResult r =
            runLockstep(build.prog, ExecMode::ScalarBaseline, 0);
        EXPECT_TRUE(r.equal)
            << wl->name() << ": " << firstDivergence(r);
        EXPECT_GT(r.retires, 0u) << wl->name();
    }
}

/** Every suite workload, native SIMD build at width 8. */
TEST(FastLockstep, SuiteNativeSimd)
{
    for (const auto &wl : makeSuite()) {
        const auto build = wl->build(EmitOptions::Mode::Native, 8);
        const LockstepResult r =
            runLockstep(build.prog, ExecMode::NativeSimd, 8);
        EXPECT_TRUE(r.equal)
            << wl->name() << ": " << firstDivergence(r);
        EXPECT_GT(r.retires, 0u) << wl->name();
    }
}

/**
 * Randomized kernels (>= 200 by default), both modes per kernel. The
 * scalar side runs the Scalarized build so bl/ret and the call log
 * are in the retire stream too.
 */
TEST(FastLockstep, RandomKernels)
{
    const unsigned kernels = envKnob("LIQUID_LOCKSTEP_KERNELS", 200u);
    Rng rng(7);
    unsigned checked = 0;
    for (unsigned i = 0; i < kernels; ++i) {
        const GeneratedKernel g = generateKernel(rng, i);
        Program scalarProg;
        Program nativeProg;
        try {
            Rng rs(0x9e3779b97f4a7c15ull + i);
            scalarProg = buildGeneratedProgram(
                g, rs, EmitOptions::Mode::Scalarized, 8);
            Rng rn(0x9e3779b97f4a7c15ull + i);
            nativeProg = buildGeneratedProgram(
                g, rn, EmitOptions::Mode::Native, 8);
        } catch (const PanicError &) {
            // The generator occasionally exceeds a scalarizer limit
            // (register pressure / staging aliasing); such kernels
            // never run on either tier.
            continue;
        } catch (const FatalError &) {
            continue;
        }
        ++checked;
        const LockstepResult rs =
            runLockstep(scalarProg, ExecMode::ScalarBaseline, 0);
        EXPECT_TRUE(rs.equal)
            << g.kernel.name() << " (scalar): " << firstDivergence(rs);
        const LockstepResult rn =
            runLockstep(nativeProg, ExecMode::NativeSimd, 8);
        EXPECT_TRUE(rn.equal)
            << g.kernel.name() << " (native): " << firstDivergence(rn);
    }
    // The skip path must stay the exception, not the rule.
    EXPECT_GE(checked, kernels * 9 / 10);
}

/** The portable switch loop must agree wherever computed-goto does. */
TEST(FastLockstep, SwitchDispatchAgrees)
{
    LockstepOptions opts;
    opts.switchDispatch = true;
    for (const auto &wl : makeSuite()) {
        if (wl->name() != "fir" && wl->name() != "fft" &&
            wl->name() != "179.art") {
            continue;
        }
        const auto scalar = wl->build(EmitOptions::Mode::Scalarized, 8);
        const LockstepResult rs = runLockstep(
            scalar.prog, ExecMode::ScalarBaseline, 0, opts);
        EXPECT_TRUE(rs.equal)
            << wl->name() << ": " << firstDivergence(rs);
        const auto native = wl->build(EmitOptions::Mode::Native, 8);
        const LockstepResult rn =
            runLockstep(native.prog, ExecMode::NativeSimd, 8, opts);
        EXPECT_TRUE(rn.equal)
            << wl->name() << ": " << firstDivergence(rn);
    }
}

/**
 * Retire-keyed fault events deliver to both tiers; the dispatch-cache
 * invalidation they trigger on the functional side must never change
 * architectural results.
 */
TEST(FastLockstep, FaultEventsStayEqual)
{
    LockstepOptions opts;
    opts.faults =
        FaultSchedule::parse("dcache@77+int@50+smc@123+flush@199");
    for (const auto &wl : makeSuite()) {
        if (wl->name() != "fir" && wl->name() != "lu")
            continue;
        const auto scalar = wl->build(EmitOptions::Mode::Scalarized, 8);
        const LockstepResult rs = runLockstep(
            scalar.prog, ExecMode::ScalarBaseline, 0, opts);
        EXPECT_TRUE(rs.equal)
            << wl->name() << ": " << firstDivergence(rs);
        const auto native = wl->build(EmitOptions::Mode::Native, 8);
        const LockstepResult rn =
            runLockstep(native.prog, ExecMode::NativeSimd, 8, opts);
        EXPECT_TRUE(rn.equal)
            << wl->name() << ": " << firstDivergence(rn);
    }
}

/** Liquid mode interleaves microcode into the retire stream; the
 *  harness must refuse it rather than report spurious divergences. */
TEST(FastLockstep, LiquidModeRejected)
{
    const auto suite = makeSuite();
    const auto build =
        suite.front()->build(EmitOptions::Mode::Scalarized, 8);
    EXPECT_THROW(runLockstep(build.prog, ExecMode::Liquid, 8),
                 FatalError);
}

/**
 * Self-test: every seeded handler bug must surface as a divergence on
 * at least one of the two lockstep runs — a compare that misses a
 * known-wrong functional tier would also miss a real bug.
 */
TEST(FastLockstep, SabotageModesAllCaught)
{
    const auto suite = makeSuite();
    const Workload *fir = nullptr;
    for (const auto &wl : suite) {
        if (wl->name() == "fir")
            fir = wl.get();
    }
    ASSERT_NE(fir, nullptr);
    const auto scalar = fir->build(EmitOptions::Mode::Scalarized, 8);
    const auto native = fir->build(EmitOptions::Mode::Native, 8);

    for (Sabotage s :
         {Sabotage::WrongFlagUpdate, Sabotage::SkippedStore,
          Sabotage::StaleDecodeAfterSmc, Sabotage::OffByOneBlock}) {
        LockstepOptions opts;
        opts.sabotage = s;
        // The stale-decode mutation only bites when an SMC event
        // exercises the invalidation path it corrupts.
        if (s == Sabotage::StaleDecodeAfterSmc)
            opts.faults = FaultSchedule::parse("smc@40");
        const LockstepResult rs = runLockstep(
            scalar.prog, ExecMode::ScalarBaseline, 0, opts);
        const LockstepResult rn =
            runLockstep(native.prog, ExecMode::NativeSimd, 8, opts);
        EXPECT_FALSE(rs.equal && rn.equal)
            << "sabotage mode " << static_cast<int>(s)
            << " was not caught";
    }
}

/**
 * The functional reference must be bit-identical to the cycle-core
 * reference across the suite — this is what licenses the oracles'
 * trial-count raise to ride on the functional tier.
 */
TEST(FastLockstep, FunctionalReferenceMatchesCycleReference)
{
    for (const auto &wl : makeSuite()) {
        const auto build = wl->build(EmitOptions::Mode::Scalarized, 8);
        const ChaosReference cyc = makeReference(build.prog, 8);
        const ChaosReference fun =
            makeFunctionalReference(build.prog, 8);
        EXPECT_EQ(fun.instsRetired, cyc.instsRetired) << wl->name();
        EXPECT_EQ(fun.regions, cyc.regions) << wl->name();
        const bool same = fun.snapshot == cyc.snapshot;
        EXPECT_TRUE(same) << wl->name() << ": "
                          << (same ? std::string()
                                   : fun.snapshot.diff(cyc.snapshot)
                                         .front());
    }
}

} // namespace
} // namespace liquid::fast
