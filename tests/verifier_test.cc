/**
 * @file
 * Static verifier tests: CFG reconstruction, Ok predictions (width,
 * microcode size) cross-checked against the offline translator, exact
 * abort-reason prediction over the curated legality table, Warn
 * verdicts on runtime-dependent regions, width fallback, and the
 * scalarizer's deliberate sabotage injections.
 */

#include <gtest/gtest.h>

#include "abort_cases.hh"
#include "random_kernels.hh"
#include "translator/offline.hh"
#include "verifier/cfg.hh"
#include "verifier/rules.hh"
#include "verifier/verifier.hh"

namespace liquid
{
namespace
{

const char *copyLoop = R"(
    .words src 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
    .data dst 64
    fn:
        mov r0, #0
    top:
        ldw r1, [src + r0]
        add r1, r1, #100
        stw [dst + r0], r1
        add r0, r0, #1
        cmp r0, #16
        blt top
        ret
    main:
        bl.simd fn
        halt
)";

TEST(VerifierCfg, CopyLoopStructure)
{
    const Program prog = assemble(copyLoop);
    const RegionCfg cfg = RegionCfg::build(prog, prog.labelIndex("fn"));

    // Blocks: entry mov | loop body | ret.
    EXPECT_EQ(cfg.blocks().size(), 3u);
    ASSERT_EQ(cfg.loops().size(), 1u);
    EXPECT_EQ(cfg.loops()[0].headBlock, 1);
    EXPECT_FALSE(cfg.fallsOffEnd());
    // All 8 region instructions reachable, none beyond.
    EXPECT_EQ(cfg.instructions().size(), 8u);
    EXPECT_TRUE(cfg.contains(prog.labelIndex("fn")));
    EXPECT_FALSE(cfg.contains(prog.labelIndex("main")));
}

TEST(Verifier, OkPredictionMatchesOfflineTranslation)
{
    const Program prog = assemble(copyLoop);
    VerifyOptions opts;
    opts.config.simdWidth = 8;

    const RegionReport r =
        verifyRegion(prog, prog.labelIndex("fn"), opts);
    EXPECT_EQ(r.verdict, Severity::Ok);
    EXPECT_EQ(r.predictedWidth, 8u);
    EXPECT_EQ(r.blockCount, 3u);
    EXPECT_EQ(r.loopCount, 1u);

    const OfflineResult off =
        translateOffline(prog, prog.labelIndex("fn"), 8);
    ASSERT_TRUE(off.ok);
    EXPECT_EQ(r.predictedUcode, off.entry.insts.size());
    EXPECT_EQ(r.predictedCvecs, off.entry.cvecs.size());
    EXPECT_EQ(off.entry.simdWidth, 8u);
}

TEST(Verifier, PredictsExactReasonForEveryLegalityCheck)
{
    for (const AbortCase &c : abortCases()) {
        SCOPED_TRACE(c.name);
        const Program prog = assemble(c.src);
        VerifyOptions opts;
        opts.config.simdWidth = c.width;
        opts.widthFallback = false;

        const RegionReport r =
            verifyRegion(prog, prog.labelIndex("fn"), opts);
        EXPECT_EQ(r.verdict, Severity::Error);
        EXPECT_EQ(r.reason, c.reason);
        // The Error diagnostic names the canonical reason and class.
        bool found = false;
        for (const Diagnostic &d : r.diags) {
            if (d.severity != Severity::Error)
                continue;
            found = true;
            EXPECT_NE(d.message.find(c.name), std::string::npos)
                << d.message;
            EXPECT_NE(d.message.find(reasonClassName(
                          abortReasonClass(c.reason))),
                      std::string::npos)
                << d.message;
        }
        EXPECT_TRUE(found);
    }
}

/**
 * Every place the rule automaton needs a value the static walk may not
 * know becomes a Warn naming the runtime condition, decided at the
 * instruction labelled `site`. These sites are the only place where a
 * static walk of the automaton can part from a dynamic one.
 */
TEST(Verifier, WarnNamesTheRuntimeCondition)
{
    struct Case
    {
        const char *what;
        const char *message;
        std::string src;
    };
    // `addgt` under flags set from an unknown register leaves the
    // induction variable's abstract value unknown while the automaton
    // still tracks it as an induction variable.
    const Case cases[] = {
        {"branch",
         "branch depends on runtime data (flags set by the cmp at inst 1)",
         withMain(R"(
            fn:
                mov r1, r2
                cmp r1, #0
            site:
                bgt skip
            skip:
                ret
        )")},
        {"load address", "load address depends on runtime data",
         withMain(R"(
            .words src 1 2 3 4 5 6 7 8
            fn:
                mov r0, #0
                cmp r2, #0
                addgt r0, r0, #1
            site:
                ldw r1, [src + r0]
                ret
        )")},
        {"store address", "store address depends on runtime data",
         withMain(R"(
            .words src 1 2 3 4 5 6 7 8
            .data dst 32
            fn:
                mov r0, #0
                ldw r1, [src + r0]
                cmp r2, #0
                addgt r0, r0, #1
            site:
                stw [dst + r0], r1
                ret
        )")},
        {"induction variable",
         "induction variable value depends on runtime data", withMain(R"(
            fn:
                mov r0, #0
                cmp r2, #0
                addgt r0, r0, #1
            site:
                add r0, r0, #1
                ret
        )")},
        {"constant-pool load",
         "constant-pool load depends on runtime data", withMain(R"(
            .words src 1 2 3 4 5 6 7 8
            .rowords tbl 1 2 3 4 5 6 7 8
            fn:
                mov r0, #0
                ldw r1, [src + r0]
                stw [tbl + r0], r1
            site:
                ldw r2, [tbl + r0]
                ret
        )")},
        {"stream address", "stream address depends on runtime data",
         withMain(R"(
            .words src 1 2 3 4 5 6 7 8
            .data dst 32
            fn:
                mov r0, #0
                mov r3, #0
            site:
                ldw r1, [src + r0]
                stw [dst + r0], r1
                cmp r2, #0
                addgt r0, r0, #1
                add r3, r3, #1
                cmp r3, #8
                blt site
                ret
        )")},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        const Program prog = assemble(c.src);
        const int entry = prog.labelIndex("fn");
        const int site = prog.labelIndex("site");

        TranslatorConfig config;
        const StaticOutcome out = analyzeRegion(prog, entry, config, 8);
        EXPECT_EQ(out.verdict, Severity::Warn);
        EXPECT_EQ(out.warnCondition, c.message);
        EXPECT_EQ(out.reasonIndex, site);

        // The verifier surfaces the same condition at the same place.
        VerifyOptions opts;
        const RegionReport r = verifyRegion(prog, entry, opts);
        EXPECT_EQ(r.verdict, Severity::Warn);
        bool named = false;
        for (const Diagnostic &d : r.diags) {
            if (d.severity == Severity::Warn && d.message == c.message &&
                d.instIndex == site)
                named = true;
        }
        EXPECT_TRUE(named);
    }
}

TEST(Verifier, WidthFallbackRebindsNarrower)
{
    // Trip count 4 cannot bind 8 lanes but binds 4: with fallback the
    // verifier predicts the rebound width, keeping the width-8 Error
    // diagnostic in the trail.
    const AbortCase *trip = nullptr;
    for (const AbortCase &c : abortCases()) {
        if (c.reason == AbortReason::TripCount)
            trip = &c;
    }
    ASSERT_NE(trip, nullptr);
    const Program prog = assemble(trip->src);

    VerifyOptions opts;
    opts.config.simdWidth = 8;
    opts.widthFallback = true;
    const RegionReport r =
        verifyRegion(prog, prog.labelIndex("fn"), opts);
    EXPECT_EQ(r.verdict, Severity::Ok);
    EXPECT_EQ(r.predictedWidth, 4u);

    const OfflineResult off =
        translateOffline(prog, prog.labelIndex("fn"), 4);
    ASSERT_TRUE(off.ok);
    EXPECT_EQ(r.predictedUcode, off.entry.insts.size());

    bool width8_error = false;
    for (const Diagnostic &d : r.diags) {
        if (d.severity == Severity::Error &&
            d.message.find("width 8") != std::string::npos)
            width8_error = true;
    }
    EXPECT_TRUE(width8_error);
}

TEST(Verifier, HintCapsTheBindingWidth)
{
    const Program prog = assemble(copyLoop);
    VerifyOptions opts;
    opts.config.simdWidth = 8;
    const RegionReport r =
        verifyRegion(prog, prog.labelIndex("fn"), opts, 4);
    EXPECT_EQ(r.verdict, Severity::Ok);
    EXPECT_EQ(r.predictedWidth, 4u);
}

TEST(Verifier, ProgramReportCoversEveryHintedRegion)
{
    const Program prog = assemble(copyLoop);
    VerifyOptions opts;
    const ProgramReport report = verifyProgram(prog, opts);
    ASSERT_EQ(report.regions.size(), 1u);
    EXPECT_EQ(report.regions[0].entryLabel, "fn");
    EXPECT_FALSE(report.anyError());
    EXPECT_FALSE(
        formatRegionReport(report.regions[0]).empty());
}

const char *copyLoop32 = R"(
    .words src32 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
    .data dst32 128
    fn:
        mov r0, #0
    top:
        ldw r1, [src32 + r0]
        add r1, r1, #100
        stw [dst32 + r0], r1
        add r0, r0, #1
        cmp r0, #32
        blt top
        ret
    main:
        bl.simd fn
        halt
)";

TEST(Verifier, WarnThenNarrowerOkReportsTheOkBinding)
{
    // Regression for the width-fallback Warn plumbing: a Warn on the
    // wide attempt must not hide a narrower width the verifier can
    // certify. Depcheck spends its pair budget in ascending width
    // order, so a budget that covers widths 2-8 but not 16 yields a
    // genuine width-dependent Warn at 16 and a proof at 8.
    const Program prog = assemble(copyLoop32);
    VerifyOptions opts;
    opts.config.simdWidth = 16;
    opts.widthFallback = true;
    opts.dep.pairBudget = 900;

    const RegionReport r =
        verifyRegion(prog, prog.labelIndex("fn"), opts);
    EXPECT_EQ(r.verdict, Severity::Ok);
    EXPECT_EQ(r.reason, AbortReason::None);
    EXPECT_EQ(r.predictedWidth, 8u);
    ASSERT_TRUE(r.depAnalyzed);
    EXPECT_EQ(r.dep.verdictAt(16).kind, WidthVerdict::Kind::Unknown);
    EXPECT_EQ(r.dep.verdictAt(8).kind, WidthVerdict::Kind::Safe);

    // The Warn trail survives in the diagnostics.
    bool warned = false;
    for (const Diagnostic &d : r.diags) {
        if (d.severity == Severity::Warn &&
            d.message.find("memoryDependence") != std::string::npos)
            warned = true;
    }
    EXPECT_TRUE(warned);

    // Without fallback the wide attempt's Warn is the verdict: the
    // single-translation prediction really is unknown.
    opts.widthFallback = false;
    const RegionReport single =
        verifyRegion(prog, prog.labelIndex("fn"), opts);
    EXPECT_EQ(single.verdict, Severity::Warn);
    EXPECT_EQ(single.predictedWidth, 0u);
}

TEST(Verifier, OkCarriesCostEstimate)
{
    const Program prog = assemble(copyLoop);
    VerifyOptions opts;
    opts.config.simdWidth = 8;
    const RegionReport r =
        verifyRegion(prog, prog.labelIndex("fn"), opts);
    ASSERT_EQ(r.verdict, Severity::Ok);
    EXPECT_GT(r.predictedScalarCycles, 0.0);
    EXPECT_GT(r.predictedSimdCycles, 0.0);
    // 16 iterations of a vectorizable loop at width 8 must predict a
    // speedup strictly between 1x and the lane count.
    EXPECT_GT(r.predictedSpeedup, 1.0);
    EXPECT_LE(r.predictedSpeedup, 8.0);
}

TEST(Verifier, SabotagedKernelsPredicted)
{
    using Sabotage = EmitOptions::Sabotage;
    const struct
    {
        Sabotage kind;
        AbortReason reason;
    } table[] = {
        {Sabotage::UntranslatableOp,
         AbortReason::UntranslatableOpcode},
        {Sabotage::NestedCall, AbortReason::NestedCall},
        {Sabotage::ForwardBranch, AbortReason::ForwardBranch},
        {Sabotage::IvArithmetic, AbortReason::IvArithmetic},
        {Sabotage::ScalarStore, AbortReason::StoreScalarData},
    };

    Rng rng(7);
    const GeneratedKernel g = generateKernel(rng, 0);
    for (const auto &t : table) {
        SCOPED_TRACE(abortReasonName(t.reason));
        Rng d(11);
        const Program prog = buildGeneratedProgram(
            g, d, EmitOptions::Mode::Scalarized, 8, t.kind);
        VerifyOptions opts;
        opts.widthFallback = false;
        const RegionReport r = verifyRegion(
            prog, prog.labelIndex(g.kernel.name()), opts,
            g.kernel.maxWidth());
        EXPECT_EQ(r.verdict, Severity::Error);
        EXPECT_EQ(r.reason, t.reason);
    }
}

} // namespace
} // namespace liquid
