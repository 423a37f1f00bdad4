/**
 * @file
 * The abort-reason taxonomy is a tool contract: canonical names must
 * round-trip through the parser, every legality check must report its
 * canonical reason through the offline translator's OfflineResult, and
 * the dynamic translator must key its statistic counters by the same
 * name ("abort.<name>").
 */

#include <gtest/gtest.h>

#include <iterator>

#include "abort_cases.hh"
#include "sim/system.hh"
#include "translator/offline.hh"

namespace liquid
{
namespace
{

TEST(AbortReason, CanonicalNamesRoundTrip)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(AbortReason::NumReasons); ++i) {
        const auto reason = static_cast<AbortReason>(i);
        const char *name = abortReasonName(reason);
        ASSERT_NE(name, nullptr);
        EXPECT_FALSE(std::string(name).empty());
        EXPECT_EQ(parseAbortReason(name), reason) << name;
    }
    EXPECT_EQ(parseAbortReason("notAReason"), AbortReason::NumReasons);
    EXPECT_EQ(parseAbortReason(""), AbortReason::NumReasons);
}

TEST(AbortReason, EveryReasonHasAHumanDescription)
{
    // The single-source table pairs each reason with a one-line
    // description used by verifier diagnostics and the scan/verify
    // JSON; it must exist and must not just repeat the name.
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(AbortReason::NumReasons); ++i) {
        const auto reason = static_cast<AbortReason>(i);
        const char *desc = abortReasonDescription(reason);
        ASSERT_NE(desc, nullptr);
        EXPECT_FALSE(std::string(desc).empty());
        EXPECT_STRNE(desc, abortReasonName(reason));
    }
}

TEST(AbortReason, ClassGrouping)
{
    EXPECT_EQ(abortReasonClass(AbortReason::None), ReasonClass::None);
    EXPECT_EQ(abortReasonClass(AbortReason::NestedCall),
              ReasonClass::Structure);
    EXPECT_EQ(abortReasonClass(AbortReason::UnfinalizedPatches),
              ReasonClass::Structure);
    EXPECT_EQ(abortReasonClass(AbortReason::VectorOpcode),
              ReasonClass::Opcode);
    EXPECT_EQ(abortReasonClass(AbortReason::IvArithmetic),
              ReasonClass::Opcode);
    EXPECT_EQ(abortReasonClass(AbortReason::IdiomShape),
              ReasonClass::Idiom);
    EXPECT_EQ(abortReasonClass(AbortReason::MemoryDependence),
              ReasonClass::Dataflow);
    EXPECT_EQ(abortReasonClass(AbortReason::TripCount),
              ReasonClass::Width);
    EXPECT_EQ(abortReasonClass(AbortReason::UcodeOverflow),
              ReasonClass::Capacity);
    EXPECT_EQ(abortReasonClass(AbortReason::Interrupt),
              ReasonClass::Runtime);

    // Exactly the Width class is retried at narrower bindings.
    EXPECT_TRUE(abortIsWidthDependent(AbortReason::TripCount));
    EXPECT_TRUE(abortIsWidthDependent(AbortReason::UnsupportedShuffle));
    EXPECT_TRUE(abortIsWidthDependent(AbortReason::ValueMismatch));
    EXPECT_TRUE(abortIsWidthDependent(AbortReason::LanesIncomplete));
    EXPECT_FALSE(abortIsWidthDependent(AbortReason::MemoryDependence));
    EXPECT_FALSE(abortIsWidthDependent(AbortReason::UcodeOverflow));
}

/**
 * Table-driven: one curated region per legality check; the offline
 * translator must abort with exactly that check's canonical reason.
 */
TEST(AbortReason, EveryLegalityCheckReportsItsCanonicalReason)
{
    for (const AbortCase &c : abortCases()) {
        SCOPED_TRACE(c.name);
        EXPECT_STREQ(abortReasonName(c.reason), c.name);

        const Program prog = assemble(c.src);
        const OfflineResult off =
            translateOffline(prog, prog.labelIndex("fn"), c.width);
        EXPECT_FALSE(off.ok);
        EXPECT_EQ(off.reason, c.reason);
        EXPECT_EQ(off.abortReason, c.name);
    }
}

/**
 * Translator work counters after one run: what an aborted capture
 * still counts. The rule automaton bumps them as the work happens, so
 * work done before the abort stays counted.
 */
struct CaptureCounters
{
    const char *name;
    std::uint64_t instsObserved;
    std::uint64_t loopsVerified;
    std::uint64_t instsCollapsed;
    std::uint64_t idiomsRecognized;
    std::uint64_t widthFallbacks;
};

void
expectCounters(const StatGroup &stats, const CaptureCounters &want)
{
    EXPECT_EQ(stats.get("instsObserved"), want.instsObserved);
    EXPECT_EQ(stats.get("loopsVerified"), want.loopsVerified);
    EXPECT_EQ(stats.get("instsCollapsed"), want.instsCollapsed);
    EXPECT_EQ(stats.get("idiomsRecognized"), want.idiomsRecognized);
    EXPECT_EQ(stats.get("widthFallbacks"), want.widthFallbacks);
}

/**
 * The hardware translator keys its abort counters by the same names,
 * and the work counters of each aborted capture are exact.
 */
TEST(AbortReason, DynamicStatsKeyedByCanonicalName)
{
    static const CaptureCounters counters[] = {
        {"nestedCall", 0, 0, 0, 0, 0},
        {"forwardBranch", 1, 0, 0, 0, 0},
        {"retInsideLoop", 16, 0, 0, 0, 0},
        {"backedgeTargetUnseen", 3, 0, 0, 0, 0},
        {"shapeMismatch", 18, 0, 0, 0, 0},
        {"vectorOutsideLoop", 4, 0, 0, 0, 0},
        {"danglingBranch", 3, 0, 0, 0, 0},
        {"idiomIncomplete", 5, 0, 0, 0, 0},
        {"unfinalizedPatches", 5, 0, 0, 0, 0},
        {"vectorOpcode", 3, 0, 0, 0, 0},
        {"untranslatableOpcode", 1, 0, 0, 0, 0},
        {"conditionalMov", 3, 0, 0, 0, 0},
        {"movFromNonScalar", 2, 0, 0, 0, 0},
        {"loadWithoutIndex", 1, 0, 0, 0, 0},
        {"loadBadIndex", 2, 0, 0, 0, 0},
        {"storeWithoutIndex", 2, 0, 0, 0, 0},
        {"storeScalarData", 3, 0, 0, 0, 0},
        {"storeBadIndex", 4, 0, 0, 0, 0},
        {"vectorCompare", 3, 0, 0, 0, 0},
        {"unsupportedReduction", 4, 0, 0, 0, 0},
        {"vectorScalarMix", 4, 0, 0, 0, 0},
        {"offsetsInArithmetic", 4, 0, 0, 0, 0},
        {"ivArithmetic", 2, 0, 0, 0, 0},
        {"idiomShape", 4, 0, 0, 0, 0},
        {"idiomBadProducer", 6, 0, 0, 0, 0},
        {"valueTooWide", 10, 0, 0, 0, 0},
        {"addressMismatch", 7, 0, 0, 0, 0},
        {"ivMismatch", 6, 0, 0, 0, 0},
        {"memoryDependence", 41, 0, 0, 0, 0},
        {"tripCount", 25, 0, 0, 0, 1},
        {"unsupportedShuffle", 113, 0, 0, 0, 1},
        {"valueMismatch", 59, 0, 0, 0, 1},
        {"lanesIncomplete", 53, 0, 0, 0, 1},
        {"ucodeOverflow", 65, 0, 0, 0, 0},
    };
    ASSERT_EQ(std::size(counters), abortCases().size());
    std::size_t i = 0;
    for (const AbortCase &c : abortCases()) {
        SCOPED_TRACE(c.name);
        const Program prog = assemble(c.src);
        System sys(SystemConfig::make(ExecMode::Liquid, c.width), prog);
        sys.run();
        const StatGroup &stats = sys.translator().stats();
        EXPECT_EQ(stats.get(std::string("abort.") + c.name), 1u);
        EXPECT_EQ(stats.get("translations"), 0u);
        ASSERT_STREQ(counters[i].name, c.name);
        expectCounters(stats, counters[i++]);
    }
}

/**
 * Captures that do real work (a verified loop, a collapsed offset
 * load, a recognized saturation idiom) and only then abort: the work
 * counters keep that work.
 */
TEST(AbortReason, WorkBeforeAbortStaysCounted)
{
    struct Case
    {
        CaptureCounters want;
        AbortReason reason;
        std::string src;
    };
    const Case cases[] = {
        // The offset-array load collapses at commit, before the
        // unverified vector op after the loop aborts it.
        {{"collapseThenOutsideLoop", 61, 1, 1, 0, 0},
         AbortReason::VectorOutsideLoop, withMain(R"(
            .rowords off 1 -1 1 -1 1 -1 1 -1
            .words a 1 2 3 4 5 6 7 8
            .data b 32
            .data c 32
            fn:
                mov r0, #0
            top:
                ldw r1, [off + r0]
                add r2, r0, r1
                ldw r3, [a + r2]
                stw [b + r0], r3
                add r0, r0, #1
                cmp r0, #8
                blt top
                mov r4, #0
                ldw r5, [a + r4]
                add r5, r5, #1
                stw [c + r4], r5
                ret
        )")},
        // A saturating add inside a verified loop, then a vector
        // opcode after it.
        {{"idiomThenVectorOpcode", 90, 1, 0, 1, 0},
         AbortReason::VectorOpcode, withMain(R"(
            .words a 1 2 3 4 5 6 7 8
            .words b 1 1 1 1 1 1 1 1
            .data c 32
            fn:
                mov r0, #0
            top:
                ldw r1, [a + r0]
                ldw r2, [b + r0]
                add r1, r1, r2
                cmp r1, #32767
                movgt r1, #32767
                cmp r1, #-32768
                movlt r1, #-32768
                stw [c + r0], r1
                add r0, r0, #1
                cmp r0, #8
                blt top
                vadd v1, v1, v1
                ret
        )")},
        // A verified 8-trip loop, then a 4-trip loop the 8-lane
        // binding cannot take: the fallback is counted too.
        {{"loopThenTripCount", 62, 1, 0, 0, 1},
         AbortReason::TripCount, withMain(R"(
            .words a 1 2 3 4 5 6 7 8
            .data b 32
            .data c 16
            fn:
                mov r0, #0
            top:
                ldw r1, [a + r0]
                stw [b + r0], r1
                add r0, r0, #1
                cmp r0, #8
                blt top
                mov r2, #0
            second:
                ldw r3, [a + r2]
                stw [c + r2], r3
                add r2, r2, #1
                cmp r2, #4
                blt second
                ret
        )")},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.want.name);
        const Program prog = assemble(c.src);
        System sys(SystemConfig::make(ExecMode::Liquid, 8), prog);
        sys.run();
        const StatGroup &stats = sys.translator().stats();
        EXPECT_EQ(stats.get(std::string("abort.") +
                            abortReasonName(c.reason)),
                  1u);
        EXPECT_EQ(stats.get("translations"), 0u);
        expectCounters(stats, c.want);
    }
}

} // namespace
} // namespace liquid
