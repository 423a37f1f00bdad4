/**
 * @file
 * Static Table-1/Table-3 conformance analysis of one outlined region.
 *
 * analyzeRegion() walks the region's instructions from the entry,
 * driving two coupled machines:
 *  - an AbsMachine (dataflow.hh) that supplies the values the dynamic
 *    translator would have observed on the retire bus, and
 *  - a static mirror of the Translator's rule automaton (build /
 *    verify / finalize / commit), identical decision-for-decision to
 *    src/translator/translator.cc but consuming AbsRetire records
 *    instead of hardware retires.
 *
 * The outcome is therefore a *prediction* of translateOffline() at the
 * same width: Ok predicts a commit (with the exact microcode size and
 * constant-pool count), Error predicts an abort with the given reason,
 * and Warn means some decision needed runtime state the analysis
 * cannot see (a branch on non-constant data, control flow leaving the
 * text, a region longer than the analysis budget).
 */

#ifndef LIQUID_VERIFIER_RULES_HH
#define LIQUID_VERIFIER_RULES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "asm/program.hh"
#include "translator/translator.hh"
#include "verifier/diagnostics.hh"

namespace liquid
{

/** Result of statically analyzing one region at one binding width. */
struct StaticOutcome
{
    Severity verdict = Severity::Ok;
    AbortReason reason = AbortReason::None;  ///< Error: predicted abort
    int reasonIndex = -1;   ///< instruction index where it was decided
    std::string warnCondition;  ///< Warn: the runtime condition

    // Predictions, valid when the verdict is Ok.
    unsigned ucodeInsts = 0;  ///< microcode size after collapse
    unsigned cvecs = 0;       ///< constant vectors interned
    unsigned loopsVerified = 0;
    unsigned ucodeLoopInsts = 0;  ///< collapsed slots inside loop bodies
    unsigned loopIters = 0;       ///< scalar iterations across all loops

    unsigned analyzedInsts = 0;   ///< abstract retires observed
    std::vector<int> visited;     ///< distinct instruction indices walked
    /** External range facts the walk consumed (for diagnostics). */
    std::vector<std::string> factsUsed;
    /** AbsMachine clobber-check lookups (work counter, unreported). */
    std::uint64_t clobberProbes = 0;
};

class EntryFacts;

/**
 * Observer for the width-dependent checks of the rule automaton
 * (liquid-poly). When a sink is installed, analyzeRegion runs one
 * width-*independent* walk: every check that consults the binding
 * width is reported to the sink instead of being evaluated, and the
 * walk continues as if it had passed (streams capture every lane,
 * trip-count/lane-count/permutation aborts are deferred). The sink
 * receives the checks in exact program order, so replaying them
 * against a concrete N reproduces the width-bound walk's first abort.
 * Width-independent aborts (address/IV mismatch, the store-vs-load
 * interval test, commit-time shape checks) still fire normally.
 */
class WidthCheckSink
{
  public:
    virtual ~WidthCheckSink() = default;
    /** Stream @p stream seeded with lane 0 (= @p value) at build. */
    virtual void onStreamSeed(int stream, Word value) = 0;
    /** Constant-pool load observed lane @p elem with @p value. */
    virtual void onStreamLane(int inst_index, int stream,
                              std::size_t elem, Word value) = 0;
    /** Loop at @p inst_index finalized after @p iters iterations. */
    virtual void onTripCount(int inst_index, unsigned iters) = 0;
    /** Patch on @p stream finalized having seen @p observed lanes. */
    virtual void onLanes(int inst_index, int stream,
                         std::size_t observed) = 0;
    /** Permutation patch on @p stream (load or store side). */
    virtual void onPerm(int inst_index, int stream, bool is_store) = 0;
};

/**
 * Statically analyze the region entered at @p entry_index, bound at
 * @p capture_width lanes (the caller applies the width hint and any
 * fallback halving, mirroring Translator::onCall). @p facts supplies
 * proven region-entry values from the whole-program range analysis;
 * null reproduces the facts-free walk. A non-null @p poly switches the
 * walk into the width-polymorphic recording mode described on
 * WidthCheckSink; capture_width then only scales emitted IV strides
 * and must not affect the outcome.
 */
StaticOutcome analyzeRegion(const Program &prog, int entry_index,
                            const TranslatorConfig &config,
                            unsigned capture_width,
                            const EntryFacts *facts = nullptr,
                            WidthCheckSink *poly = nullptr);

} // namespace liquid

#endif // LIQUID_VERIFIER_RULES_HH
