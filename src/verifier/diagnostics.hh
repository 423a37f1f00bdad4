/**
 * @file
 * Structured diagnostics emitted by the static conformance verifier.
 *
 * Severity contract (the differential tests key on it):
 *  - Ok:    the dynamic translator will commit this region; the report
 *           carries the predicted binding width and microcode size.
 *  - Error: the dynamic translator will abort, with the predicted
 *           AbortReason — unless RegionReport::depMiscompile is set,
 *           in which case the translator commits but the committed
 *           microcode provably diverges from scalar semantics.
 *  - Warn:  the outcome depends on runtime state the analysis cannot
 *           see (a branch on runtime data, an unexercised path, an
 *           interrupt); the message names the runtime condition.
 */

#ifndef LIQUID_VERIFIER_DIAGNOSTICS_HH
#define LIQUID_VERIFIER_DIAGNOSTICS_HH

#include <string>
#include <vector>

#include "translator/abort_reason.hh"
#include "verifier/depcheck.hh"

namespace liquid
{

/** How certain the verifier is about one finding. */
enum class Severity : std::uint8_t
{
    Ok,
    Warn,
    Error,
};

/** Printable severity ("ok", "warn", "error"). */
const char *severityName(Severity severity);

/** One finding about a region. */
struct Diagnostic
{
    Severity severity = Severity::Ok;
    /** Predicted dynamic abort reason; None unless severity is Error. */
    AbortReason reason = AbortReason::None;
    /** Instruction index the finding anchors to; -1 when region-wide. */
    int instIndex = -1;
    std::string message;
};

/** The verifier's verdict on one outlined region. */
struct RegionReport
{
    int entryIndex = -1;           ///< region entry instruction index
    std::string entryLabel;        ///< label at the entry, if any
    unsigned requestedWidth = 0;   ///< accelerator width verified against
    unsigned widthHint = 0;        ///< bl.simd compiled width (0 = none)

    Severity verdict = Severity::Ok;
    /** Predicted abort reason when the verdict is Error. */
    AbortReason reason = AbortReason::None;

    // Predictions, valid when the verdict is Ok.
    unsigned predictedWidth = 0;   ///< width the region binds at
    unsigned predictedUcode = 0;   ///< microcode instructions after collapse
    unsigned predictedCvecs = 0;   ///< constant vectors interned

    // Cost-model estimate, valid when the verdict is Ok.
    double predictedScalarCycles = 0.0;  ///< scalar loop dynamic insts
    double predictedSimdCycles = 0.0;    ///< translated-region estimate
    double predictedSpeedup = 0.0;       ///< scalar / simd

    /**
     * Memory-dependence analysis of the region (tentpole). When
     * depAnalyzed is set, `dep` holds the full stride/distance
     * analysis; an Ok verdict carries the safety proof and an Error
     * verdict with depMiscompile set predicts that the translator
     * COMMITS but the committed microcode diverges from scalar
     * semantics (a silent miscompile the dynamic dependence check
     * cannot see). depMiscompile is the one case where an Error
     * verdict does not predict a dynamic abort.
     */
    bool depAnalyzed = false;
    bool depMiscompile = false;
    DepcheckResult dep;

    /**
     * Translation-validation attachment (VerifyOptions::prove): the
     * prover's verdict at the predicted width ("proved", "refuted",
     * "unknown"), empty when the prover did not run. A Proved verdict
     * is what upgraded a depcheck Warn to Ok; a Refuted one is a
     * depMiscompile-style Error backed by a concrete counterexample.
     */
    std::string proofVerdict;
    std::string proofSummary;      ///< one-line proof outcome

    /**
     * Range-analysis attachment (VerifyOptions::ranges): the proven
     * entry facts the rule/depcheck walks consumed (each also
     * surfaced as a `range:` Ok diagnostic), and how many depcheck
     * width verdicts the footprint/congruence argument discharged to
     * Safe past the pair-test budget.
     */
    std::vector<std::string> rangeFacts;
    unsigned rangeDischarged = 0;

    /**
     * Width-polymorphic attachment (VerifyOptions::poly): the validity
     * set from liquid-poly — a one-line predicate on N, the exact Ok
     * widths within the probe horizon, and the rendered interval ×
     * congruence constraints. polyUnbounded is the structural
     * safe-for-all-N claim with the observed trip data factored out.
     */
    bool polyAnalyzed = false;
    bool polyUnbounded = false;
    std::string polySummary;
    std::vector<unsigned> polyOkWidths;
    std::vector<std::string> polyConstraints;

    // Static structure, always valid.
    unsigned blockCount = 0;       ///< CFG basic blocks
    unsigned loopCount = 0;        ///< CFG natural loops
    unsigned analyzedInsts = 0;    ///< abstract retires walked
    /**
     * Clobber-check lookups across every AbsMachine walk of this
     * region (rule walk at each width, depcheck): a deterministic
     * work counter, not part of any report.
     */
    std::uint64_t clobberProbes = 0;

    std::vector<Diagnostic> diags;
};

/** Whole-program verification results. */
struct ProgramReport
{
    std::vector<RegionReport> regions;

    bool anyError() const;
};

/** Multi-line human-readable report for one region (CLI output). */
std::string formatRegionReport(const RegionReport &report);

} // namespace liquid

#endif // LIQUID_VERIFIER_DIAGNOSTICS_HH
