/**
 * @file
 * liquid-scan: whole-binary SIMD-region discovery (library API; the
 * CLI front-end is tools/liquid_scan).
 *
 * Where liquid-verify checks the regions the scalarizer *says* it
 * outlined (hinted bl sites), scanProgram() answers the Revec-style
 * question for an arbitrary assembled binary with no scalarizer
 * metadata: which parts are Liquid-SIMD translatable, and what would
 * an accelerator gain? The pipeline:
 *
 *   1. discovery    — recover the interprocedural CFG: every bl target
 *                     (hinted or not) is an outlined function under
 *                     the bl/ret convention; natural loops inside each
 *                     function are the vectorization candidates.
 *   2. liveness     — solve register liveness for all functions to a
 *                     joint fixpoint and check each candidate against
 *                     the paper's region-boundary contract: no scalar
 *                     live-ins (regions are self-contained), results
 *                     escape only through scalar registers the caller
 *                     reads back, induction variables stay private,
 *                     no spill-like traffic inside loop bodies, and
 *                     only reducible loops.
 *   3. prediction   — pipe each surviving candidate through the verifier's
 *                     Table-1 rule walk, depcheck and the cost model
 *                     at every width in ScanOptions::widths, yielding
 *                     a per-region, per-width static speedup.
 *
 * Severity contract matches diagnostics.hh: Ok = the translator would
 * commit this region if it were hinted; Error = it would abort (or
 * the contract is structurally violated); Warn = runtime-dependent or
 * merely suspicious (extra discoveries that the scalarizer did not
 * emit are at most Warn).
 */

#ifndef LIQUID_VERIFIER_SCAN_HH
#define LIQUID_VERIFIER_SCAN_HH

#include <vector>

#include "verifier/liveness.hh"
#include "verifier/range.hh"
#include "verifier/verifier.hh"

namespace liquid
{

/** Scan options. */
struct ScanOptions
{
    /** Target translator/accelerator model (simdWidth is per-width). */
    TranslatorConfig config;
    /** Accelerator widths to predict, ascending. */
    std::vector<unsigned> widths{2, 4, 8, 16};
    /** Mirror the dynamic width-fallback ladder per width. */
    bool widthFallback = true;
    /** Memory-dependence analysis limits (see depcheck.hh). */
    DepcheckOptions dep;
    /** Run the Table-1/depcheck/cost-model prediction stage. */
    bool predict = true;
    /**
     * Back every per-width prediction with the symbolic translation-
     * validation prover (see proof.hh): committed widths carry a
     * proved/refuted/unknown verdict, and a refutation downgrades the
     * prediction to Error with the counterexample summary.
     */
    bool prove = false;
    /**
     * Whole-program value-range analysis (range.hh). When set and
     * sound, entry facts and budget discharges flow into every
     * per-width prediction (VerifyOptions::ranges), and proven loop
     * trip-count bounds and access alignment refine the cost model
     * and are surfaced per region (ScanRegion::tripCountBound).
     */
    const ProgramRanges *ranges = nullptr;
};

/** One width's prediction for a candidate region. */
struct WidthPrediction
{
    unsigned requestedWidth = 0;
    /** Full PR-1 verdict (reuses the liquid-verify contract). */
    RegionReport report;
};

/** Everything the scanner learned about one discovered function. */
struct ScanRegion
{
    int entryIndex = -1;
    std::string entryLabel;
    unsigned callSites = 0;   ///< bl sites targeting this entry
    /** True if some call site carried scalarizer metadata (bl.simd).
     *  The scanner never *uses* it; the golden tests key on it. */
    bool hinted = false;
    unsigned widthHint = 0;   ///< largest bl.simd width seen (info only)

    unsigned blockCount = 0;
    unsigned loopCount = 0;
    bool hasLoop = false;
    bool irreducible = false;

    // Liveness facts (region-boundary contract inputs).
    RegSet liveIn;            ///< registers read before written
    RegSet liveOutDemanded;   ///< defs some caller reads after the bl
    RegSet ivRegs;            ///< identified loop induction variables

    Severity contractVerdict = Severity::Ok;
    std::vector<Diagnostic> contractDiags;

    /** Survived discovery + contract: worth predicting. */
    bool candidate = false;

    /**
     * Proven scalar-iteration bound over all calling contexts
     * (ScanOptions::ranges); top when no bound was proven or the
     * analysis did not run.
     */
    Interval tripCountBound = Interval::top();

    std::vector<WidthPrediction> predictions;

    /**
     * Width-validity set (liquid-poly), computed once per candidate
     * during prediction: a one-line predicate on N, the exact Ok
     * widths within the probe horizon, and whether the region earns
     * the structural safe-for-all-N claim.
     */
    bool polyAnalyzed = false;
    bool polyUnbounded = false;
    std::string widthValidity;
    std::vector<unsigned> polyOkWidths;

    /** Best committed width and its predicted speedup (0 if none). */
    unsigned bestWidth = 0;
    double bestSpeedup = 0.0;

    /** Worst severity across contract and predictions. */
    Severity overallVerdict() const;
};

/** Whole-binary scan results. */
struct ScanReport
{
    std::vector<ScanRegion> regions;

    unsigned candidateCount() const;
    bool anyError() const;
};

/**
 * Scan the whole binary @p prog. Uses no scalarizer metadata: bl hint
 * flags are recorded for reporting but never influence discovery,
 * contract checking or prediction.
 */
ScanReport scanProgram(const Program &prog, const ScanOptions &opts);

/** Multi-line human-readable report for one region (CLI output). */
std::string formatScanRegion(const ScanRegion &region);

} // namespace liquid

#endif // LIQUID_VERIFIER_SCAN_HH
