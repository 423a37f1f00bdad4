/**
 * @file
 * Static memory-dependence and stride analysis over one outlined
 * region ("depcheck").
 *
 * The dynamic translator's only memory-dependence defence is the
 * firstEa-interval test at loop finalization, which (a) never sees
 * gather/scatter accesses (Rule 3/5 creates no BuildNote), (b) ignores
 * store-store pairs, (c) ignores stores *below* a load stream, and
 * (d) aborts overlapping streams even when the carried distance makes
 * SIMD execution safe. depcheck closes that gap statically: it walks
 * the region once with the verifier's AbsMachine, records every
 * load/store executed inside a natural loop as a concrete
 * per-iteration address trace, classifies each access as
 * `base + k*iv + c` (unit-stride, strided, gather/scatter) and then
 * decides, per candidate SIMD width N, whether vector execution
 * preserves scalar memory semantics.
 *
 * The exactness argument: the accelerator executes the loop body in
 * textual order, one microcode instruction over all N lanes at a time
 * (vld reads lanes ascending, vst writes lanes ascending — see
 * Core::executeVector). A loop-carried dependence between iterations
 * i and j therefore breaks if and only if both fall into the same
 * vector group (⌊i/N⌋ == ⌊j/N⌋) and the textual order of the two
 * accesses is opposite to their iteration order. In particular a
 * carried distance d ≥ N can never break: the iterations land in
 * different groups, which execute in order.
 */

#ifndef LIQUID_VERIFIER_DEPCHECK_HH
#define LIQUID_VERIFIER_DEPCHECK_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "asm/program.hh"

namespace liquid
{

class RegionCfg;

/** Address-progression class of one static load/store in a loop. */
enum class AccessClass : std::uint8_t
{
    UnitStride,    ///< ea(i) = base + i*elemSize
    Strided,       ///< ea(i) = base + i*stride, stride != elemSize
    GatherScatter, ///< concrete per-iteration addresses, non-affine
    Unknown,       ///< some address was runtime-dependent
};

const char *accessClassName(AccessClass cls);

/** One static memory access inside an analyzed loop. */
struct MemAccess
{
    int instIndex = -1;
    bool isStore = false;
    AccessClass cls = AccessClass::Unknown;
    unsigned elemSize = 0;
    Addr firstEa = 0;           ///< first executed effective address
    std::int64_t strideBytes = 0;  ///< per-iteration delta (affine only)
    unsigned events = 0;        ///< dynamic executions recorded
    Addr minEa = 0;             ///< lowest byte touched
    Addr maxEnd = 0;            ///< one past the highest byte touched
    std::string arrayName;      ///< data symbol blamed for firstEa
};

/** A loop-carried pair of accesses touching a common byte. */
struct DepPair
{
    int storeIndex = -1;   ///< instruction index of the store
    int otherIndex = -1;   ///< the load (flow/anti) or store (output)
    bool otherIsStore = false;
    unsigned distance = 0; ///< iteration distance |i - j| of the pair
    Addr addr = 0;         ///< a concrete overlapping byte address
    /**
     * True when the textual order of the two accesses is opposite to
     * their iteration order, so any width grouping both iterations
     * executes them in the wrong order.
     */
    bool orderFlips = false;
};

/**
 * Machine-readable cause of an `Unknown` verdict (the free-form `why`
 * string stays alongside as the human description). Stable codes are
 * surfaced in liquid-verify-v2 JSON; extend at the end only.
 */
enum class DepReason : std::uint8_t
{
    None,              ///< verdict is not Unknown
    StepBudget,        ///< abstract walk exceeded stepBudget
    LeavesText,        ///< control flow left the program text
    NestedCall,        ///< bl inside the region
    RuntimeBranch,     ///< branch depends on runtime data
    PredicatedAccess,  ///< conditional load/store inside a loop
    RuntimeAddress,    ///< effective address depends on runtime data
    PairBudgetAtWidth, ///< pair-test budget died at this width
    PairBudgetBefore,  ///< pair-test budget died at a narrower width
    OutsideLadder,     ///< width not in the analyzed ladder
};

/** Stable JSON code for @p reason (camelCase, e.g. "stepBudget"). */
const char *depReasonName(DepReason reason);

/** Per-width safety decision. */
struct WidthVerdict
{
    enum class Kind : std::uint8_t
    {
        Safe,     ///< SIMD at this width preserves scalar semantics
        Unsafe,   ///< a concrete dependence breaks; see pair
        Unknown,  ///< not statically resolvable; see why
    };
    Kind kind = Kind::Unknown;
    DepPair pair;     ///< valid when Unsafe
    std::string why;  ///< human description (Unknown / range proofs)
    DepReason reason = DepReason::None;  ///< machine code for Unknown
    /** True when the range analysis discharged this width to Safe. */
    bool viaRange = false;
};

class EntryFacts;

/** Analysis limits. */
struct DepcheckOptions
{
    /** Abstract walk budget (instructions executed). */
    unsigned long stepBudget = 200000;
    /**
     * Total pair-overlap tests across all candidate widths, spent in
     * ascending width order: wider groupings cost more tests, so when
     * the budget runs dry the narrow widths stay resolved and only the
     * wide ones degrade to Unknown.
     */
    unsigned long pairBudget = 1ul << 24;
    /**
     * Proven region-entry facts (registers / memory cells) from the
     * whole-program range analysis; the walk's AbsMachine resolves
     * values through them instead of degrading to runtime-dependent.
     */
    const EntryFacts *facts = nullptr;
};

/** The complete dependence analysis of one region. */
struct DepcheckResult
{
    /** Candidate widths, matching the translator's fallback ladder. */
    static constexpr std::array<unsigned, 4> widths{2, 4, 8, 16};

    bool analyzed = false;   ///< region had loops and the walk ran
    bool resolved = false;   ///< walk completed with concrete addresses
    std::string unresolvedWhy;
    DepReason unresolvedReason = DepReason::None;
    int unresolvedIndex = -1;
    /** External range facts the walk consumed (for diagnostics). */
    std::vector<std::string> factsUsed;
    /** AbsMachine clobber-check lookups (work counter, unreported). */
    std::uint64_t clobberProbes = 0;

    unsigned loopsAnalyzed = 0;
    unsigned eventCount = 0;      ///< dynamic load/store executions
    std::vector<MemAccess> accesses;

    unsigned carriedPairs = 0;    ///< overlapping cross-iteration pairs
    /** Min iteration distance over carried pairs; 0 when none found. */
    unsigned minDistance = 0;

    std::array<WidthVerdict, widths.size()> byWidth;

    const WidthVerdict &verdictAt(unsigned width) const;
    bool safeAt(unsigned width) const;

    /**
     * One-line machine-written proof for an Ok verdict at @p width:
     * access classes plus the distance/disjointness argument.
     */
    std::string proofSummary(unsigned width) const;
};

/**
 * Analyze the region entered at @p entry_index. @p cfg must be the
 * region's CFG (for the loop ranges). Never throws; failures surface
 * as resolved == false / Unknown width verdicts.
 */
DepcheckResult analyzeDeps(const Program &prog, int entry_index,
                           const RegionCfg &cfg,
                           const DepcheckOptions &opts = {});

/**
 * One dynamic load/store execution inside a loop: the trace both
 * analyzeDeps and the width-polymorphic verifier (liquid-poly) scan.
 * Iteration-ordered per loop, so group runs at any width are
 * contiguous.
 */
struct DepEvent
{
    int loop = -1;      ///< loop id (dense, per region)
    unsigned iter = 0;  ///< 0-based iteration of that loop
    int pos = -1;       ///< instruction index = textual position
    Addr ea = 0;
    unsigned size = 0;
    bool isStore = false;
};

/**
 * The width-independent half of the dependence analysis: the walk and
 * the access classification, with the per-width group scan left to the
 * caller. analyzeDeps runs that scan on this trace at the ladder
 * widths; liquid-poly answers it at any N (DepPairIndex) with the same
 * event order and the same overlap and order-flip predicates.
 */
struct PolyDeps
{
    bool analyzed = false;  ///< region had loops and the walk ran
    bool resolved = false;  ///< walk completed with concrete addresses
    std::string unresolvedWhy;
    DepReason unresolvedReason = DepReason::None;
    int unresolvedIndex = -1;
    std::vector<std::string> factsUsed;
    /** AbsMachine clobber-check lookups (work counter, unreported). */
    std::uint64_t clobberProbes = 0;

    unsigned loopsAnalyzed = 0;
    std::vector<DepEvent> events;  ///< walk order (= scan order)
    std::vector<MemAccess> accesses;
    unsigned maxIter = 0;  ///< largest 0-based iteration observed
};

/**
 * Run the walk + classification and return the raw trace instead of
 * per-width verdicts; analyzeDeps is this plus the group scan. Failures
 * surface as resolved == false.
 */
PolyDeps analyzePolyDeps(const Program &prog, int entry_index,
                         const RegionCfg &cfg,
                         const DepcheckOptions &opts = {});

} // namespace liquid

#endif // LIQUID_VERIFIER_DEPCHECK_HH
