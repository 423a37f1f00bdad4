/**
 * @file
 * Width-polymorphic static verification ("liquid-poly").
 *
 * The per-width pipeline (rules.cc Table-1 conformance, depcheck's
 * group/order-flip distance proofs) asks "is width N safe?" once per
 * ladder entry. This pass asks the question once, symbolically: one
 * width-independent recording walk captures every width-dependent
 * check as data (stream lanes, trip counts, lane counts, permutation
 * shapes, the dependence-pair trace), and the verdict becomes a
 * predicate on N — a validity set expressed as interval × congruence
 * constraints over the symbolic width, e.g. "Safe for all N with
 * N | 64" or "Error for N >= 8: depMiscompile, distance 4".
 *
 * Exactness contract: instantiate(N) replays the recorded checks in
 * program order and must reproduce verifyRegion()/analyzeDeps() at
 * width N bit-for-bit — verdict, AbortReason, DepReason, diagnostic
 * instruction index and the full DepPair. diffRegion() checks that
 * differentially; the `Sabotage` mutations seed bugs into the
 * constraint evaluator that the differential gate must catch.
 *
 * The constraint rendering reuses the interval × congruence domain
 * from the range analysis (range.hh) for the N-lattice, and symexec's
 * Lane-mode address algebra (TermPool::affineDiff over parametric
 * address polynomials) to derive symbolic carried distances.
 */

#ifndef LIQUID_VERIFIER_POLY_HH
#define LIQUID_VERIFIER_POLY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "asm/program.hh"
#include "translator/translator.hh"
#include "verifier/depcheck.hh"
#include "verifier/diagnostics.hh"
#include "verifier/range.hh"
#include "verifier/rules.hh"

namespace liquid
{

/**
 * Seeded bugs in the width-constraint evaluator, one bit each, for
 * the --sabotage self-test. Every mutation must make instantiate()
 * diverge from the concrete verifier on at least one kernel/width.
 */
enum class PolySabotage : unsigned
{
    None = 0,
    /** Same-group test degraded to `distance < N`. */
    GroupCollide = 1u << 0,
    /** Order-flip filter dropped: in-order pairs flagged too. */
    FlipIgnore = 1u << 1,
    /** Trip divisibility (`N | T`) dropped, keeping only `T >= N`. */
    TripDivisor = 1u << 2,
    /** Trip lower bound off by one: `T == N` wrongly aborts. */
    TripEqual = 1u << 3,
    /** Stream compare against lane 0 instead of lane `e mod N`. */
    StreamPeriod = 1u << 4,
};

constexpr unsigned polySabotageCount = 5;
const char *polySabotageName(PolySabotage s);

/** What instantiate() predicts verifyRegion would report at width N
 *  (widthFallback/prove/ranges off, hint 0). */
struct PolyWidthOutcome
{
    Severity verdict = Severity::Ok;
    AbortReason reason = AbortReason::None;  ///< Error verdicts
    /** Instruction index of the predicted Error/Warn diagnostic. */
    int instIndex = -1;
    bool depMiscompile = false;
    /** Dependence verdict at N; meaningful when the rules walk is Ok
     *  (and for conservative MemoryDependence aborts). */
    bool depRan = false;
    WidthVerdict::Kind depKind = WidthVerdict::Kind::Unknown;
    DepReason depReason = DepReason::None;
    DepPair pair;  ///< valid when depKind == Unsafe
    std::string note;  ///< Warn condition / human context
};

/**
 * One constraint on the symbolic width, in the range domain's
 * interval × congruence lattice. `iv` bounds N; `cg` constrains its
 * residue (cg.mod == 0 means no congruence). `why` names the source
 * check ("trip count", "stream period", "carried distance", ...).
 */
struct NConstraint
{
    Interval iv = Interval::top();
    Congruence cg = Congruence::top();
    std::string why;
    /** Render as "N <= 16", "2 | N", "N in [2, 8]" plus the source. */
    std::string render() const;
};

/**
 * The validity set: for which N does the region verify?
 *
 * Exact part: `okWidths` lists every Ok width in [2, horizon], and
 * `tail` is the (constant) outcome shared by all N > horizon — every
 * recorded check saturates beyond the horizon, so one probe settles
 * the whole tail.
 *
 * Structural part: with the observed trip data factored out (the trip
 * count is an artifact of this run's input size, not of the region's
 * shape), `structuralUnbounded` says the region verifies for
 * arbitrarily large N subject to `constraints` — the "verify once,
 * run at any length" claim ROADMAP item 3 needs.
 */
struct PolyValidity
{
    unsigned horizon = 0;
    std::vector<unsigned> okWidths;  ///< exact Ok widths in [2,horizon]
    bool tailExact = false;  ///< horizon covered all observed data
    PolyWidthOutcome tail;   ///< outcome for every N > horizon
    bool structuralUnbounded = false;
    std::vector<NConstraint> constraints;
    std::string summary;  ///< one line, e.g. "Safe for all N with N | 64"

    bool okAt(unsigned n) const;
};

/** The first order-breaking pair the dependence scan finds at one N. */
struct DepScanHit
{
    bool unsafe = false;
    DepPair pair;  ///< valid when unsafe
};

/**
 * The dependence-pair enumerator over a PolyDeps trace: the per-width
 * group scan analyzeDeps runs, answered at any N from one index.
 *
 * Per loop it keeps the events in walk order (iterations ascend, so an
 * iteration window is a contiguous walk-index range found by binary
 * search) and the same events sorted by (address, walk index). For
 * each store in walk order it visits only the partners whose
 * addresses can overlap the store (starts in [ea - maxSize + 1,
 * ea + size)) and whose walk index falls in the store's iteration
 * window; the hit is the smallest qualifying partner index of the
 * first store that has one — exactly the all-pairs enumeration order
 * (loops ascending, stores ascending, partners ascending; store pairs
 * tested once), so the reported DepPair is the one analyzeDeps
 * reports. Overlap and window bounds are computed in 64 bits, so an
 * access ending at 2^32 does not wrap.
 */
class DepPairIndex
{
  public:
    DepPairIndex() = default;
    explicit DepPairIndex(const PolyDeps &deps);

    /**
     * The group scan at width @p n (>= 1) with the seeded evaluator
     * bugs in @p sabotage: GroupCollide widens the window to
     * |Δiter| < n, FlipIgnore drops the order-flip predicate.
     */
    DepScanHit scanAt(unsigned n, unsigned sabotage = 0) const;

    /** Does an order-breaking carried pair exist at *some* width? */
    bool anyFlippingPair() const;

    /** Partners visited across every scan so far (a work counter). */
    std::uint64_t pairTests() const { return pairTests_; }

  private:
    enum class Window : std::uint8_t
    {
        Group,    ///< the store's N-group
        Collide,  ///< |Δiter| < N
        Loop,     ///< the whole loop
    };
    DepScanHit scan(Window window, unsigned n, bool requireFlip) const;

    struct AddrKey
    {
        Addr ea;
        std::uint32_t walk;  ///< index into Loop::walk
    };
    struct Loop
    {
        std::vector<DepEvent> walk;   ///< walk order
        std::vector<AddrKey> byAddr;  ///< sorted by (ea, walk)
    };
    std::vector<Loop> loops_;
    unsigned maxSize_ = 0;  ///< largest access size in the trace
    mutable std::uint64_t pairTests_ = 0;
};

/** The width-polymorphic analysis of one region. */
class PolyRegion
{
  public:
    int entryIndex = -1;
    std::string entryLabel;

    /** Width-independent terminal outcome of the recording walk. */
    StaticOutcome terminal;
    /** Dependence trace (width-independent walk + classification). */
    PolyDeps deps;
    /** Address index over `deps`, built once by analyzePoly. */
    DepPairIndex depIndex;
    PolyValidity validity;

    /**
     * Dependence partners visited across all instantiations so far: a
     * deterministic work counter (not part of any report).
     */
    std::uint64_t pairTests() const { return depIndex.pairTests(); }

    /**
     * Replay the recorded checks at concrete width @p n, with the
     * seeded bugs in @p sabotage (bitwise-or of PolySabotage) applied
     * to the evaluator. sabotage == 0 is the honest semantics.
     */
    PolyWidthOutcome instantiate(unsigned n, unsigned sabotage = 0) const;

    // -- recording storage (filled by analyzePoly) --------------------
    struct Stream
    {
        std::vector<Word> values;  ///< lane 0 (seed) + pushes, in order
    };
    struct Event
    {
        enum class Kind : std::uint8_t
        {
            StreamLane,  ///< constant-pool load lane check
            TripCount,   ///< loop finalization trip check
            Lanes,       ///< patch lane-completeness check
            Perm,        ///< permutation-shape (CAM) check
        };
        Kind kind = Kind::StreamLane;
        int instIndex = -1;
        int stream = -1;       ///< StreamLane / Lanes / Perm
        std::uint32_t elem = 0;    ///< StreamLane: lane index in its loop
        Word value = 0;            ///< StreamLane
        unsigned iters = 0;        ///< TripCount
        std::uint32_t observed = 0;  ///< Lanes: lanes captured
        bool isStore = false;      ///< Perm: store side (inverse kind)
    };
    std::vector<Stream> streams;
    std::vector<Event> events;
    PermRepertoire permRepertoire{};
};

/**
 * Analyze the region entered at @p entry_index once, width-free.
 * Fills the recording, computes the validity set and its rendering.
 */
PolyRegion analyzePoly(const Program &prog, int entry_index,
                       const TranslatorConfig &config,
                       const DepcheckOptions &depOpts = {});

/** One field disagreement between poly-at-N and the concrete verdict. */
struct PolyMismatch
{
    unsigned width = 0;
    std::string field;
    std::string expect;  ///< concrete verifier's value
    std::string got;     ///< instantiate()'s value
};

/** Differential self-check of one region over the width ladder. */
struct PolyDiff
{
    int entryIndex = -1;
    std::string entryLabel;
    std::vector<PolyMismatch> mismatches;
    bool ok() const { return mismatches.empty(); }
};

/**
 * Instantiate the symbolic verdict at every ladder width and compare
 * bit-for-bit against verifyRegion()/depcheck at the same width
 * (fallback/prover/ranges off). @p sabotage seeds evaluator bugs; the
 * gate passes when sabotage == 0 diffs clean and each mutation diffs
 * dirty somewhere.
 */
PolyDiff diffRegion(const Program &prog, int entry_index,
                    const TranslatorConfig &config,
                    unsigned sabotage = 0);

/** diffRegion over every hinted region of the program. */
std::vector<PolyDiff> diffProgram(const Program &prog,
                                  const TranslatorConfig &config,
                                  unsigned sabotage = 0);

} // namespace liquid

#endif // LIQUID_VERIFIER_POLY_HH
