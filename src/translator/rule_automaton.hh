/**
 * @file
 * The Table-3 rule automaton (paper Section 4): one capture of one
 * outlined region, from its first retired instruction to commit or
 * abort.
 *
 * Each retired scalar instruction is pushed through the rules to build
 * SIMD microcode. The loop's first iteration is built; iterations 2..N
 * are verified against it while multi-lane facts (permutation offset
 * vectors, per-lane constants, lane masks) accumulate per value
 * stream. When the loop exits, the permutation CAM and constant pool
 * are finalized; on ret the microcode buffer is compacted (the paper's
 * alignment network removes collapsed offset loads) and branch targets
 * are remapped to microcode indices.
 *
 * Two callers feed the same automaton:
 *  - Translator (translator.hh) converts each hardware retire into an
 *    AbsRetire whose value and address are always known;
 *  - analyzeRegion (verifier/rules.hh) feeds AbsMachine's abstract
 *    retires, whose value or address may be unknown.
 *
 * An abort unwinds with CaptureAbort, carrying the reason and the
 * instruction index where it was decided. A decision that needs an
 * unknown value unwinds with CaptureUnknown; the static caller reports
 * it as Warn. Hardware retires never raise CaptureUnknown.
 */

#ifndef LIQUID_TRANSLATOR_RULE_AUTOMATON_HH
#define LIQUID_TRANSLATOR_RULE_AUTOMATON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "asm/program.hh"
#include "common/stats.hh"
#include "translator/abort_reason.hh"

namespace liquid
{

struct TranslatorConfig;

/** A retired value the automaton may need: a known word or unknown. */
struct AbsVal
{
    bool known = false;
    Word value = 0;

    static AbsVal top() { return AbsVal{}; }
    static AbsVal of(Word v) { return AbsVal{true, v}; }
};

/**
 * What the automaton observes of one retired scalar instruction. The
 * hardware fills every field; the static analysis leaves a value or
 * address unknown where it depends on runtime state.
 */
struct AbsRetire
{
    const Inst *inst = nullptr;
    int index = -1;         ///< static instruction index
    AbsVal value;           ///< load/mov/data-proc result, store data
    AbsVal memAddr;         ///< effective address of loads/stores
    bool branchTaken = false;  ///< branches; the caller resolved it
};

/** Unwound when the automaton aborts the capture. */
struct CaptureAbort
{
    AbortReason reason = AbortReason::None;
    int index = -1;  ///< instruction index where the abort was decided
};

/** Unwound when a decision needs a value the retire record lacks. */
struct CaptureUnknown
{
    std::string what;
    int index = -1;
};

/**
 * Observer for the width-dependent checks of the automaton
 * (liquid-poly). When a sink is installed, the automaton runs one
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

/** One capture of one region, bound at a fixed width. */
class RuleAutomaton
{
  public:
    /** What a commit produces. */
    struct Translation
    {
        std::vector<Inst> insts;     ///< compacted, branch-remapped
        std::vector<ConstVec> cvecs;
        unsigned loopInsts = 0;      ///< surviving loop-verified slots
    };

    /**
     * @p stats, when set, receives the work counters as the work
     * happens (idiomsRecognized, loopsVerified, instsCollapsed), so
     * they count work done before a later abort. @p sink switches on
     * the width-polymorphic mode described on WidthCheckSink.
     */
    RuleAutomaton(const TranslatorConfig &config, const Program &prog,
                  unsigned width, StatGroup *stats = nullptr,
                  WidthCheckSink *sink = nullptr);

    /** One retired scalar instruction. */
    void observe(const AbsRetire &info);
    /** A bl retired inside the region. */
    [[noreturn]] static void observeCall(int index);
    /** The region's ret retired (at @p index): finalize and commit. */
    Translation observeReturn(int index);

    unsigned width() const { return width_; }
    unsigned observed() const { return observed_; }
    unsigned loopsVerified() const { return loopsVerified_; }
    /** Scalar iterations across every verified loop. */
    unsigned loopIters() const { return loopIters_; }

    /**
     * End of the source code range the capture covers, for a region
     * entered at @p entry: through the last static instruction
     * observed (the ret retires one past the largest recorded index).
     */
    Addr codeEnd(Addr entry) const;

  private:
    /** Per-register translation state (the paper's 56 bits/register). */
    struct RegState
    {
        enum class Kind : std::uint8_t
        {
            Unknown,
            Scalar,     ///< plain scalar value
            IndVar,     ///< induction-variable candidate (mov r, #c)
            Vector,     ///< virtualizes a vector register
            VecValues,  ///< offsets copied from a loaded value stream
        };
        Kind kind = Kind::Unknown;
        unsigned elemSize = 4;
        int stream = -1;        ///< value stream feeding this register
        int producerUcode = -1; ///< ucode slot of the vld that defined it
        RegId ivReg;            ///< VecValues: the IV it was combined with
    };

    /** Per-iteration values observed from one static load. */
    struct ValueStream
    {
        std::vector<Word> values;  ///< capped at width lanes
        int producerUcode = -1;    ///< tentative vld slot (collapsible)
        bool referenced = false;   ///< consumed as offsets/constants
    };

    /** Emitted microcode slot (pre-compaction buffer). */
    struct UcodeSlot
    {
        Inst inst;
        bool collapseCandidate = false;
        bool keep = false;            ///< has a real vector consumer
        bool loopVerified = false;
        bool needsLoop = false;       ///< must end up in a verified loop
        bool branchNeedsRemap = false; ///< inst.target is a static index
    };

    /** Deferred multi-lane finalization. */
    struct Patch
    {
        enum class Kind
        {
            PermLoad,   ///< vperm after a shuffled load
            PermStore,  ///< vperm before a shuffled store (inverse)
            CvecOrMask, ///< per-lane constant / lane mask operand
        };
        Kind kind;
        int ucodeIdx;
        int stream;
    };

    /** What to check when this static instruction retires again. */
    struct BuildNote
    {
        int stream = -1;       ///< append/verify the retired value
        bool checkAddr = false;
        bool isStore = false;
        Addr firstEa = 0;
        unsigned esize = 0;
        bool checkIv = false;
        Word ivFirst = 0;
        std::int32_t ivStep = 1;
    };

    /** Saturation idiom recognizer state. */
    struct IdiomState
    {
        int stage = 0;      ///< 0: none, 1..3: inside the idiom
        RegId reg;
        int defSlot = -1;   ///< ucode slot holding the vadd/vsub to patch
    };

    // Build-phase rule handlers.
    void build(const AbsRetire &info);
    void buildMov(const AbsRetire &info);
    void buildLoad(const AbsRetire &info);
    void buildStore(const AbsRetire &info);
    void buildDataProc(const AbsRetire &info);
    void buildCmp(const AbsRetire &info);
    void buildBranch(const AbsRetire &info);
    bool handleIdiom(const AbsRetire &info);

    // Verify phase.
    void verify(const AbsRetire &info);
    void finalizeLoop(int index);

    RegState &state(RegId reg);
    int newStream(int producer_ucode);
    int emit(Inst inst, int static_idx);
    void count(const char *stat);

    const TranslatorConfig &config_;
    const Program &prog_;
    const unsigned width_;
    StatGroup *stats_;
    WidthCheckSink *sink_;

    bool verifying_ = false;  ///< inside a recognized loop
    unsigned observed_ = 0;
    unsigned loopsVerified_ = 0;
    unsigned loopIters_ = 0;

    std::vector<RegState> regs_;
    std::vector<ValueStream> streams_;
    std::vector<UcodeSlot> ucode_;
    std::vector<ConstVec> cvecs_;
    std::vector<Patch> patches_;
    std::map<int, int> ucodeStartOfStatic_;
    std::map<int, BuildNote> notes_;
    IdiomState idiom_;

    // Loop verification state.
    int loopStart_ = -1;       ///< static index of the loop head
    int loopEnd_ = -1;         ///< static index of the backedge branch
    int expectIdx_ = -1;       ///< next expected static index
    unsigned itersDone_ = 0;
    int loopUcodeStart_ = -1;
};

} // namespace liquid

#endif // LIQUID_TRANSLATOR_RULE_AUTOMATON_HH
