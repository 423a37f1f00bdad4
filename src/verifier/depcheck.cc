#include "verifier/depcheck.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "verifier/cfg.hh"
#include "verifier/dataflow.hh"

namespace liquid
{

namespace
{

/** One dynamic load/store execution inside a loop. */
struct MemEvent
{
    int loop;          ///< loop id (index into the walker's ranges)
    unsigned iter;     ///< 0-based iteration of that loop
    int pos;           ///< instruction index = textual position
    Addr ea;
    unsigned size;
    bool isStore;
};

/** Instruction range [first, last] of one natural loop. */
struct LoopRange
{
    int first;
    int last;  ///< the backedge instruction
};

/** Innermost loop whose range contains @p index; -1 if none. */
int
loopOf(const std::vector<LoopRange> &loops, int index)
{
    int best = -1;
    int bestSpan = 0;
    for (std::size_t i = 0; i < loops.size(); ++i) {
        const LoopRange &l = loops[i];
        if (index < l.first || index > l.last)
            continue;
        const int span = l.last - l.first;
        if (best < 0 || span < bestSpan) {
            best = static_cast<int>(i);
            bestSpan = span;
        }
    }
    return best;
}

/** Walk failure: names the runtime condition, like the rule mirror. */
struct WalkStop
{
    std::string why;
    int index;
    DepReason reason;
};

/**
 * Execute the region abstractly and collect the memory-event trace.
 * Throws WalkStop when an address, predicate or branch is
 * runtime-dependent (the cases the rule mirror reports as Warn, plus
 * predicated memory accesses, which the translator vectorizes
 * unconditionally and so are never provably order-safe).
 */
std::vector<MemEvent>
walkRegion(const Program &prog, int entry_index,
           const std::vector<LoopRange> &loops,
           const DepcheckOptions &opts, AbsMachine &machine)
{
    std::vector<MemEvent> events;
    std::vector<unsigned> iterOf(loops.size(), 0);

    const auto &code = prog.code();
    int pc = entry_index;
    unsigned long steps = 0;

    for (;;) {
        if (++steps > opts.stepBudget)
            throw WalkStop{"region exceeds the analysis step budget",
                           pc, DepReason::StepBudget};
        if (pc < 0 || pc >= static_cast<int>(code.size()))
            throw WalkStop{"control flow leaves the program text", pc,
                           DepReason::LeavesText};

        const Inst &inst = code[pc];
        if (inst.op == Opcode::Ret || inst.op == Opcode::Halt)
            break;
        if (inst.op == Opcode::Bl)
            throw WalkStop{"call inside the region", pc,
                           DepReason::NestedCall};

        Taken taken = Taken::No;
        const AbsRetire ri = machine.step(inst, pc, taken);
        if (inst.op == Opcode::B && taken == Taken::Unknown)
            throw WalkStop{"branch depends on runtime data", pc,
                           DepReason::RuntimeBranch};

        const OpInfo &info = inst.info();
        if (info.isLoad || info.isStore) {
            const int loop = loopOf(loops, pc);
            if (loop >= 0) {
                if (inst.cond != Cond::AL) {
                    throw WalkStop{
                        "predicated memory access inside a loop: the "
                        "translated microcode executes it on every "
                        "lane",
                        pc, DepReason::PredicatedAccess};
                }
                if (!ri.memAddr.known) {
                    throw WalkStop{
                        "memory address depends on runtime data", pc,
                        DepReason::RuntimeAddress};
                }
                events.push_back(MemEvent{
                    loop, iterOf[static_cast<std::size_t>(loop)], pc,
                    ri.memAddr.value, info.memElemSize, info.isStore});
            }
        }

        if (inst.op == Opcode::B && ri.branchTaken) {
            const int loop = loopOf(loops, pc);
            if (loop >= 0 && loops[static_cast<std::size_t>(loop)].last == pc)
                ++iterOf[static_cast<std::size_t>(loop)];
            pc = inst.target;
        } else {
            ++pc;
        }
    }
    return events;
}

/** Classify each static access from its per-iteration address trace. */
std::vector<MemAccess>
classifyAccesses(const Program &prog, const std::vector<MemEvent> &events)
{
    std::map<int, MemAccess> byInst;
    std::map<int, Addr> lastEa;
    std::map<int, bool> affine;
    std::map<int, unsigned> lastIter;

    for (const MemEvent &e : events) {
        auto it = byInst.find(e.pos);
        if (it == byInst.end()) {
            MemAccess a;
            a.instIndex = e.pos;
            a.isStore = e.isStore;
            a.elemSize = e.size;
            a.firstEa = e.ea;
            a.minEa = e.ea;
            a.maxEnd = e.ea + e.size;
            a.events = 1;
            a.arrayName = prog.symbolAt(e.ea);
            byInst.emplace(e.pos, std::move(a));
            lastEa[e.pos] = e.ea;
            lastIter[e.pos] = e.iter;
            affine[e.pos] = true;
            continue;
        }
        MemAccess &a = it->second;
        // Affine fit: a constant byte delta per iteration step. A
        // repeated iteration (nested execution) is never affine.
        const std::int64_t delta =
            static_cast<std::int64_t>(e.ea) -
            static_cast<std::int64_t>(lastEa[e.pos]);
        const unsigned dIter = e.iter - lastIter[e.pos];
        if (dIter == 0) {
            affine[e.pos] = false;
        } else if (a.events == 1) {
            a.strideBytes = delta / static_cast<std::int64_t>(dIter);
            if (a.strideBytes * dIter != delta)
                affine[e.pos] = false;
        } else if (delta != a.strideBytes *
                                static_cast<std::int64_t>(dIter)) {
            affine[e.pos] = false;
        }
        lastEa[e.pos] = e.ea;
        lastIter[e.pos] = e.iter;
        ++a.events;
        a.minEa = std::min(a.minEa, e.ea);
        a.maxEnd = std::max(a.maxEnd, e.ea + e.size);
    }

    std::vector<MemAccess> out;
    out.reserve(byInst.size());
    for (auto &[pos, a] : byInst) {
        if (!affine[pos]) {
            a.cls = AccessClass::GatherScatter;
            a.strideBytes = 0;
        } else if (a.events > 1 &&
                   a.strideBytes ==
                       static_cast<std::int64_t>(a.elemSize)) {
            a.cls = AccessClass::UnitStride;
        } else {
            a.cls = AccessClass::Strided;
        }
        out.push_back(a);
    }
    return out;
}

/** Byte-range overlap, in 64 bits so an access ending at 2^32 does
 *  not wrap to 0. */
bool
overlaps(const MemEvent &a, const MemEvent &b)
{
    return a.ea < std::uint64_t{b.ea} + b.size &&
           b.ea < std::uint64_t{a.ea} + a.size;
}

} // namespace

const char *
accessClassName(AccessClass cls)
{
    switch (cls) {
      case AccessClass::UnitStride: return "unit-stride";
      case AccessClass::Strided: return "strided";
      case AccessClass::GatherScatter: return "gather/scatter";
      case AccessClass::Unknown: return "unknown";
    }
    return "unknown";
}

const char *
depReasonName(DepReason reason)
{
    switch (reason) {
      case DepReason::None: return "none";
      case DepReason::StepBudget: return "stepBudget";
      case DepReason::LeavesText: return "leavesText";
      case DepReason::NestedCall: return "nestedCall";
      case DepReason::RuntimeBranch: return "runtimeBranch";
      case DepReason::PredicatedAccess: return "predicatedAccess";
      case DepReason::RuntimeAddress: return "runtimeAddress";
      case DepReason::PairBudgetAtWidth: return "pairBudgetAtWidth";
      case DepReason::PairBudgetBefore: return "pairBudgetBefore";
      case DepReason::OutsideLadder: return "outsideLadder";
    }
    return "none";
}

const WidthVerdict &
DepcheckResult::verdictAt(unsigned width) const
{
    for (std::size_t i = 0; i < widths.size(); ++i) {
        if (widths[i] == width)
            return byWidth[i];
    }
    // Widths outside the ladder are never proven.
    static const WidthVerdict unknown{
        WidthVerdict::Kind::Unknown, DepPair{},
        "width outside the analyzed ladder",
        DepReason::OutsideLadder, false};
    return unknown;
}

bool
DepcheckResult::safeAt(unsigned width) const
{
    return verdictAt(width).kind == WidthVerdict::Kind::Safe;
}

std::string
DepcheckResult::proofSummary(unsigned width) const
{
    unsigned unit = 0, strided = 0, gather = 0;
    for (const MemAccess &a : accesses) {
        switch (a.cls) {
          case AccessClass::UnitStride: ++unit; break;
          case AccessClass::Strided: ++strided; break;
          default: ++gather; break;
        }
    }
    std::ostringstream os;
    os << "dependence-safe at width " << width << ": " << unit
       << " unit-stride, " << strided << " strided, " << gather
       << " gather/scatter access(es); ";
    if (carriedPairs == 0) {
        os << "no loop-carried overlap within any " << width
           << "-iteration group";
    } else {
        os << carriedPairs << " carried overlap pair(s), min distance "
           << minDistance << ", none order-breaking at this width";
    }
    return os.str();
}

DepcheckResult
analyzeDeps(const Program &prog, int entry_index, const RegionCfg &cfg,
            const DepcheckOptions &opts)
{
    DepcheckResult result;
    if (cfg.loops().empty()) {
        // No loops: every access executes once, in textual order, in
        // both scalar and microcode form.
        result.resolved = true;
        for (auto &v : result.byWidth)
            v.kind = WidthVerdict::Kind::Safe;
        return result;
    }
    result.analyzed = true;

    std::vector<LoopRange> loops;
    loops.reserve(cfg.loops().size());
    for (const CfgLoop &l : cfg.loops()) {
        loops.push_back(LoopRange{
            cfg.blocks()[static_cast<std::size_t>(l.headBlock)].first,
            l.backedgeIndex});
    }
    result.loopsAnalyzed = static_cast<unsigned>(loops.size());

    std::vector<MemEvent> events;
    AbsMachine machine(prog, opts.facts);
    try {
        events = walkRegion(prog, entry_index, loops, opts, machine);
    } catch (const WalkStop &stop) {
        result.resolved = false;
        result.unresolvedWhy = stop.why;
        result.unresolvedReason = stop.reason;
        result.unresolvedIndex = stop.index;
        result.factsUsed = machine.factsUsed();
        result.clobberProbes = machine.clobberProbes();
        for (auto &v : result.byWidth) {
            v.kind = WidthVerdict::Kind::Unknown;
            v.why = stop.why;
            v.reason = stop.reason;
        }
        return result;
    }
    result.resolved = true;
    result.factsUsed = machine.factsUsed();
    result.clobberProbes = machine.clobberProbes();
    result.eventCount = static_cast<unsigned>(events.size());
    result.accesses = classifyAccesses(prog, events);

    // Bucket events per (loop, group) and test store-vs-access pairs
    // inside each group. Widths ascend so a drained budget costs the
    // wide verdicts first.
    std::vector<std::vector<const MemEvent *>> perLoop(loops.size());
    for (const MemEvent &e : events)
        perLoop[static_cast<std::size_t>(e.loop)].push_back(&e);

    unsigned long spent = 0;
    unsigned minDist = 0;
    bool budgetDry = false;

    for (std::size_t wi = 0; wi < DepcheckResult::widths.size(); ++wi) {
        const unsigned width = DepcheckResult::widths[wi];
        WidthVerdict &verdict = result.byWidth[wi];
        if (budgetDry) {
            verdict.kind = WidthVerdict::Kind::Unknown;
            verdict.why = "dependence pair-test budget exhausted "
                          "before this width";
            verdict.reason = DepReason::PairBudgetBefore;
            continue;
        }
        verdict.kind = WidthVerdict::Kind::Safe;
        unsigned pairsThisWidth = 0;

        for (std::size_t li = 0;
             li < perLoop.size() && !budgetDry &&
             verdict.kind == WidthVerdict::Kind::Safe;
             ++li) {
            // Events arrive iteration-ordered, so group runs are
            // contiguous.
            const auto &evs = perLoop[li];
            std::size_t gBegin = 0;
            while (gBegin < evs.size() && !budgetDry &&
                   verdict.kind == WidthVerdict::Kind::Safe) {
                const unsigned group = evs[gBegin]->iter / width;
                std::size_t gEnd = gBegin;
                while (gEnd < evs.size() &&
                       evs[gEnd]->iter / width == group)
                    ++gEnd;

                for (std::size_t i = gBegin;
                     i < gEnd && !budgetDry &&
                     verdict.kind == WidthVerdict::Kind::Safe;
                     ++i) {
                    const MemEvent &a = *evs[i];
                    if (!a.isStore)
                        continue;
                    for (std::size_t j = gBegin; j < gEnd; ++j) {
                        if (i == j)
                            continue;
                        const MemEvent &b = *evs[j];
                        if (a.isStore && b.isStore && j < i)
                            continue;  // store pairs tested once
                        if (++spent > opts.pairBudget) {
                            budgetDry = true;
                            verdict.kind =
                                WidthVerdict::Kind::Unknown;
                            verdict.why =
                                "dependence pair-test budget "
                                "exhausted at this width";
                            verdict.reason =
                                DepReason::PairBudgetAtWidth;
                            break;
                        }
                        if (!overlaps(a, b) || a.iter == b.iter)
                            continue;
                        const unsigned dist = a.iter > b.iter
                                                  ? a.iter - b.iter
                                                  : b.iter - a.iter;
                        if (minDist == 0 || dist < minDist)
                            minDist = dist;
                        ++pairsThisWidth;
                        // Vector groups run the body textually, so
                        // the pair breaks iff textual order opposes
                        // iteration order.
                        const bool flips =
                            (a.iter < b.iter && a.pos > b.pos) ||
                            (b.iter < a.iter && b.pos > a.pos);
                        if (!flips)
                            continue;
                        DepPair pair;
                        pair.storeIndex = a.pos;
                        pair.otherIndex = b.pos;
                        pair.otherIsStore = b.isStore;
                        pair.distance = dist;
                        pair.addr = std::max(a.ea, b.ea);
                        pair.orderFlips = true;
                        verdict.kind = WidthVerdict::Kind::Unsafe;
                        verdict.pair = pair;
                        break;
                    }
                }
                gBegin = gEnd;
            }
        }
        // Groups at width 2N contain the groups at width N, so a
        // completed wider scan sees a superset of the narrower one's
        // pairs: the running max is "pairs within the widest resolved
        // window", the number the Ok proof quotes.
        result.carriedPairs =
            std::max(result.carriedPairs, pairsThisWidth);
    }
    result.minDistance = minDist;
    return result;
}

PolyDeps
analyzePolyDeps(const Program &prog, int entry_index,
                const RegionCfg &cfg, const DepcheckOptions &opts)
{
    PolyDeps result;
    if (cfg.loops().empty()) {
        // No loops: no carried dependences at any width.
        result.resolved = true;
        return result;
    }
    result.analyzed = true;

    std::vector<LoopRange> loops;
    loops.reserve(cfg.loops().size());
    for (const CfgLoop &l : cfg.loops()) {
        loops.push_back(LoopRange{
            cfg.blocks()[static_cast<std::size_t>(l.headBlock)].first,
            l.backedgeIndex});
    }
    result.loopsAnalyzed = static_cast<unsigned>(loops.size());

    std::vector<MemEvent> events;
    AbsMachine machine(prog, opts.facts);
    try {
        events = walkRegion(prog, entry_index, loops, opts, machine);
    } catch (const WalkStop &stop) {
        result.resolved = false;
        result.unresolvedWhy = stop.why;
        result.unresolvedReason = stop.reason;
        result.unresolvedIndex = stop.index;
        result.factsUsed = machine.factsUsed();
        return result;
    }
    result.resolved = true;
    result.factsUsed = machine.factsUsed();
    result.accesses = classifyAccesses(prog, events);
    result.events.reserve(events.size());
    for (const MemEvent &e : events) {
        result.events.push_back(DepEvent{e.loop, e.iter, e.pos, e.ea,
                                         e.size, e.isStore});
        result.maxIter = std::max(result.maxIter, e.iter);
    }
    return result;
}

} // namespace liquid
