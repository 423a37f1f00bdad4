#include "verifier/rules.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "cpu/exec.hh"
#include "isa/perm.hh"
#include "verifier/dataflow.hh"

namespace liquid
{

namespace
{

/** Analysis ceiling: more abstract steps than any sane region retires. */
constexpr unsigned long stepBudget = 200000;

/** Unwound when the mirrored automaton decides the dynamic abort. */
struct StaticAbort
{
    AbortReason reason;
    int index;
};

/** Unwound when a decision needs runtime state the analysis lacks. */
struct StaticUnknown
{
    std::string what;
    int index;
};

[[noreturn]] void
raiseAbort(AbortReason reason, int index)
{
    throw StaticAbort{reason, index};
}

/** Demand a concrete value; Top here means the verdict is runtime-bound. */
Word
need(const AbsVal &v, const char *what, int index)
{
    if (!v.known) {
        std::ostringstream os;
        os << what << " depends on runtime data";
        throw StaticUnknown{os.str(), index};
    }
    return v.value;
}

/**
 * Decision-for-decision mirror of Translator (translator.cc), fed
 * AbsRetire records instead of hardware retires. Structure, member
 * names and rule order intentionally match the dynamic translator so
 * the two stay diffable; deviations are commented.
 */
class StaticAutomaton
{
  public:
    StaticAutomaton(const Program &prog, const TranslatorConfig &config,
                    unsigned capture_width,
                    WidthCheckSink *poly = nullptr)
        : config_(config), prog_(prog), captureWidth_(capture_width),
          poly_(poly), regs_(4 * regsPerClass)
    {
    }

    /** Mirror of onRetire (the index is always valid statically). */
    void
    observe(const AbsRetire &info)
    {
        ++observedInsts_;
        if (mode_ == Mode::Verify)
            verify(info);
        else
            build(info);
    }

    /** Mirror of onCall while capturing: a bl retired in-region. */
    [[noreturn]] void
    observeCall(int index)
    {
        raiseAbort(AbortReason::NestedCall, index);
    }

    /** Mirror of onReturn: abort in a loop, otherwise commit. */
    void
    observeReturn(int index)
    {
        if (mode_ == Mode::Verify)
            raiseAbort(AbortReason::RetInsideLoop, index);
        commit(index);
    }

    unsigned observed() const { return observedInsts_; }
    unsigned committedUcode() const { return committedUcode_; }
    unsigned committedCvecs() const { return committedCvecs_; }
    unsigned loopsVerified() const { return loopsVerified_; }
    unsigned committedLoopUcode() const { return committedLoopUcode_; }
    unsigned itersTotal() const { return itersTotal_; }
    bool inLoop() const { return mode_ == Mode::Verify; }

  private:
    enum class Mode
    {
        Build,
        Verify,
    };

    struct RegState
    {
        enum class Kind : std::uint8_t
        {
            Unknown,
            Scalar,
            IndVar,
            Vector,
            VecValues,
        };
        Kind kind = Kind::Unknown;
        unsigned elemSize = 4;
        int stream = -1;
        int producerUcode = -1;
        RegId ivReg;
        std::int32_t ivStep = 1;
    };

    struct ValueStream
    {
        std::vector<Word> values;
        int producerUcode = -1;
        bool referenced = false;
    };

    struct UcodeSlot
    {
        Inst inst;
        bool collapseCandidate = false;
        bool keep = false;
        bool loopVerified = false;
        bool needsLoop = false;
        bool branchNeedsRemap = false;
    };

    struct Patch
    {
        enum class Kind
        {
            PermLoad,
            PermStore,
            CvecOrMask,
        };
        Kind kind;
        int ucodeIdx;
        int stream;
    };

    struct BuildNote
    {
        int stream = -1;
        bool checkAddr = false;
        bool isStore = false;
        Addr firstEa = 0;
        unsigned esize = 0;
        bool checkIv = false;
        Word ivFirst = 0;
        std::int32_t ivStep = 1;
    };

    struct IdiomState
    {
        int stage = 0;
        RegId reg;
        int defSlot = -1;
    };

    RegState &
    state(RegId reg)
    {
        return regs_[reg.flat()];
    }

    int
    newStream(int producer_ucode)
    {
        streams_.push_back(ValueStream{});
        streams_.back().producerUcode = producer_ucode;
        return static_cast<int>(streams_.size()) - 1;
    }

    BuildNote &
    note(int static_idx)
    {
        return notes_[static_idx];
    }

    int
    emit(Inst inst, int static_idx)
    {
        if (ucode_.size() >= config_.maxUcodeInsts)
            raiseAbort(AbortReason::UcodeOverflow, static_idx);
        UcodeSlot slot;
        slot.inst = std::move(inst);
        ucode_.push_back(std::move(slot));
        return static_cast<int>(ucode_.size()) - 1;
    }

    void
    build(const AbsRetire &info)
    {
        const Inst &inst = *info.inst;

        if (!ucodeStartOfStatic_.count(info.index)) {
            ucodeStartOfStatic_[info.index] =
                static_cast<int>(ucode_.size());
        }

        const DecodeClass dc = partialDecode(inst.op);
        switch (dc) {
          case DecodeClass::Vector:
            raiseAbort(AbortReason::VectorOpcode, info.index);
          case DecodeClass::Call:
            raiseAbort(AbortReason::NestedCall, info.index);
          case DecodeClass::Untranslatable:
            raiseAbort(AbortReason::UntranslatableOpcode, info.index);
          default:
            break;
        }

        if (handleIdiom(info))
            return;

        switch (dc) {
          case DecodeClass::Mov:
            buildMov(info);
            return;
          case DecodeClass::Cmp:
            buildCmp(info);
            return;
          case DecodeClass::Branch:
            buildBranch(info);
            return;
          case DecodeClass::Load:
            buildLoad(info);
            return;
          case DecodeClass::Store:
            buildStore(info);
            return;
          case DecodeClass::DataProc:
            buildDataProc(info);
            return;
          default:
            raiseAbort(AbortReason::UntranslatableOpcode, info.index);
        }
    }

    bool
    handleIdiom(const AbsRetire &info)
    {
        const Inst &inst = *info.inst;

        switch (idiom_.stage) {
          case 0: {
            if (inst.op != Opcode::Cmp || !inst.hasImm ||
                !inst.src1.isValid())
                return false;
            if (state(inst.src1).kind != RegState::Kind::Vector)
                return false;
            if (inst.imm != satMax)
                raiseAbort(AbortReason::VectorCompare, info.index);
            idiom_.stage = 1;
            idiom_.reg = inst.src1;
            idiom_.defSlot = state(inst.src1).producerUcode;
            if (idiom_.defSlot < 0)
                raiseAbort(AbortReason::IdiomNoProducer, info.index);
            return true;
          }
          case 1: {
            if (inst.op != Opcode::Mov || inst.cond != Cond::GT ||
                !inst.hasImm || inst.imm != satMax ||
                inst.dst != idiom_.reg)
                raiseAbort(AbortReason::IdiomShape, info.index);
            idiom_.stage = 2;
            return true;
          }
          case 2: {
            if (inst.op != Opcode::Cmp || !inst.hasImm ||
                inst.imm != satMin || inst.src1 != idiom_.reg)
                raiseAbort(AbortReason::IdiomShape, info.index);
            idiom_.stage = 3;
            return true;
          }
          case 3: {
            if (inst.op != Opcode::Mov || inst.cond != Cond::LT ||
                !inst.hasImm || inst.imm != satMin ||
                inst.dst != idiom_.reg)
                raiseAbort(AbortReason::IdiomShape, info.index);
            Inst &def = ucode_[static_cast<std::size_t>(
                                   idiom_.defSlot)].inst;
            if (def.op == Opcode::Vadd)
                def.op = Opcode::Vqadd;
            else if (def.op == Opcode::Vsub)
                def.op = Opcode::Vqsub;
            else
                raiseAbort(AbortReason::IdiomBadProducer, info.index);
            idiom_ = IdiomState{};
            return true;
          }
          default:
            raiseAbort(AbortReason::IdiomShape, info.index);
        }
    }

    void
    buildMov(const AbsRetire &info)
    {
        const Inst &inst = *info.inst;
        if (inst.cond != Cond::AL)
            raiseAbort(AbortReason::ConditionalMov, info.index);

        if (inst.hasImm) {
            RegState &s = state(inst.dst);
            s = RegState{};
            s.kind = RegState::Kind::IndVar;
            emit(inst, info.index);
            return;
        }

        const RegState &src = state(inst.src1);
        if (src.kind == RegState::Kind::Vector ||
            src.kind == RegState::Kind::VecValues ||
            src.kind == RegState::Kind::IndVar)
            raiseAbort(AbortReason::MovFromNonScalar, info.index);
        RegState &d = state(inst.dst);
        d = RegState{};
        d.kind = RegState::Kind::Scalar;
        emit(inst, info.index);
    }

    void
    buildLoad(const AbsRetire &info)
    {
        const Inst &inst = *info.inst;
        if (!inst.mem.index.isValid())
            raiseAbort(AbortReason::LoadWithoutIndex, info.index);

        const RegState &idxState = state(inst.mem.index);
        const OpInfo &op = inst.info();

        if (idxState.kind == RegState::Kind::IndVar) {
            // Rule 2.
            Inst vld = inst;
            vld.op = op.vectorEquiv;
            vld.dst = inst.dst.toVector();
            const int slot = emit(std::move(vld), info.index);

            RegState &d = state(inst.dst);
            d = RegState{};
            d.kind = RegState::Kind::Vector;
            d.elemSize = op.memElemSize;
            d.producerUcode = slot;

            const Addr ea =
                need(info.memAddr, "load address", info.index);
            BuildNote &n = note(info.index);
            n.checkAddr = true;
            n.firstEa = ea;
            n.esize = op.memElemSize;

            if (prog_.isReadOnly(ea)) {
                const Word value =
                    need(info.value, "constant-pool load", info.index);
                if (laneRepresentable(value)) {
                    d.stream = newStream(slot);
                    streams_[static_cast<std::size_t>(d.stream)]
                        .values.push_back(value);
                    n.stream = d.stream;
                    if (poly_ != nullptr)
                        poly_->onStreamSeed(d.stream, value);
                }
            }
            return;
        }

        if (idxState.kind == RegState::Kind::VecValues) {
            // Rule 3.
            Inst vld = inst;
            vld.op = op.vectorEquiv;
            vld.dst = inst.dst.toVector();
            vld.mem.index = idxState.ivReg;
            emit(std::move(vld), info.index);

            Inst vp = Inst::vperm(inst.dst.toVector(),
                                  inst.dst.toVector(),
                                  PermKind::SwapHalves, 2);
            const int pslot = emit(std::move(vp), info.index);
            patches_.push_back(
                Patch{Patch::Kind::PermLoad, pslot, idxState.stream});

            const int producer =
                streams_[static_cast<std::size_t>(idxState.stream)]
                    .producerUcode;
            if (producer >= 0)
                ucode_[static_cast<std::size_t>(producer)]
                    .collapseCandidate = true;

            RegState &d = state(inst.dst);
            d = RegState{};
            d.kind = RegState::Kind::Vector;
            d.elemSize = op.memElemSize;
            d.producerUcode = pslot;
            return;
        }

        raiseAbort(AbortReason::LoadBadIndex, info.index);
    }

    void
    buildStore(const AbsRetire &info)
    {
        const Inst &inst = *info.inst;
        if (!inst.mem.index.isValid())
            raiseAbort(AbortReason::StoreWithoutIndex, info.index);

        RegState &dataState = state(inst.src1);
        if (dataState.kind != RegState::Kind::Vector)
            raiseAbort(AbortReason::StoreScalarData, info.index);
        if (dataState.producerUcode >= 0)
            ucode_[static_cast<std::size_t>(dataState.producerUcode)]
                .keep = true;

        const RegState &idxState = state(inst.mem.index);
        const OpInfo &op = inst.info();
        const RegId vdata = inst.src1.toVector();

        if (idxState.kind == RegState::Kind::IndVar) {
            // Rule 4.
            Inst vst = inst;
            vst.op = op.vectorEquiv;
            vst.src1 = vdata;
            emit(std::move(vst), info.index);

            BuildNote &n = note(info.index);
            n.checkAddr = true;
            n.isStore = true;
            n.firstEa = need(info.memAddr, "store address", info.index);
            n.esize = op.memElemSize;
            return;
        }

        if (idxState.kind == RegState::Kind::VecValues) {
            // Rule 5.
            const RegId scratch(vdata.cls(), regsPerClass - 1);
            Inst vp = Inst::vperm(scratch, vdata, PermKind::SwapHalves, 2);
            const int pslot = emit(std::move(vp), info.index);
            patches_.push_back(
                Patch{Patch::Kind::PermStore, pslot, idxState.stream});

            Inst vst = inst;
            vst.op = op.vectorEquiv;
            vst.src1 = scratch;
            vst.mem.index = idxState.ivReg;
            emit(std::move(vst), info.index);

            const int producer =
                streams_[static_cast<std::size_t>(idxState.stream)]
                    .producerUcode;
            if (producer >= 0)
                ucode_[static_cast<std::size_t>(producer)]
                    .collapseCandidate = true;
            return;
        }

        raiseAbort(AbortReason::StoreBadIndex, info.index);
    }

    void
    buildCmp(const AbsRetire &info)
    {
        const Inst &inst = *info.inst;
        const RegState &s1 = state(inst.src1);
        if (s1.kind == RegState::Kind::Vector ||
            s1.kind == RegState::Kind::VecValues)
            raiseAbort(AbortReason::VectorCompare, info.index);
        if (!inst.hasImm) {
            const RegState &s2 = state(inst.src2);
            if (s2.kind == RegState::Kind::Vector ||
                s2.kind == RegState::Kind::VecValues)
                raiseAbort(AbortReason::VectorCompare, info.index);
        }
        emit(inst, info.index);
    }

    void
    buildBranch(const AbsRetire &info)
    {
        const Inst &inst = *info.inst;

        if (info.branchTaken && inst.target > info.index)
            raiseAbort(AbortReason::ForwardBranch, info.index);

        Inst b = inst;
        const int slot = emit(std::move(b), info.index);
        ucode_[static_cast<std::size_t>(slot)].branchNeedsRemap = true;

        if (info.branchTaken && inst.target <= info.index) {
            auto it = ucodeStartOfStatic_.find(inst.target);
            if (it == ucodeStartOfStatic_.end())
                raiseAbort(AbortReason::BackedgeTargetUnseen,
                           info.index);
            mode_ = Mode::Verify;
            loopStart_ = inst.target;
            loopEnd_ = info.index;
            expectIdx_ = loopStart_;
            itersDone_ = 1;
            loopUcodeStart_ = it->second;
        }
    }

    void
    buildDataProc(const AbsRetire &info)
    {
        const Inst &inst = *info.inst;
        RegState &s1 = state(inst.src1);
        RegState *s2 = inst.hasImm ? nullptr : &state(inst.src2);
        using Kind = RegState::Kind;

        auto isVec = [](const RegState *s) {
            return s && s->kind == Kind::Vector;
        };
        auto isScalarish = [](const RegState &s) {
            return s.kind == Kind::Scalar || s.kind == Kind::Unknown;
        };

        // Rule 9: reduction.
        if (!inst.hasImm && inst.dst == inst.src1 &&
            (isScalarish(s1) || s1.kind == Kind::IndVar) && isVec(s2)) {
            const Opcode red = inst.info().reductionEquiv;
            if (red == Opcode::Nop)
                raiseAbort(AbortReason::UnsupportedReduction,
                           info.index);
            if (s2->producerUcode >= 0)
                ucode_[static_cast<std::size_t>(s2->producerUcode)]
                    .keep = true;
            Inst vr = Inst::vred(red, inst.dst, inst.src2.toVector());
            const int slot = emit(std::move(vr), info.index);
            ucode_[static_cast<std::size_t>(slot)].needsLoop = true;
            RegState &d = state(inst.dst);
            d = RegState{};
            d.kind = Kind::Scalar;
            return;
        }

        // Rule 8: offsets + induction variable.
        if (inst.op == Opcode::Add && !inst.hasImm) {
            RegState *vals = nullptr;
            RegId iv_reg;
            if (s1.kind == Kind::IndVar && s2 &&
                s2->kind == Kind::Vector && s2->stream >= 0) {
                vals = s2;
                iv_reg = inst.src1;
            } else if (s2 && s2->kind == Kind::IndVar &&
                       s1.kind == Kind::Vector && s1.stream >= 0) {
                vals = &s1;
                iv_reg = inst.src2;
            }
            if (vals) {
                streams_[static_cast<std::size_t>(vals->stream)]
                    .referenced = true;
                const int stream = vals->stream;
                RegState &d = state(inst.dst);
                d = RegState{};
                d.kind = Kind::VecValues;
                d.stream = stream;
                d.ivReg = iv_reg;
                return;
            }
        }

        // Rule 10 (generalized): IV self-increment by a constant.
        if (inst.hasImm && inst.dst == inst.src1 &&
            s1.kind == Kind::IndVar && inst.op == Opcode::Add) {
            Inst step = inst;
            step.imm =
                inst.imm * static_cast<std::int32_t>(captureWidth_);
            const int slot = emit(std::move(step), info.index);
            ucode_[static_cast<std::size_t>(slot)].needsLoop = true;

            BuildNote &n = note(info.index);
            n.checkIv = true;
            n.ivFirst = need(info.value, "induction variable value",
                             info.index);
            n.ivStep = inst.imm;
            return;
        }

        // Vector cases.
        if (isVec(&s1) || isVec(s2)) {
            const Opcode vop = inst.info().vectorEquiv;
            if (vop == Opcode::Nop)
                raiseAbort(AbortReason::NoVectorEquivalent, info.index);

            if (isVec(&s1) && inst.hasImm) {
                // Category 2: vector op with immediate.
                Inst vi = inst;
                vi.op = vop;
                vi.dst = inst.dst.toVector();
                vi.src1 = inst.src1.toVector();
                const int slot = emit(std::move(vi), info.index);
                ucode_[static_cast<std::size_t>(slot)].needsLoop = true;
                if (s1.producerUcode >= 0)
                    ucode_[static_cast<std::size_t>(s1.producerUcode)]
                        .keep = true;
                RegState &d = state(inst.dst);
                d = RegState{};
                d.kind = Kind::Vector;
                d.producerUcode = slot;
                return;
            }

            if (isVec(&s1) && isVec(s2)) {
                const bool c1 = s1.stream >= 0;
                const bool c2 = s2->stream >= 0;
                if (c1 != c2) {
                    // Rule 7: vector-constant op.
                    RegState &cst = c1 ? s1 : *s2;
                    RegState &vec = c1 ? *s2 : s1;
                    streams_[static_cast<std::size_t>(cst.stream)]
                        .referenced = true;
                    Inst vc;
                    vc.op = vop;
                    vc.dst = inst.dst.toVector();
                    vc.src1 = (c1 ? inst.src2 : inst.src1).toVector();
                    vc.cvec = 0;
                    const int slot = emit(std::move(vc), info.index);
                    ucode_[static_cast<std::size_t>(slot)].needsLoop =
                        true;
                    patches_.push_back(Patch{Patch::Kind::CvecOrMask,
                                             slot, cst.stream});
                    const int producer =
                        streams_[static_cast<std::size_t>(cst.stream)]
                            .producerUcode;
                    if (producer >= 0)
                        ucode_[static_cast<std::size_t>(producer)]
                            .collapseCandidate = true;
                    if (vec.producerUcode >= 0)
                        ucode_[static_cast<std::size_t>(
                                   vec.producerUcode)].keep = true;
                    RegState &d = state(inst.dst);
                    d = RegState{};
                    d.kind = Kind::Vector;
                    d.producerUcode = slot;
                    return;
                }

                // Rule 6: plain data-parallel vector op.
                Inst vv = inst;
                vv.op = vop;
                vv.dst = inst.dst.toVector();
                vv.src1 = inst.src1.toVector();
                vv.src2 = inst.src2.toVector();
                const int slot = emit(std::move(vv), info.index);
                ucode_[static_cast<std::size_t>(slot)].needsLoop = true;
                if (s1.producerUcode >= 0)
                    ucode_[static_cast<std::size_t>(s1.producerUcode)]
                        .keep = true;
                if (s2->producerUcode >= 0)
                    ucode_[static_cast<std::size_t>(s2->producerUcode)]
                        .keep = true;
                RegState &d = state(inst.dst);
                d = RegState{};
                d.kind = Kind::Vector;
                d.elemSize = std::max(s1.elemSize, s2->elemSize);
                d.producerUcode = slot;
                return;
            }

            raiseAbort(AbortReason::VectorScalarMix, info.index);
        }

        if (s1.kind == Kind::VecValues ||
            (s2 && s2->kind == Kind::VecValues))
            raiseAbort(AbortReason::OffsetsInArithmetic, info.index);

        // Rule 11: scalar passthrough.
        if (s1.kind == Kind::IndVar || (s2 && s2->kind == Kind::IndVar))
            raiseAbort(AbortReason::IvArithmetic, info.index);
        emit(inst, info.index);
        RegState &d = state(inst.dst);
        d = RegState{};
        d.kind = Kind::Scalar;
    }

    void
    verify(const AbsRetire &info)
    {
        if (info.index != expectIdx_)
            raiseAbort(AbortReason::ShapeMismatch, info.index);

        const unsigned width = captureWidth_;
        const unsigned iter = itersDone_ + 1;
        const std::size_t elem = iter - 1;

        auto it = notes_.find(info.index);
        if (it != notes_.end()) {
            const BuildNote &n = it->second;
            if (n.stream >= 0 &&
                streams_[static_cast<std::size_t>(n.stream)].referenced) {
                auto &values =
                    streams_[static_cast<std::size_t>(n.stream)].values;
                const Word value = need(info.value, "constant-pool load",
                                        info.index);
                if (poly_ != nullptr) {
                    // Width-polymorphic mode: capture every lane and
                    // defer the push/compare decision to instantiate.
                    poly_->onStreamLane(info.index, n.stream, elem,
                                        value);
                    values.push_back(value);
                } else if (values.size() < width) {
                    if (!laneRepresentable(value))
                        raiseAbort(AbortReason::ValueTooWide,
                                   info.index);
                    values.push_back(value);
                } else if (value != values[elem % width]) {
                    raiseAbort(AbortReason::ValueMismatch, info.index);
                }
            }
            if (n.checkAddr &&
                need(info.memAddr, "stream address", info.index) !=
                    n.firstEa + static_cast<Addr>(elem * n.esize)) {
                raiseAbort(AbortReason::AddressMismatch, info.index);
            }
            if (n.checkIv &&
                need(info.value, "induction variable value",
                     info.index) !=
                    n.ivFirst + static_cast<Word>(elem) *
                                    static_cast<Word>(n.ivStep)) {
                raiseAbort(AbortReason::IvMismatch, info.index);
            }
        }

        if (info.index == loopEnd_) {
            ++itersDone_;
            if (info.branchTaken) {
                expectIdx_ = loopStart_;
            } else {
                finalizeLoop(info.index);
                mode_ = Mode::Build;
            }
            return;
        }
        ++expectIdx_;
    }

    void
    finalizeLoop(int index)
    {
        const unsigned width = captureWidth_;

        if (poly_ != nullptr)
            poly_->onTripCount(index, itersDone_);
        else if (itersDone_ < width || itersDone_ % width != 0)
            raiseAbort(AbortReason::TripCount, index);

        for (const auto &[store_idx, store_note] : notes_) {
            if (!store_note.isStore || !store_note.checkAddr)
                continue;
            if (store_idx < loopStart_ || store_idx > loopEnd_)
                continue;
            const Addr s0 = store_note.firstEa;
            for (const auto &[load_idx, load_note] : notes_) {
                if (load_note.isStore || !load_note.checkAddr)
                    continue;
                if (load_idx < loopStart_ || load_idx > loopEnd_)
                    continue;
                const Addr l0 = load_note.firstEa;
                const Addr l_end = l0 + itersDone_ * load_note.esize;
                const Addr s_end = s0 + itersDone_ * store_note.esize;
                if (s0 > l0 && s0 < l_end && s_end > l0)
                    raiseAbort(AbortReason::MemoryDependence, index);
            }
        }

        for (const Patch &p : patches_) {
            const auto &values =
                streams_[static_cast<std::size_t>(p.stream)].values;
            if (poly_ != nullptr) {
                // Record the lane count (and, for permutations, the
                // shape obligation); skip the width-bound constant
                // vector / mask / perm-CAM emission, whose effects are
                // verdict-irrelevant apart from the deferred checks.
                poly_->onLanes(index, p.stream, values.size());
                if (p.kind != Patch::Kind::CvecOrMask)
                    poly_->onPerm(index, p.stream,
                                  p.kind == Patch::Kind::PermStore);
                continue;
            }
            if (values.size() < width)
                raiseAbort(AbortReason::LanesIncomplete, index);

            if (p.kind == Patch::Kind::CvecOrMask) {
                unsigned period = width;
                for (unsigned cand = 1; cand < width; cand *= 2) {
                    bool ok = true;
                    for (unsigned i = 0; i < width && ok; ++i)
                        ok = values[i] == values[i % cand];
                    if (ok) {
                        period = cand;
                        break;
                    }
                }
                const bool mask_like = std::all_of(
                    values.begin(), values.begin() + width,
                    [](Word v) { return v == 0 || v == 0xFFFFFFFFu; });
                Inst &inst =
                    ucode_[static_cast<std::size_t>(p.ucodeIdx)].inst;
                if (mask_like && inst.op == Opcode::Vand) {
                    std::uint32_t bits = 0;
                    for (unsigned i = 0; i < period; ++i) {
                        if (values[i])
                            bits |= 1u << i;
                    }
                    inst.op = Opcode::Vmask;
                    inst.cvec = noCvec;
                    inst.maskBits = bits;
                    inst.maskBlock = static_cast<std::uint8_t>(
                        std::max(period, 1u));
                } else {
                    ConstVec cv;
                    cv.lanes.assign(values.begin(),
                                    values.begin() + period);
                    std::uint32_t id = 0;
                    for (; id < cvecs_.size(); ++id) {
                        if (cvecs_[id] == cv)
                            break;
                    }
                    if (id == cvecs_.size())
                        cvecs_.push_back(std::move(cv));
                    inst.cvec = id;
                }
                continue;
            }

            std::vector<std::int32_t> offsets;
            offsets.reserve(width);
            for (unsigned i = 0; i < width; ++i)
                offsets.push_back(static_cast<std::int32_t>(
                    static_cast<SWord>(values[i])));
            const auto match =
                permCamLookup(offsets, width, config_.permRepertoire);
            if (!match)
                raiseAbort(AbortReason::UnsupportedShuffle, index);

            Inst &inst =
                ucode_[static_cast<std::size_t>(p.ucodeIdx)].inst;
            inst.permKind = p.kind == Patch::Kind::PermStore
                                ? permInverse(match->kind)
                                : match->kind;
            inst.permBlock = static_cast<std::uint8_t>(match->block);
        }
        patches_.clear();

        for (std::size_t i = static_cast<std::size_t>(loopUcodeStart_);
             i < ucode_.size(); ++i)
            ucode_[i].loopVerified = true;

        ++loopsVerified_;
        itersTotal_ += itersDone_;
    }

    void
    commit(int index)
    {
        if (idiom_.stage != 0)
            raiseAbort(AbortReason::IdiomIncomplete, index);
        if (!patches_.empty())
            raiseAbort(AbortReason::UnfinalizedPatches, index);

        std::vector<int> new_index(ucode_.size(), -1);
        unsigned out = 0;
        unsigned loop_out = 0;
        for (std::size_t i = 0; i < ucode_.size(); ++i) {
            UcodeSlot &slot = ucode_[i];
            const bool drop = config_.collapseEnabled &&
                              slot.collapseCandidate && !slot.keep;
            if (drop)
                continue;
            if (slot.needsLoop && !slot.loopVerified)
                raiseAbort(AbortReason::VectorOutsideLoop, index);
            if (slot.loopVerified)
                ++loop_out;
            new_index[i] = static_cast<int>(out);
            ++out;
        }

        for (std::size_t i = 0; i < ucode_.size(); ++i) {
            if (new_index[i] < 0 || !ucode_[i].branchNeedsRemap)
                continue;
            auto it = ucodeStartOfStatic_.find(ucode_[i].inst.target);
            if (it == ucodeStartOfStatic_.end())
                raiseAbort(AbortReason::DanglingBranch, index);
            int target = -1;
            for (std::size_t j = static_cast<std::size_t>(it->second);
                 j < ucode_.size(); ++j) {
                if (new_index[j] >= 0) {
                    target = new_index[j];
                    break;
                }
            }
            if (target < 0)
                raiseAbort(AbortReason::DanglingBranch, index);
        }

        committedUcode_ = out;
        committedLoopUcode_ = loop_out;
        committedCvecs_ = static_cast<unsigned>(cvecs_.size());
    }

    TranslatorConfig config_;
    const Program &prog_;

    Mode mode_ = Mode::Build;
    unsigned observedInsts_ = 0;
    unsigned captureWidth_;
    WidthCheckSink *poly_ = nullptr;

    std::vector<RegState> regs_;
    std::vector<ValueStream> streams_;
    std::vector<UcodeSlot> ucode_;
    std::vector<ConstVec> cvecs_;
    std::vector<Patch> patches_;
    std::map<int, int> ucodeStartOfStatic_;
    std::map<int, BuildNote> notes_;
    IdiomState idiom_;

    int loopStart_ = -1;
    int loopEnd_ = -1;
    int expectIdx_ = -1;
    unsigned itersDone_ = 0;
    int loopUcodeStart_ = -1;
    unsigned loopsVerified_ = 0;

    unsigned committedUcode_ = 0;
    unsigned committedLoopUcode_ = 0;
    unsigned committedCvecs_ = 0;
    unsigned itersTotal_ = 0;
};

} // namespace

StaticOutcome
analyzeRegion(const Program &prog, int entry_index,
              const TranslatorConfig &config, unsigned capture_width,
              const EntryFacts *facts, WidthCheckSink *poly)
{
    StaticOutcome out;
    StaticAutomaton automaton(prog, config, capture_width, poly);
    AbsMachine machine(prog, facts);
    std::set<int> visited;

    const auto &code = prog.code();
    int pc = entry_index;
    unsigned long steps = 0;

    try {
        for (;;) {
            if (++steps > stepBudget) {
                throw StaticUnknown{
                    "region exceeds the analysis step budget; the "
                    "dynamic outcome depends on how the loop "
                    "terminates",
                    pc};
            }
            if (pc < 0 || pc >= static_cast<int>(code.size())) {
                throw StaticUnknown{
                    "control flow leaves the program text", pc};
            }
            const Inst &inst = code[pc];
            visited.insert(pc);

            if (inst.op == Opcode::Bl)
                automaton.observeCall(pc);

            if (inst.op == Opcode::Ret) {
                automaton.observeReturn(pc);
                out.verdict = Severity::Ok;
                out.ucodeInsts = automaton.committedUcode();
                out.cvecs = automaton.committedCvecs();
                out.loopsVerified = automaton.loopsVerified();
                out.ucodeLoopInsts = automaton.committedLoopUcode();
                out.loopIters = automaton.itersTotal();
                break;
            }

            Taken taken = Taken::No;
            const AbsRetire ri = machine.step(inst, pc, taken);
            if (inst.op == Opcode::B && taken == Taken::Unknown) {
                std::ostringstream os;
                os << "branch depends on runtime data";
                if (machine.lastCmpIndex() >= 0) {
                    os << " (flags set by the cmp at inst "
                       << machine.lastCmpIndex() << ")";
                }
                throw StaticUnknown{os.str(), pc};
            }
            automaton.observe(ri);

            if (inst.op == Opcode::B && ri.branchTaken)
                pc = inst.target;
            else
                ++pc;
        }
    } catch (const StaticAbort &a) {
        out.verdict = Severity::Error;
        out.reason = a.reason;
        out.reasonIndex = a.index;
    } catch (const StaticUnknown &u) {
        out.verdict = Severity::Warn;
        out.warnCondition = u.what;
        out.reasonIndex = u.index;
    }

    out.analyzedInsts = automaton.observed();
    out.visited.assign(visited.begin(), visited.end());
    out.factsUsed = machine.factsUsed();
    out.clobberProbes = machine.clobberProbes();
    return out;
}

} // namespace liquid
