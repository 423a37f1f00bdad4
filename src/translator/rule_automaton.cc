#include "translator/rule_automaton.hh"

#include <algorithm>

#include "cpu/exec.hh"
#include "isa/perm.hh"
#include "translator/translator.hh"

namespace liquid
{

namespace
{

[[noreturn]] void
raiseAbort(AbortReason reason, int index)
{
    throw CaptureAbort{reason, index};
}

/** Demand a concrete value; unknown means the decision is runtime-bound. */
Word
need(const AbsVal &v, const char *what, int index)
{
    if (!v.known)
        throw CaptureUnknown{std::string(what) + " depends on runtime data",
                             index};
    return v.value;
}

} // namespace

RuleAutomaton::RuleAutomaton(const TranslatorConfig &config,
                             const Program &prog, unsigned width,
                             StatGroup *stats, WidthCheckSink *sink)
    : config_(config), prog_(prog), width_(width), stats_(stats),
      sink_(sink), regs_(4 * regsPerClass)
{
}

RuleAutomaton::RegState &
RuleAutomaton::state(RegId reg)
{
    LIQUID_ASSERT(reg.isValid());
    return regs_[reg.flat()];
}

int
RuleAutomaton::newStream(int producer_ucode)
{
    streams_.push_back(ValueStream{});
    streams_.back().producerUcode = producer_ucode;
    return static_cast<int>(streams_.size()) - 1;
}

int
RuleAutomaton::emit(Inst inst, int static_idx)
{
    if (ucode_.size() >= config_.maxUcodeInsts)
        raiseAbort(AbortReason::UcodeOverflow, static_idx);
    UcodeSlot slot;
    slot.inst = std::move(inst);
    ucode_.push_back(std::move(slot));
    return static_cast<int>(ucode_.size()) - 1;
}

void
RuleAutomaton::count(const char *stat)
{
    if (stats_ != nullptr)
        stats_->inc(stat);
}

Addr
RuleAutomaton::codeEnd(Addr entry) const
{
    return ucodeStartOfStatic_.empty()
               ? entry + 4
               : Program::instAddr(ucodeStartOfStatic_.rbegin()->first + 2);
}

void
RuleAutomaton::observe(const AbsRetire &info)
{
    ++observed_;
    if (info.index < 0)
        raiseAbort(AbortReason::UnindexedInst, info.index);
    if (verifying_)
        verify(info);
    else
        build(info);
}

void
RuleAutomaton::observeCall(int index)
{
    // A call retired inside the region: it does not fit the
    // outlined-loop format.
    raiseAbort(AbortReason::NestedCall, index);
}

// ---------------------------------------------------------------------------
// Build phase: paper Table 3 rules.
// ---------------------------------------------------------------------------

void
RuleAutomaton::build(const AbsRetire &info)
{
    const Inst &inst = *info.inst;

    if (!ucodeStartOfStatic_.count(info.index)) {
        ucodeStartOfStatic_[info.index] =
            static_cast<int>(ucode_.size());
    }

    // The partial decoder recognizes only translatable opcodes.
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

    // The saturation idiom recognizer intercepts its instructions before
    // the main rule table.
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
RuleAutomaton::handleIdiom(const AbsRetire &info)
{
    const Inst &inst = *info.inst;

    // Stages: 1 = saw `cmp vd, #satMax`, expect `movgt vd, #satMax`;
    //         2 = expect `cmp vd, #satMin`;
    //         3 = expect `movlt vd, #satMin`, then patch vadd -> vqadd.
    switch (idiom_.stage) {
      case 0: {
        if (inst.op != Opcode::Cmp || !inst.hasImm ||
            !inst.src1.isValid())
            return false;
        if (state(inst.src1).kind != RegState::Kind::Vector)
            return false;
        // cmp on a virtualized vector register: only legal as the head
        // of the saturation idiom.
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
            !inst.hasImm || inst.imm != satMax || inst.dst != idiom_.reg)
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
            !inst.hasImm || inst.imm != satMin || inst.dst != idiom_.reg)
            raiseAbort(AbortReason::IdiomShape, info.index);
        Inst &def = ucode_[idiom_.defSlot].inst;
        if (def.op == Opcode::Vadd)
            def.op = Opcode::Vqadd;
        else if (def.op == Opcode::Vsub)
            def.op = Opcode::Vqsub;
        else
            raiseAbort(AbortReason::IdiomBadProducer, info.index);
        count("idiomsRecognized");
        idiom_ = IdiomState{};
        return true;
      }
      default:
        panic("bad idiom stage");
    }
}

void
RuleAutomaton::buildMov(const AbsRetire &info)
{
    const Inst &inst = *info.inst;
    if (inst.cond != Cond::AL) {
        // Only legal inside idioms.
        raiseAbort(AbortReason::ConditionalMov, info.index);
    }

    if (inst.hasImm) {
        // Rule 1: mov r, #const marks an induction-variable candidate.
        RegState &s = state(inst.dst);
        s = RegState{};
        s.kind = RegState::Kind::IndVar;
        emit(inst, info.index);
        return;
    }

    // Register move: legal only between plain scalars.
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
RuleAutomaton::buildLoad(const AbsRetire &info)
{
    const Inst &inst = *info.inst;
    if (!inst.mem.index.isValid())
        raiseAbort(AbortReason::LoadWithoutIndex, info.index);

    const RegState &idxState = state(inst.mem.index);
    const OpInfo &op = inst.info();

    if (idxState.kind == RegState::Kind::IndVar) {
        // Rule 2: vector load; element width recorded from the opcode.
        Inst vld = inst;
        vld.op = op.vectorEquiv;
        LIQUID_ASSERT(vld.op != Opcode::Nop);
        vld.dst = inst.dst.toVector();
        const int slot = emit(std::move(vld), info.index);

        RegState &d = state(inst.dst);
        d = RegState{};
        d.kind = RegState::Kind::Vector;
        d.elemSize = op.memElemSize;
        d.producerUcode = slot;

        const Addr ea = need(info.memAddr, "load address", info.index);
        BuildNote &n = notes_[info.index];
        n.checkAddr = true;
        n.firstEa = ea;
        n.esize = op.memElemSize;

        // "The value loaded is stored in the register state" — but only
        // loads from read-only data can hold offsets/constants/masks,
        // and only values narrow enough for the per-lane state. Wider
        // values (e.g. float constants) are simply not recorded: the
        // constant array stays an ordinary vector load, which is still
        // exact (removing it "is not strictly necessary for
        // correctness", paper Section 4.1).
        if (prog_.isReadOnly(ea)) {
            const Word value =
                need(info.value, "constant-pool load", info.index);
            if (laneRepresentable(value)) {
                d.stream = newStream(slot);
                streams_[d.stream].values.push_back(value);
                n.stream = d.stream;
                if (sink_ != nullptr)
                    sink_->onStreamSeed(d.stream, value);
            }
        }
        return;
    }

    if (idxState.kind == RegState::Kind::VecValues) {
        // Rule 3: shuffled load — vld indexed by the IV, then a
        // permutation finalized once a full vector of offsets is known.
        LIQUID_ASSERT(idxState.stream >= 0);
        Inst vld = inst;
        vld.op = op.vectorEquiv;
        vld.dst = inst.dst.toVector();
        vld.mem.index = idxState.ivReg;
        emit(std::move(vld), info.index);

        Inst vp = Inst::vperm(inst.dst.toVector(), inst.dst.toVector(),
                              PermKind::SwapHalves, 2);  // placeholder
        const int pslot = emit(std::move(vp), info.index);
        patches_.push_back(
            Patch{Patch::Kind::PermLoad, pslot, idxState.stream});

        // The tentative vld of the offset array can be collapsed out of
        // the microcode buffer (the paper's alignment network).
        const int producer = streams_[idxState.stream].producerUcode;
        if (producer >= 0)
            ucode_[producer].collapseCandidate = true;

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
RuleAutomaton::buildStore(const AbsRetire &info)
{
    const Inst &inst = *info.inst;
    if (!inst.mem.index.isValid())
        raiseAbort(AbortReason::StoreWithoutIndex, info.index);

    RegState &dataState = state(inst.src1);
    if (dataState.kind != RegState::Kind::Vector)
        raiseAbort(AbortReason::StoreScalarData, info.index);
    if (dataState.producerUcode >= 0)
        ucode_[dataState.producerUcode].keep = true;

    const RegState &idxState = state(inst.mem.index);
    const OpInfo &op = inst.info();
    const RegId vdata = inst.src1.toVector();

    if (idxState.kind == RegState::Kind::IndVar) {
        // Rule 4: plain vector store.
        Inst vst = inst;
        vst.op = op.vectorEquiv;
        vst.src1 = vdata;
        emit(std::move(vst), info.index);

        BuildNote &n = notes_[info.index];
        n.checkAddr = true;
        n.isStore = true;
        n.firstEa = need(info.memAddr, "store address", info.index);
        n.esize = op.memElemSize;
        return;
    }

    if (idxState.kind == RegState::Kind::VecValues) {
        // Rule 5: shuffled store — permute (inverse), then store at the
        // IV-indexed address. The paper permutes in place, relying on
        // the compiler to guarantee the register is dead afterwards; we
        // permute into a reserved scratch vector register (v15/vf15,
        // never allocated by the scalarizer) so the virtualized value
        // survives any later use of the same register.
        LIQUID_ASSERT(idxState.stream >= 0);
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

        const int producer = streams_[idxState.stream].producerUcode;
        if (producer >= 0)
            ucode_[producer].collapseCandidate = true;
        return;
    }

    raiseAbort(AbortReason::StoreBadIndex, info.index);
}

void
RuleAutomaton::buildCmp(const AbsRetire &info)
{
    const Inst &inst = *info.inst;
    const RegState &s1 = state(inst.src1);
    if (s1.kind == RegState::Kind::Vector ||
        s1.kind == RegState::Kind::VecValues) {
        // Idiom heads were handled earlier.
        raiseAbort(AbortReason::VectorCompare, info.index);
    }
    if (!inst.hasImm) {
        const RegState &s2 = state(inst.src2);
        if (s2.kind == RegState::Kind::Vector ||
            s2.kind == RegState::Kind::VecValues)
            raiseAbort(AbortReason::VectorCompare, info.index);
    }
    emit(inst, info.index);
}

void
RuleAutomaton::buildBranch(const AbsRetire &info)
{
    const Inst &inst = *info.inst;
    LIQUID_ASSERT(inst.target >= 0);

    if (info.branchTaken && inst.target > info.index)
        raiseAbort(AbortReason::ForwardBranch, info.index);

    // Emit the branch; its target is remapped from a static instruction
    // index to a microcode index when the region commits.
    Inst b = inst;
    const int slot = emit(std::move(b), info.index);
    ucode_[slot].branchNeedsRemap = true;

    if (info.branchTaken && inst.target <= info.index) {
        // First backedge: the loop body [target .. here] was just built;
        // switch to verifying iterations 2..N against it.
        auto it = ucodeStartOfStatic_.find(inst.target);
        if (it == ucodeStartOfStatic_.end())
            raiseAbort(AbortReason::BackedgeTargetUnseen, info.index);
        verifying_ = true;
        loopStart_ = inst.target;
        loopEnd_ = info.index;
        expectIdx_ = loopStart_;
        itersDone_ = 1;
        loopUcodeStart_ = it->second;
    }
}

void
RuleAutomaton::buildDataProc(const AbsRetire &info)
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

    // Rule 9: reduction — dp r1, r1, r2 with scalar r1 and vector r2.
    if (!inst.hasImm && inst.dst == inst.src1 &&
        (isScalarish(s1) || s1.kind == Kind::IndVar) && isVec(s2)) {
        const Opcode red = inst.info().reductionEquiv;
        if (red == Opcode::Nop)
            raiseAbort(AbortReason::UnsupportedReduction, info.index);
        if (s2->producerUcode >= 0)
            ucode_[s2->producerUcode].keep = true;
        Inst vr = Inst::vred(red, inst.dst, inst.src2.toVector());
        const int slot = emit(std::move(vr), info.index);
        ucode_[slot].needsLoop = true;
        RegState &d = state(inst.dst);
        d = RegState{};
        d.kind = Kind::Scalar;
        return;
    }

    // Rule 8: offsets + induction variable — no instruction generated;
    // the loaded values are copied to the destination's state.
    if (inst.op == Opcode::Add && !inst.hasImm) {
        RegState *vals = nullptr;
        RegId iv_reg;
        if (s1.kind == Kind::IndVar && s2 && s2->kind == Kind::Vector &&
            s2->stream >= 0) {
            vals = s2;
            iv_reg = inst.src1;
        } else if (s2 && s2->kind == Kind::IndVar &&
                   s1.kind == Kind::Vector && s1.stream >= 0) {
            vals = &s1;
            iv_reg = inst.src2;
        }
        if (vals) {
            streams_[vals->stream].referenced = true;
            const int stream = vals->stream;
            RegState &d = state(inst.dst);
            d = RegState{};
            d.kind = Kind::VecValues;
            d.stream = stream;
            d.ivReg = iv_reg;
            return;
        }
    }

    // Rule 10 (generalized): self-increment of an induction-variable
    // candidate by a constant becomes an increment by W * constant.
    // This is also correct for constant-step accumulators.
    if (inst.hasImm && inst.dst == inst.src1 &&
        s1.kind == Kind::IndVar && inst.op == Opcode::Add) {
        Inst step = inst;
        step.imm = inst.imm * static_cast<std::int32_t>(width_);
        const int slot = emit(std::move(step), info.index);
        ucode_[slot].needsLoop = true;

        BuildNote &n = notes_[info.index];
        n.checkIv = true;
        n.ivFirst =
            need(info.value, "induction variable value", info.index);
        n.ivStep = inst.imm;
        return;
    }

    // Vector cases.
    if (isVec(&s1) || isVec(s2)) {
        const Opcode vop = inst.info().vectorEquiv;
        if (vop == Opcode::Nop)
            raiseAbort(AbortReason::NoVectorEquivalent, info.index);

        if (isVec(&s1) && inst.hasImm) {
            // Category 2: vector op with an immediate constant.
            Inst vi = inst;
            vi.op = vop;
            vi.dst = inst.dst.toVector();
            vi.src1 = inst.src1.toVector();
            const int slot = emit(std::move(vi), info.index);
            ucode_[slot].needsLoop = true;
            if (s1.producerUcode >= 0)
                ucode_[s1.producerUcode].keep = true;
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
                // Rule 7: exactly one operand carries loaded values —
                // emit a vector-constant op; the tentative vld of the
                // constant array is collapsed.
                RegState &cst = c1 ? s1 : *s2;
                RegState &vec = c1 ? *s2 : s1;
                streams_[cst.stream].referenced = true;
                Inst vc;
                vc.op = vop;
                vc.dst = inst.dst.toVector();
                vc.src1 = (c1 ? inst.src2 : inst.src1).toVector();
                vc.cvec = 0;  // patched at loop finalize
                const int slot = emit(std::move(vc), info.index);
                ucode_[slot].needsLoop = true;
                patches_.push_back(Patch{Patch::Kind::CvecOrMask, slot,
                                         cst.stream});
                const int producer =
                    streams_[cst.stream].producerUcode;
                if (producer >= 0)
                    ucode_[producer].collapseCandidate = true;
                if (vec.producerUcode >= 0)
                    ucode_[vec.producerUcode].keep = true;
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
            ucode_[slot].needsLoop = true;
            if (s1.producerUcode >= 0)
                ucode_[s1.producerUcode].keep = true;
            if (s2->producerUcode >= 0)
                ucode_[s2->producerUcode].keep = true;
            RegState &d = state(inst.dst);
            d = RegState{};
            d.kind = Kind::Vector;
            d.elemSize = std::max(s1.elemSize, s2->elemSize);
            d.producerUcode = slot;
            return;
        }

        // Vector mixed with a live scalar register: not in the rule
        // table (the scalar form would need a broadcast).
        raiseAbort(AbortReason::VectorScalarMix, info.index);
    }

    if (s1.kind == Kind::VecValues || (s2 && s2->kind == Kind::VecValues))
        raiseAbort(AbortReason::OffsetsInArithmetic, info.index);

    // Rule 11: all source operands scalar — pass through unmodified.
    // Values derived from the induction variable would diverge once the
    // loop strides by W, so they abort instead.
    if (s1.kind == Kind::IndVar || (s2 && s2->kind == Kind::IndVar))
        raiseAbort(AbortReason::IvArithmetic, info.index);
    emit(inst, info.index);
    RegState &d = state(inst.dst);
    d = RegState{};
    d.kind = Kind::Scalar;
}

// ---------------------------------------------------------------------------
// Verify phase: iterations 2..N of a recognized loop.
// ---------------------------------------------------------------------------

void
RuleAutomaton::verify(const AbsRetire &info)
{
    if (info.index != expectIdx_)
        raiseAbort(AbortReason::ShapeMismatch, info.index);

    const unsigned iter = itersDone_ + 1;   // current iteration, 1-based
    const std::size_t elem = iter - 1;      // element this iteration does

    auto it = notes_.find(info.index);
    if (it != notes_.end()) {
        const BuildNote &n = it->second;
        if (n.stream >= 0 && streams_[n.stream].referenced) {
            auto &values = streams_[n.stream].values;
            const Word value =
                need(info.value, "constant-pool load", info.index);
            if (sink_ != nullptr) {
                // Width-polymorphic mode: capture every lane and defer
                // the push/compare decision to instantiation.
                sink_->onStreamLane(info.index, n.stream, elem, value);
                values.push_back(value);
            } else if (values.size() < width_) {
                if (!laneRepresentable(value))
                    raiseAbort(AbortReason::ValueTooWide, info.index);
                values.push_back(value);
            } else if (value != values[elem % width_]) {
                raiseAbort(AbortReason::ValueMismatch, info.index);
            }
        }
        if (n.checkAddr &&
            need(info.memAddr, "stream address", info.index) !=
                n.firstEa + static_cast<Addr>(elem * n.esize)) {
            raiseAbort(AbortReason::AddressMismatch, info.index);
        }
        if (n.checkIv &&
            need(info.value, "induction variable value", info.index) !=
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
            verifying_ = false;
        }
        return;
    }
    ++expectIdx_;
}

void
RuleAutomaton::finalizeLoop(int index)
{
    // The microcode strides W elements per iteration, so the trip count
    // must be a whole number of vectors.
    if (sink_ != nullptr)
        sink_->onTripCount(index, itersDone_);
    else if (itersDone_ < width_ || itersDone_ % width_ != 0)
        raiseAbort(AbortReason::TripCount, index);

    // Cross-iteration memory dependences: the paper notes translated
    // code is only "functionally correct as long as there were no
    // memory dependences between scalar loop iterations" and leaves
    // detection open. Because every tracked access is a unit-stride
    // stream, the check is cheap: a store stream that begins *after*
    // an overlapping load stream feeds later iterations and must
    // abort (a store at or behind the load is read-before-write in
    // both scalar and vector order).
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
        const auto &values = streams_[p.stream].values;
        if (sink_ != nullptr) {
            // Record the lane count (and, for permutations, the shape
            // obligation); skip the width-bound constant vector / mask
            // / perm-CAM emission, whose effects are verdict-irrelevant
            // apart from the deferred checks.
            sink_->onLanes(index, p.stream, values.size());
            if (p.kind != Patch::Kind::CvecOrMask)
                sink_->onPerm(index, p.stream,
                              p.kind == Patch::Kind::PermStore);
            continue;
        }
        if (values.size() < width_)
            raiseAbort(AbortReason::LanesIncomplete, index);

        if (p.kind == Patch::Kind::CvecOrMask) {
            // Reduce to the smallest period that explains the lanes.
            unsigned period = width_;
            for (unsigned cand = 1; cand < width_; cand *= 2) {
                bool ok = true;
                for (unsigned i = 0; i < width_ && ok; ++i)
                    ok = values[i] == values[i % cand];
                if (ok) {
                    period = cand;
                    break;
                }
            }
            const bool mask_like = std::all_of(
                values.begin(), values.begin() + width_,
                [](Word v) { return v == 0 || v == 0xFFFFFFFFu; });
            Inst &inst = ucode_[p.ucodeIdx].inst;
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
                cv.lanes.assign(values.begin(), values.begin() + period);
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

        // Permutations: CAM the offset pattern against the shuffles the
        // accelerator supports at this width.
        std::vector<std::int32_t> offsets;
        offsets.reserve(width_);
        for (unsigned i = 0; i < width_; ++i)
            offsets.push_back(static_cast<std::int32_t>(
                static_cast<SWord>(values[i])));
        const auto match =
            permCamLookup(offsets, width_, config_.permRepertoire);
        if (!match)
            raiseAbort(AbortReason::UnsupportedShuffle, index);

        Inst &inst = ucode_[p.ucodeIdx].inst;
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
    loopIters_ += itersDone_;
    count("loopsVerified");
}

// ---------------------------------------------------------------------------
// Commit: compact the microcode buffer and remap branches.
// ---------------------------------------------------------------------------

RuleAutomaton::Translation
RuleAutomaton::observeReturn(int index)
{
    if (verifying_)
        raiseAbort(AbortReason::RetInsideLoop, index);
    if (idiom_.stage != 0)
        raiseAbort(AbortReason::IdiomIncomplete, index);
    if (!patches_.empty())
        raiseAbort(AbortReason::UnfinalizedPatches, index);

    // The alignment network collapses tentative offset-array loads whose
    // only consumers were permutations or constants.
    Translation out;
    std::vector<int> new_index(ucode_.size(), -1);
    for (std::size_t i = 0; i < ucode_.size(); ++i) {
        const UcodeSlot &slot = ucode_[i];
        if (config_.collapseEnabled && slot.collapseCandidate &&
            !slot.keep) {
            count("instsCollapsed");
            continue;
        }
        if (slot.needsLoop && !slot.loopVerified)
            raiseAbort(AbortReason::VectorOutsideLoop, index);
        if (slot.loopVerified)
            ++out.loopInsts;
        new_index[i] = static_cast<int>(out.insts.size());
        out.insts.push_back(slot.inst);
    }

    // Remap branch targets from static indices to microcode indices:
    // the target is the first surviving slot at or after the static
    // target's first emission point.
    for (std::size_t i = 0; i < ucode_.size(); ++i) {
        if (new_index[i] < 0 || !ucode_[i].branchNeedsRemap)
            continue;
        Inst &b = out.insts[static_cast<std::size_t>(new_index[i])];
        auto it = ucodeStartOfStatic_.find(b.target);
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
        b.target = target;
        b.targetSym.clear();
    }

    out.cvecs = cvecs_;
    return out;
}

} // namespace liquid
