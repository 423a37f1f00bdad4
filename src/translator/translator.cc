#include "translator/translator.hh"

#include "common/bitfield.hh"

namespace liquid
{

Translator::Translator(const TranslatorConfig &config, const Program &prog,
                       UcodeCache &cache)
    : config_(config), prog_(prog), cache_(cache), stats_("translator")
{
    LIQUID_ASSERT(isPowerOf2(config_.simdWidth) && config_.simdWidth >= 2,
                  "bad SIMD width");
}

void
Translator::reset()
{
    automaton_.reset();
    regionEntry_ = invalidAddr;
}

void
Translator::abort(AbortReason reason)
{
    lastAbort_ = reason;
    stats_.inc("aborts");
    stats_.inc(std::string("abort.") + abortReasonName(reason));
    if (regionEntry_ != invalidAddr)
        pendingRetranslate_[regionEntry_] = reason;
    // Runtime-class aborts (interrupt, cache loss, SMC) are transient
    // properties of the environment, not of the code: never blacklist
    // or narrow the width for them.
    if (regionEntry_ != invalidAddr &&
        abortReasonClass(reason) != ReasonClass::Runtime) {
        // Width-dependent failures can succeed at a narrower binding:
        // the trip count may divide a smaller width, and a shuffle or
        // lane pattern that is not W-periodic may be W/2-periodic.
        const unsigned width = automaton_->width();
        if (config_.widthFallback && abortIsWidthDependent(reason) &&
            width > 2) {
            retryWidth_[regionEntry_] = width / 2;
            stats_.inc("widthFallbacks");
        } else if (config_.blacklistOnAbort) {
            blacklist_.insert(regionEntry_);
        }
    }
    reset();
}

void
Translator::onCall(Addr callee_entry, bool hinted, unsigned width_hint,
                   Cycles now)
{
    if (automaton_) {
        // A call retired inside a region being captured: the region
        // does not fit the outlined-loop format.
        abort(AbortReason::NestedCall);
        return;
    }
    if (config_.requireHint && !hinted)
        return;
    if (blacklist_.count(callee_entry))
        return;
    if (cache_.contains(callee_entry))
        return;

    // Bind at the accelerator width, capped by the compiled maximum
    // vectorizable width and by any previous width fallback.
    unsigned width = bindWidth(config_.simdWidth, width_hint);
    auto retry = retryWidth_.find(callee_entry);
    if (retry != retryWidth_.end())
        width = std::min(width, retry->second);
    if (width < 2)
        return;

    automaton_.emplace(config_, prog_, width, &stats_);
    regionEntry_ = callee_entry;
    regionStart_ = now;
    stats_.inc("capturesStarted");
}

void
Translator::onInterrupt(Cycles now)
{
    (void)now;
    if (!automaton_)
        return;
    // External abort from the pipeline (paper Figure 5's Abort input):
    // transient, so the region is not blacklisted and may be retried.
    abort(AbortReason::Interrupt);
}

void
Translator::noteTranslationLost(Addr entry, AbortReason reason)
{
    stats_.inc("translationsLost");
    stats_.inc(std::string("lost.") + abortReasonName(reason));
    pendingRetranslate_[entry] = reason;
}

void
Translator::noteCodeInvalidated(Addr lo, Addr hi, AbortReason reason)
{
    // Overwritten code means every decision derived from the old bytes
    // is stale: a formerly untranslatable region may now translate, and
    // a narrower-width retry may no longer apply.
    for (auto it = blacklist_.begin(); it != blacklist_.end();) {
        if (*it >= lo && *it < hi)
            it = blacklist_.erase(it);
        else
            ++it;
    }
    for (auto it = retryWidth_.begin(); it != retryWidth_.end();) {
        if (it->first >= lo && it->first < hi)
            it = retryWidth_.erase(it);
        else
            ++it;
    }

    if (automaton_ && lo < automaton_->codeEnd(regionEntry_) &&
        hi > regionEntry_)
        abort(reason);
}

void
Translator::onReturn(Cycles now)
{
    if (!automaton_)
        return;
    // The retire bus does not carry the ret's index; abort indices are
    // a static-analysis diagnostic the runtime ignores.
    try {
        commit(automaton_->observeReturn(-1), now);
    } catch (const CaptureAbort &a) {
        abort(a.reason);
    }
}

void
Translator::onRetire(const RetireInfo &info, Cycles now)
{
    (void)now;
    if (!automaton_)
        return;
    stats_.inc("instsObserved");

    const AbsRetire ri{info.inst, info.index, AbsVal::of(info.value),
                       AbsVal::of(info.memAddr), info.branchTaken};
    try {
        automaton_->observe(ri);
    } catch (const CaptureAbort &a) {
        abort(a.reason);
    }
}

void
Translator::commit(RuleAutomaton::Translation translation, Cycles now)
{
    const std::uint64_t observed = automaton_->observed();

    UcodeEntry entry;
    entry.entryAddr = regionEntry_;
    entry.insts = std::move(translation.insts);
    entry.cvecs = std::move(translation.cvecs);
    entry.simdWidth = automaton_->width();
    // Source code range for SMC invalidation.
    entry.codeEnd = automaton_->codeEnd(regionEntry_);
    // The translator consumes the retire stream concurrently with
    // execution; it only delays readiness when its per-instruction
    // cost exceeds the core's effective CPI.
    entry.readyAt =
        std::max(now, regionStart_ + config_.latencyPerInst * observed);
    cache_.insert(std::move(entry));

    stats_.inc("translations");
    stats_.inc("instsTranslated", observed);

    // A commit that follows a recorded loss or abort of the same region
    // is a re-translation; count it keyed by what caused the redo.
    auto pending = pendingRetranslate_.find(regionEntry_);
    if (pending != pendingRetranslate_.end()) {
        stats_.inc("retranslations");
        stats_.inc(std::string("retranslate.") +
                   abortReasonName(pending->second));
        pendingRetranslate_.erase(pending);
    }
    reset();
}

} // namespace liquid
