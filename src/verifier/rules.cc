#include "verifier/rules.hh"

#include <set>

#include "translator/rule_automaton.hh"
#include "verifier/dataflow.hh"

namespace liquid
{

namespace
{

/** Analysis ceiling: more abstract steps than any sane region retires. */
constexpr unsigned long stepBudget = 200000;

} // namespace

StaticOutcome
analyzeRegion(const Program &prog, int entry_index,
              const TranslatorConfig &config, unsigned capture_width,
              const EntryFacts *facts, WidthCheckSink *poly)
{
    StaticOutcome out;
    RuleAutomaton automaton(config, prog, capture_width, nullptr, poly);
    AbsMachine machine(prog, facts);
    std::set<int> visited;

    const auto &code = prog.code();
    int pc = entry_index;
    unsigned long steps = 0;

    try {
        for (;;) {
            if (++steps > stepBudget) {
                throw CaptureUnknown{
                    "region exceeds the analysis step budget; the "
                    "dynamic outcome depends on how the loop "
                    "terminates",
                    pc};
            }
            if (pc < 0 || pc >= static_cast<int>(code.size())) {
                throw CaptureUnknown{
                    "control flow leaves the program text", pc};
            }
            const Inst &inst = code[pc];
            visited.insert(pc);

            if (inst.op == Opcode::Bl)
                RuleAutomaton::observeCall(pc);

            if (inst.op == Opcode::Ret) {
                const RuleAutomaton::Translation t =
                    automaton.observeReturn(pc);
                out.verdict = Severity::Ok;
                out.ucodeInsts = static_cast<unsigned>(t.insts.size());
                out.cvecs = static_cast<unsigned>(t.cvecs.size());
                out.loopsVerified = automaton.loopsVerified();
                out.ucodeLoopInsts = t.loopInsts;
                out.loopIters = automaton.loopIters();
                break;
            }

            Taken taken = Taken::No;
            const AbsRetire ri = machine.step(inst, pc, taken);
            if (inst.op == Opcode::B && taken == Taken::Unknown) {
                std::string what = "branch depends on runtime data";
                if (machine.lastCmpIndex() >= 0) {
                    what += " (flags set by the cmp at inst " +
                            std::to_string(machine.lastCmpIndex()) + ")";
                }
                throw CaptureUnknown{what, pc};
            }
            automaton.observe(ri);

            if (inst.op == Opcode::B && ri.branchTaken)
                pc = inst.target;
            else
                ++pc;
        }
    } catch (const CaptureAbort &a) {
        out.verdict = Severity::Error;
        out.reason = a.reason;
        out.reasonIndex = a.index;
    } catch (const CaptureUnknown &u) {
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
