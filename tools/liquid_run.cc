/**
 * @file
 * liquid-run: command-line driver for the Liquid SIMD simulator.
 *
 * Assembles a .s file (see src/asm/assembler.hh for the syntax) and
 * runs it on a configurable system.
 *
 *   liquid-run prog.s                      # Liquid mode, 8 lanes
 *   liquid-run --mode scalar prog.s        # no SIMD accelerator
 *   liquid-run --mode native -w 16 prog.s  # native vector ISA
 *   liquid-run --trace --ucode prog.s      # full visibility
 *   liquid-run --pretranslate prog.s       # offline binary translation
 *   liquid-run --sweep prog.s              # widths 2/4/8/16 summary
 *
 * Suite workloads can be run directly, without writing assembly:
 *
 *   liquid-run --list                      # suite benchmark names
 *   liquid-run --filter 'mpeg2.*'          # run matching benchmarks
 *   liquid-run --filter fir --sweep        # width sweep on one kernel
 *
 * The functional execution tier (src/fast/) runs the same program with
 * no cycle clock — architectural results and retire counts only:
 *
 *   liquid-run --tier functional prog.s    # threaded-dispatch interp
 *   liquid-run --warmup 10000 prog.s       # functional fast-forward,
 *                                          # then hand off to the
 *                                          # cycle core
 */

#include <iostream>
#include <optional>
#include <set>
#include <string>

#include "asm/assembler.hh"
#include "common/cli.hh"
#include "fast/fast.hh"
#include "fast/tier.hh"
#include "fast/warmup.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace liquid;

namespace
{

struct Options
{
    std::vector<std::string> files;  ///< the input program, if any
    ExecMode mode = ExecMode::Liquid;
    unsigned width = 8;
    bool trace = false;
    bool stats = false;
    bool ucode = false;
    bool listing = false;
    bool pretranslate = false;
    bool sweep = false;
    Cycles latency = 1;
    bool list = false;
    cli::Regex filter;
    fast::ExecTier tier = fast::ExecTier::Cycle;
    /** Functional fast-forward checkpoint (retired insts); 0 = off. */
    std::uint64_t warmup = 0;
};

/** Parse argv into @p opt; returns a status to exit with, or nullopt. */
std::optional<int>
parseArgs(int argc, char **argv, Options &opt)
{
    /** --mode as given; unset, it defaults per tier. */
    std::optional<ExecMode> mode;
    const cli::Command cmd{
        "usage: liquid-run [options] program.s\n",
        {{"--mode scalar|liquid|native", "execution mode (liquid)",
          cli::choice(mode, {{"scalar", ExecMode::ScalarBaseline},
                             {"liquid", ExecMode::Liquid},
                             {"native", ExecMode::NativeSimd}})},
         {"-w, --width N", "SIMD lanes: 2/4/8/16 (8)", cli::width(opt.width)},
         {"--latency N", "translation cycles/inst (1)",
          cli::value(opt.latency)},
         {"--pretranslate", "offline binary translation",
          cli::flag(opt.pretranslate)},
         {"--trace", "per-instruction trace", cli::flag(opt.trace)},
         {"--stats", "dump all statistic counters", cli::flag(opt.stats)},
         {"--ucode", "print translated microcode", cli::flag(opt.ucode)},
         {"--listing", "print the assembled program", cli::flag(opt.listing)},
         {"--sweep", "run at widths 2/4/8/16", cli::flag(opt.sweep)},
         {"--list", "print suite workload names", cli::flag(opt.list)},
         {"--filter REGEX",
          "run suite workloads matching REGEX instead of a .s file",
          cli::regex(opt.filter)},
         {"--tier cycle|functional",
          "execution tier (cycle); the functional tier has no cycle "
          "clock: cycle stats are absent and cycle-only flags error",
          cli::choice(opt.tier, {{"cycle", fast::ExecTier::Cycle},
                                 {"functional", fast::ExecTier::Functional}})},
         {"--warmup N",
          "fast-forward the first N retires on the functional tier, then "
          "hand architectural state to the cycle core",
          cli::value(opt.warmup)}},
        &opt.files, 1};
    if (const auto rc = cli::parse(cmd, argc, argv))
        return rc;
    if (opt.files.empty() && !opt.list && opt.filter.text.empty()) {
        cli::printHelp(std::cout, cmd);
        return 2;
    }
    // Liquid is only the default for the cycle tier; the natural
    // functional-tier default is the scalar ISA.
    opt.mode = mode.value_or(opt.tier == fast::ExecTier::Functional
                                 ? ExecMode::ScalarBaseline
                                 : ExecMode::Liquid);
    if (opt.tier == fast::ExecTier::Functional) {
        // Anything that needs the cycle clock (or the translator) is a
        // hard error under the functional tier — the stats it would
        // report are absent there, not zero, so silently running would
        // mislead.
        const char *cycleOnly = nullptr;
        if (opt.sweep)
            cycleOnly = "--sweep";
        else if (opt.trace)
            cycleOnly = "--trace";
        else if (opt.ucode)
            cycleOnly = "--ucode";
        else if (opt.pretranslate)
            cycleOnly = "--pretranslate";
        else if (opt.warmup)
            cycleOnly = "--warmup";
        if (cycleOnly) {
            std::cerr << cycleOnly
                      << " requires the cycle tier: the functional "
                         "tier has no cycle clock, so the cycle-shaped "
                         "results it would report are absent (not "
                         "zero); drop "
                      << cycleOnly << " or use --tier cycle\n";
            return 2;
        }
        if (opt.mode == ExecMode::Liquid) {
            std::cerr << "--tier functional cannot run liquid "
                         "mode (no translator or microcode "
                         "cache); use --mode scalar or --mode "
                         "native, or --tier cycle\n";
            return 2;
        }
    }
    return std::nullopt;
}

/** Emission mode matching an execution mode. */
EmitOptions::Mode
emitModeFor(ExecMode mode)
{
    switch (mode) {
      case ExecMode::ScalarBaseline:
        return EmitOptions::Mode::InlineScalar;
      case ExecMode::Liquid:
        return EmitOptions::Mode::Scalarized;
      case ExecMode::NativeSimd:
        return EmitOptions::Mode::Native;
    }
    panic("unknown ExecMode");
}

/**
 * Functional-tier run: the threaded-dispatch interpreter, architectural
 * results and retire counts only. Returns instructions retired.
 */
std::uint64_t
runFunctionalOnce(const Program &prog, const Options &opt,
                  ExecMode mode, unsigned width, bool verbose)
{
    fast::FastConfig fc;
    fc.simdWidth = mode == ExecMode::ScalarBaseline ? 0 : width;
    MainMemory mem = MainMemory::forProgram(prog);
    fast::FastInterp interp(fc, prog, mem);
    interp.run();
    if (verbose) {
        std::cout << "tier:   functional (no cycle clock; cycle stats "
                     "are absent, not zero)\n"
                  << "insts:  " << interp.retired() << '\n';
    }
    if (opt.stats)
        interp.stats().dump(std::cout);
    return interp.retired();
}

/** Run the suite workloads matching opt.filter (single-kernel
 *  investigation without editing source). */
int
runFiltered(const Options &opt)
{
    bool matched = false;
    for (const auto &wl : makeSuite()) {
        if (!std::regex_search(wl->name(), opt.filter.compiled))
            continue;
        matched = true;
        std::cout << "== " << wl->name() << '\n';

        if (opt.tier == fast::ExecTier::Functional) {
            const auto build =
                wl->build(emitModeFor(opt.mode), opt.width);
            const std::uint64_t n = runFunctionalOnce(
                build.prog, opt, opt.mode, opt.width, false);
            std::cout << "  insts: " << n
                      << "  (functional tier; cycles absent)\n";
            continue;
        }

        auto cyclesFor = [&](ExecMode mode, unsigned width) {
            const auto build = wl->build(emitModeFor(mode), width);
            SystemConfig config = SystemConfig::make(mode, width);
            config.translator.latencyPerInst = opt.latency;
            config.pretranslate = opt.pretranslate;
            System sys(config, build.prog);
            if (opt.warmup) {
                const fast::WarmupResult w =
                    fast::fastForward(sys, opt.warmup);
                std::cout << "  warmup: " << w.retired
                          << " retire(s) fast-forwarded; cycle stats "
                             "cover the remainder only\n";
            }
            if (opt.trace)
                sys.core().setTrace(&std::cout);
            sys.run();
            if (opt.stats) {
                sys.core().stats().dump(std::cout);
                if (mode == ExecMode::Liquid)
                    sys.translator().stats().dump(std::cout);
            }
            return sys.cycles();
        };

        if (opt.sweep) {
            const Cycles base =
                cyclesFor(ExecMode::ScalarBaseline, 0);
            std::cout << "  scalar baseline: " << base << " cycles\n";
            for (unsigned width : {2u, 4u, 8u, 16u}) {
                const Cycles c = cyclesFor(ExecMode::Liquid, width);
                std::cout << "  liquid W=" << width << ":     " << c
                          << " cycles  ("
                          << static_cast<double>(base) /
                                 static_cast<double>(c)
                          << "x)\n";
            }
        } else {
            const Cycles c = cyclesFor(opt.mode, opt.width);
            std::cout << "  cycles: " << c << '\n';
        }
    }
    if (!matched) {
        std::cerr << "no suite workload matches '" << opt.filter.text
                  << "' (see --list)\n";
        return 1;
    }
    return 0;
}

Cycles
runOnce(const Program &prog, const Options &opt, ExecMode mode,
        unsigned width, bool verbose)
{
    SystemConfig config = SystemConfig::make(mode, width);
    config.translator.latencyPerInst = opt.latency;
    config.pretranslate = opt.pretranslate;
    System sys(config, prog);
    if (opt.warmup) {
        const fast::WarmupResult w = fast::fastForward(sys, opt.warmup);
        if (verbose) {
            std::cout << "warmup: fast-forwarded " << w.retired
                      << " retire(s) on the functional tier"
                      << (w.halted ? " (program halted during warmup)"
                                   : "")
                      << "; cycle stats cover the remainder only\n";
        }
    }
    if (opt.trace && verbose)
        sys.core().setTrace(&std::cout);
    sys.run();

    if (verbose) {
        std::cout << "cycles: " << sys.cycles() << '\n'
                  << "insts:  " << sys.core().stats().get("insts")
                  << '\n';
        if (mode == ExecMode::Liquid) {
            std::cout << "translations: "
                      << sys.translator().stats().get("translations")
                      << ", aborts: "
                      << sys.translator().stats().get("aborts")
                      << ", microcode dispatches: "
                      << sys.core().stats().get("ucodeDispatches")
                      << '\n';
        }
        if (opt.stats) {
            sys.core().stats().dump(std::cout);
            sys.core().icache().stats().dump(std::cout);
            sys.core().dcache().stats().dump(std::cout);
            if (mode == ExecMode::Liquid) {
                sys.translator().stats().dump(std::cout);
                sys.ucodeCache().stats().dump(std::cout);
            }
        }
        if (opt.ucode && mode == ExecMode::Liquid) {
            std::set<Addr> printed;
            for (const auto &inst : prog.code()) {
                if (inst.op != Opcode::Bl || inst.target < 0)
                    continue;
                if (!printed.insert(Program::instAddr(inst.target))
                         .second)
                    continue;
                const Addr entry = Program::instAddr(inst.target);
                const UcodeEntry *uc = sys.ucodeCache().lookup(
                    entry, sys.cycles() + 1'000'000);
                if (!uc)
                    continue;
                std::cout << "microcode for "
                          << (inst.targetSym.empty()
                                  ? std::to_string(inst.target)
                                  : inst.targetSym)
                          << " (width " << uc->simdWidth << "):\n";
                for (const auto &u : uc->insts)
                    std::cout << "    " << u.toString() << '\n';
            }
        }
    }
    return sys.cycles();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (const auto rc = parseArgs(argc, argv, opt))
        return *rc;

    if (opt.list) {
        for (const auto &wl : makeSuite())
            std::cout << wl->name() << '\n';
        return 0;
    }
    if (!opt.filter.text.empty()) {
        try {
            return runFiltered(opt);
        } catch (const FatalError &e) {
            std::cerr << e.what() << '\n';
            return 1;
        } catch (const PanicError &e) {
            std::cerr << e.what() << '\n';
            return 1;
        }
    }

    const auto source = cli::readSource(opt.files[0]);
    if (!source)
        return 2;

    try {
        Program prog = assemble(*source);
        if (opt.listing)
            std::cout << prog.listing();

        if (opt.tier == fast::ExecTier::Functional) {
            runFunctionalOnce(prog, opt, opt.mode, opt.width, true);
            return 0;
        }

        if (opt.sweep) {
            const Cycles base = runOnce(prog, opt,
                                        ExecMode::ScalarBaseline, 0,
                                        false);
            std::cout << "scalar baseline: " << base << " cycles\n";
            for (unsigned width : {2u, 4u, 8u, 16u}) {
                const Cycles c =
                    runOnce(prog, opt, ExecMode::Liquid, width, false);
                std::cout << "liquid W=" << width << ":     " << c
                          << " cycles  ("
                          << static_cast<double>(base) /
                                 static_cast<double>(c)
                          << "x)\n";
            }
            return 0;
        }

        runOnce(prog, opt, opt.mode, opt.width, true);
    } catch (const FatalError &e) {
        std::cerr << e.what() << '\n';
        return 1;
    } catch (const PanicError &e) {
        std::cerr << e.what() << '\n';
        return 1;
    }
    return 0;
}
