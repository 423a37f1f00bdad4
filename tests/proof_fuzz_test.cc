/**
 * @file
 * Differential fuzz: the translation-validation prover vs the
 * execution oracle on randomly generated kernels.
 *
 * For every random legal kernel (tests/random_kernels.hh) the prover
 * and the chaos oracle must agree:
 *
 *   - Proved at width w  => the fault-free Liquid run at w is
 *     architecturally equal to the scalar baseline;
 *   - Refuted at width w => the counterexample is concrete, memory-
 *     realizable, and its chaos-oracle replay confirms the divergence;
 *   - Unknown is tolerated (budget honesty) but counted, and the run
 *     fails if the prover gives up on more than a small fraction.
 *
 * Environment knobs (the nightly CI job turns these up):
 *   LIQUID_PROOF_TRIALS   kernels to generate (default 10)
 *   LIQUID_PROOF_SEED     base RNG seed (default 1)
 *   LIQUID_PROOF_DUMP_DIR write a .s disassembly-style dump for every
 *                         prover/oracle divergence (default: off)
 */

#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "chaos/oracle.hh"
#include "verifier/proof.hh"

#include "random_kernels.hh"
#include "test_env.hh"

using namespace liquid;

namespace
{

/** Persist a divergent program for offline diagnosis. */
void
dumpDivergence(const std::string &dir, unsigned trial, unsigned width,
               const Program &prog, const std::string &why)
{
    if (dir.empty())
        return;
    const std::string path = dir + "/proof_fuzz_t" +
                             std::to_string(trial) + "_w" +
                             std::to_string(width) + ".txt";
    std::ofstream out(path);
    out << "; prover/oracle divergence: " << why << '\n';
    const auto &code = prog.code();
    for (std::size_t i = 0; i < code.size(); ++i)
        out << i << ":\t" << code[i].toString() << '\n';
}

} // namespace

TEST(ProofFuzz, ProverAgreesWithExecutionOracle)
{
    const unsigned trials = envKnob("LIQUID_PROOF_TRIALS", 10u);
    const unsigned seed = envKnob("LIQUID_PROOF_SEED", 1u);
    const char *dumpEnv = std::getenv("LIQUID_PROOF_DUMP_DIR");
    const std::string dumpDir = dumpEnv ? dumpEnv : "";

    ProofOptions popts;  // widths {2, 4, 8, 16}, replay on

    unsigned proved = 0, refuted = 0, unknown = 0, untranslated = 0;
    for (unsigned t = 0; t < trials; ++t) {
        Rng krng(seed + 1000ull * t);
        Rng drng(seed + 1000ull * t + 7);
        const GeneratedKernel g = generateKernel(krng, t);
        const Program prog = buildGeneratedProgram(
            g, drng, EmitOptions::Mode::Scalarized, 16);

        const ProgramProof pp = proveProgram(prog, popts);
        ASSERT_EQ(pp.regions.size(), 1u) << "trial " << t;
        const RegionProof &rp = pp.regions[0];

        for (const WidthProof &wp : rp.widths) {
            switch (wp.verdict) {
              case ProofVerdict::Proved: {
                ++proved;
                // The oracle must see fault-free architectural
                // equality at the proved width.
                const ChaosReference ref =
                    makeReference(prog, wp.boundWidth);
                const ChaosReport rep = checkSchedule(
                    ref, prog, wp.boundWidth, FaultSchedule{});
                if (!rep.equal) {
                    dumpDivergence(dumpDir, t, wp.width, prog,
                                   "proved but oracle diverges");
                }
                ASSERT_TRUE(rep.equal)
                    << "trial " << t << " w" << wp.width
                    << ": proved, but the execution oracle diverges: "
                    << (rep.mismatches.empty()
                            ? std::string("(no detail)")
                            : rep.mismatches.front());
                break;
              }
              case ProofVerdict::Refuted: {
                ++refuted;
                // Random legal kernels must never refute — that is a
                // prover or translator bug by construction.
                if (wp.ce) {
                    dumpDivergence(dumpDir, t, wp.width, prog,
                                   "legal kernel refuted: " +
                                       wp.ce->obligation);
                }
                FAIL() << "trial " << t << " w" << wp.width
                       << ": legal kernel refuted: " << wp.summary;
                break;
              }
              case ProofVerdict::Unknown:
                ++unknown;
                break;
              case ProofVerdict::NoTranslation:
                ++untranslated;
                break;
            }
        }
    }

    // Honesty bound: the enumeration tiers are sized so random legal
    // kernels essentially always close; a surge of Unknowns means the
    // discharge strategy regressed.
    EXPECT_LE(unknown, (proved + unknown) / 10 + 1)
        << proved << " proved vs " << unknown << " unknown";
    EXPECT_GT(proved, 0u);
}
