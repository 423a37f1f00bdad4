/**
 * @file
 * One fig6 job as a benchmark op: its built program, its golden
 * output arrays, and the calls that run it on either tier.
 */
#ifndef PERFBENCH_SIM_HH
#define PERFBENCH_SIM_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "fast/fast.hh"
#include "lab/spec.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace lab = liquid::lab;

/** Expected contents of one output array. */
struct GoldenArray
{
    std::string name;
    std::vector<liquid::Word> words;
};

struct SimOp
{
    lab::Job job;
    liquid::Workload::Build build;
    std::vector<GoldenArray> golden;
};

/**
 * Golden output arrays per (workload, reps). The vector-IR interpreter
 * reads only the workload's data and kernels, which every execution
 * mode and width shares, so one golden run serves all of a workload's
 * jobs at one rep count.
 */
class Goldens
{
  public:
    const std::vector<GoldenArray> &get(const lab::Job &job,
                                        const liquid::Workload::Build &build,
                                        Ctx ctx);

  private:
    std::vector<std::unique_ptr<liquid::Workload>> suite_ =
        liquid::makeSuite();
    std::map<std::pair<std::string, unsigned>, std::vector<GoldenArray>>
        cache_;
};

/** lab::buildJob plus the job's golden outputs. */
SimOp prepareSimOp(const lab::Job &job, Goldens &goldens, Ctx ctx);

/** Run on the cycle tier the way lab::runBuilt does, and check. */
OpResult runCycleOp(const SimOp &op, Ctx ctx);
/**
 * Run on the functional tier the way lab::runBuilt does, and check.
 * @p sabotage seeds a deliberate interpreter bug (self-tests only).
 */
OpResult runFastOp(const SimOp &op, Ctx ctx,
                   liquid::fast::Sabotage sabotage =
                       liquid::fast::Sabotage::None);

} // namespace perfbench

#endif // PERFBENCH_SIM_HH
