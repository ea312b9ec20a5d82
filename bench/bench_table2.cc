/**
 * @file
 * Reproduces Table 2: the wall-clock running time of the IAR
 * algorithm itself on every benchmark, and that time as a
 * percentage of the program's execution time.
 *
 * Both sides of the share come from the same trace: the IAR time is
 * measured on the 1/N-scale trace and divided by the simulated
 * make-span of that same trace under the IAR schedule.  Both grow
 * linearly with the call count, so the share is scale-stable to
 * first order; JITSCHED_FULL=1 puts both at full scale, the paper's
 * setting, and only then prints the paper's IAR time beside ours.
 *
 * Paper shape to match: IAR runs in milliseconds (6-108 ms on their
 * traces) — under ~1% of program time for most benchmarks, 3.4% at
 * worst (lusearch) — so it is cheap enough for online use.
 *
 * `--smoke` prints no timings: per configuration at 1/256 scale and
 * per candidate model, the IAR make-span, the lower bound, every
 * IarResult counter and a digest of the schedule.  Everything there
 * is a pure function of the solver, so scripts/check.sh --bench-smoke
 * diffs it against bench/expectations/iar_smoke.txt.
 */

#include <chrono>
#include <cstring>
#include <iostream>

#include "core/iar.hh"
#include "core/lower_bound.hh"
#include "exec/eval_cache.hh"
#include "sim/makespan.hh"
#include "support/strutil.hh"
#include "support/table.hh"
#include "trace/dacapo.hh"
#include "vm/cost_benefit.hh"

using namespace jitsched;

namespace {

int
runSmoke()
{
    std::cout << "iar-smoke v1\n";
    for (const DacapoSpec &spec : dacapoSpecs()) {
        const Workload w = makeDacapoWorkload(spec.name, 256);
        std::cout << spec.name << " functions=" << w.numFunctions()
                  << " calls=" << w.numCalls() << "\n";
        for (const ModelKind kind :
             {ModelKind::Default, ModelKind::Oracle}) {
            CostBenefitConfig mcfg;
            mcfg.kind = kind;
            const auto cands = modelCandidateLevels(w, mcfg);
            const IarResult res = iarSchedule(w, cands);
            std::cout << "  "
                      << (kind == ModelKind::Default ? "default"
                                                     : "oracle")
                      << " makespan="
                      << simulate(w, res.schedule).makespan
                      << " lower_bound="
                      << lowerBoundCandidates(w, cands) << "\n";
            std::cout << "    append=" << res.numAppend
                      << " replace=" << res.numReplace
                      << " other=" << res.numOther
                      << " slack_upgrades=" << res.slackUpgrades
                      << " gap_appends=" << res.gapAppends
                      << " discarded="
                      << (res.refinementDiscarded ? "yes" : "no")
                      << " events=" << res.schedule.size()
                      << strprintf(" schedule=%016llx",
                                   static_cast<unsigned long long>(
                                       hashSchedule(res.schedule)))
                      << "\n";
        }
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0)
        return runSmoke();

    const std::size_t scale = benchScaleFromEnv(16);
    const bool full = scale == 1;
    std::cout << "== Table 2: IAR algorithm time ==\n";
    std::cout << "(traces at 1/" << scale
              << " scale; percentage vs the simulated program time "
                 "of the same trace)\n";

    std::vector<std::string> header = {"program", "calls",
                                       "IAR time (s)",
                                       "program time (s)",
                                       "% of program time"};
    if (full)
        header.push_back("paper IAR time (s)");
    AsciiTable t(header);

    const double paper_times[] = {0.006, 0.023, 0.001, 0.003, 0.020,
                                  0.059, 0.051, 0.108, 0.031};
    std::size_t idx = 0;
    for (const DacapoSpec &spec : dacapoSpecs()) {
        const Workload w = makeDacapoWorkload(spec.name, scale);
        CostBenefitConfig mcfg;
        const auto cands = modelCandidateLevels(w, mcfg);

        // Best of several timed runs for stability.
        double best_seconds = 1e30;
        Schedule schedule;
        for (int rep = 0; rep < 5; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            IarResult res = iarSchedule(w, cands);
            const auto t1 = std::chrono::steady_clock::now();
            const double secs =
                std::chrono::duration<double>(t1 - t0).count();
            if (secs < best_seconds) {
                best_seconds = secs;
                schedule = std::move(res.schedule);
            }
        }

        // Program time: the IAR-scheduled make-span of the same
        // trace IAR was timed on.
        const double program_seconds =
            toSeconds(simulate(w, schedule).makespan);
        const double pct = 100.0 * best_seconds / program_seconds;

        std::vector<std::string> row = {
            spec.name, std::to_string(w.numCalls()),
            strprintf("%.4f", best_seconds),
            strprintf("%.4f", program_seconds),
            strprintf("%.2f%%", pct)};
        if (full)
            row.push_back(strprintf("%.3f", paper_times[idx]));
        ++idx;
        t.addRow(row);
    }
    t.print(std::cout);
    std::cout << "Paper reference (full scale): 0.001-0.108 s per "
                 "trace, under 1% of program time for most programs "
                 "(3.4% worst, lusearch) — affordable online.\n";
    return 0;
}
