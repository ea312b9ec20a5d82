#include "verify.hh"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string_view>

#include "core/lower_bound.hh"
#include "qa/oracles.hh"
#include "support/stats.hh"

namespace jitsched {
namespace e2e {

namespace {

/** The deterministic block: after the header, up to `stats`. */
std::string_view
bodyOf(const std::string &raw)
{
    const std::size_t begin = raw.find('\n') + 1;
    std::size_t end = raw.find("\nstats ", begin);
    end = end == std::string::npos ? raw.size() : end + 1;
    return std::string_view(raw).substr(begin, end - begin);
}

/** Policies whose response schedule is static, so replayable. */
bool
isStatic(const std::string &policy)
{
    return policy == "iar" || policy == "base-only" ||
           policy == "opt-only" || policy == "astar" ||
           policy == "astar-par";
}

class Checker
{
  public:
    Checker(const Plan &plan, const std::string &dump_dir)
        : plan_(plan), dump_dir_(dump_dir)
    {
    }

    void
    fail(std::size_t frame, const std::string &check,
         const std::string &detail, const std::string &response = {})
    {
        // A dead daemon fails every request; the first few tell why.
        if (++violations_ > 20)
            return;
        const Frame &f = plan_.frames[frame];
        const std::string path = dump_dir_ + "/violation-" +
                                 plan_.workload + "-frame" +
                                 std::to_string(f.id) + ".txt";
        std::cerr << "violation: " << check << ": frame " << f.id
                  << " (" << f.policy << " on "
                  << plan_.traces[f.trace].name() << "): " << detail
                  << " [frame and response in " << path << "]\n";
        std::ofstream out(path);
        out << f.text << "# response\n" << response;
    }

    std::uint64_t violations() const { return violations_; }

  private:
    const Plan &plan_;
    const std::string &dump_dir_;
    std::uint64_t violations_ = 0;
};

} // anonymous namespace

Verification
verify(const Plan &plan, const std::vector<const Pass *> &passes,
       const std::string &dump_dir,
       std::vector<std::vector<Checked>> *checked)
{
    Verification v;
    Checker checker(plan, dump_dir);
    v.reference.assign(plan.frames.size(), std::nullopt);
    std::vector<std::string> ref_body(plan.frames.size());

    // Per response, in send order.
    checked->clear();
    for (const Pass *pass : passes) {
        checked->emplace_back();
        for (const Sample &s : pass->samples) {
            ++v.attempted;
            Checked c;
            const Frame &f = plan.frames[s.frame];
            std::istringstream is(s.response);
            std::string parse_error;
            std::optional<ServiceResponse> resp;
            if (!s.transportOk) {
                checker.fail(s.frame, "transport", "no response");
            } else if (!(resp = tryReadResponse(is, &parse_error))) {
                checker.fail(s.frame, "parse", parse_error, s.response);
            } else if (resp->id != f.id) {
                checker.fail(s.frame, "id",
                             "answered id " + std::to_string(resp->id),
                             s.response);
            } else if (!resp->ok) {
                checker.fail(s.frame, "status",
                             resp->code + " " + resp->error, s.response);
            } else if (!v.reference[s.frame]) {
                c.ok = true;
                ref_body[s.frame] = bodyOf(s.response);
                v.reference[s.frame] = *resp;
            } else if (f.policy == "astar-par") {
                c.ok = resp->sim.makespan ==
                       v.reference[s.frame]->sim.makespan;
                if (!c.ok)
                    checker.fail(s.frame, "astar-par-repeat",
                                 "cost changed between answers",
                                 s.response);
            } else {
                c.ok = bodyOf(s.response) == ref_body[s.frame];
                if (!c.ok)
                    checker.fail(s.frame, "byte-identity",
                                 "answer differs from the first one",
                                 s.response);
            }
            if (resp)
                c.stats = resp->stats;
            if (c.ok)
                ++v.verified;
            checked->back().push_back(std::move(c));
        }
    }

    // Per frame, on the first answer.
    std::vector<bool> required(plan.frames.size(), false);
    for (const std::size_t i : plan.required)
        required[i] = true;
    std::vector<Tick> lb_all(plan.traces.size(), -1);
    std::map<std::pair<std::size_t, std::string>, std::size_t> by_policy;
    for (std::size_t i = 0; i < plan.frames.size(); ++i) {
        const Frame &f = plan.frames[i];
        by_policy[{f.trace, f.policy}] = i;
        const auto &ref = v.reference[i];
        if (!ref) {
            if (required[i])
                checker.fail(i, "coverage", "never answered ok");
            continue;
        }
        if (ref->policy != f.policy)
            checker.fail(i, "policy", "served by " + ref->policy);
        if (!ref->hasSchedule || !ref->hasSim)
            continue;
        const Workload &w = plan.traces[f.trace];
        const Schedule sched(ref->schedule);
        std::string why;
        if (!sched.validate(w, &why)) {
            checker.fail(i, "schedule", why);
            continue;
        }
        if (lb_all[f.trace] < 0)
            lb_all[f.trace] = lowerBoundAllLevels(w);
        if (lb_all[f.trace] > ref->sim.makespan)
            checker.fail(i, "lower-bound",
                         "lowerBoundAllLevels " +
                             std::to_string(lb_all[f.trace]) +
                             " > makespan " +
                             std::to_string(ref->sim.makespan));
        if (isStatic(f.policy)) {
            const Tick want = qa::referenceMakespan(w, sched);
            if (want != ref->sim.makespan)
                checker.fail(i, "reference-makespan",
                             "reported " +
                                 std::to_string(ref->sim.makespan) +
                                 ", reference walk " +
                                 std::to_string(want));
        }
    }

    // Per instance, across policies.
    auto makespan = [&](std::size_t trace,
                        const std::string &policy) -> const Tick * {
        const auto it = by_policy.find({trace, policy});
        if (it == by_policy.end() || !v.reference[it->second] ||
            !v.reference[it->second]->hasSim)
            return nullptr;
        return &v.reference[it->second]->sim.makespan;
    };
    for (std::size_t t = 0; t < plan.traces.size(); ++t) {
        const Tick *astar = makespan(t, "astar");
        if (astar == nullptr)
            continue;
        const std::size_t frame = by_policy.at({t, "astar"});
        if (const Tick *iar = makespan(t, "iar"); iar && *astar > *iar)
            checker.fail(frame, "astar-vs-iar",
                         "astar " + std::to_string(*astar) + " > iar " +
                             std::to_string(*iar));
        if (const Tick *par = makespan(t, "astar-par");
            par && *par != *astar)
            checker.fail(frame, "astar-par-cost",
                         "astar-par " + std::to_string(*par) +
                             " != astar " + std::to_string(*astar));
    }

    // The paper's Fig. 5 quantities over the workload's traces, summed
    // in plan order so that they repeat to the last bit.
    std::vector<double> gaps;
    std::vector<double> speedups;
    for (const std::size_t t : plan.qualityTraces) {
        const auto best = by_policy.find({t, plan.qualityPolicy});
        const Tick *def = makespan(t, "jikes");
        if (best == by_policy.end() || !v.reference[best->second] ||
            def == nullptr)
            continue; // reported as a coverage violation above
        const ServiceResponse &r = *v.reference[best->second];
        gaps.push_back(
            (static_cast<double>(r.sim.makespan) /
                 static_cast<double>(r.lowerBound) -
             1.0) *
            100.0);
        speedups.push_back(static_cast<double>(*def) /
                           static_cast<double>(r.sim.makespan));
    }
    v.gapToLbPct = mean(gaps);
    v.potentialSpeedup = geomean(speedups);

    // A failed response is one violation; violations found per frame
    // or per instance count as failures too.
    v.violations = checker.violations();
    v.failed = std::min(v.attempted, v.violations);
    return v;
}

} // namespace e2e
} // namespace jitsched
