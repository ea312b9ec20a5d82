#include "obs/schedule_timeline.hh"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "obs/trace_event.hh"
#include "support/logging.hh"

namespace jitsched {
namespace obs {

namespace {

/**
 * Observer that rebuilds the per-core placement of every slice.
 *
 * Compile cores: the simulator dispatches events FIFO to the
 * earliest-free core (sim/compile_queue.hh); replaying that greedy
 * rule on the completion times the observer sees recovers each
 * event's core and start, and the reconstruction is checked against
 * the observed completion so the two engines cannot drift silently.
 *
 * Bubbles: a call that starts after the previous call ended was
 * waiting on its function's first compilation — exactly the gap
 * simulate() books as bubble time.
 */
class SliceObserver : public SimObserver
{
  public:
    SliceObserver(const Workload &w, std::size_t compile_cores,
                  std::vector<TimelineSlice> &out)
        : w_(w), core_free_(compile_cores, 0), out_(out)
    {
    }

    void
    onCompiled(std::size_t event_index, const CompileEvent &ev,
               Tick completion) override
    {
        const Tick dur = w_.function(ev.func).compileTime(ev.level);
        const auto it =
            std::min_element(core_free_.begin(), core_free_.end());
        const Tick start = *it;
        if (start + dur != completion)
            JITSCHED_PANIC("ScheduleTimeline: compile-core replay "
                           "diverged from the simulator (event ",
                           event_index, ": expected completion ",
                           start + dur, ", simulator says ",
                           completion, ")");
        *it = completion;
        TimelineSlice slice;
        slice.kind = TimelineSlice::Kind::Compile;
        slice.core = static_cast<std::size_t>(
            it - core_free_.begin());
        slice.start = start;
        slice.dur = dur;
        slice.func = ev.func;
        slice.level = ev.level;
        slice.index = event_index;
        out_.push_back(slice);
    }

    void
    onCall(std::size_t call_index, FuncId f, Tick start, Tick duration,
           Level level_used) override
    {
        if (start > exec_now_) {
            TimelineSlice bubble;
            bubble.kind = TimelineSlice::Kind::Bubble;
            bubble.start = exec_now_;
            bubble.dur = start - exec_now_;
            bubble.func = f;
            bubble.index = call_index;
            out_.push_back(bubble);
        }
        TimelineSlice call;
        call.kind = TimelineSlice::Kind::Call;
        call.start = start;
        call.dur = duration;
        call.func = f;
        call.level = level_used;
        call.index = call_index;
        out_.push_back(call);
        exec_now_ = start + duration;
    }

  private:
    const Workload &w_;
    std::vector<Tick> core_free_; ///< replayed compile-core clocks
    Tick exec_now_ = 0;           ///< end of the previous call
    std::vector<TimelineSlice> &out_;
};

} // anonymous namespace

Tick
ScheduleTimeline::totalBubbleInSlices() const
{
    Tick total = 0;
    for (const TimelineSlice &s : slices)
        if (s.kind == TimelineSlice::Kind::Bubble)
            total += s.dur;
    return total;
}

ScheduleTimeline
buildScheduleTimeline(const Workload &w, const Schedule &s,
                      const SimOptions &opts)
{
    ScheduleTimeline timeline;
    timeline.compileCores = opts.compileCores;
    SliceObserver observer(w, opts.compileCores, timeline.slices);
    timeline.sim = simulate(w, s, opts, observer);
    return timeline;
}

void
writeTimelineTrace(std::ostream &os, const Workload &w,
                   const ScheduleTimeline &timeline)
{
    TraceEventSink sink;
    constexpr std::uint32_t pid = 1;
    // tids 1..C are the compile cores, C+1 the exec core; ascending
    // tid keeps the tracks in Fig. 1 order (compile above exec).
    const std::uint32_t exec_tid =
        static_cast<std::uint32_t>(timeline.compileCores) + 1;
    sink.processName(pid, "jitsched: " + w.name());
    for (std::size_t c = 0; c < timeline.compileCores; ++c)
        sink.threadName(pid, static_cast<std::uint32_t>(c) + 1,
                        "compile core " + std::to_string(c));
    sink.threadName(pid, exec_tid, "exec core");

    for (const TimelineSlice &s : timeline.slices) {
        const std::string fname = w.function(s.func).name();
        switch (s.kind) {
          case TimelineSlice::Kind::Compile:
            sink.slice("C" + std::to_string(s.level) + "(" + fname +
                           ")",
                       "compile",
                       pid, static_cast<std::uint32_t>(s.core) + 1,
                       s.start, s.dur,
                       {{"func", fname},
                        {"level", std::to_string(s.level)},
                        {"event", std::to_string(s.index)}});
            break;
          case TimelineSlice::Kind::Call:
            sink.slice(fname + "@L" + std::to_string(s.level), "call",
                       pid, exec_tid, s.start, s.dur,
                       {{"func", fname},
                        {"level", std::to_string(s.level)},
                        {"call", std::to_string(s.index)}});
            break;
          case TimelineSlice::Kind::Bubble:
            sink.slice("bubble(" + fname + ")", "bubble", pid,
                       exec_tid, s.start, s.dur,
                       {{"func", fname},
                        {"call", std::to_string(s.index)}});
            break;
        }
    }
    sink.write(os);
}

void
writeScheduleTrace(std::ostream &os, const Workload &w,
                   const Schedule &s, const SimOptions &opts)
{
    writeTimelineTrace(os, w, buildScheduleTimeline(w, s, opts));
}

void
writeScheduleTraceFile(const std::string &path, const Workload &w,
                       const Schedule &s, const SimOptions &opts)
{
    std::ofstream os(path);
    if (!os)
        JITSCHED_FATAL("cannot open trace output file '", path, "'");
    writeScheduleTrace(os, w, s, opts);
    if (!os.good())
        JITSCHED_FATAL("write to trace output file '", path,
                       "' failed");
}

} // namespace obs
} // namespace jitsched
