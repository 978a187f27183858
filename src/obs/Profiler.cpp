//===- Profiler.cpp - Self-profiler over the ScopedTimer span stack ------===//

#include "obs/Profiler.h"

#include "support/Format.h"

#include <algorithm>
#include <map>

using namespace coderep;
using namespace coderep::obs;

Profiler::Profiler(const TraceSink &Sink) {
  std::vector<TraceEvent> Events = Sink.events();
  uint32_t MaxTid = 0;
  for (const TraceEvent &E : Events)
    MaxTid = std::max(MaxTid, E.Tid);
  Tracks.resize(Events.empty() ? 0 : MaxTid + 1);
  for (uint32_t Tid = 0; Tid < Tracks.size(); ++Tid)
    Tracks[Tid].Name = format("thread %u", Tid);
  for (const auto &[Tid, Name] : Sink.threadNames())
    if (Tid < Tracks.size())
      Tracks[Tid].Name = Name;

  // Normalize each track to a balanced well-nested sequence. Per-thread
  // event times are monotonic (each append reads the clock under the sink
  // lock), so record order is time order within a track.
  std::vector<std::vector<size_t>> OpenStack(Tracks.size()); // -> Ops index
  std::vector<int64_t> LastUs(Tracks.size(), 0);
  for (const TraceEvent &E : Events) {
    Track &T = Tracks[E.Tid];
    LastUs[E.Tid] = std::max(LastUs[E.Tid], E.TimeUs);
    if (E.Phase == EventPhase::Begin) {
      OpenStack[E.Tid].push_back(T.Ops.size());
      T.Ops.push_back({true, E.Name, E.TimeUs});
    } else if (E.Phase == EventPhase::End) {
      // A stray end (no matching open on top) is dropped: ScopedTimer
      // nesting guarantees matches in a healthy trace, so strays only
      // appear in corrupt prefixes.
      std::vector<size_t> &Stack = OpenStack[E.Tid];
      if (!Stack.empty() && T.Ops[Stack.back()].Name == E.Name) {
        Stack.pop_back();
        T.Ops.push_back({false, E.Name, E.TimeUs});
      }
    }
  }
  // Close spans left dangling (crash-flushed trace) at the track's last
  // timestamp, deepest first, so every export sees balanced input.
  for (uint32_t Tid = 0; Tid < Tracks.size(); ++Tid) {
    std::vector<size_t> &Stack = OpenStack[Tid];
    while (!Stack.empty()) {
      Tracks[Tid].Ops.push_back(
          {false, Tracks[Tid].Ops[Stack.back()].Name, LastUs[Tid]});
      Stack.pop_back();
    }
  }
}

std::string Profiler::collapsedStacks() const {
  // stack-path string -> aggregated self time. Self time of a span is its
  // duration minus its direct children's durations.
  std::map<std::string, int64_t> SelfUs;
  for (const Track &T : Tracks) {
    struct Frame {
      std::string Path;
      int64_t BeginUs = 0;
      int64_t ChildUs = 0;
    };
    std::vector<Frame> Stack;
    for (const Op &O : T.Ops) {
      if (O.Open) {
        std::string Path = Stack.empty() ? T.Name : Stack.back().Path;
        Path += ';';
        Path += O.Name;
        Stack.push_back({std::move(Path), O.TimeUs, 0});
      } else {
        Frame F = std::move(Stack.back());
        Stack.pop_back();
        int64_t Dur = O.TimeUs - F.BeginUs;
        // Every closed span gets a line, even with no self time (a leaf
        // shorter than the clock's resolution): FlameGraph accepts a
        // count of 0, and dropping it would hide the path below it.
        SelfUs[F.Path] += std::max<int64_t>(Dur - F.ChildUs, 0);
        if (!Stack.empty())
          Stack.back().ChildUs += Dur;
      }
    }
  }
  std::string Out;
  for (const auto &[Path, Us] : SelfUs)
    Out += format("%s %lld\n", Path.c_str(), static_cast<long long>(Us));
  return Out;
}

std::string Profiler::speedscopeJson() const {
  // Shared frame table: first-seen order across tracks, deduplicated.
  std::map<std::string, size_t> FrameIndex;
  std::vector<std::string> Frames;
  auto frameFor = [&](const std::string &Name) {
    auto It = FrameIndex.find(Name);
    if (It != FrameIndex.end())
      return It->second;
    size_t Idx = Frames.size();
    FrameIndex.emplace(Name, Idx);
    Frames.push_back(Name);
    return Idx;
  };

  std::string Profiles;
  bool FirstProfile = true;
  for (const Track &T : Tracks) {
    if (T.Ops.empty())
      continue;
    int64_t EndUs = 0;
    std::string Events;
    bool FirstEvent = true;
    for (const Op &O : T.Ops) {
      EndUs = std::max(EndUs, O.TimeUs);
      if (!FirstEvent)
        Events += ",\n";
      FirstEvent = false;
      Events += format("        {\"type\": \"%c\", \"frame\": %zu, "
                       "\"at\": %lld}",
                       O.Open ? 'O' : 'C', frameFor(O.Name),
                       static_cast<long long>(O.TimeUs));
    }
    if (!FirstProfile)
      Profiles += ",\n";
    FirstProfile = false;
    Profiles += format(
        "    {\"type\": \"evented\", \"name\": \"%s\", \"unit\": "
        "\"microseconds\", \"startValue\": 0, \"endValue\": %lld, "
        "\"events\": [\n%s\n      ]}",
        escapeJson(T.Name).c_str(), static_cast<long long>(EndUs),
        Events.c_str());
  }

  std::string FrameList;
  for (size_t I = 0; I < Frames.size(); ++I) {
    if (I)
      FrameList += ", ";
    FrameList += format("{\"name\": \"%s\"}", escapeJson(Frames[I]).c_str());
  }

  return format(
      "{\n"
      "  \"$schema\": \"https://www.speedscope.app/file-format-schema.json\","
      "\n"
      "  \"name\": \"coderep compile\",\n"
      "  \"exporter\": \"coderep obs::Profiler\",\n"
      "  \"activeProfileIndex\": 0,\n"
      "  \"shared\": {\"frames\": [%s]},\n"
      "  \"profiles\": [\n%s\n  ]\n"
      "}\n",
      FrameList.c_str(), Profiles.c_str());
}
