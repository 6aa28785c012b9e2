//===- obs/Trace.cpp - Pipeline span tracing -------------------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <cstdio>

using namespace gjs;
using namespace gjs::obs;

size_t TraceRecorder::begin(std::string Name) {
  SpanRecord S;
  S.Name = std::move(Name);
  S.StartUs = nowUs();
  S.Depth = static_cast<unsigned>(Open.size());
  S.Parent = Open.empty() ? SpanRecord::npos : Open.back();
  Spans.push_back(std::move(S));
  Open.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void TraceRecorder::end(size_t Id) {
  if (Id >= Spans.size())
    return;
  double Now = nowUs();
  // Close everything opened after (and including) Id that is still open:
  // a child span must not outlive its parent in the tree.
  while (!Open.empty() && Open.back() >= Id) {
    SpanRecord &S = Spans[Open.back()];
    if (S.open())
      S.DurUs = Now - S.StartUs;
    Open.pop_back();
  }
}

void TraceRecorder::annotate(size_t Id, std::string Key, std::string Value) {
  if (Id < Spans.size())
    Spans[Id].Args.emplace_back(std::move(Key), std::move(Value));
}

void TraceRecorder::labelPid(int Pid, std::string Label) {
  for (auto &[P, L] : PidLabels)
    if (P == Pid) {
      L = std::move(Label);
      return;
    }
  PidLabels.emplace_back(Pid, std::move(Label));
}

size_t TraceRecorder::addCompletedSpan(std::string Name, double StartUs,
                                       double DurUs, int Pid, size_t Parent) {
  SpanRecord S;
  S.Name = std::move(Name);
  S.StartUs = StartUs;
  S.DurUs = DurUs < 0 ? 0 : DurUs;
  S.Pid = Pid;
  if (Parent < Spans.size()) {
    S.Parent = Parent;
    S.Depth = Spans[Parent].Depth + 1;
  }
  Spans.push_back(std::move(S));
  return Spans.size() - 1;
}

void TraceRecorder::addForeignSpans(std::vector<SpanRecord> Foreign,
                                    int Pid) {
  size_t Base = Spans.size();
  Spans.reserve(Base + Foreign.size());
  for (SpanRecord &S : Foreign) {
    if (S.Parent != SpanRecord::npos)
      S.Parent += Base;
    S.Pid = Pid;
    if (S.DurUs < 0)
      S.DurUs = 0; // A span open at serialization time closes at zero here.
    Spans.push_back(std::move(S));
  }
}

/// Minimal JSON string escaping (obs is dependency-free by design; the
/// grammar needed for span names and annotation values is tiny).
static std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

static std::string fmtDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V);
  return Buf;
}

std::string TraceRecorder::toChromeJSON() const {
  double Now = nowUs();
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  // Lane names first: one process_name metadata event per labeled pid, so
  // a stitched trace shows "supervisor" and "worker <pid>" tracks instead
  // of bare numbers.
  for (const auto &[Pid, Label] : PidLabels) {
    if (!First)
      Out += ",";
    First = false;
    int P = Pid ? Pid : (DefaultPid ? DefaultPid : 1);
    Out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(P) + ",\"args\":{\"name\":\"" + jsonEscape(Label) +
           "\"}}";
  }
  for (const SpanRecord &S : Spans) {
    if (!First)
      Out += ",";
    First = false;
    double Dur = S.open() ? Now - S.StartUs : S.DurUs;
    int Pid = S.Pid ? S.Pid : (DefaultPid ? DefaultPid : 1);
    Out += "{\"name\":\"" + jsonEscape(S.Name) +
           "\",\"cat\":\"scan\",\"ph\":\"X\",\"pid\":" + std::to_string(Pid) +
           ",\"tid\":1,\"ts\":" +
           fmtDouble(S.StartUs) + ",\"dur\":" + fmtDouble(Dur);
    if (!S.Args.empty()) {
      Out += ",\"args\":{";
      for (size_t I = 0; I < S.Args.size(); ++I) {
        if (I)
          Out += ",";
        Out += "\"" + jsonEscape(S.Args[I].first) + "\":\"" +
               jsonEscape(S.Args[I].second) + "\"";
      }
      Out += "}";
    }
    Out += "}";
  }
  Out += "]}";
  return Out;
}

std::string TraceRecorder::toText() const {
  double Now = nowUs();
  std::string Out;
  for (const SpanRecord &S : Spans) {
    Out.append(2 * S.Depth, ' ');
    Out += S.Name;
    double Dur = S.open() ? Now - S.StartUs : S.DurUs;
    Out += " (" + fmtDouble(Dur / 1000.0) + "ms";
    if (S.open())
      Out += ", open";
    Out += ")";
    for (const auto &[Key, Value] : S.Args)
      Out += " " + Key + "=" + Value;
    Out += "\n";
  }
  return Out;
}
