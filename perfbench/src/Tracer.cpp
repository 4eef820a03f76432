//===- perfbench/src/Tracer.cpp - In-memory layer spans -------------------===//

#include "Tracer.h"

#include <cmath>
#include <stdexcept>

using namespace perfbench;

int Tracer::begin(const char *Name, const char *Layer) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Start = nowSeconds();
  Spans.push_back(S);
  int Index = static_cast<int>(Spans.size() - 1);
  Open.push_back(Index);
  return Index;
}

void Tracer::end(int Index) {
  if (Open.empty() || Open.back() != Index)
    throw std::logic_error("span closed out of order");
  Open.pop_back();
  Span &S = Spans[static_cast<size_t>(Index)];
  S.Seconds = nowSeconds() - S.Start;
  if (S.Parent >= 0)
    Spans[static_cast<size_t>(S.Parent)].ChildSeconds += S.Seconds;
}

void Tracer::addAggregate(const char *Name, const char *Layer,
                          double Seconds) {
  if (!Enabled)
    return;
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Seconds = Seconds;
  S.Parent = Open.empty() ? -1 : Open.back();
  if (S.Parent >= 0)
    Spans[static_cast<size_t>(S.Parent)].ChildSeconds += Seconds;
  Spans.push_back(S);
}

std::map<std::string, double> Tracer::selfSeconds(size_t From) const {
  std::map<std::string, double> Self;
  for (size_t I = From; I < Spans.size(); ++I)
    Self[Spans[I].Layer] += Spans[I].Seconds - Spans[I].ChildSeconds;
  return Self;
}

double NanosHistogram::quantile(double Phi) const {
  if (Total == 0)
    return 0.0;
  auto Rank = static_cast<uint64_t>(std::ceil(Phi * static_cast<double>(Total)));
  if (Rank == 0)
    Rank = 1;
  uint64_t Seen = 0;
  for (size_t Bucket = 0; Bucket < Buckets; ++Bucket) {
    Seen += Counts[Bucket];
    if (Seen >= Rank)
      return static_cast<double>(Bucket);
  }
  return static_cast<double>(Buckets - 1);
}
