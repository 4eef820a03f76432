//===- perfbench/tests/perfbench_tests.cpp - The benchmark's own tests ----===//
//
// Checks the pieces the benchmark's numbers rest on: the metric-name
// grammar, paper_err_pct on hand-computed cells, incremental shadow-stack
// maintenance against a clear-and-push reference, and a round trip of the
// expected-cells file.  Exits nonzero on the first failed expectation.
//
//===----------------------------------------------------------------------===//

#include "Metrics.h"
#include "PaperCells.h"
#include "ShadowChain.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace perfbench;
using lifepred::FunctionId;
using lifepred::ShadowStack;

namespace {

int Failures = 0;

void expect(bool Ok, const std::string &What) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL: %s\n", What.c_str());
    ++Failures;
  }
}

void testMetricGrammar() {
  for (const char *Good : {"pass_s", "sim.firstfit.replay_s", "9lives",
                           "runtime.arena.allocate_ns.p99", "a-b_c.d"})
    expect(validMetricName(Good), std::string("valid name ") + Good);
  for (const char *Bad : {"", "_x", ".x", "-x", "a b", "a/b", "a%", "x\n"})
    expect(!validMetricName(Bad), std::string("invalid name '") + Bad + "'");
  expect(validMetricName(std::string(64, 'a')), "64-character name");
  expect(!validMetricName(std::string(65, 'a')), "65-character name");

  for (const char *Good : {"s", "ms", "1/s", "%", "count", "MB", "ratio", "ns"})
    expect(validUnit(Good), std::string("valid unit ") + Good);
  for (const char *Bad : {"", "a b", "s,", "x\"y"})
    expect(!validUnit(Bad), std::string("invalid unit '") + Bad + "'");
  expect(validUnit(std::string(16, 's')), "16-character unit");
  expect(!validUnit(std::string(17, 's')), "17-character unit");

  MetricSet Set;
  Set.add("pass_s", 1.5, "s");
  auto Throws = [&Set](const std::string &Name, const std::string &Unit) {
    try {
      Set.add(Name, 1.0, Unit);
    } catch (const std::logic_error &) {
      return true;
    }
    return false;
  };
  expect(Throws("pass_s", "s"), "duplicate name rejected");
  expect(Throws("bad name", "s"), "bad name rejected");
  expect(Throws("ok_name", "bad unit"), "bad unit rejected");
  expect(resultJson(true, 3, 0, Set) ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"pass_s\": {\"value\": 1.5, \"unit\": \"s\"}}}",
         "result line format");
}

void testPaperError() {
  // |110-100|/100 = 10%, |45-50|/50 = 10%, |3-3|/3 = 0%: mean 20/3 %.
  std::vector<Cell> Cells = {{"A.t8.firstfit_heap_k", 110, 100},
                             {"A.t7.arena_alloc_pct", 45, 50},
                             {"A.t9.bsd_free", 3, 3}};
  expect(std::fabs(paperErrorPercent(Cells) - 20.0 / 3.0) < 1e-12,
         "paper_err_pct of three hand-computed cells");
  expect(std::fabs(paperErrorPercent({{"B.x", 0.5, 2.0}}) - 75.0) < 1e-12,
         "paper_err_pct below the paper value");
  expect(paperErrorPercent({}) == 0.0, "paper_err_pct of no cells");
}

void testShadowChain() {
  const std::vector<std::vector<FunctionId>> Chains = {
      {1, 2, 3},    {1, 2, 4, 5}, {1, 2},  {},      {7},
      {7, 7, 7},    {7, 7},       {1, 2, 3, 4, 5, 6},
      {1, 9, 3},    {0x12345, 0x2345}, {0x12345, 0x2345, 0x10000}};
  ShadowStack Incremental;
  Incremental.push(99, encryptedIdFor(99)); // A frame the chain must keep.
  ShadowChain Chain(Incremental);
  std::vector<FunctionId> Previous;
  for (const auto &Target : Chains) {
    size_t Pushed = Chain.moveTo(Target);

    ShadowStack Reference;
    Reference.push(99, encryptedIdFor(99));
    for (FunctionId F : Target)
      Reference.push(F, encryptedIdFor(F));

    size_t Common = 0;
    while (Common < Previous.size() && Common < Target.size() &&
           Previous[Common] == Target[Common])
      ++Common;
    std::string Name = "chain of depth " + std::to_string(Target.size());
    expect(Pushed == Target.size() - Common, Name + ": pushes only past the prefix");
    expect(Incremental.capture().functions() == Reference.capture().functions(),
           Name + ": frames match clear-and-push");
    expect(Incremental.currentKey() == Reference.currentKey(),
           Name + ": encryption key matches clear-and-push");
    expect(Incremental.captureLastN(4).functions() ==
               Reference.captureLastN(4).functions(),
           Name + ": length-4 chain matches");
    Previous = Target;
  }
  Chain.clear();
  expect(Incremental.depth() == 1 && Incremental.currentKey() == 99,
         "clear pops only the chain's own frames");
}

void testCellsRoundTrip() {
  std::vector<Cell> Cells = {{"CFRAC.t7.arena_alloc_pct", 1.0 / 3.0, 2.6},
                             {"GHOST.t8.firstfit_heap_k", 3328.0009765625, 5584},
                             {"PERL.t9.arena_cce_free", 1e-300, 55},
                             {"GAWK.t9.bsd_alloc", 54.123456789012345, 54}};
  std::stringstream File;
  writeCells(File, "round trip", Cells);
  std::vector<std::pair<std::string, double>> Read;
  std::string Error;
  expect(readCells(File, Read, Error), "written cells parse: " + Error);
  expect(diffCells(Cells, Read).empty(), "cells round-trip exactly");

  Cells[1].Ours = std::nextafter(Cells[1].Ours, 0.0);
  expect(!diffCells(Cells, Read).empty(), "a one-ulp change is a difference");

  std::stringstream Bad("# header\nCFRAC.x 1.5 extra\n");
  Read.clear();
  expect(!readCells(Bad, Read, Error), "malformed line rejected");
  std::stringstream BadValue("CFRAC.x 1.5q\n");
  Read.clear();
  expect(!readCells(BadValue, Read, Error), "malformed value rejected");
}

} // namespace

int main() {
  testMetricGrammar();
  testPaperError();
  testShadowChain();
  testCellsRoundTrip();
  if (Failures) {
    std::fprintf(stderr, "%d expectation(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench_tests: all passed\n");
  return 0;
}
