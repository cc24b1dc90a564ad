//===- perfbench/harness.cpp - In-process legs of the skatsim benchmark ---===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload in process through the layers' public entry
/// points and prints one JSON object of raw samples, exact counts and check
/// results on stdout. run.py generates every input from the benchmark seed,
/// calls this program, and turns the raw samples into metrics; nothing here
/// computes a percentile beyond the closure bookkeeping.
///
///   perfbench_harness sweep   --scenario F --replicates R --workers W
///                            --seconds S --trace 0|1 --setup-reps K
///   perfbench_harness fleet   --racks N --modules M --heat F --retunes F
///                            --excursion F --dt-s D --seconds S --trace 0|1
///                            --setup-reps K
///   perfbench_harness balance --designs F --seconds S --trace 0|1
///                            --setup-reps K
///   perfbench_harness service --requests F --trace 0|1
///
/// With --trace 1 the workload runs once untraced and once with a
/// telemetry::Profiler attached; the traced leg is wrapped in spans named
/// after the layer each call enters, so every span's self time belongs to
/// one layer and the self times add back up to the traced wall time.
///
//===----------------------------------------------------------------------===//

#include "audit/Audit.h"
#include "core/Designs.h"
#include "faults/Engine.h"
#include "faults/Scenario.h"
#include "faults/Sweep.h"
#include "fluids/Fluid.h"
#include "hydraulics/Balancing.h"
#include "service/Service.h"
#include "sim/RackTransient.h"
#include "support/Parallel.h"
#include "system/Module.h"
#include "system/Rack.h"
#include "telemetry/Profile.h"
#include "telemetry/Span.h"
#include "telemetry/Telemetry.h"
#include "thermal/Fleet.h"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace rcs;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

template <typename Fn> double timed(Fn &&Body) {
  Clock::time_point Start = Clock::now();
  Body();
  return secondsSince(Start);
}

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", Message.c_str());
  std::exit(2);
}

/// `--key value` pairs after the subcommand.
class Args {
public:
  Args(int Argc, char **Argv) {
    for (int I = 2; I + 1 < Argc; I += 2) {
      if (std::strncmp(Argv[I], "--", 2) != 0)
        die(std::string("expected --key, got '") + Argv[I] + "'");
      Values[Argv[I] + 2] = Argv[I + 1];
    }
  }
  std::string str(const std::string &Key) const {
    auto It = Values.find(Key);
    if (It == Values.end())
      die("missing --" + Key);
    return It->second;
  }
  double num(const std::string &Key) const { return std::stod(str(Key)); }
  int integer(const std::string &Key) const { return std::stoi(str(Key)); }

private:
  std::map<std::string, std::string> Values;
};

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read '" + Path + "'");
  std::vector<std::string> Lines;
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

std::vector<std::vector<double>> readRows(const std::string &Path) {
  std::vector<std::vector<double>> Rows;
  for (const std::string &Line : readLines(Path)) {
    std::istringstream Fields(Line);
    std::vector<double> Row;
    for (double V; Fields >> V;)
      Row.push_back(V);
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

/// Minimal JSON object writer for the result line.
class JsonOut {
public:
  void num(const std::string &Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
    field(Key, Buf);
  }
  void boolean(const std::string &Key, bool V) {
    field(Key, V ? "true" : "false");
  }
  void str(const std::string &Key, const std::string &V) {
    std::string Quoted = "\"";
    for (char C : V) {
      if (C == '"' || C == '\\')
        Quoted += '\\';
      if (static_cast<unsigned char>(C) < 0x20)
        continue;
      Quoted += C;
    }
    field(Key, Quoted + "\"");
  }
  void nums(const std::string &Key, const std::vector<double> &Vs) {
    std::string Text = "[";
    char Buf[64];
    for (size_t I = 0; I != Vs.size(); ++I) {
      std::snprintf(Buf, sizeof(Buf), "%s%.17g", I ? ", " : "", Vs[I]);
      Text += Buf;
    }
    field(Key, Text + "]");
  }
  void raw(const std::string &Key, const std::string &Json) {
    field(Key, Json);
  }
  std::string text() const { return "{" + Body + "}"; }

private:
  void field(const std::string &Key, const std::string &Value) {
    if (!Body.empty())
      Body += ", ";
    Body += "\"" + Key + "\": " + Value;
  }
  std::string Body;
};

uint64_t counterValue(const char *Name) {
  return telemetry::Registry::global().counter(Name).value();
}

/// Deltas of a fixed set of program counters over one leg.
class CounterDelta {
public:
  explicit CounterDelta(std::vector<const char *> Names)
      : Names(std::move(Names)) {
    for (const char *Name : this->Names)
      Start.push_back(counterValue(Name));
    Start.push_back(spanCount());
  }
  /// Name -> delta; "telemetry.spans" is the number of spans closed.
  std::map<std::string, uint64_t> finish() const {
    std::map<std::string, uint64_t> Out;
    for (size_t I = 0; I != Names.size(); ++I)
      Out[Names[I]] = counterValue(Names[I]) - Start[I];
    Out["telemetry.spans"] = spanCount() - Start.back();
    return Out;
  }

private:
  /// Spans closed so far, leaving out the benchmark's own "bench.*" root.
  static uint64_t spanCount() {
    uint64_t Total = 0;
    for (const auto &[Name, Stats] :
         telemetry::Registry::global().snapshotMetrics().Timers)
      if (Name.rfind("bench.", 0) != 0)
        Total += Stats.Count;
    return Total;
  }
  std::vector<const char *> Names;
  std::vector<uint64_t> Start;
};

std::string countsJson(const std::map<std::string, uint64_t> &Counts) {
  JsonOut Out;
  for (const auto &[Name, Value] : Counts)
    Out.num(Name, static_cast<double>(Value));
  return Out.text();
}

/// Self time per layer of one traced leg. The layer of a span is its name
/// up to the first dot; the benchmark's own root span is layer "bench".
struct LayerProfile {
  double WallS = 0.0;
  std::map<std::string, double> LayerSelfS;
  /// Self time of spans by full name, for the per-span shares.
  std::map<std::string, double> SpanSelfS;
};

void foldProfile(const telemetry::ProfileNode &Node, LayerProfile &Out) {
  std::string Layer = Node.Name.substr(0, Node.Name.find('.'));
  Out.LayerSelfS[Layer] += Node.SelfS;
  Out.SpanSelfS[Node.Name] += Node.SelfS;
  for (const telemetry::ProfileNode &Child : Node.Children)
    foldProfile(Child, Out);
}

/// Runs \p Body with a Profiler attached, under a root span "bench.<Name>".
LayerProfile profiled(const std::string &Name,
                      const std::function<void()> &Body) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  auto Owned = std::make_unique<telemetry::Profiler>();
  telemetry::Profiler *Prof = Owned.get();
  Reg.setSink(std::move(Owned));
  LayerProfile Out;
  const std::string RootName = "bench." + Name;
  Out.WallS = timed([&] {
    telemetry::Span Root(Reg, RootName);
    Body();
  });
  telemetry::ProfileReport Report = Prof->report();
  (void)Reg.closeSink();
  for (const telemetry::ProfileNode &Root : Report.Roots)
    foldProfile(Root, Out);
  return Out;
}

std::string profileJson(const LayerProfile &P) {
  JsonOut Layers, Spans;
  for (const auto &[Layer, S] : P.LayerSelfS)
    Layers.num(Layer, S);
  for (const auto &[Name, S] : P.SpanSelfS)
    Spans.num(Name, S);
  JsonOut Out;
  Out.num("wall_s", P.WallS);
  Out.raw("layer_self_s", Layers.text());
  Out.raw("span_self_s", Spans.text());
  return Out.text();
}

/// Peak resident set of this process image. VmHWM restarts at exec, unlike
/// ru_maxrss, which would report the forking parent's size.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

void emit(JsonOut &Out) {
  Out.num("peak_rss_mb", peakRssMb());
  Out.str("compiler", PERFBENCH_COMPILER);
  Out.str("build_type", PERFBENCH_BUILD_TYPE);
  std::printf("%s\n", Out.text().c_str());
}

//===----------------------------------------------------------------------===//
// sweep: faults::runSweep on the rack degradation scenario
//===----------------------------------------------------------------------===//

/// Every field of a sweep report, bit for bit.
std::string reportBytes(const faults::SweepReport &R) {
  std::string Bytes;
  auto Put = [&Bytes](const auto &V) {
    Bytes.append(reinterpret_cast<const char *>(&V), sizeof(V));
  };
  Put(R.NumReplicates);
  Put(R.Seed);
  Put(R.MeanAvailabilityFraction);
  Put(R.MinAvailabilityFraction);
  Put(R.MeanThroughputRetainedFraction);
  Put(R.MeanMaxJunctionC);
  Put(R.PeakJunctionC);
  Put(R.CriticalFraction);
  Put(R.MttfEstimateHours);
  Put(R.FailedReplicates);
  Put(R.AuditWorstEnergyFraction);
  Put(R.AuditBudgetBreaches);
  for (uint64_t Count : R.JunctionHistogramCounts)
    Put(Count);
  for (const faults::ReplicateSummary &S : R.Replicates) {
    Put(S.Replicate);
    Put(S.AvailabilityFraction);
    Put(S.ThroughputRetainedFraction);
    Put(S.MaxJunctionC);
    Put(S.TimeToFirstCriticalS);
    Put(S.FaultsInjected);
    Put(S.ModulesShutDown);
    Put(S.SafeDegradedEnd);
    Put(S.AuditMaxEnergyFraction);
    Put(S.AuditViolationCount);
    Put(S.AuditWithinBudget);
  }
  return Bytes;
}

const std::vector<const char *> SweepCounters = {
    "sim.rack_transient.steps", "thermal.network.factorizations",
    "thermal.network.factor_reuses", "faults.scenario.runs"};

int runSweepWorkload(const Args &A) {
  const std::string Path = A.str("scenario");
  const int Replicates = A.integer("replicates");
  const int Workers = A.integer("workers");
  const double Seconds = A.num("seconds");
  const bool Trace = A.integer("trace") != 0;

  // Set-up: parse the scenario and run replicate 0 once, which fills the
  // lazy statics (property tables, design catalog) every sweep reuses.
  std::vector<double> SetupS;
  faults::Scenario Scenario;
  for (int I = 0; I != A.integer("setup-reps"); ++I)
    SetupS.push_back(timed([&] {
      auto Loaded = faults::loadScenarioFile(Path);
      if (!Loaded)
        die(Loaded.message());
      Scenario = *Loaded;
      if (!faults::runScenario(Scenario, 0))
        die("warm-up replicate failed");
    }));

  JsonOut Out;
  Out.nums("setup_s", SetupS);
  faults::SweepConfig Config;
  Config.NumReplicates = Replicates;
  Config.NumThreads = Workers;

  int Failed = 0, Attempted = 0;
  if (!Trace) {
    std::vector<double> SweepS;
    std::string First;
    bool Identical = true;
    Clock::time_point Start = Clock::now();
    while (SweepS.empty() || secondsSince(Start) < Seconds) {
      Expected<faults::SweepReport> Report = faults::SweepReport();
      SweepS.push_back(timed([&] { Report = faults::runSweep(Scenario, Config); }));
      Attempted += Replicates;
      if (!Report) {
        Failed += Replicates;
        continue;
      }
      Failed += Report->FailedReplicates;
      std::string Bytes = reportBytes(*Report);
      if (First.empty())
        First = Bytes;
      Identical = Identical && Bytes == First;
    }
    Out.nums("sweep_s", SweepS);
    Out.boolean("repeat_identical", Identical);
  } else {
    // Serial replicate costs, untraced: one runScenario per replicate.
    std::vector<double> ReplicateS;
    for (int R = 0; R != Replicates; ++R)
      ReplicateS.push_back(timed([&] {
        if (!faults::runScenario(Scenario, static_cast<uint64_t>(R)))
          ++Failed;
      }));
    Attempted += Replicates;

    // A one-worker sweep untraced, the same sweep traced, and the sweep at
    // the configured worker count. The first two run identical calls, so
    // their counts must agree; all three reports must be bit-identical.
    std::vector<std::string> Reports;
    auto Sweep = [&](const faults::SweepConfig &C) {
      telemetry::Span Call("faults.runSweep");
      auto Report = faults::runSweep(Scenario, C);
      Attempted += C.NumReplicates;
      if (!Report) {
        Failed += C.NumReplicates;
        return;
      }
      Failed += Report->FailedReplicates;
      Reports.push_back(reportBytes(*Report));
    };
    faults::SweepConfig Serial = Config;
    Serial.NumThreads = 1;
    CounterDelta UntracedCounts(SweepCounters);
    double UntracedS = timed([&] { Sweep(Serial); });
    auto Counts2 = UntracedCounts.finish();
    CounterDelta TracedCounts(SweepCounters);
    LayerProfile Profile = profiled("rack_sweep", [&] { Sweep(Serial); });
    auto Counts = TracedCounts.finish();
    double ParallelS = timed([&] { Sweep(Config); });
    Out.boolean("workers_identical", Reports.size() == 3 &&
                                         Reports[0] == Reports[1] &&
                                         Reports[1] == Reports[2]);

    // One rack run outside the fault engine, with and without the audit,
    // for the per-step cost and the audit overhead.
    rcsystem::RackConfig RackCfg = core::makeSkatRack();
    const double Ambient = core::makeNominalConditions().AmbientAirTempC;
    std::vector<double> PlainS, AuditedS;
    uint64_t StepsPerRun = 0;
    for (int Rep = 0; Rep != 3; ++Rep) {
      for (bool Audited : {false, true}) {
        sim::RackTransientSimulator Sim(RackCfg, Ambient);
        if (Audited)
          Sim.enableAudit();
        uint64_t Before = counterValue("sim.rack_transient.steps");
        double S = timed([&] {
          if (!Sim.run(Scenario.DurationS))
            ++Failed;
        });
        StepsPerRun = counterValue("sim.rack_transient.steps") - Before;
        (Audited ? AuditedS : PlainS).push_back(S);
        ++Attempted;
      }
    }

    Out.nums("replicate_s", ReplicateS);
    Out.num("untraced_s", UntracedS);
    Out.num("parallel_s", ParallelS);
    Out.nums("rack_run_s", PlainS);
    Out.nums("rack_run_audited_s", AuditedS);
    Out.num("rack_run_steps", static_cast<double>(StepsPerRun));
    Out.num("modules", RackCfg.NumModules);
    Out.raw("profile", profileJson(Profile));
    Out.raw("counts", countsJson(Counts));
    Out.raw("counts_repeat", countsJson(Counts2));
  }
  Out.num("attempted", Attempted);
  Out.num("failed", Failed);
  emit(Out);
  return 0;
}

//===----------------------------------------------------------------------===//
// fleet: thermal::buildFleetNetwork, steady solves, retunes, excursion
//===----------------------------------------------------------------------===//

struct FleetInputs {
  thermal::FleetConfig Config;
  std::vector<double> HeatW;                       // One per chip.
  std::vector<std::pair<size_t, double>> Retunes;  // Rack, loop->facility G.
  std::vector<double> ExcursionC;                  // Facility temp per step.
  double DtS = 0.0;
};

thermal::FleetNetwork buildFleet(const FleetInputs &In, size_t Racks) {
  thermal::FleetConfig Config = In.Config;
  Config.NumRacks = Racks;
  thermal::FleetNetwork Fleet = thermal::buildFleetNetwork(Config);
  for (size_t I = 0; I != Fleet.Chips.size(); ++I)
    Fleet.Net.setHeatSource(Fleet.Chips[I], In.HeatW[I % In.HeatW.size()]);
  return Fleet;
}

/// Checks a steady solution: the energy residual is small and the facility
/// water picks up all the IT heat.
bool steadyOk(const thermal::FleetNetwork &F, const std::vector<double> &T) {
  const double Heat = F.Net.totalSourcePowerW();
  const double Residual = F.Net.steadyStateResidualW(T);
  const double Pickup = F.Net.boundaryHeatFlowW(F.Facility, T);
  return Residual <= 1e-6 * Heat && std::fabs(Pickup - Heat) <= 1e-6 * Heat;
}

/// One what-if: steady solve, the retunes each followed by a steady solve,
/// then the facility-water excursion. Returns false on a failed check.
bool runFleetSequence(thermal::FleetNetwork &F, const FleetInputs &In,
                      std::vector<double> *StepS) {
  telemetry::Span Call("thermal.whatIf");
  thermal::ThermalNetwork &Net = F.Net;
  Net.setBoundaryTemp(F.Facility, In.Config.FacilityWaterTemp.value());
  for (const auto &[Rack, G] : In.Retunes)
    Net.setConductance(F.RackLoops[Rack], F.Facility,
                       In.Config.LoopToFacility.value());
  bool Ok = true;
  auto Steady = Net.solveSteadyState();
  if (!Steady)
    return false;
  Ok = Ok && steadyOk(F, *Steady);
  for (const auto &[Rack, G] : In.Retunes) {
    Net.setConductance(F.RackLoops[Rack], F.Facility, G);
    Steady = Net.solveSteadyState();
    if (!Steady)
      return false;
    Ok = Ok && steadyOk(F, *Steady);
  }
  std::vector<double> Temps = *Steady;
  for (double FacilityC : In.ExcursionC) {
    Net.setBoundaryTemp(F.Facility, FacilityC);
    Clock::time_point Start = Clock::now();
    if (!Net.stepTransient(Temps, In.DtS).isOk())
      return false;
    if (StepS)
      StepS->push_back(secondsSince(Start));
  }
  for (double T : Temps)
    Ok = Ok && std::isfinite(T);
  return Ok;
}

const std::vector<const char *> FleetCounters = {
    "thermal.network.factorizations", "thermal.network.factor_reuses",
    "thermal.network.sparse_symbolic", "thermal.network.steady_solves",
    "thermal.network.transient_steps"};

int runFleetWorkload(const Args &A) {
  FleetInputs In;
  In.Config.NumRacks = static_cast<size_t>(A.integer("racks"));
  In.Config.ModulesPerRack = static_cast<size_t>(A.integer("modules"));
  for (const auto &Row : readRows(A.str("heat")))
    In.HeatW.push_back(Row.at(0));
  for (const auto &Row : readRows(A.str("retunes")))
    In.Retunes.emplace_back(static_cast<size_t>(Row.at(0)), Row.at(1));
  for (const auto &Row : readRows(A.str("excursion")))
    In.ExcursionC.push_back(Row.at(0));
  In.DtS = A.num("dt-s");
  const double Seconds = A.num("seconds");
  const bool Trace = A.integer("trace") != 0;
  if (In.HeatW.empty() || In.Retunes.empty() || In.ExcursionC.empty())
    die("fleet inputs need heat, retune and excursion rows");
  for (const auto &[Rack, G] : In.Retunes)
    if (Rack >= In.Config.NumRacks)
      die("retune rack index out of range");

  // Set-up: build the fleet, set the per-chip heat, solve once, and run
  // one what-if, which does the symbolic analyses every later solve reuses.
  std::vector<double> SetupS, FirstSolveS;
  thermal::FleetNetwork Fleet;
  int Failed = 0, Attempted = 0;
  for (int I = 0; I != A.integer("setup-reps"); ++I) {
    SetupS.push_back(timed([&] {
      Fleet = buildFleet(In, In.Config.NumRacks);
      FirstSolveS.push_back(timed([&] {
        auto T = Fleet.Net.solveSteadyState();
        ++Attempted;
        if (!T || !steadyOk(Fleet, *T))
          ++Failed;
      }));
      ++Attempted;
      Failed += runFleetSequence(Fleet, In, nullptr) ? 0 : 1;
    }));
  }

  JsonOut Out;
  Out.nums("setup_s", SetupS);
  Out.num("unknowns", static_cast<double>(thermal::fleetUnknowns(In.Config)));
  if (!Trace) {
    std::vector<double> SequenceS;
    Clock::time_point Start = Clock::now();
    while (SequenceS.empty() || secondsSince(Start) < Seconds) {
      bool Ok = true;
      SequenceS.push_back(
          timed([&] { Ok = runFleetSequence(Fleet, In, nullptr); }));
      ++Attempted;
      Failed += Ok ? 0 : 1;
    }
    Out.nums("sequence_s", SequenceS);
  } else {
    // Build cost at a quarter and at the full size.
    const size_t Quarter = std::max<size_t>(1, In.Config.NumRacks / 4);
    double QuarterBuildS = timed([&] { buildFleet(In, Quarter); });
    double FullBuildS = timed([&] { buildFleet(In, In.Config.NumRacks); });

    // Split one solve into analyze, factorize and solve by differencing
    // the first solve (set-up), a solve after a conductance retune, and a
    // solve after a heat-source (right-hand side) change.
    std::vector<double> RetuneSolveS, RhsSolveS;
    const auto &[Rack0, G0] = In.Retunes.front();
    for (int Rep = 0; Rep != 5; ++Rep) {
      Fleet.Net.setConductance(Fleet.RackLoops[Rack0], Fleet.Facility,
                               Rep % 2 ? G0 : In.Config.LoopToFacility.value());
      RetuneSolveS.push_back(timed([&] {
        if (!Fleet.Net.solveSteadyState())
          ++Failed;
      }));
      Fleet.Net.setHeatSource(Fleet.Chips[0], In.HeatW[0] * (Rep % 2 ? 1.0 : 1.1));
      RhsSolveS.push_back(timed([&] {
        if (!Fleet.Net.solveSteadyState())
          ++Failed;
      }));
      Attempted += 2;
    }
    Fleet.Net.setHeatSource(Fleet.Chips[0], In.HeatW[0]);

    // The what-if untraced, then traced; their counts must agree.
    std::vector<double> StepS, UntracedS;
    std::map<std::string, uint64_t> Counts2;
    for (int Rep = 0; Rep != 3; ++Rep) {
      CounterDelta UntracedCounts(FleetCounters);
      UntracedS.push_back(timed([&] {
        Failed += runFleetSequence(Fleet, In, &StepS) ? 0 : 1;
      }));
      Counts2 = UntracedCounts.finish();
      ++Attempted;
    }
    CounterDelta TracedCounts(FleetCounters);
    LayerProfile Profile = profiled("fleet_excursion", [&] {
      Failed += runFleetSequence(Fleet, In, nullptr) ? 0 : 1;
    });
    auto Counts = TracedCounts.finish();
    ++Attempted;

    Out.num("build_quarter_s", QuarterBuildS);
    Out.num("build_full_s", FullBuildS);
    Out.nums("first_solve_s", FirstSolveS);
    Out.nums("retune_solve_s", RetuneSolveS);
    Out.nums("rhs_solve_s", RhsSolveS);
    Out.nums("step_s", StepS);
    Out.nums("untraced_s", UntracedS);
    Out.num("factor_bytes", static_cast<double>(Fleet.Net.solverMemoryBytes()));
    Out.raw("profile", profileJson(Profile));
    Out.raw("counts", countsJson(Counts));
    Out.raw("counts_repeat", countsJson(Counts2));
  }
  Out.num("attempted", Attempted);
  Out.num("failed", Failed);
  emit(Out);
  return 0;
}

//===----------------------------------------------------------------------===//
// balance: trimBalancingValves + Rack::solveSteadyState per design point
//===----------------------------------------------------------------------===//

struct Design {
  int Loops = 0;
  hydraulics::ManifoldLayout Layout = hydraulics::ManifoldLayout::DirectReturn;
  double DiameterM = 0.0;
  double PumpHeadPa = 0.0;
  int Isolated = 0;
};

rcsystem::RackConfig rackFor(const rcsystem::RackConfig &Base,
                             const Design &D) {
  rcsystem::RackConfig Config = Base;
  Config.NumModules = D.Loops;
  Config.Hydraulics.NumLoops = D.Loops;
  Config.Hydraulics.Layout = D.Layout;
  Config.Hydraulics.ManifoldDiameterM = D.DiameterM;
  Config.Hydraulics.PumpRatedHeadPa = D.PumpHeadPa;
  return Config;
}

struct DesignTimes {
  double TrimS = 0.0;
  double RackS = 0.0;
  bool Converged = false;
  bool Ok = true;
};

/// The timed part of one design point. Each call is wrapped in a span named
/// after the layer it enters, traced or not, so traced and untraced passes
/// run the same code.
DesignTimes evaluateDesign(const rcsystem::RackConfig &Config, const Design &D,
                           const fluids::Fluid &Water,
                           hydraulics::RackHydraulics &Hydro) {
  DesignTimes Times;
  Times.TrimS = timed([&] {
    telemetry::Span Call("hydraulics.trimBalancingValves");
    Hydro = hydraulics::buildRackPrimaryLoop(Config.Hydraulics);
    auto Trim = hydraulics::trimBalancingValves(Hydro, Water,
                                                Config.ChillerSupplyTempC);
    Times.Ok = static_cast<bool>(Trim);
    Times.Converged = Trim && Trim->Converged;
  });
  Times.RackS = timed([&] {
    telemetry::Span Call("system.Rack.solveSteadyState");
    auto Report = rcsystem::Rack(Config).solveSteadyState(
        core::makeNominalConditions().AmbientAirTempC, D.Isolated);
    Times.Ok = Times.Ok && static_cast<bool>(Report);
  });
  return Times;
}

/// Untimed check: the trimmed network, and the same network with the
/// design's loop isolated, both pass the audit's continuity and pressure
/// closure.
bool auditDesign(const rcsystem::RackConfig &Config, const Design &D,
                 const fluids::Fluid &Water, hydraulics::RackHydraulics &Hydro) {
  audit::PhysicsAuditor Auditor{audit::DriftBudgets()};
  const double TempC = Config.ChillerSupplyTempC;
  const double Scale = 1e-3;
  auto Trimmed = Hydro.Network.solve(Water, TempC, Scale);
  if (!Trimmed)
    return false;
  Auditor.recordFlowSolution(Hydro.Network, *Trimmed, Water, TempC, Scale);
  auto *Valve = static_cast<hydraulics::BalancingValve *>(Hydro.Network.elementAt(
      Hydro.LoopEdges[static_cast<size_t>(D.Isolated)],
      Hydro.LoopValveElementIndex));
  Valve->setOpening(0.0);
  auto Isolated = Hydro.Network.solve(Water, TempC, Scale);
  if (!Isolated)
    return false;
  Auditor.recordFlowSolution(Hydro.Network, *Isolated, Water, TempC, Scale);
  const audit::AuditSummary &S = Auditor.summary();
  return S.FlowSolves == 2 && S.withinBudgets(Auditor.budgets()) &&
         S.Continuity.Violations == 0 && S.PressureClosure.Violations == 0;
}

const std::vector<const char *> BalanceCounters = {
    "hydraulics.flow.solves", "hydraulics.newton.iterations",
    "hydraulics.edge_inversion.searches", "hydraulics.balancing.runs",
    "hydraulics.balancing.iterations", "hydraulics.flow.failures"};

int runBalanceWorkload(const Args &A) {
  std::vector<Design> Designs;
  for (const auto &Row : readRows(A.str("designs"))) {
    if (Row.size() != 5)
      die("design rows have 5 fields");
    Design D;
    D.Loops = static_cast<int>(Row[0]);
    D.Layout = Row[1] != 0 ? hydraulics::ManifoldLayout::ReverseReturn
                           : hydraulics::ManifoldLayout::DirectReturn;
    D.DiameterM = Row[2];
    D.PumpHeadPa = Row[3];
    D.Isolated = static_cast<int>(Row[4]);
    if (D.Loops < 1 || D.Isolated < 0 || D.Isolated >= D.Loops)
      die("design out of range");
    Designs.push_back(D);
  }
  if (Designs.empty())
    die("no designs");
  const double Seconds = A.num("seconds");
  const bool Trace = A.integer("trace") != 0;

  // Set-up: the working fluid, the base rack, and one warm design point.
  std::vector<double> SetupS;
  std::unique_ptr<fluids::Fluid> Water;
  rcsystem::RackConfig Base;
  hydraulics::RackHydraulics Hydro;
  for (int I = 0; I != A.integer("setup-reps"); ++I)
    SetupS.push_back(timed([&] {
      Water = fluids::makeWater();
      Base = core::makeSkatRack();
      evaluateDesign(rackFor(Base, Designs.front()), Designs.front(), *Water,
                     Hydro);
    }));

  JsonOut Out;
  Out.nums("setup_s", SetupS);
  int Failed = 0, Attempted = 0;
  int Converged = 0;
  auto Pass = [&](std::vector<double> *TrimS, std::vector<double> *DesignS) {
    for (const Design &D : Designs) {
      DesignTimes T = evaluateDesign(rackFor(Base, D), D, *Water, Hydro);
      ++Attempted;
      Failed += T.Ok ? 0 : 1;
      Converged += T.Converged ? 1 : 0;
      if (TrimS)
        TrimS->push_back(T.TrimS);
      if (DesignS)
        DesignS->push_back(T.TrimS + T.RackS);
    }
  };
  // Untimed output check of every design point.
  for (const Design &D : Designs) {
    rcsystem::RackConfig Config = rackFor(Base, D);
    evaluateDesign(Config, D, *Water, Hydro);
    ++Attempted;
    Failed += auditDesign(Config, D, *Water, Hydro) ? 0 : 1;
  }

  if (!Trace) {
    // Whole passes over the design list, so every run measures the same
    // mix of sizes.
    std::vector<double> DesignS;
    int Passes = 0;
    Clock::time_point Start = Clock::now();
    while (Passes == 0 || secondsSince(Start) < Seconds) {
      Pass(nullptr, &DesignS);
      ++Passes;
    }
    Out.nums("design_s", DesignS);
  } else {
    std::vector<double> TrimS, ModuleS, RackS;
    CounterDelta UntracedCounts(BalanceCounters);
    Converged = 0;
    double UntracedS = timed([&] { Pass(&TrimS, nullptr); });
    auto Counts2 = UntracedCounts.finish();
    Out.num("trim_converged", Converged);
    CounterDelta TracedCounts(BalanceCounters);
    LayerProfile Profile =
        profiled("rack_balancing", [&] { Pass(nullptr, nullptr); });
    auto Counts = TracedCounts.finish();

    // The system layer on its own: one module and one rack per design.
    const rcsystem::ExternalConditions Nominal = core::makeNominalConditions();
    for (const Design &D : Designs) {
      rcsystem::RackConfig Config = rackFor(Base, D);
      rcsystem::ComputationalModule Module(Config.Module);
      ModuleS.push_back(timed([&] {
        if (!Module.solveSteadyState(Nominal))
          ++Failed;
      }));
      RackS.push_back(timed([&] {
        if (!rcsystem::Rack(Config).solveSteadyState(Nominal.AmbientAirTempC,
                                                     D.Isolated))
          ++Failed;
      }));
      Attempted += 2;
    }
    Out.nums("trim_s", TrimS);
    Out.nums("module_steady_s", ModuleS);
    Out.nums("rack_steady_s", RackS);
    Out.num("untraced_s", UntracedS);
    Out.raw("profile", profileJson(Profile));
    Out.raw("counts", countsJson(Counts));
    Out.raw("counts_repeat", countsJson(Counts2));
  }
  Out.num("attempted", Attempted);
  Out.num("failed", Failed);
  emit(Out);
  return 0;
}

//===----------------------------------------------------------------------===//
// service: request lines through an in-process ScenarioService
//===----------------------------------------------------------------------===//

/// Evaluates every line alone (1 worker, batch 1), so each response is the
/// reference for the daemon's answer to the same line, and each time is
/// the evaluation cost without queueing.
int runServiceWorkload(const Args &A) {
  std::vector<std::string> Lines = readLines(A.str("requests"));
  const bool Trace = A.integer("trace") != 0;
  service::ServeConfig Config;
  Config.NumThreads = 1;
  Config.MaxBatch = 1;

  std::vector<std::string> Responses;
  std::vector<double> EvalS;
  auto EvaluateAll = [&](service::ScenarioService &Service,
                         std::vector<std::string> *Keep,
                         std::vector<double> *Times) {
    for (const std::string &Line : Lines) {
      std::vector<std::string> Ready;
      double S = timed([&] {
        if (auto Immediate = Service.submit(Line))
          Ready.push_back(*Immediate);
        else
          Service.drain(Ready);
      });
      if (Times)
        Times->push_back(S);
      if (Keep)
        Keep->push_back(Ready.empty() ? std::string() : Ready.front());
    }
  };

  JsonOut Out;
  double UntracedS = timed([&] {
    service::ScenarioService Service(Config);
    EvaluateAll(Service, &Responses, &EvalS);
  });
  Out.nums("eval_s", EvalS);
  {
    std::string Joined = "[";
    for (size_t I = 0; I != Responses.size(); ++I) {
      JsonOut One;
      One.str("line", Responses[I]);
      Joined += (I ? ", " : "") + One.text();
    }
    Out.raw("responses", Joined + "]");
  }
  if (Trace) {
    std::vector<std::string> TracedResponses;
    LayerProfile Profile = profiled("serve_mixed", [&] {
      service::ScenarioService Service(Config);
      EvaluateAll(Service, &TracedResponses, nullptr);
    });
    // One parallelFor over eight trivial items on two workers: the
    // fork/join cost every service batch pays.
    std::vector<double> ParallelForS;
    std::vector<int> Items(8);
    for (int Rep = 0; Rep != 200; ++Rep)
      ParallelForS.push_back(timed([&] {
        rcs::parallelFor(2, Items.size(),
                         [&](size_t I) { Items[I] = static_cast<int>(I); });
      }));
    Out.num("untraced_s", UntracedS);
    Out.raw("profile", profileJson(Profile));
    Out.nums("parallel_for_s", ParallelForS);
  }
  Out.num("attempted", static_cast<double>(Lines.size()));
  emit(Out);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness sweep|fleet|balance|service "
                         "--key value ...\n");
    return 2;
  }
  const std::string Workload = Argv[1];
  Args A(Argc, Argv);
  if (Workload == "sweep")
    return runSweepWorkload(A);
  if (Workload == "fleet")
    return runFleetWorkload(A);
  if (Workload == "balance")
    return runBalanceWorkload(A);
  if (Workload == "service")
    return runServiceWorkload(A);
  die("unknown workload '" + Workload + "'");
}
