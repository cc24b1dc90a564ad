#!/usr/bin/env python3
"""skatsim benchmark: one seeded workload per call, through the real entry
points, with output checks.

    python3 perfbench/run.py --workload rack_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a skatsim checkout. The first call builds the program
and the harness from source into .bench_build/ (CMake, RelWithDebInfo).

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 does
one separate traced run and reports the per-layer metrics. Either way the
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
Lines before it give each metric with its unit and the host/build
fingerprint. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import serve  # noqa: E402
import stats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
HARNESS_TIMEOUT_S = 170

class BenchError(Exception):
    pass


# Metric names and units come from BENCHMARK.json: every workload reports
# every end-to-end metric with --trace 0 and every per-layer metric with
# --trace 1. A per-layer metric of a layer the workload does not run reads
# 0.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Layers whose spans the traced runs attribute self time to. Spans are named
# <layer>.<...>; "bench" is the benchmark's own root span, which also holds
# program time no span covers. Property-evaluation spans belong to fluids.
LAYERS = ("bench", "faults", "sim", "fluids", "thermal", "hydraulics",
          "system", "service")

# Largest share by which the traced layer self times may miss the traced
# wall time. Self time is a span's duration minus its children's, so on a
# serial leg the sum closes exactly up to clock reads; a larger gap means
# spans overlapped (a parallel leg) or were lost.
CLOSURE_RESIDUAL = 0.02

# serve_mixed offered load. The daemon (2 threads, batch 8) drained 570 to
# 950 requests/s of this mix in a burst on the 4-core host the benchmark
# was sized on, depending on the host's other load; heavy offers 60% of the
# low end, so the queue stays stable when the host is slow, and light runs
# well under it.
SERVE_THREADS = 2
SERVE_SATURATION_NOMINAL = 600.0
SERVE_RATE_LIGHT = 40.0
SERVE_RATE_HEAVY = 0.6 * SERVE_SATURATION_NOMINAL
# Share of --seconds given to each phase at the nominal rates, and the
# number of heavy slices, each followed by a burst. A burst sends its
# requests at once and ends when the daemon has drained them.
SERVE_SHARE_LIGHT = 0.2
SERVE_SHARE_HEAVY = 0.55
SERVE_SHARE_BURST = 0.15
SERVE_BURSTS = 7
SERVE_SETUP_REPS = 11
# Lines re-run in process as the reference and for evaluation cost.
SERVE_SAMPLE = {"steady": 20, "transient": 20, "faults": 10}

SETUP_REPS = {"rack_sweep": 5, "fleet_excursion": 3, "rack_balancing": 7}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


#===------------------------------------------------------------------------===#
# Build and fingerprint
#===------------------------------------------------------------------------===#

def build():
    """Configures once and builds the daemon and the harness; returns the
    directory holding both binaries."""
    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isfile(os.path.join(ROOT, "tools", "skatsim.cpp"))):
        raise BenchError(f"no skatsim sources under {ROOT}")
    if not shutil.which("cmake"):
        raise BenchError("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=880)
    return BUILD_DIR


def cpu_ticks():
    """(all, steal) jiffies of the host's CPUs so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[7] if len(fields) > 7 else 0


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


#===------------------------------------------------------------------------===#
# Helpers
#===------------------------------------------------------------------------===#

def work_dir(workload):
    path = os.path.join(ROOT, ".bench_build", "work", workload)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("\n".join(str(line) for line in lines) + "\n")
    return path


def run_harness(build_dir, workload, **options):
    cmd = [os.path.join(build_dir, "perfbench_harness"), workload]
    for key, value in options.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=HARNESS_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError(f"perfbench_harness {workload} exited "
                         f"{out.returncode}: {out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def layer_of(span_name):
    if span_name.endswith(".properties"):
        return "fluids"
    return span_name.split(".", 1)[0]


def profile_metrics(profile, untraced_s, problems):
    """Self-time shares per layer, the closure residual and the tracing
    overhead of one traced leg."""
    wall = profile["wall_s"]
    by_layer = {}
    for name, self_s in profile["span_self_s"].items():
        layer = layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s
    unknown = sorted(set(by_layer) - set(LAYERS))
    if unknown:
        problems.append(f"spans of unlisted layers: {unknown}")
    residual = abs(wall - sum(by_layer.values())) / wall
    if residual > CLOSURE_RESIDUAL:
        problems.append(f"time closure: layer self times miss the traced "
                        f"wall time by {residual:.4f} > {CLOSURE_RESIDUAL}")
    out = {f"self_frac.{layer}": by_layer.get(layer, 0.0) / wall
           for layer in LAYERS}
    out["time_closure_residual"] = residual
    out["tracing_overhead"] = wall / untraced_s
    return out


def span_frac(profile, suffix):
    wall = profile["wall_s"]
    return sum(s for name, s in profile["span_self_s"].items()
               if name.endswith(suffix)) / wall


def exact_counts(result, problems):
    """The traced and untraced legs ran identical calls; every program
    counter must have moved by the same amount in both."""
    a, b = result["counts"], result["counts_repeat"]
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            problems.append(f"count {name} not exact: {a.get(name)} traced "
                            f"vs {b.get(name)} untraced")
    return a


def ratio(num, den):
    return num / den if den else 0.0


#===------------------------------------------------------------------------===#
# Workloads. Each returns (metrics, attempted, failed, problems, raw,
# fingerprint): metrics as {name: value}; failed counts failed operations;
# each problem is a failed output check, which counts as one more failure;
# raw is the harness's result line.
#===------------------------------------------------------------------------===#

def rack_sweep(build_dir, seed, seconds, trace):
    work = work_dir("rack_sweep")
    scenario = os.path.join(work, "rack_degradation.json")
    with open(scenario, "w") as f:
        json.dump(inputs.rack_scenario(seed), f, indent=2)
    r = run_harness(build_dir, "sweep", scenario=scenario,
                   replicates=inputs.SWEEP_REPLICATES,
                   workers=inputs.SWEEP_WORKERS, seconds=seconds,
                   trace=int(trace), setup_reps=SETUP_REPS["rack_sweep"])
    problems = []
    m = {"setup_s": stats.median(r["setup_s"]), "peak_rss_mb": r["peak_rss_mb"]}
    if not trace:
        if not r["repeat_identical"]:
            problems.append("sweep reports differ between repeats")
        sweeps = r["sweep_s"]
        m["throughput_per_s"] = inputs.SWEEP_REPLICATES / stats.median(sweeps)
        m["latency_p50_ms"] = 1e3 * stats.median(sweeps)
        m["latency_p95_ms"] = 1e3 * stats.percentile(sweeps, 95)
    else:
        if not r.get("workers_identical"):
            problems.append("sweep report differs between 1 and "
                            f"{inputs.SWEEP_WORKERS} workers")
        prof = r["profile"]
        counts = exact_counts(r, problems)
        m.update(profile_metrics(prof, r["untraced_s"], problems))
        serial = sum(r["replicate_s"])
        plain = stats.median(r["rack_run_s"])
        audited = stats.median(r["rack_run_audited_s"])
        steps = counts["sim.rack_transient.steps"]
        m.update({
            "faults.replicate_s_p50": stats.median(r["replicate_s"]),
            "support.parallel_efficiency":
                serial / (inputs.SWEEP_WORKERS * r["parallel_s"]),
            "sim.rack_step_us": 1e6 * plain / r["rack_run_steps"],
            "sim.step_self_frac": span_frac(prof, "sim.rack_transient.step"),
            "fluids.properties_frac": span_frac(prof, ".properties"),
            "thermal.step_transient_frac":
                span_frac(prof, "thermal.network.step_transient"),
            "audit.overhead_frac": audited / plain - 1.0,
            "thermal.factorizations_per_module_step": ratio(
                counts["thermal.network.factorizations"], steps * r["modules"]),
            "telemetry.spans_per_replicate": ratio(
                counts["telemetry.spans"], counts["faults.scenario.runs"]),
        })
    fp = {"workers": inputs.SWEEP_WORKERS,
          "replicates": inputs.SWEEP_REPLICATES,
          "scenario_seed": inputs.scenario_seed(seed)}
    return m, r["attempted"], r["failed"], problems, r, fp


def fleet_excursion(build_dir, seed, seconds, trace):
    work = work_dir("fleet_excursion")
    data = inputs.fleet_inputs(seed)
    r = run_harness(
        build_dir, "fleet", racks=inputs.FLEET_RACKS,
        modules=inputs.FLEET_MODULES,
        heat=write_lines(os.path.join(work, "heat.txt"), data["heat"]),
        retunes=write_lines(os.path.join(work, "retunes.txt"),
                            [f"{rack} {g}" for rack, g in data["retunes"]]),
        excursion=write_lines(os.path.join(work, "excursion.txt"),
                              data["excursion"]),
        dt_s=inputs.FLEET_DT_S, seconds=seconds, trace=int(trace),
        setup_reps=SETUP_REPS["fleet_excursion"])
    problems = []
    m = {"setup_s": stats.median(r["setup_s"]), "peak_rss_mb": r["peak_rss_mb"]}
    if not trace:
        seqs = r["sequence_s"]
        m["throughput_per_s"] = 1.0 / stats.median(seqs)
        m["latency_p50_ms"] = 1e3 * stats.median(seqs)
        m["latency_p95_ms"] = 1e3 * stats.percentile(seqs, 95)
    else:
        counts = exact_counts(r, problems)
        m.update(profile_metrics(r["profile"], stats.median(r["untraced_s"]),
                                 problems))
        first = stats.median(r["first_solve_s"])
        retune = stats.median(r["retune_solve_s"])
        rhs = stats.median(r["rhs_solve_s"])
        m.update({
            "thermal.build_s": r["build_full_s"],
            "thermal.build_scaling_exp":
                math.log(r["build_full_s"] / r["build_quarter_s"]) / math.log(4),
            "thermal.analyze_ms": 1e3 * (first - retune),
            "thermal.factorize_ms": 1e3 * (retune - rhs),
            "thermal.solve_ms": 1e3 * rhs,
            "thermal.step_ms_p50": 1e3 * stats.median(r["step_s"]),
            "thermal.factor_bytes": r["factor_bytes"],
            "thermal.network.factorizations":
                counts["thermal.network.factorizations"],
            "thermal.network.factor_reuses":
                counts["thermal.network.factor_reuses"],
            "thermal.network.sparse_symbolic":
                counts["thermal.network.sparse_symbolic"],
        })
    fp = {"racks": inputs.FLEET_RACKS, "modules": inputs.FLEET_MODULES,
          "unknowns": r["unknowns"]}
    return m, r["attempted"], r["failed"], problems, r, fp


def rack_balancing(build_dir, seed, seconds, trace):
    work = work_dir("rack_balancing")
    designs = inputs.balance_designs(seed)
    r = run_harness(build_dir, "balance",
                   designs=write_lines(os.path.join(work, "designs.txt"),
                                       inputs.design_rows(designs)),
                   seconds=seconds, trace=int(trace),
                   setup_reps=SETUP_REPS["rack_balancing"])
    problems = []
    m = {"setup_s": stats.median(r["setup_s"]), "peak_rss_mb": r["peak_rss_mb"]}
    if not trace:
        # One result is a design study: every point of the seeded list.
        times = r["design_s"]
        n = len(designs)
        studies = [sum(times[i:i + n]) for i in range(0, len(times), n)]
        m["throughput_per_s"] = len(times) / sum(times)
        m["latency_p50_ms"] = 1e3 * stats.median(studies)
        m["latency_p95_ms"] = 1e3 * stats.percentile(studies, 95)
    else:
        counts = exact_counts(r, problems)
        m.update(profile_metrics(r["profile"], r["untraced_s"], problems))
        iters = counts["hydraulics.newton.iterations"]
        m.update({
            "hydraulics.trim_ms_p50": 1e3 * stats.median(r["trim_s"]),
            "hydraulics.newton_iters_per_solve":
                ratio(iters, counts["hydraulics.flow.solves"]),
            "hydraulics.edge_inversions_per_iter":
                ratio(counts["hydraulics.edge_inversion.searches"], iters),
            "hydraulics.trim_converged_frac":
                r["trim_converged"] / len(designs),
            "system.module_steady_ms_p50":
                1e3 * stats.median(r["module_steady_s"]),
            "system.rack_steady_ms_p50": 1e3 * stats.median(r["rack_steady_s"]),
        })
    fp = {"designs": len(designs)}
    return m, r["attempted"], r["failed"], problems, r, fp


def result_text(line):
    """The evaluation result of a rendered response line: everything from
    its "result" member on. Cache state and latency come before it."""
    at = line.find('"result": ')
    return line[at:] if at >= 0 else None


def serve_mixed(build_dir, seed, seconds, trace):
    work = work_dir("serve_mixed")
    binary = os.path.join(build_dir, "skatsim")
    sock = os.path.relpath(os.path.join(work, "s.sock"))
    if len(sock) > 100:
        raise BenchError(f"socket path too long: {sock}")
    scenario = os.path.join(work, "pump_failure_module.json")
    with open(scenario, "w") as f:
        json.dump(inputs.PUMP_SCENARIO, f, indent=2)
    def count(rate, share):
        return max(8, round(rate * share * seconds))

    # The heavy phase is cut into SERVE_BURSTS slices with a burst after
    # each, every slice and burst on its own connection. Latencies pool over
    # the slices; the saturation rate is the median burst. Spreading the
    # bursts over the run keeps a short slow spell of the host from setting
    # the rate.
    heavy_n = count(SERVE_RATE_HEAVY, SERVE_SHARE_HEAVY / SERVE_BURSTS)
    burst_n = count(SERVE_SATURATION_NOMINAL, SERVE_SHARE_BURST / SERVE_BURSTS)
    heavy = inputs.serve_requests(seed, "heavy", heavy_n * SERVE_BURSTS,
                                  scenario)
    bursts = inputs.serve_requests(seed, "burst", burst_n * SERVE_BURSTS,
                                   scenario)
    plan = [("light", SERVE_RATE_LIGHT, inputs.serve_requests(
        seed, "light", count(SERVE_RATE_LIGHT, SERVE_SHARE_LIGHT), scenario))]
    for k in range(SERVE_BURSTS):
        plan.append((f"heavy{k}", SERVE_RATE_HEAVY,
                     heavy[k * heavy_n:(k + 1) * heavy_n]))
        plan.append((f"burst{k}", None, bursts[k * burst_n:(k + 1) * burst_n]))
    problems = []

    # Set-up: start a daemon, connect, get one request of each kind answered
    # (which fills the lazy statics and the solver cache), shut down.
    setup = []
    warm = inputs.serve_requests(seed, "sample", len(inputs.SERVE_BLOCK),
                                 scenario)
    warm = [next(l for l in warm if json.loads(l)["type"] == kind)
            for kind in SERVE_SAMPLE]
    for _ in range(SERVE_SETUP_REPS):
        start = time.perf_counter()
        with serve.Daemon(binary, sock, 1, SERVE_THREADS) as d:
            res = serve.run_phase(d, warm, None)
            setup.append(time.perf_counter() - start)
            problems += serve.check_phase("setup", warm, res)
            if d.wait() != 0:
                problems.append("setup daemon exited non-zero")

    metrics_path = os.path.join(work, "daemon-metrics.json") if trace else None
    results = {}
    sent = 0
    # One connection per phase, plus an empty one that lets the daemon exit
    # after its peak RSS has been read.
    with serve.Daemon(binary, sock, len(plan) + 1, SERVE_THREADS,
                      metrics_path) as d:
        for phase, rate, lines in plan:
            results[phase] = serve.run_phase(d, lines, rate)
            problems += serve.check_phase(phase, lines, results[phase])
            sent += len(lines)
            s = results[phase]["summary"] or {}
            if (s.get("requests"), s.get("ok")) != (sent, sent) or any(
                    s.get(k) for k in ("errors", "rejected", "timed_out")):
                problems.append(f"{phase}: summary does not reconcile: {s}")
        peak_rss_mb = d.peak_rss_mb()
        d.close_last()
        if d.wait() != 0:
            problems.append(f"daemon exited {d.proc.returncode}: "
                            f"{d.stderr.decode(errors='replace').strip()}")

    # Reference: a seeded sample of the lines, re-run in process one at a
    # time; the daemon's answers must match byte for byte.
    by_id = {}
    for phase in results:
        for rec in results[phase]["records"]:
            by_id[rec["id"]] = rec["line"]
    rng = random.Random(f"serve_mixed:{seed}:reference")
    sample = []
    all_lines = [line for _, _, lines in plan for line in lines]
    for kind, n in SERVE_SAMPLE.items():
        of_kind = [l for l in all_lines if json.loads(l)["type"] == kind]
        sample += rng.sample(of_kind, min(n, len(of_kind)))
    ref = run_harness(build_dir, "service",
                     requests=write_lines(os.path.join(work, "sample.jsonl"),
                                          sample), trace=int(trace))
    mismatched = 0
    for line, got in zip(sample, ref["responses"]):
        rid = json.loads(line)["id"]
        want = result_text(got["line"])
        if want is None or result_text(by_id.get(rid, "")) != want:
            mismatched += 1
    if mismatched or len(ref["responses"]) != len(sample):
        problems.append(f"{mismatched} of {len(sample)} daemon responses "
                        "differ from the in-process service")

    def ms(values):
        return [1e3 * v for v in values]

    def records(kind):
        """Records of the phase named kind, or of its numbered slices."""
        return [r for p in results if p.rstrip("0123456789") == kind
                for r in results[p]["records"]]

    client = {p: ms([r["client_s"] for r in records(p)])
              for p in ("light", "heavy")}
    server = {p: ms([r["server_s"] for r in records(p)])
              for p in ("light", "heavy")}
    m = {"setup_s": stats.median(setup), "peak_rss_mb": peak_rss_mb}
    if not trace:
        m["throughput_per_s"] = stats.median(
            [burst_n / results[f"burst{k}"]["wall_s"]
             for k in range(SERVE_BURSTS)])
        m["latency_p50_ms"] = stats.median(client["heavy"])
        m["latency_p95_ms"] = stats.percentile(client["heavy"], 95)
    else:
        m.update(profile_metrics(ref["profile"], ref["untraced_s"], problems))
        with open(metrics_path) as f:
            counters = json.load(f)["counters"]
        heavy_cache = [r["cache"] for r in records("heavy")]
        warm_hits = heavy_cache.count("warm")
        kinds = [json.loads(l)["type"] for l in sample]
        m.update({
            "service.light_latency_p50_ms": stats.median(client["light"]),
            "service.light_latency_p95_ms":
                stats.percentile(client["light"], 95),
            "service.cache_hit_frac":
                ratio(warm_hits, warm_hits + heavy_cache.count("cold")),
            "service.requests_per_batch": ratio(counters["service.requests"],
                                                counters["service.batches"]),
            "support.parallel_for_us": 1e6 * stats.median(ref["parallel_for_s"]),
        })
        for p in ("light", "heavy"):
            m[f"service.server_latency_p50_ms.{p}"] = stats.median(server[p])
            m[f"service.unread_wait_ms_p50.{p}"] = stats.median(
                [c - s for c, s in zip(client[p], server[p])])
        for kind in SERVE_SAMPLE:
            m[f"service.eval_ms_p50.{kind}"] = 1e3 * stats.median(
                [t for t, k in zip(ref["eval_s"], kinds) if k == kind])
    late = {p: max(r["late_s"] for r in records(p)) * 1e3
            for p in ("light", "heavy")}
    fp = {"threads": SERVE_THREADS, "batch": "default",
          "rate_light_per_s": SERVE_RATE_LIGHT,
          "rate_heavy_per_s": SERVE_RATE_HEAVY,
          "slices": SERVE_BURSTS, "heavy_requests": heavy_n,
          "burst_requests": burst_n,
          "generator_late_ms_max": late}
    attempted = len(all_lines) + len(sample)
    # A request with no response, or a response that is not ok, failed.
    failed = sum(len(lines) - sum(r["ok"] for r in results[p]["records"])
                 for p, _, lines in plan)
    return m, attempted, failed, problems, ref, fp


RUNNERS = {
    "rack_sweep": rack_sweep,
    "fleet_excursion": fleet_excursion,
    "rack_balancing": rack_balancing,
    "serve_mixed": serve_mixed,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # The open-loop sender shares the interpreter with the reply reader; a
    # short switch interval keeps it close to its schedule.
    sys.setswitchinterval(0.0005)

    try:
        build_dir = build()
        before = cpu_ticks()
        metrics, attempted, failed, problems, raw, fp = RUNNERS[args.workload](
            build_dir, args.seed, args.seconds, bool(args.trace))
        after = cpu_ticks()
    except (BenchError, subprocess.SubprocessError, OSError, RuntimeError,
            KeyError, ValueError) as err:
        log(f"perfbench: {args.workload}: {err}")
        return 1

    wanted = PER_LAYER if args.trace else END_TO_END
    fingerprint = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "source": source_id(),
        "compiler": raw.get("compiler"), "build_type": raw.get("build_type"),
        **fp,
    }
    # CPU time the hypervisor gave to other guests during the run: on a
    # shared host it moves every timing, so a reader can tell a slow host
    # from a slow program.
    if before and after and after[0] > before[0]:
        fingerprint["host_steal_frac"] = round(
            (after[1] - before[1]) / (after[0] - before[0]), 4)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    failed += len(problems)
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"failed_frac = {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted})")
    unlisted = sorted(set(metrics) - set(END_TO_END) - set(PER_LAYER))
    if unlisted:
        log(f"perfbench: metrics missing from BENCHMARK.json: {unlisted}")
        return 1
    out = {}
    for name, unit in wanted.items():
        value = float(metrics.get(name, 0.0))
        out[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
