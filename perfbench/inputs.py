"""Seeded input generators for the skatsim benchmark.

Every input the program sees comes from here, drawn from one
``random.Random(seed)`` per workload, so the same seed gives byte-identical
inputs. Draws are stratified (fixed counts per size bin and per request
kind, with only the values inside a stratum left to the seed), which keeps
the amount of work in a run nearly the same from seed to seed.
"""

import json
import random

# Frozen copy of scenarios/rack_degradation.json: the benchmark keeps its own
# so that editing the repository's example scenario does not change the
# workload. Only the hazard seed is drawn per benchmark seed.
RACK_SCENARIO = {
    "name": "rack-degradation",
    "level": "rack",
    "design": "skat",
    "duration_h": 6.0,
    "seed": 2026,
    "policy": {
        "enabled": True,
        "clock_floor": 0.5,
        "shed_step": 0.1,
        "critical_periods_to_shutdown": 4,
        "migrate_load": True,
        "utilization_bound": 1.0,
    },
    "faults": [
        {"kind": "hx_fouling", "id": "hx3-fouling", "target": 3,
         "at_h": 0.5, "severity": 0.85, "ramp_s": 1800},
        {"kind": "chiller_derate", "id": "chiller-derate", "at_h": 2.0,
         "duration_h": 1.5, "severity": 0.5},
    ],
    "hazards": [
        {"kind": "pump_failure", "id": "module-pump", "target": 7,
         "mttf_h": 40.0, "weibull_shape": 1.4, "repair_h": 2.0},
    ],
}

# Frozen copy of scenarios/pump_failure_module.json, the scenario the
# service's faults requests run.
PUMP_SCENARIO = {
    "name": "pump-failure-module",
    "level": "module",
    "design": "skat",
    "duration_h": 3.0,
    "seed": 2026,
    "policy": {"enabled": True, "critical_periods_to_shutdown": 4},
    "faults": [
        {"kind": "pump_degradation", "id": "pump0-wear", "at_h": 1.0,
         "severity": 0.8, "ramp_s": 300},
    ],
}

SWEEP_REPLICATES = 8
SWEEP_WORKERS = 2

FLEET_RACKS = 2048
FLEET_MODULES = 8
FLEET_RETUNES = 3
FLEET_DT_S = 30.0
# Facility-water excursion: ramp up, hold, ramp back, in steps of FLEET_DT_S.
FLEET_RAMP_STEPS = 20
FLEET_HOLD_STEPS = 60

BALANCE_LOOPS = tuple(range(6, 25, 2))  # 6, 8, ..., 24 loops.
BALANCE_LAYOUTS = (0, 1)  # 0 = direct return, 1 = reverse return.

# serve_mixed request mix, per block of 20 requests: 12 steady, 7
# transient, 1 faults (60/35/5). Of the 7 transient requests, 2 carry a dt_s
# no other request uses, so the solver cache builds them cold.
SERVE_BLOCK = ("steady",) * 12 + ("transient",) * 7 + ("faults",)
SERVE_UNIQUE_DT_PER_BLOCK = 2
# Each phase draws its unique dt_s values from its own range, so no key
# repeats across the phases one daemon serves.
SERVE_PHASES = {"light": 1, "heavy": 2, "burst": 3, "sample": 4}


def scenario_seed(seed):
    return random.Random(f"rack_sweep:{seed}").randrange(1, 2**31)


def rack_scenario(seed):
    """The rack degradation scenario with a hazard seed drawn from seed."""
    scenario = json.loads(json.dumps(RACK_SCENARIO))
    scenario["seed"] = scenario_seed(seed)
    return scenario


def fleet_inputs(seed):
    """Per-chip heat, loop retunes and the facility-water excursion."""
    rng = random.Random(f"fleet_excursion:{seed}")
    chips = FLEET_RACKS * FLEET_MODULES
    heat = [round(rng.uniform(650.0, 1000.0), 3) for _ in range(chips)]
    racks = rng.sample(range(FLEET_RACKS), FLEET_RETUNES)
    # A fouled CDU: the loop-to-facility conductance drops to 50-90% of
    # its 480 W/K design value.
    retunes = [(rack, round(480.0 * rng.uniform(0.5, 0.9), 3))
               for rack in racks]
    base = 18.0
    peak = base + rng.uniform(5.0, 9.0)
    up = [base + (peak - base) * (i + 1) / FLEET_RAMP_STEPS
          for i in range(FLEET_RAMP_STEPS)]
    excursion = up + [peak] * FLEET_HOLD_STEPS + up[::-1]
    return {"heat": heat, "retunes": retunes,
            "excursion": [round(t, 4) for t in excursion]}


def balance_designs(seed):
    """Rack design points: every loop count in BALANCE_LOOPS on both
    manifold layouts, with seeded diameter, pump head and isolated loop."""
    rng = random.Random(f"rack_balancing:{seed}")
    designs = []
    for layout in BALANCE_LAYOUTS:
        for loops in BALANCE_LOOPS:
            designs.append({
                "loops": loops,
                "layout": layout,
                "diameter_m": round(rng.uniform(0.040, 0.065), 5),
                "pump_head_pa": round(rng.uniform(0.9e5, 1.6e5), 1),
                "isolated": rng.randrange(loops),
            })
    return designs


def design_rows(designs):
    return [f"{d['loops']} {d['layout']} {d['diameter_m']} "
            f"{d['pump_head_pa']} {d['isolated']}" for d in designs]


def serve_requests(seed, phase, count, scenario_path):
    """``count`` request lines for one serve_mixed phase.

    Request ids carry the phase and index, so a response names the request
    it answers. Shared-key requests (the common designs and dt_s = 2 s) hit
    the daemon's solver cache once warm; unique-dt requests always build.
    """
    rng = random.Random(f"serve_mixed:{seed}:{phase}")
    lines = []
    unique = 0
    while len(lines) < count:
        block = list(SERVE_BLOCK)
        rng.shuffle(block)
        transient_seen = 0
        for kind in block:
            if len(lines) == count:
                break
            rid = f"{phase}-{len(lines)}"
            req = {"kind": "service_request", "id": rid, "type": kind}
            if kind == "steady":
                req["design"] = rng.choice(("skat", "skat-plus"))
                req["water_c"] = round(rng.uniform(16.0, 26.0), 2)
                req["util"] = round(rng.uniform(0.5, 1.0), 3)
            elif kind == "transient":
                req["design"] = rng.choice(("skat", "skat-plus"))
                req["hours"] = round(rng.uniform(0.2, 0.4), 3)
                if transient_seen < SERVE_UNIQUE_DT_PER_BLOCK:
                    unique += 1
                    req["dt_s"] = round(
                        2.0 + SERVE_PHASES[phase] * 0.01 + unique * 1e-6, 7)
                else:
                    req["dt_s"] = 2
                transient_seen += 1
            else:
                req["scenario"] = scenario_path
                req["replicate"] = rng.randrange(1000)
            lines.append(json.dumps(req))
    return lines
