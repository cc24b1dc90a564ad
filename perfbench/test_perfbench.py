"""Tests of the benchmark's own code: order statistics, open-loop latency
and seeded input generation.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import random
import socket
import sys
import threading
import time
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import serve  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_matches_exact_order_statistics(self):
        rng = random.Random(5)
        for n in (1, 2, 3, 10, 19, 20, 21, 100, 997):
            samples = [rng.expovariate(1.0) for _ in range(n)]
            ordered = sorted(samples)
            for p in (1, 5, 25, 50, 75, 90, 95, 99, 100):
                want = ordered[max(1, math.ceil(p * n / 100)) - 1]
                self.assertEqual(stats.percentile(samples, p), want, (n, p))

    def test_known_values(self):
        values = list(range(1, 101))
        random.Random(1).shuffle(values)
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 95), 95)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.median([7.0]), 7.0)
        self.assertEqual(stats.median([3, 1, 2, 4]), 2)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)

    def test_relative_spread(self):
        self.assertAlmostEqual(stats.relative_spread([10.0] * 10), 0.0)
        values = [9, 10, 10, 10, 11, 10, 10, 9, 11, 10]
        self.assertGreater(stats.relative_spread(values), 0.0)


class FakeDaemon:
    """Answers each request line in order over a socket pair; the reply to
    request ``stall_index`` is held back ``stall_s`` seconds."""

    def __init__(self, stall_index, stall_s):
        self.stall_index = stall_index
        self.stall_s = stall_s
        self.thread = None

    def connect(self):
        client, server = socket.socketpair()
        self.thread = threading.Thread(target=self.serve, args=(server,))
        self.thread.start()
        return client

    def serve(self, conn):
        with conn, conn.makefile("rb") as lines:
            conn.sendall(b'{"kind": "service_header"}\n')
            count = 0
            for raw in lines:
                req = json.loads(raw)
                if count == self.stall_index:
                    time.sleep(self.stall_s)
                reply = {"kind": "service_response", "id": req["id"],
                         "ok": True, "cache": "bypass", "latency_s": 0.0,
                         "result": {}}
                conn.sendall(json.dumps(reply).encode() + b"\n")
                count += 1
            conn.sendall(json.dumps({"kind": "service_summary",
                                     "requests": count}).encode() + b"\n")


class OpenLoopLatencyTest(unittest.TestCase):
    def test_latency_is_taken_from_the_due_time(self):
        due = [0.0, 1.0, 2.0]
        done = [0.5, 3.0, 3.1]
        self.assertEqual(stats.latencies_from_due(due, done),
                         [0.5, 2.0, 1.1])

    def test_a_stalled_reply_inflates_the_requests_behind_it(self):
        rate, stall, stall_index = 200.0, 0.3, 5
        lines = [json.dumps({"id": f"r{i}"}) for i in range(40)]
        fake = FakeDaemon(stall_index, stall)
        result = serve.run_phase(fake, lines, rate)
        fake.thread.join()
        self.assertEqual(serve.check_phase("t", lines, result), [])
        lat = [r["client_s"] for r in result["records"]]
        self.assertLess(max(lat[:stall_index]), stall / 2)
        # Request j is due (j - stall_index) / rate after the stalled one,
        # and its reply cannot come before the stalled reply.
        for j in range(stall_index, len(lines)):
            floor = stall - (j - stall_index) / rate
            self.assertGreaterEqual(lat[j], floor - 0.02, j)
        # The sender kept to its schedule while the reply stalled.
        self.assertLess(max(r["late_s"] for r in result["records"]), stall / 2)


class SeededInputsTest(unittest.TestCase):
    def test_request_streams_repeat_byte_for_byte(self):
        for phase in ("light", "heavy", "burst", "sample"):
            a = inputs.serve_requests(11, phase, 300, "s.json")
            b = inputs.serve_requests(11, phase, 300, "s.json")
            self.assertEqual("\n".join(a).encode(), "\n".join(b).encode())
            self.assertNotEqual(a, inputs.serve_requests(12, phase, 300,
                                                         "s.json"))

    def test_request_mix_is_stratified(self):
        lines = inputs.serve_requests(3, "heavy", 400, "s.json")
        kinds = [json.loads(line)["type"] for line in lines]
        self.assertEqual(kinds.count("steady"), 240)
        self.assertEqual(kinds.count("transient"), 140)
        self.assertEqual(kinds.count("faults"), 20)
        ids = [json.loads(line)["id"] for line in lines]
        self.assertEqual(len(set(ids)), len(ids))

    def test_unique_dt_keys_never_repeat_across_phases(self):
        seen = []
        for phase in inputs.SERVE_PHASES:
            for line in inputs.serve_requests(4, phase, 200, "s.json"):
                dt = json.loads(line).get("dt_s")
                if dt is not None and dt != 2:
                    seen.append(dt)
        self.assertEqual(len(seen), len(set(seen)))
        self.assertEqual(len(seen), 4 * 20)

    def test_design_lists_repeat_byte_for_byte(self):
        a = inputs.design_rows(inputs.balance_designs(21))
        b = inputs.design_rows(inputs.balance_designs(21))
        self.assertEqual("\n".join(a).encode(), "\n".join(b).encode())
        self.assertNotEqual(a, inputs.design_rows(inputs.balance_designs(22)))
        designs = inputs.balance_designs(21)
        self.assertEqual(sorted(d["loops"] for d in designs),
                         sorted(list(inputs.BALANCE_LOOPS) * 2))
        for d in designs:
            self.assertTrue(0 <= d["isolated"] < d["loops"])

    def test_fleet_and_scenario_inputs_repeat(self):
        self.assertEqual(inputs.fleet_inputs(5), inputs.fleet_inputs(5))
        self.assertNotEqual(inputs.fleet_inputs(5)["heat"],
                            inputs.fleet_inputs(6)["heat"])
        self.assertEqual(json.dumps(inputs.rack_scenario(5)),
                         json.dumps(inputs.rack_scenario(5)))
        self.assertNotEqual(inputs.rack_scenario(5)["seed"],
                            inputs.rack_scenario(6)["seed"])


if __name__ == "__main__":
    unittest.main()
