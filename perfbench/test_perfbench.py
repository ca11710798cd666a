"""Tests of the benchmark's own parts: inputs, expected table and span arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
from __future__ import annotations

import hashlib
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import chi_lie  # noqa: E402
from expected import EXPECTED, expected_for, witt  # noqa: E402
from spans import Recorder, layer_metrics, scaled_stage_seconds  # noqa: E402
from workloads import WORKLOADS, rebase_json  # noqa: E402

REBASED = [m for members in WORKLOADS.values() for m in members if m.rebased]

# sha256 of the rebased members' JSON at the default seed 0, in workload order
DEFAULT_SEED_INPUTS = "1bcd5df09e36b184b90ced8fc237102664e563b3664f6f8e9a2803e53b893d3f"


def rebased_doc(member, seed: int) -> dict:
    g = chi_lie.build(member.builder, list(member.params))
    return rebase_json(g.to_json_dict(), seed)


class RebaseTest(unittest.TestCase):
    def test_dims_and_h2_invariant_over_three_seeds(self):
        for m in REBASED:
            want = expected_for(m)
            for seed in (1, 2, 3):
                with self.subTest(member=m.key, seed=seed):
                    doc = rebased_doc(m, seed)
                    g = chi_lie.LieAlgebra.from_json_dict(doc)
                    c = chi_lie.compute_chi(g)
                    h = chi_lie.compute_homology(g)
                    got = {"chi": c.chi.dim, "W": c.W.dim, "R": c.R.dim, "h2": h.h2_ce_dim}
                    self.assertEqual(got, want)
                    self.assertTrue(h.agree)

    def test_rebasing_changes_the_structure_constants(self):
        for m in REBASED:
            g = chi_lie.build(m.builder, list(m.params))
            self.assertNotEqual(rebased_doc(m, 0)["brackets"], g.to_json_dict()["brackets"])

    def test_default_seed_inputs_do_not_change(self):
        text = json.dumps([rebased_doc(m, 0) for m in REBASED], sort_keys=True)
        self.assertEqual(text, json.dumps([rebased_doc(m, 0) for m in REBASED], sort_keys=True))
        self.assertEqual(hashlib.sha256(text.encode()).hexdigest(), DEFAULT_SEED_INPUTS)


class ExpectedTableTest(unittest.TestCase):
    def test_catalog_values_match_the_catalog(self):
        for entry in chi_lie.ENTRIES:
            name = entry.build().name
            if name in EXPECTED:
                with self.subTest(name=name):
                    for key, (value, tag) in entry.expected.items():
                        self.assertEqual(EXPECTED[name][key][0], value)
                        self.assertIn(tag, EXPECTED[name][key][1])

    def test_closed_forms_agree_with_catalog_entries(self):
        self.assertEqual(witt(2, 3), EXPECTED["free_nilpotent(2,2)"]["h2"][0])
        self.assertEqual(witt(3, 3), EXPECTED["free_nilpotent(3,2)"]["h2"][0])
        self.assertEqual(witt(4, 3), 20)

    def test_every_member_has_expected_values(self):
        for members in WORKLOADS.values():
            for m in members:
                self.assertIn(m.catalog_name, EXPECTED)


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            [0, "chi.compute_chi", "chi", None, "a", 0.0, 10.0, {"dim": 9}],
            [1, "nilquot.class_quotient", "nilquot", 0, "a", 1.0, 7.0, None],
            [2, "freelie.build_free_nilpotent", "nilquot", 1, "a", 1.5, 2.0, {"dim": 40}],
            [3, "freelie.build_free_nilpotent", "homology", None, "a", 11.0, 12.0, {"dim": 90}],
            [4, "liealg.subalgebra_closure", "verify", None, "a", 12.0, 13.0, None],
        ]
        got = layer_metrics(spans)
        self.assertAlmostEqual(got["chi.self_s"], 4.0)
        self.assertEqual(got["chi.dim_sum"], 9)
        self.assertEqual(got["nilquot.class_quotient.free_dim_max"], 40)
        self.assertEqual(got["freelie.build_free_nilpotent.dim_sum"], 130)
        self.assertEqual(got["freelie.build_free_nilpotent.calls"], 2)
        self.assertEqual(got["verify.subalgebra_closure.calls"], 1)
        self.assertEqual(got["liealg.subalgebra_closure.calls"], 1)

    def test_stages_are_scaled_by_the_probes_around_them(self):
        spans = [
            [0, "probe", "bench", None, "a", 0.0, 0.02, None],
            [1, "stage.chi", "bench", None, "a", 0.02, 2.02, None],
            [2, "chi.compute_chi", "chi", 1, "a", 0.1, 2.0, {"dim": 9}],
            [3, "probe", "bench", None, "a", 2.02, 2.06, None],
            [4, "stage.checks", "bench", None, "a", 2.06, 3.06, None],
            [5, "probe", "bench", None, "a", 3.06, 3.1, None],
        ]
        # a tick at 1.0-1.06 inside the chi stage
        probes = [(0.0, 0.02), (1.0, 1.06), (2.02, 2.06), (3.06, 3.1)]
        got = scaled_stage_seconds(spans, probes, 0.02)
        self.assertAlmostEqual(got["chi"], 0.98 * 0.02 / 0.04 + 0.96 * 0.02 / 0.05)
        self.assertAlmostEqual(got["checks"], 1.0 * 0.02 / 0.04)
        with self.assertRaises(ValueError):
            scaled_stage_seconds(spans, probes[1:], 0.02)
        with self.assertRaises(ValueError):
            scaled_stage_seconds(spans, probes[:-1], 0.02)

    def test_every_stage_is_followed_by_a_probe(self):
        rec = Recorder()
        rec.active = True
        rec.probe()
        with rec.stage("chi"):
            rec.tick(None, None)
        self.assertEqual([s[1] for s in rec.spans], ["probe", "stage.chi", "probe"])
        self.assertEqual(len(rec.probes), 3)
        self.assertEqual(set(scaled_stage_seconds(rec.spans, rec.probes, 0.02)), {"chi"})

if __name__ == "__main__":
    unittest.main()
