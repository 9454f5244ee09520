"""Self-tests for the benchmark's generators, checks and trace arithmetic.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_output_other_seed_differs(self):
        words = gen.lexicon(0, 500)[0]
        makers = {
            "paper_pairs": lambda s: gen.paper_pairs(s, 3, 2),
            "lexicon": lambda s: gen.lexicon(s, 500),
            "lcsts_corpus": lambda s: gen.lcsts_corpus(
                s, words, n_part1=20, n_part3=12, n_dup=4, n_decoy=2, n_bad1=2, n_bad3=2),
            "experiment_seeds": gen.experiment_seeds,
        }
        for name, make in makers.items():
            with self.subTest(name):
                self.assertEqual(make(5), make(5))
                self.assertNotEqual(make(5), make(6))

    def test_paper_pairs_shape(self):
        pairs, held = gen.paper_pairs(1, 4, 3)
        self.assertEqual(len(pairs), 4)
        for src, tgt in pairs:
            self.assertEqual(len(src), 60)
            self.assertEqual(len(tgt), 23)
            self.assertEqual((tgt[0], tgt[-1]), (2, 3))
            self.assertTrue(all(4 <= i < 4000 for i in src + tgt[1:-1]))
        self.assertEqual([len(h) for h in held], [60, 60, 60])

    def test_lead_candidates(self):
        self.assertEqual(gen.lead_candidates([(7, "abcdef")], n_chars=3),
                         [{"id": 7, "candidate": "abc"}])


class PrepChecksTest(unittest.TestCase):
    """The prep-lcsts walk at a small lexicon; a planted fault must be counted."""

    def setUp(self):
        import hwcsum.cli

        self.cli = hwcsum.cli
        self.work = ROOT / ".perfbench" / "selftest"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.truth = workloads.prep_inputs(3, self.work, lexicon_entries=2000)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def walk(self, truth):
        ops = run.Ops()
        with workloads.quiet():
            for argv in workloads.prep_stages(self.work, 3):
                ops.check(self.cli.main(argv) == 0, argv[0])
        workloads.check_prep(ops, self.work, truth)
        return ops

    def test_clean_walk_passes(self):
        ops = self.walk(self.truth)
        self.assertEqual(ops.failed, 0, ops.notes)
        self.assertGreater(ops.attempted, 10)

    def test_tampered_duplicate_list_is_counted(self):
        truth = dict(self.truth, removed_ids=self.truth["removed_ids"][1:])
        self.assertGreaterEqual(self.walk(truth).failed, 1)

    def test_corrupted_segmentation_is_counted(self):
        original = self.cli.word_segment

        def drop_last_char(text, lex):
            tokens = original(text, lex)
            return tokens[:-1] + [tokens[-1][:-1]] if tokens[-1][:-1] else tokens[:-1]

        self.cli.word_segment = drop_last_char
        try:
            ops = self.walk(self.truth)
        finally:
            self.cli.word_segment = original
        self.assertEqual(ops.failed, 1, ops.notes)
        self.assertIn("word vocabulary", ops.notes[0])


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_what_the_runs_print(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.per_layer_specs())
        self.assertLessEqual({w["name"] for w in bench["workloads"]}, set(workloads.WORKLOADS))


class ReportMaskTest(unittest.TestCase):
    def test_only_timing_fields_are_masked(self):
        a = {"created_at": "t0", "runs": [{"timing": {"total_seconds": 1.0},
                                          "scores": 0.5, "seconds_per_epoch": [2.0]}]}
        b = {"created_at": "t1", "runs": [{"timing": {"total_seconds": 9.0},
                                          "scores": 0.5, "seconds_per_epoch": [3.0]}]}
        self.assertEqual(workloads.mask_timings(a), workloads.mask_timings(b))
        b["runs"][0]["scores"] = 0.6
        self.assertNotEqual(workloads.mask_timings(a), workloads.mask_timings(b))


class TraceTest(unittest.TestCase):
    def test_self_time_on_hand_built_tree(self):
        spans = [
            # name, start, end, parent, run, rng seconds while open, extra
            ["root", 0.0, 10.0, -1, 0, 1.5, None],
            ["a", 1.0, 4.0, 0, 0, 0.5, None],
            ["b", 3.0, 6.0, 0, 0, 0.0, None],  # overlaps a: covered once
            ["a1", 2.0, 3.0, 1, 0, 0.0, None],
        ]
        got = tracing.self_times(spans)
        # root: 10 - |[1, 6]| - (1.5 - 0.5 - 0.0) rng directly under root
        self.assertEqual(got, [4.0, 1.5, 3.0, 1.0])

    def test_tail_level(self):
        self.assertEqual(tracing.tail_level(5), 50.0)
        self.assertEqual(tracing.tail_level(100), 90.0)
        self.assertEqual(tracing.tail_level(1000), 99.0)
        p50, tail, n = tracing.timing_stats([float(i) for i in range(1, 101)])
        self.assertEqual((p50, n), (50.5, 100))
        self.assertAlmostEqual(tail, 90.1)

    def test_install_wraps_every_binding_and_uninstall_restores(self):
        import hwcsum.cli
        import hwcsum.harness
        import hwcsum.model
        import hwcsum.rng
        import hwcsum.tokenizer

        originals = (hwcsum.tokenizer.word_segment, hwcsum.model.train,
                     hwcsum.rng.MT19937.next_u32)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(hwcsum.cli.word_segment, originals[0])
            self.assertIs(hwcsum.cli.word_segment, hwcsum.tokenizer.word_segment)
            self.assertIs(hwcsum.harness.train, hwcsum.model.train)
            self.assertIsNot(hwcsum.harness.train, originals[1])
            rng = hwcsum.rng.MT19937(1)
            tracer.run_id = 4
            hwcsum.tokenizer.word_segment("ab", hwcsum.tokenizer.Lexicon({"ab": 2}))
            rng.shuffle(list(range(5)))
        finally:
            tracer.uninstall()
        self.assertEqual((hwcsum.tokenizer.word_segment, hwcsum.model.train,
                          hwcsum.rng.MT19937.next_u32), originals)
        self.assertIs(hwcsum.cli.word_segment, originals[0])
        segment, tokenize = tracer.spans  # word_segment calls char_tokenize
        self.assertEqual((segment[0], segment[4], segment[6]), ("tokenizer.word_segment", 4, 2))
        self.assertEqual((tokenize[0], tokenize[3]), ("tokenizer.char_tokenize", 0))
        self.assertEqual(tracer.rng[1], 4)  # four bounded draws for five items
        self.assertEqual(tracer.rng[2], 1)  # one outermost call: shuffle


class ReferenceTest(unittest.TestCase):
    def test_refs_take_the_samples_out_of_the_work(self):
        unit = reference.Unit()
        unit.wall_s, unit.inside_s, unit.sampled_s, unit.samples = 1.1, 0.1, 0.2, 200
        # 1 s of the work's own time at 1 ms a reference loop
        self.assertAlmostEqual(unit.refs, 1000.0)

    def test_samples_arrive_only_while_measuring(self):
        ref = reference.Reference()
        with ref.measure() as unit:
            deadline = time.perf_counter() + 10 * reference.INTERVAL_S
            while time.perf_counter() < deadline:
                pass
        self.assertGreater(unit.samples, reference.MIN_SAMPLES)
        self.assertLess(0.0, unit.inside_s)
        self.assertLess(unit.inside_s, unit.wall_s)
        samples = unit.samples
        time.sleep(3 * reference.INTERVAL_S)
        self.assertEqual(unit.samples, samples)

    def test_without_sampling_the_loop_runs_after_the_work(self):
        ref = reference.Reference(sampling=False)
        with ref.measure() as unit:
            time.sleep(reference.INTERVAL_S)
        self.assertEqual((unit.samples, unit.inside_s), (reference.MIN_SAMPLES, 0.0))
        self.assertGreater(unit.refs, 0.0)


if __name__ == "__main__":
    unittest.main()
