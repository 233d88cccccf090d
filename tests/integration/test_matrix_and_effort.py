"""E2/E7: the spec-satisfaction matrix and the effort table (fast cuts)."""

import os
import subprocess
import sys

import pytest

import repro

from repro.checking import (Implementation, default_implementations,
                            effort_table, render_table, run_matrix)
from repro.checking.stats import DD_TREIBER_KLOC, PAPER_KLOC, impl_loc
from repro.core import SpecStyle
from repro.libs import HWQueue, MSQueue, RELACQ
from repro.tools.loc import count_file, count_tree, summarize


def small_run(workers=1):
    impls = [
        Implementation("ms-queue/ra", "queue",
                       lambda mem: MSQueue.setup(mem, "q", RELACQ)),
        Implementation("hw-queue/rlx", "queue",
                       lambda mem: HWQueue.setup(mem, "q", capacity=16)),
    ]
    return run_matrix(implementations=impls,
                      workloads=((2, 3, 0), (3, 3, 1)),
                      runs=60, exhaustive_small=False, workers=workers)


@pytest.fixture(scope="module")
def small_matrix():
    return small_run()


class TestMatrix:
    def test_ms_passes_abstract_styles(self, small_matrix):
        cells = small_matrix.rows["ms-queue/ra"]
        for style in (SpecStyle.LAT_SO_ABS, SpecStyle.LAT_HB_ABS,
                      SpecStyle.LAT_HB):
            assert cells[style].ok, cells[style].example

    def test_hw_passes_lat_hb_only(self, small_matrix):
        cells = small_matrix.rows["hw-queue/rlx"]
        assert cells[SpecStyle.LAT_HB].ok
        assert not cells[SpecStyle.LAT_HB_ABS].ok, \
            "the HW queue must fail abstract-state construction somewhere"
        assert not cells[SpecStyle.LAT_SO_ABS].ok

    def test_render(self, small_matrix):
        text = small_matrix.render()
        assert "ms-queue/ra" in text and "LAT_hb" in text

    def test_two_workers_match_serial(self, small_matrix):
        """The randomized cells fan out over a process pool and merge in
        a fixed order: the matrix equals the serial one."""
        fanned = small_run(workers=2)
        assert fanned.render() == small_matrix.render()
        assert fanned.rows == small_matrix.rows

    def test_serial_matrix_imports_no_engine(self):
        """A serial matrix stays on `check_scenario`'s own loop: loading
        the engine would grow every random-matrix process's RSS."""
        code = (
            "import sys\n"
            "from repro.checking import default_implementations, "
            "run_matrix\n"
            "impls = [i for i in default_implementations()\n"
            "         if i.name == 'ms-queue/ra']\n"
            "run_matrix(implementations=impls, workloads=((2, 2, 0),),\n"
            "           runs=5, exhaustive_small=False)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.engine')))\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert out.stdout.strip() == "[]"

    def test_default_implementations_cover_paper(self):
        names = {i.name for i in default_implementations()}
        assert {"ms-queue/ra", "hw-queue/rlx", "treiber/rel-acq",
                "elim-stack", "ms-queue/broken-rlx"} <= names


class TestEffort:
    def test_paper_numbers_present(self):
        assert PAPER_KLOC["treiber/rel-acq"] == 2.2
        assert DD_TREIBER_KLOC == 12.0
        assert 0.1 <= PAPER_KLOC["mp-client"] <= 0.5

    def test_impl_loc_counts_source(self):
        loc = impl_loc("treiber/rel-acq")
        assert loc is not None and 50 < loc < 400

    def test_effort_table_renders(self):
        rows = effort_table({"treiber/rel-acq": []})
        text = render_table(rows)
        assert "treiber" in text and "paper-KLOC" in text


class TestLocCounter:
    def test_count_file_distinguishes_code_and_doc(self, tmp_path):
        p = tmp_path / "m.py"
        p.write_text('"""Docstring\nline two."""\n\n# comment\nx = 1\n')
        c = count_file(str(p))
        assert c.code == 1
        assert c.doc >= 3
        assert c.blank == 1

    def test_count_tree_and_summarize(self):
        import repro
        import os
        root = os.path.dirname(repro.__file__)
        counts = count_tree(root)
        total = summarize(counts)
        assert total.code > 1000
        assert any(k.endswith("msqueue.py") for k in counts)


class TestTraceTools:
    def test_format_execution(self):
        from repro.libs import MSQueue, RELACQ
        from repro.rmc import Program, RandomDecider
        from repro.tools.trace import format_execution, format_graph, \
            format_violations

        def setup(mem):
            return {"q": MSQueue.setup(mem, "q", RELACQ)}

        def t(env):
            yield from env["q"].enqueue(1)
            return (yield from env["q"].dequeue())
        r = Program(setup, [t]).run(RandomDecider(0))
        text = format_execution(r)
        assert "complete" in text and "thread 0 returned 1" in text
        assert "q.head" in text

        gtext = format_graph(r.env["q"].graph(), title="queue")
        assert "Enq" in gtext and "so: e0 -> e1" in gtext

        from repro.core import check_queue_consistent
        assert format_violations([]) == "(no violations)"

    def test_format_execution_race(self):
        from repro.rmc import NA, Program, Store, explore_all
        from repro.tools.trace import format_execution

        def setup(mem):
            return {"d": mem.alloc("d", 0)}

        def w(env):
            yield Store(env["d"], 1, NA)
        for r in explore_all(lambda: Program(setup, [w, w])):
            if r.race is not None:
                assert "RACE" in format_execution(r)
                return
        raise AssertionError("expected a racy execution")
