"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_perfbench.py

They run shrunken workloads, so they take well under a minute.
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from layers import COUNTS, LayerTrace  # noqa: E402

import frobex.cli  # noqa: E402
import frobex.localcoh  # noqa: E402


def _pass(workload, traced):
    ledger = run.Ledger()
    trace = LayerTrace() if traced else None
    if trace is None:
        outputs = ledger.run(workload.ops())
    else:
        with trace.installed():
            outputs = ledger.run(workload.ops())
    assert ledger.failed == 0, ledger.reasons
    return trace, outputs


def _small_verify(jobs=1):
    workload = run.VerifyWorkload([run.DEV_SEED], ("depth-zero-f2", "regular-f2-xy"),
                                  jobs, run.CLI_CAPS)
    workload.setup()
    return workload


def test_work_counts_repeat_exactly_between_traced_passes(monkeypatch):
    monkeypatch.setattr(run, "PREIMAGE_IDEALS_PER_FIELD", 8)
    batch = run.PreimageBatchWorkload(run.DEV_SEED)
    batch.setup()
    for workload in (_small_verify(), batch):
        first, out_first = _pass(workload, traced=True)
        second, out_second = _pass(workload, traced=True)
        assert first.counts == second.counts
        assert out_first == out_second
        assert first.counts["groebner.gb_calls"] > 0
        assert first.counts["frobenius.preimage_calls"] > 0


def test_tracing_changes_no_output_and_is_removed_afterwards():
    workload = _small_verify()
    originals = (frobex.cli.verify_inequality, frobex.localcoh.torsion_quotient,
                 frobex.localcoh.linalg.rref)
    _, plain = _pass(workload, traced=False)
    trace, traced = _pass(workload, traced=True)
    assert plain == traced
    assert (frobex.cli.verify_inequality, frobex.localcoh.torsion_quotient,
            frobex.localcoh.linalg.rref) == originals
    counts = trace.counts
    # wrappers reached every layer, through every import site
    for key in ("groebner.colon_calls", "groebner.saturation_steps",
                "frobenius.closure_levels", "filterreg.sop_calls",
                "localcoh.torsion_calls", "linalg.rref_calls", "groebner.nf_calls"):
        assert counts[key] > 0, key
    assert set(counts) == set(COUNTS)


def test_pool_passes_are_counted_repeat_and_match_serial():
    _, serial = _pass(_small_verify(jobs=1), traced=False)
    pool = _small_verify(jobs=2)
    trace, pooled = _pass(pool, traced=True)
    again, pooled_again = _pass(pool, traced=True)
    assert pooled == serial == pooled_again
    assert trace.counts == again.counts
    assert trace.counts["pool.calls"] > 0
    assert trace.counts["pool.tasks"] >= trace.counts["pool.calls"]
    assert trace.pool_child_cpu > 0


def test_self_time_subtracts_children_and_inclusive_skips_recursion():
    trace = LayerTrace()
    trace.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 5.0, 8.0, 0],
                   ["b", 6.0, 7.0, 2]]
    times = trace.times()
    assert times["a"] == {"incl": 10.0, "self": 4.0 + 2.0, "max": 10.0}
    assert times["b"] == {"incl": 4.0, "self": 4.0, "max": 3.0}


def test_refuses_to_run_without_sources(tmp_path):
    lonely = tmp_path / "perfbench"
    lonely.mkdir()
    (lonely / "run.py").write_bytes((HERE / "run.py").read_bytes())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "preimage-batch", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
