"""Command line interface: exit codes, JSON documents, determinism."""

import argparse
import ast
import dataclasses
import itertools
import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import frobex.cli as cli_module
import frobex.frobenius as frobenius_module
import frobex.groebner as groebner_module
import frobex.localcoh as localcoh_module
from frobex.cli import main
from frobex.corpus import corpus_labels, load_corpus_ring
from frobex.frobenius import InconsistencyError
from frobex.groebner import IdealHandle, ideal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    doc = json.loads(out)
    return code, doc, err


def without_timestamp(doc):
    return {k: v for k, v in doc.items() if k != "timestamp"}


# --- corpus ---

def test_corpus_list_table(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    for label in ("regular-f2-xy", "regular-f3-xyz", "fermat-cubic-p2",
                  "fermat-cubic-p7", "fermat-quintic-p2", "two-planes-f2",
                  "depth-zero-f2"):
        assert label in out


def test_corpus_list_json(capsys):
    code, doc, _ = run_json(capsys, "corpus")
    assert code == 0
    assert doc["schema"] == "frobex/corpus/1"
    assert "timestamp" in doc
    assert len(doc["entries"]) == 7
    by_label = {e["label"]: e for e in doc["entries"]}
    assert by_label["fermat-cubic-p2"]["dimension"] == 2
    assert by_label["depth-zero-f2"]["characteristic"] == 2


def test_corpus_show_single_spec(capsys):
    code, doc, _ = run_json(capsys, "corpus", "two-planes-f2")
    assert code == 0
    assert doc["schema"] == "frobex/corpus-show/1"
    assert doc["spec"]["variables"] == ["x", "y", "u", "v"]


def test_corpus_unknown_label_is_usage_error(capsys):
    code, doc, _ = run_json(capsys, "corpus", "no-such-ring")
    assert code == 2
    assert doc["schema"] == "frobex/error/1"
    assert doc["exit_code"] == 2


def test_invalid_spec_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"label": "t", "characteristic": 4,
                                "variables": ["x"], "relations": []}))
    code, doc, _ = run_json(capsys, "gb", "--ring", str(path), "--ideal", "x")
    assert code == 2
    assert doc["schema"] == "frobex/error/1"
    assert doc["error"] == {"type": "RingSpecError",
                            "message": "characteristic not prime: 4"}


# --- basic algebra commands ---

def test_gb_json(capsys):
    code, doc, _ = run_json(capsys, "gb", "--ring", "regular-f2-xy",
                            "--ideal", "x^2 + x*y, y^3")
    assert code == 0
    assert doc["schema"] == "frobex/gb/1"
    assert doc["generators"]
    assert set(doc["stats"]) == {"pairs_processed", "zero_reductions",
                                 "max_degree_seen", "basis_size"}


def test_nf_membership(capsys):
    code, doc, _ = run_json(capsys, "nf", "--ring", "regular-f2-xy",
                            "--ideal", "x + y", "--poly", "x^2 + y^2")
    assert code == 0
    assert doc["is_member"] is True
    assert doc["normal_form"] == "0"
    code, doc, _ = run_json(capsys, "nf", "--ring", "regular-f2-xy",
                            "--ideal", "x + y", "--poly", "x^2 + y")
    assert doc["is_member"] is False


def test_dim_defaults_to_zero_ideal(capsys):
    code, doc, _ = run_json(capsys, "dim", "--ring", "fermat-cubic-p2")
    assert code == 0
    assert doc["dimension"] == 2
    code, doc, _ = run_json(capsys, "dim", "--ring", "fermat-cubic-p2",
                            "--ideal", "y, z")
    assert doc["dimension"] == 0


def test_colon_and_sat(capsys):
    code, doc, _ = run_json(capsys, "colon", "--ring", "regular-f2-xy",
                            "--ideal", "x^2, x*y", "--by", "x")
    assert code == 0
    assert sorted(doc["generators"]) == ["x", "y"]
    code, doc, _ = run_json(capsys, "sat", "--ring", "regular-f2-xy",
                            "--ideal", "x^2, x*y")
    assert code == 0
    assert doc["generators"] == ["x"]
    assert doc["exponent"] == 1


def test_sat_prints_the_stabilization_exponent(capsys):
    code, out, _ = run(capsys, "sat", "--ring", "regular-f2-xy",
                       "--ideal", "x^3, x^2*y, x*y^2")
    assert code == 0
    assert out.splitlines() == ["saturation:", "  x", "stabilization exponent s = 2"]


def test_sat_step_cap_exits_3(monkeypatch, capsys):
    # (x^2*y : x^infinity) needs s = 2, so two colon steps are too few
    monkeypatch.setattr(groebner_module, "SATURATION_MAX_STEPS", 2)
    code, doc, _ = run_json(capsys, "sat", "--ring", "regular-f2-xy",
                            "--ideal", "x^2*y", "--by", "x")
    assert code == 3
    assert doc["error"]["type"] == "ResourceCapExceeded"


@pytest.mark.parametrize("argv", [
    ("frobenius", "power", "--ring", "regular-f2-xy", "--ideal", "x", "--e", "40"),
    ("gb", "--ring", "regular-f2-xy", "--ideal", "x^3000000000"),
])
def test_exponent_overflow_exits_3(capsys, argv):
    # an exponent past the supported range is a resource limit, as a cap
    # trip is, not a failed check
    code, doc, _ = run_json(capsys, *argv)
    assert code == 3
    assert doc["error"]["type"] == "ExponentOverflowError"
    assert doc["exit_code"] == 3


def test_filter_check_exit_codes(capsys):
    code, doc, _ = run_json(capsys, "filter-check", "--ring", "depth-zero-f2",
                            "--elements", "y")
    assert code == 0 and doc["filter_regular"] is True
    assert doc["system_of_parameters"] is True
    code, doc, _ = run_json(capsys, "filter-check", "--ring", "depth-zero-f2",
                            "--elements", "x")
    assert code == 1 and doc["filter_regular"] is False
    assert doc["first_failure"] == 0


def test_sop_random_deterministic(capsys):
    _, a, _ = run_json(capsys, "sop-random", "--ring", "two-planes-f2", "--seed", "7")
    _, b, _ = run_json(capsys, "sop-random", "--ring", "two-planes-f2", "--seed", "7")
    assert without_timestamp(a) == without_timestamp(b)
    assert a["seed"] == 7 and len(a["elements"]) == 2


# --- frobenius commands ---

def test_frobenius_power(capsys):
    code, doc, _ = run_json(capsys, "frobenius", "power", "--ring", "regular-f2-xy",
                            "--ideal", "x + y", "--e", "2")
    assert code == 0
    assert doc["generators"] == ["x^4+y^4"]


def test_frobenius_preimage(capsys):
    code, doc, _ = run_json(capsys, "frobenius", "preimage", "--ring",
                            "regular-f2-xy", "--ideal", "x^4 + y^4", "--e", "2")
    assert code == 0
    assert doc["generators"] == ["x+y"]


def test_frobenius_closure_fermat(capsys):
    code, doc, _ = run_json(capsys, "frobenius", "closure", "--ring",
                            "fermat-cubic-p2", "--ideal", "y, z")
    assert code == 0
    assert doc["stabilized_at"] == 1
    assert "x^2" in doc["closure"]


def test_fte_alias_matches_nested_command(capsys):
    code, nested, _ = run_json(capsys, "frobenius", "fte", "--ring",
                               "fermat-cubic-p2", "--ideal", "y, z")
    assert code == 0
    assert nested["fte"] == 1
    code, alias, _ = run_json(capsys, "fte", "--ring", "fermat-cubic-p2",
                              "--ideal", "y, z")
    assert code == 0
    assert without_timestamp(alias) == without_timestamp(nested)


def test_fte_on_p7_quartic_family_at_raised_caps(capsys):
    # the q = 49 bracket (x^196, y^147, x^3 + y^3 + z^3) is its own basis
    # with z ranked first, so no Buchberger run spends the pair budget
    code, doc, _ = run_json(capsys, "fte", "--ring", "fermat-cubic-p7",
                            "--ideal", "x^4,y^3", "--max-pairs", "400000",
                            "--max-degree", "300")
    assert code == 0
    assert doc["fte"] == 0
    assert doc["closure"]["certified"]
    assert doc["closure"]["stabilized_at"] == 0


def test_p7_scan_at_raised_caps_builds_only_small_bases(capsys, monkeypatch, tmp_path):
    # each sample runs in the frame of its parameters, where the q = 49
    # brackets of the random linear systems of parameters are their own
    # Groebner bases; in ring coordinates they took up to 4,851 pairs
    log = tmp_path / "pairs.log"  # "pid pairs", one line per Buchberger run
    build = groebner_module.buchberger_basis

    def logged_build(polys, order, p, caps):
        basis, stats = build(polys, order, p, caps)
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {stats.pairs_processed}\n")
        return basis, stats

    monkeypatch.setattr(groebner_module, "buchberger_basis", logged_build)
    docs = []
    for jobs in ("1", "2"):
        code, doc, _ = run_json(capsys, "fte-scan", "--ring", "fermat-cubic-p7",
                                "--max-pairs", "400000", "--max-degree", "300",
                                "--jobs", jobs)
        assert code == 0 and not doc["any_failures"]
        docs.append(without_timestamp(doc))
    assert docs[0] == docs[1]
    runs = [line.split() for line in log.read_text().splitlines()]
    assert max(int(pairs) for _, pairs in runs) <= 100
    if multiprocessing.get_start_method() == "fork":
        # a forked worker inherits the logged builder
        assert any(int(pid) != os.getpid() for pid, _ in runs)


def test_fte_plain_output_line(capsys):
    code, out, _ = run(capsys, "fte", "--ring", "fermat-cubic-p2",
                       "--ideal", "y, z")
    assert code == 0
    assert "Fte = 1" in out


# --- pipelines ---

def test_fte_scan_regular(capsys):
    code, doc, _ = run_json(capsys, "fte-scan", "--ring", "regular-f2-xy",
                            "--samples", "1", "--jobs", "1")
    assert code == 0
    assert doc["schema"] == "frobex/fte-scan/1"
    assert doc["max_fte"] == 0
    assert doc["any_failures"] is False
    assert len(doc["samples"]) == 6  # 1 random + 5 power families


def test_fte_scan_deterministic_output(capsys):
    argv = ("fte-scan", "--ring", "regular-f2-xy", "--samples", "1",
            "--jobs", "1", "--seed", "11")
    _, a, _ = run_json(capsys, *argv)
    _, b, _ = run_json(capsys, *argv)
    assert without_timestamp(a) == without_timestamp(b)


def test_hsl_json_shape(capsys):
    code, doc, _ = run_json(capsys, "hsl", "--ring", "depth-zero-f2",
                            "--sequence", "y", "--trunc", "4", "--emax", "2",
                            "--jobs", "1")
    assert code == 0
    # the hsl object that verify-inequality embeds
    assert set(doc) == {"schema", "timestamp", "fingerprint", "ring_label",
                        "sequence", "per_index", "overall", "stable",
                        "per_index_stable", "witnesses", "undetermined", "N",
                        "e_max", "probe_N", "probe_e_max"}
    assert doc["schema"] == "frobex/hsl/2"
    assert doc["per_index"] == {"0": 1, "1": 0}
    assert doc["overall"] == 1
    assert doc["stable"] is True
    assert doc["per_index_stable"] == {"0": True, "1": True}
    assert doc["sequence"] == ["y"]
    assert (doc["N"], doc["e_max"], doc["probe_N"], doc["probe_e_max"]) == (4, 2, 6, 3)


def test_hsl_inhomogeneous_sequence_with_a_point_off_the_origin(capsys):
    # (x + x^2, y)^n is zero-dimensional with a component at (1, 0)
    code, out, _ = run(capsys, "hsl", "--ring", "regular-f2-xy", "--sequence",
                       "x + x^2, y", "--trunc", "4", "--emax", "2")
    assert code == 0
    assert "HSL = 0 (stable)" in out


def test_hsl_inhomogeneous_sequence_on_depth_zero_ring(capsys):
    code, doc, _ = run_json(capsys, "hsl", "--ring", "depth-zero-f2",
                            "--sequence", "y + y^2")
    assert code == 0
    assert doc["per_index"] == {"0": 1, "1": 0}


def test_hsl_rejects_bad_sequence(capsys):
    code, doc, _ = run_json(capsys, "hsl", "--ring", "depth-zero-f2",
                            "--sequence", "x", "--trunc", "3", "--emax", "1")
    assert code == 1
    assert doc["schema"] == "frobex/error/1"


@pytest.mark.parametrize("argv,message", [
    (("hsl", "--ring", "regular-f2-xy", "--sequence", "x"),
     "need a full system of parameters"),
    (("hsl", "--ring", "regular-f2-xy", "--sequence", "x + 1, y"),
     "outside the maximal ideal"),
    (("prop34-check", "--ring", "fermat-cubic-p2", "--prefix", "y, z + 1"),
     "outside the maximal ideal"),
    (("filter-check", "--ring", "depth-zero-f2", "--elements", "y + 1"),
     "outside the maximal ideal"),
], ids=["hsl-length", "hsl-unit", "prop34-unit", "filter-check-unit"])
def test_sequence_of_bad_shape_is_usage(capsys, argv, message):
    code, doc, _ = run_json(capsys, *argv)
    assert code == 2
    assert doc["schema"] == "frobex/error/1"
    assert message in doc["error"]["message"]


def test_ns_check_regular(capsys):
    code, doc, _ = run_json(capsys, "ns-check", "--ring", "regular-f2-xy",
                            "--trunc", "4")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["stabilized"]["0"] == 0


def test_ns_check_passes_a_weighted_cohen_macaulay_ring(capsys, tmp_path):
    # sequence a is x, y and sequence b z, x+y+z: their top towers are
    # e(Q_n), 2n^2 and 3n^2, which depend on the degrees of the parameters,
    # so they are not compared; the Koszul oracle agrees with tower a
    path = tmp_path / "w-f2.json"
    path.write_text(json.dumps({"label": "w-f2", "characteristic": 2,
                                "variables": ["x", "y", "z"],
                                "relations": ["x^2*y+z^2"], "grading": [1, 2, 2]}))
    code, doc, _ = run_json(capsys, "ns-check", "--ring", str(path))
    assert code == 0
    assert doc["status"] == "pass" and doc["first_disagreement"] is None
    assert doc["notes"] == ["top towers not compared (the sequences are not all "
                            "linear forms under the standard grading)"]
    assert doc["tables"]["2"]["a"][:2] == [2, 8]
    assert doc["tables"]["2"]["b"][:2] == [3, 12]
    assert doc["oracle"]["2"] == {"1": 2, "2": 8}


def test_prop34_check_fermat(capsys):
    code, doc, _ = run_json(capsys, "prop34-check", "--ring", "fermat-cubic-p2",
                            "--prefix", "y, z", "--trunc", "4", "--emax", "4")
    assert code == 0
    assert doc["ok"] is True
    assert doc["forward"][0]["gen"] == "x^2"


def test_verify_inequality_regular(capsys):
    code, doc, _ = run_json(capsys, "verify-inequality", "--ring", "regular-f2-xy",
                            "--samples", "1", "--trunc", "4", "--jobs", "1")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["holds"] is True
    assert doc["max_fte"] == 0 and doc["hsl_overall"] == 0
    assert doc["scan"]["base_sop"] == ["x", "y"]
    assert doc["hsl"]["overall"] == 0


def test_verify_inequality_same_document_for_every_jobs(capsys):
    runs = [run_json(capsys, "verify-inequality", "--ring", "depth-zero-f2",
                     "--samples", "1", "--trunc", "4", "--jobs", jobs)
            for jobs in ("1", "2")]
    assert runs[0][0] == runs[1][0] == 0
    assert without_timestamp(runs[0][1]) == without_timestamp(runs[1][1])


@pytest.mark.parametrize("seed", ["42", "1801"])
@pytest.mark.parametrize("label", corpus_labels())
def test_verify_inequality_embeds_the_fte_scan_and_hsl_documents(capsys, label, seed):
    # one base sequence: hsl reads its towers on the scan's base
    argv = ("--ring", label, "--seed", seed, "--jobs", "1")
    _, doc, _ = run_json(capsys, "verify-inequality", *argv)
    for command, key in (("fte-scan", "scan"), ("hsl", "hsl")):
        _, part, _ = run_json(capsys, command, *argv)
        assert {k: v for k, v in part.items() if k not in ("schema", "timestamp")} \
            == doc[key], command


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_internal_error_in_a_scan_sample_is_exit_one(capsys, monkeypatch, jobs):
    # only caps, exhausted searches and exponent overflows fail a sample;
    # a broken invariant ends the run (a forked pool worker inherits the
    # patched closure)
    closure = frobenius_module.frobenius_closure

    def broken_closure(I, e_max):
        if [str(g) for g in I.own_gens] == ["x^2", "y"]:
            raise InconsistencyError("closure chain not ascending at level 1")
        return closure(I, e_max)

    monkeypatch.setattr(frobenius_module, "frobenius_closure", broken_closure)
    code, doc, _ = run_json(capsys, "verify-inequality", "--ring", "fermat-cubic-p2",
                            "--jobs", jobs)
    assert code == 1
    assert doc["schema"] == "frobex/error/1"
    assert doc["error"] == {"type": "InconsistencyError",
                            "message": "closure chain not ascending at level 1"}
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("label", ["fermat-cubic-p2", "depth-zero-f2"])
def test_pooled_mechanism_builds_no_basis_in_the_parent(capsys, monkeypatch, label):
    # the scan samples come back from the pool with their closure chains,
    # bases included, and the mechanism trace reads its orders off them
    built, tracing = [], []
    real_basis, real_verify = groebner_module.buchberger_basis, cli_module.verify_inequality

    def basis(*args):
        built.extend(tracing)
        return real_basis(*args)

    def verify(*args):
        tracing.append(label)
        try:
            return real_verify(*args)
        finally:
            tracing.clear()

    monkeypatch.setattr(groebner_module, "buchberger_basis", basis)
    monkeypatch.setattr(cli_module, "verify_inequality", verify)
    code, doc, _ = run_json(capsys, "verify-inequality", "--ring", label, "--jobs", "2")
    assert code == 0
    assert any(m["classes"] for m in doc["mechanism"])
    assert built == []


def test_repeated_command_matches_a_fresh_process(capsys):
    # frames and bases built by an earlier command in the same process must
    # not change a later one's output
    argv = ["verify-inequality", "--ring", "two-planes-f2", "--jobs", "1"]
    for _ in range(2):
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    fresh = subprocess.run(
        [sys.executable, "-c", "import sys; from frobex.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv, "--json"],
        env=env, capture_output=True, text=True, check=True)
    assert without_timestamp(doc) == without_timestamp(json.loads(fresh.stdout))


def test_each_command_shares_bases_only_within_itself(capsys, monkeypatch):
    counts = {"builds": 0, "misses": 0}
    build = groebner_module.buchberger_basis
    handle_basis = IdealHandle.groebner_basis

    def counted_build(polys, order, p, caps):
        counts["builds"] += 1
        return build(polys, order, p, caps)

    def counted_basis(self):
        counts["misses"] += self._gb is None
        return handle_basis(self)

    monkeypatch.setattr(groebner_module, "buchberger_basis", counted_build)
    monkeypatch.setattr(IdealHandle, "groebner_basis", counted_basis)
    argv = ("verify-inequality", "--ring", "depth-zero-f2", "--samples", "1",
            "--trunc", "4", "--jobs", "1")
    seen = []
    for _ in range(2):
        counts.update(builds=0, misses=0)
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0
        seen.append((counts["builds"], counts["misses"], without_timestamp(doc)))
    # the second command builds every basis again: none is kept between
    # commands, and within one command a repeated basis is built once
    assert seen[0] == seen[1]
    assert 0 < seen[0][0] < seen[0][1]


@pytest.mark.parametrize("argv, pools", [
    (("verify-inequality", "--samples", "1", "--trunc", "4", "--jobs", "2"), 1),
    # no phase of ns-check is pooled, so it declares no --jobs
    (("ns-check", "--trunc", "4", "--jobs", "2"), 0),
    (("fte-scan", "--samples", "1", "--jobs", "2"), 1),
    (("hsl", "--sequence", "y", "--trunc", "4", "--jobs", "2"), 1),
])
def test_one_pool_per_command(capsys, monkeypatch, argv, pools):
    entered = []
    mapped = []

    class CountingPool(frobenius_module.ProcessPoolExecutor):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

        def map(self, *args, **kwargs):
            mapped.append(self)
            return super().map(*args, **kwargs)

    monkeypatch.setattr(frobenius_module, "ProcessPoolExecutor", CountingPool)
    code, doc, _ = run_json(capsys, *argv, "--ring", "depth-zero-f2")
    if pools:
        assert code == 0, doc
    else:
        assert code == 2 and doc["schema"] == "frobex/error/1"
    assert len(entered) == pools
    # and one map on each pool: verify-inequality sends its towers and its
    # scan samples together
    assert len(mapped) == pools
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_inequality_checks_emax_before_any_task(capsys, monkeypatch, jobs):
    # every task of the scan and the towers goes through map_tasks
    mapped = []
    map_tasks = frobenius_module.map_tasks

    def counted_map_tasks(*args, **kwargs):
        mapped.append(args)
        return map_tasks(*args, **kwargs)

    for module in (frobenius_module, localcoh_module):
        monkeypatch.setattr(module, "map_tasks", counted_map_tasks)
    code, doc, _ = run_json(capsys, "verify-inequality", "--ring", "two-planes-f2",
                            "--emax", "0", "--jobs", jobs)
    assert code == 1
    assert doc["error"] == {"type": "AlgebraError", "message": "e_max must be >= 1"}
    assert mapped == []
    assert multiprocessing.active_children() == []


def test_jobs_zero_counts_the_cpus_the_process_may_use(capsys, monkeypatch):
    jobs = []
    map_tasks = frobenius_module.map_tasks

    def counted_map_tasks(R, tasks, n):
        jobs.append(n)
        return map_tasks(R, tasks, n)

    monkeypatch.setattr(frobenius_module, "map_tasks", counted_map_tasks)
    monkeypatch.setattr(cli_module.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    code, doc, _ = run_json(capsys, "fte-scan", "--ring", "regular-f2-xy",
                            "--samples", "1", "--jobs", "0")
    assert code == 0, doc
    assert jobs == [1]


def test_cap_trip_in_a_pool_worker_is_exit_three(capsys):
    # traced at seed 42, on verify-inequality's base x+y+u+v, x+v, with each
    # tower in the frame of its sequence: the largest tower runs pop 21
    # pairs, while no run outside the towers pops more than 10, so 15 trips
    # inside a tower task
    runs = [run_json(capsys, "hsl", "--ring", "two-planes-f2",
                     "--max-pairs", "15", "--jobs", jobs)
            for jobs in ("1", "2")]
    assert runs[0][0] == runs[1][0] == 3
    assert runs[1][1]["error"]["type"] == "ResourceCapExceeded"
    assert without_timestamp(runs[0][1]) == without_timestamp(runs[1][1])
    assert multiprocessing.active_children() == []


# --- golden documents ---

GOLDEN = Path(__file__).parent / "golden"

# file name under tests/golden -> the argv that wrote it, with --json
GOLDEN_ARGV = {
    "gb": ("gb", "--ring", "regular-f2-xy", "--ideal", "x^2+y, x*y"),
    "frobenius-closure": ("frobenius", "closure", "--ring", "fermat-cubic-p2",
                          "--ideal", "y,z"),
    # a chain that grows twice: chain_lengths [3, 3, 4, 4, 4]
    "frobenius-closure-quintic": ("frobenius", "closure", "--ring", "fermat-quintic-p2",
                                  "--ideal", "x^2,y"),
    "fte": ("fte", "--ring", "fermat-cubic-p7", "--ideal", "x^3,y"),
    "fte-scan": ("fte-scan", "--jobs", "1", "--ring", "regular-f2-xy"),
    "hsl": ("hsl", "--ring", "fermat-cubic-p2"),
    "ns-check": ("ns-check", "--ring", "two-planes-f2"),
    "prop34-check": ("prop34-check", "--ring", "fermat-cubic-p2", "--prefix", "y,z"),
    "verify-inequality": ("verify-inequality", "--jobs", "1", "--ring", "depth-zero-f2"),
}


def untimed(text):
    return [line for line in text.splitlines() if '"timestamp"' not in line]


@pytest.mark.parametrize("name", GOLDEN_ARGV)
def test_json_document_matches_golden_text(capsys, name):
    # the text itself, so that key order and layout count as well as values
    code, out, _ = run(capsys, *GOLDEN_ARGV[name], "--json")
    assert code == 0
    assert untimed(out) == untimed((GOLDEN / f"{name}.json").read_text())


# --- failed checks ---

def _tower_b_shifted(i, level):
    """limit_system, with sequence b's tower of degree i one longer from the
    given level on; ns-check builds the towers of a and b in turn, a first."""
    real, calls = localcoh_module.limit_system, itertools.count(1)

    def limit_system(R, fseq, j, N):
        system = real(R, fseq, j, N)
        if next(calls) % 2 or j != i:
            return system
        lengths = [v + (k + 1 >= level) for k, v in enumerate(system.lengths())]
        return types.SimpleNamespace(lengths=lambda: lengths)
    return limit_system


def _koszul_moved(i, to_edge):
    """koszul_cohomology_table, with one more class in degree 0 of H^i, or
    that class moved from degree 0 to the window's top degree."""
    real = localcoh_module.koszul_cohomology_table

    def koszul_cohomology_table(R, powers, lo, hi):
        table = real(R, powers, lo, hi)
        if to_edge:
            table[i][0] -= 1
            table[i][hi] += 1
        else:
            table[i][0] += 1
        return table
    return koszul_cohomology_table


# regular-f2-xy at --trunc 4: H^0 = H^1 = 0, and the top tower is 1, 4, 9, 16
NS_BREAKS = {
    "top-tower": (_tower_b_shifted(2, 3), "fail",
                  "top tower differs at level 3: 9 vs 10", None),
    "stabilized-tail": (_tower_b_shifted(1, 1), "fail",
                        "stabilized lengths differ at i=1: 0 vs 1", None),
    "oracle-top": (_koszul_moved(2, False), "fail",
                   "oracle mismatch at top degree, n=1: koszul 2 vs tower 1", None),
    "oracle-below-top": (_koszul_moved(1, False), "fail",
                         "oracle mismatch at i=1, n=1: koszul 1 vs stabilized tower 0",
                         None),
    "oracle-window": (_koszul_moved(2, True), "inconclusive", None,
                      "oracle window too small at i=2, n=1"),
}


@pytest.mark.parametrize("case", NS_BREAKS)
def test_ns_check_failure_branches(capsys, monkeypatch, case):
    broken, status, first, note = NS_BREAKS[case]
    monkeypatch.setattr(localcoh_module, broken.__name__, broken)
    argv = ("ns-check", "--ring", "regular-f2-xy", "--trunc", "4")
    code, doc, _ = run_json(capsys, *argv)
    assert (code, doc["status"], doc["first_disagreement"]) == (1, status, first)
    assert note is None or note in doc["notes"]
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 1 and f"status: {status}" in lines
    assert [line for line in lines if line.startswith("first disagreement: ")] == \
        ([f"first disagreement: {first}"] if first else [])


def _hsl_replaced(**fields):
    real = localcoh_module._hsl_report
    return lambda *args: dataclasses.replace(real(*args), **fields)


# fermat-cubic-p2 passes with max_fte = hsl_overall = 1 and no note
VI_BREAKS = {
    "mechanism-over-fte": (
        "chain_level", lambda g, levels, e_max: e_max + 1,
        {"status": "fail", "holds": True, "mechanism_ok": False}, None),
    "does-not-hold": (
        "_hsl_report", _hsl_replaced(overall=2),
        {"status": "fail", "holds": False, "mechanism_ok": True}, None),
    "unstable-hsl": (
        "_hsl_report", _hsl_replaced(stable=False,
                                     per_index_stable={0: True, 1: False, 2: True}),
        {"status": "inconclusive", "holds": True, "mechanism_ok": True},
        "HSL degree 1 is unstable: the probe run disagreed with the base run, "
        "or the base run read none of its nonzero levels"),
}


@pytest.mark.parametrize("case", VI_BREAKS)
def test_verify_inequality_failure_branches(capsys, monkeypatch, case):
    name, broken, want, note = VI_BREAKS[case]
    monkeypatch.setattr(localcoh_module, name, broken)
    argv = ("verify-inequality", "--ring", "fermat-cubic-p2", "--samples", "0",
            "--trunc", "4", "--jobs", "1")
    code, doc, _ = run_json(capsys, *argv)
    assert code == 1
    assert {k: doc[k] for k in want} == want
    assert doc["notes"] == ([note] if note else [])
    violating = [c for m in doc["mechanism"] for c in m["classes"] if c.get("violating")]
    assert bool(violating) == (not want["mechanism_ok"])
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 1 and f"status: {want['status']}" in lines
    assert [line for line in lines if line.startswith("note: ")] == \
        ([f"note: {note}"] if note else [])


def test_verify_inequality_on_an_hsl_degree_that_reads_no_level(capsys):
    # at N = 4 < p = 7 the top tower of fermat-cubic-p7 has no level with a
    # Frobenius map, so its HSL of 0 is no reading, and the verdict no pass
    argv = ("verify-inequality", "--ring", "fermat-cubic-p7", "--trunc", "4",
            "--jobs", "1")
    code, doc, _ = run_json(capsys, *argv)
    assert (code, doc["status"], doc["hsl_overall"]) == (1, "inconclusive", 0)
    assert doc["hsl"]["undetermined"]["2"] == [1, 2, 3, 4]
    assert doc["hsl"]["per_index_stable"] == {"0": True, "1": True, "2": False}
    assert doc["notes"] == [
        "HSL degree 2 is unstable: the probe run disagreed with the base run, "
        "or the base run read none of its nonzero levels"]


def _witnesses_outside_the_closure():
    """nilpotent_part, with each witness replaced by the unit, which lies in
    no closure of a proper ideal."""
    real = localcoh_module.nilpotent_part

    def nilpotent_part(system, e_max):
        report = real(system, e_max)
        return dataclasses.replace(report, witnesses=[
            dataclasses.replace(w, poly=w.poly.ring.one()) for w in report.witnesses])
    return nilpotent_part


@pytest.mark.parametrize("e, broken", [("0", "forward"), ("1", "backward")])
def test_prop34_check_failure_branches(capsys, monkeypatch, e, broken):
    # at e = 0 the closure class x^2, of order 1, violates the forward
    # direction, and no witness is sought
    if broken == "backward":
        monkeypatch.setattr(localcoh_module, "nilpotent_part",
                            _witnesses_outside_the_closure())
    code, doc, _ = run_json(capsys, "prop34-check", "--ring", "fermat-cubic-p2",
                            "--prefix", "y, z", "--trunc", "4", "--emax", "4",
                            "--e", e)
    assert code == 1 and doc["ok"] is False
    for side in ("forward", "backward"):
        assert doc[f"{side}_ok"] is (side != broken)
        assert any(entry.get("violating") for entry in doc[side]) is (side == broken)
    assert doc[broken]


def test_a_chain_level_below_the_one_before_it_is_exit_one(capsys, monkeypatch):
    # every closure chain level is checked to contain the level before it,
    # whether frobenius_closure or chain_level builds it
    monkeypatch.setattr(frobenius_module, "qpower_preimage",
                        lambda K, e: IdealHandle(K.ring))
    R = load_corpus_ring("fermat-cubic-p2")
    I = ideal(R, "y", "z")
    message = "closure chain not ascending at level 1"
    with pytest.raises(InconsistencyError, match=message):
        frobenius_module.frobenius_closure(I)
    with pytest.raises(InconsistencyError, match=message):
        frobenius_module.chain_level(R.parse("x^2"), [I], 1)
    for argv in (("fte", "--ideal", "y, z"), ("prop34-check", "--prefix", "y, z")):
        code, doc, _ = run_json(capsys, *argv, "--ring", "fermat-cubic-p2")
        assert code == 1
        assert doc["error"] == {"type": "InconsistencyError", "message": message}


# --- exit codes and error documents ---

def test_unknown_command_is_usage(capsys):
    assert run(capsys, "not-a-command")[0] == 2


def test_missing_required_argument_is_usage(capsys):
    assert run(capsys, "gb", "--ring", "regular-f2-xy")[0] == 2


def test_missing_ring_is_usage(capsys):
    code, doc, _ = run_json(capsys, "gb", "--ideal", "x")
    assert code == 2
    assert doc["error"]["type"] == "RingSpecError"


def test_unknown_ring_is_usage(capsys):
    code, doc, _ = run_json(capsys, "dim", "--ring", "missing-ring")
    assert code == 2
    assert "corpus label" in doc["error"]["message"]


def test_parse_error_is_usage(capsys):
    code, doc, _ = run_json(capsys, "gb", "--ring", "regular-f2-xy",
                            "--ideal", "x + !")
    assert code == 2
    assert doc["error"]["type"] == "ParseError"


@pytest.mark.parametrize("argv", [
    ("gb", "--ring", "regular-f2-xy", "--ideal", "x", "--bogus"),
    ("gb", "--ring", "regular-f2-xy", "--ideal", "x", "--max-pairs", "0"),
    ("ns-check", "--ring", "regular-f2-xy", "--jobs", "2"),
    ("fte", "--ring", "regular-f2-xy", "--ideal", "x", "--window", "2"),
], ids=["unknown-flag", "flag-below-bound", "undeclared-flag", "removed-window-flag"])
def test_usage_error_under_json_is_the_error_document(capsys, argv):
    code, doc, _ = run_json(capsys, *argv)
    assert code == 2
    assert doc["schema"] == "frobex/error/1"
    assert doc["error"]["type"] == "RingSpecError"
    assert doc["exit_code"] == 2


def test_flags_match_only_in_full(capsys):
    # --jso is neither --json nor accepted, so it is a plain usage error
    code, out, err = run(capsys, "gb", "--ring", "regular-f2-xy", "--ideal", "x", "--jso")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --jso" in err
    # while --json, wherever it stands, still gives the error document
    code, out, _ = run(capsys, "gb", "--ring", "regular-f2-xy", "--ideal", "x",
                       "--json", "--bogus")
    doc = json.loads(out)
    assert code == 2
    assert doc["schema"] == "frobex/error/1"
    assert "--bogus" in doc["error"]["message"]


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "ns-check", "--help")
    assert code == 0
    assert out.startswith("usage: frobex ns-check")


def test_bad_flag_value_is_usage(capsys):
    code, _, _ = run(capsys, "hsl", "--ring", "depth-zero-f2", "--trunc", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("prop34-check", "--ring", "fermat-cubic-p2", "--prefix", "y,z", "--n", "0"),
    ("prop34-check", "--ring", "fermat-cubic-p2", "--prefix", "y,z", "--n", "-2"),
    ("frobenius", "power", "--ring", "regular-f2-xy", "--ideal", "x", "--e", "-1"),
    ("frobenius", "preimage", "--ring", "regular-f2-xy", "--ideal", "x",
     "--e", "-1"),
], ids=["prop34-n0", "prop34-n-2", "power-e-1", "preimage-e-1"])
def test_bad_exponent_flag_is_usage(capsys, argv):
    code, doc, _ = run_json(capsys, *argv)
    assert code == 2
    assert doc["schema"] == "frobex/error/1"


@pytest.mark.parametrize("argv", [
    ("hsl", "--ring", "depth-zero-f2", "--sequence", "y", "--emax", "0"),
    ("fte-scan", "--ring", "depth-zero-f2", "--emax", "0"),
])
def test_hsl_emax_zero_is_check_failure(capsys, monkeypatch, argv):
    # no Frobenius chain is read at depth 0, so no HSL number is witnessed
    # and no closure is found: the command fails before any task runs
    mapped = []
    map_tasks = frobenius_module.map_tasks

    def counted_map_tasks(*args, **kwargs):
        mapped.append(args)
        return map_tasks(*args, **kwargs)

    for module in (frobenius_module, localcoh_module):
        monkeypatch.setattr(module, "map_tasks", counted_map_tasks)
    code, doc, _ = run_json(capsys, *argv)
    assert code == 1
    assert doc["error"] == {"type": "AlgebraError",
                            "message": "e_max must be >= 1"}
    assert mapped == []


def test_algebra_error_is_check_failure(capsys):
    code, doc, _ = run_json(capsys, "frobenius", "closure", "--ring",
                            "regular-f2-xy", "--ideal", "x", "--emax", "0")
    assert code == 1
    assert doc["error"]["type"] == "AlgebraError"


def test_resource_cap_is_exit_three(capsys):
    # the S-polynomial y^5 of x^3 + y^3 and x*y^2 grows two degrees past them
    code, doc, _ = run_json(capsys, "gb", "--ring", "regular-f2-xy",
                            "--ideal", "x^3 + y^3, x*y^2", "--max-degree", "1")
    assert code == 3
    assert doc["schema"] == "frobex/error/1"
    assert doc["error"] == {"type": "ResourceCapExceeded",
                            "message": "degree cap exceeded: 5 > 3 + 1"}
    assert doc["exit_code"] == 3


def test_resource_cap_during_ring_load_is_exit_three(capsys):
    # the four relations of two-planes-f2 pop six pairs
    code, doc, _ = run_json(capsys, "dim", "--ring", "two-planes-f2",
                            "--max-pairs", "1")
    assert code == 3
    assert doc["error"]["message"] == "pair budget exhausted: 1"


def test_corpus_listing_builds_its_rings_under_the_caps(capsys):
    # two-planes-f2's relations are over a pair budget of 1
    code, doc, _ = run_json(capsys, "corpus", "--max-pairs", "1")
    assert code == 3
    assert doc["error"]["type"] == "ResourceCapExceeded"


def test_plain_errors_go_to_stderr(capsys):
    code, out, err = run(capsys, "dim", "--ring", "missing-ring")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_ring_spec_file_loading(tmp_path, capsys):
    spec = {"label": "tiny", "characteristic": 2, "variables": ["a", "b"],
            "relations": ["a*b"]}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(spec))
    code, doc, _ = run_json(capsys, "dim", "--ring", str(path))
    assert code == 0
    assert doc["ring_label"] == "tiny"
    assert doc["dimension"] == 1
    path.write_text("{not json")
    assert run_json(capsys, "dim", "--ring", str(path))[0] == 2


def _artinian_spec(tmp_path):
    path = tmp_path / "artinian.json"
    path.write_text(json.dumps({"label": "artinian-f2", "characteristic": 2,
                                "variables": ["x", "y"], "relations": ["x^2", "y^2"]}))
    return str(path)


@pytest.mark.parametrize("command", ["fte-scan", "verify-inequality"])
def test_scan_of_a_zero_dimensional_ring_is_usage(capsys, tmp_path, command):
    code, doc, _ = run_json(capsys, command, "--ring", _artinian_spec(tmp_path))
    assert code == 2
    assert doc["error"]["message"] == "scan needs a ring of positive dimension"


def test_ns_check_names_dimension_zero_as_the_oracle_skip(capsys, tmp_path):
    # the relations are homogeneous; the oracle is skipped for dimension 0
    code, doc, _ = run_json(capsys, "ns-check", "--ring", _artinian_spec(tmp_path))
    assert code == 0
    assert doc["notes"] == ["graded oracle skipped (dimension 0)"]


# --- flags ---

def _leaf_parsers(parser, path=()):
    """(command path, parser) for each subcommand that runs a handler."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield " ".join(path), parser
    for group in groups:
        for name, sp in group.choices.items():
            yield from _leaf_parsers(sp, path + (name,))


def _args_reads():
    """For each function of frobex.cli, the args.<name> it reads, directly
    or through the module's functions it calls."""
    tree = ast.parse(Path(cli_module.__file__).read_text(encoding="utf-8"))
    reads, calls = {}, {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            nodes = list(ast.walk(fn))
            reads[fn.name] = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                              and isinstance(n.value, ast.Name) and n.value.id == "args"}
            calls[fn.name] = {n.func.id for n in nodes if isinstance(n, ast.Call)
                              and isinstance(n.func, ast.Name)}
    out = {}
    for name in reads:
        seen, todo = set(), [name]
        while todo:
            f = todo.pop()
            if f in reads and f not in seen:
                seen.add(f)
                todo.extend(calls[f])
        out[name] = set().union(*(reads[f] for f in seen))
    return out


def test_each_subcommand_declares_only_the_flags_it_reads():
    # main() reads --json and the caps, and args.func, for every command
    reads = _args_reads()
    unread, undeclared = {}, {}
    for path, sp in _leaf_parsers(cli_module.build_parser()):
        declared = {a.dest for a in sp._actions if not isinstance(a, argparse._HelpAction)}
        read = (reads[sp.get_default("func").__name__] | reads["main"]) - {"func"}
        if declared - read:
            unread[path] = sorted(declared - read)
        if read - declared:
            undeclared[path] = sorted(read - declared)
    assert unread == {}
    assert undeclared == {}


# --- README examples ---

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples():
    """(command line, output lines shown under it) for each `$ frobex` line."""
    examples, shown = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ frobex "):
            shown = []
            examples.append((line.removeprefix("$ frobex "), shown))
        elif shown is not None and line and not line.startswith("```"):
            shown.append(line)
        else:
            shown = None
    return examples


def _untimed(lines):
    return [re.sub(r"time=\S+", "time=", line) for line in lines]


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("command, shown", README_EXAMPLES,
                         ids=[command for command, _ in README_EXAMPLES])
def test_readme_example_runs(capsys, command, shown):
    code, out, err = run(capsys, *shlex.split(command))
    assert code == 0, err
    if shown:
        assert _untimed(out.splitlines()) == _untimed(shown)


def test_readme_python_blocks_run():
    # each fenced python block, at the indentation of its list item if any
    blocks = re.findall(r"^( *)```python\n(.*?)^\1```",
                        README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    assert blocks
    for _, code in blocks:
        exec(compile(textwrap.dedent(code), str(README), "exec"), {})
