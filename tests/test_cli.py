"""Command line interface: exit codes, JSON documents, determinism."""

import argparse
import ast
import functools
import json
import multiprocessing
import re
import shlex
from pathlib import Path

import pytest

import frobex.cli as cli_module
import frobex.frobenius as frobenius_module
import frobex.groebner as groebner_module
import frobex.localcoh as localcoh_module
from frobex.cli import main
from frobex.groebner import IdealHandle, saturation


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
    monkeypatch.setattr(cli_module, "saturation",
                        functools.partial(saturation, max_steps=2))
    code, doc, _ = run_json(capsys, "sat", "--ring", "regular-f2-xy",
                            "--ideal", "x^2*y", "--by", "x")
    assert code == 3
    assert doc["error"]["type"] == "ResourceCapExceeded"


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
    assert set(doc) == {"schema", "timestamp", "ring_label", "per_i",
                        "overall", "stable", "params"}
    assert doc["schema"] == "frobex/hsl/1"
    assert doc["per_i"] == {"0": 1, "1": 0}
    assert doc["overall"] == 1
    assert doc["stable"] is True
    params = doc["params"]
    for key in ("seed", "N", "e_max", "probe_N", "probe_e_max", "sequence",
                "fingerprint", "per_i_stable", "witnesses", "undetermined"):
        assert key in params
    assert params["sequence"] == ["y"]


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
    assert doc["per_i"] == {"0": 1, "1": 0}


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

    def counted_map_tasks(fn, R, tasks, n):
        jobs.append(n)
        return map_tasks(fn, R, tasks, n)

    monkeypatch.setattr(frobenius_module, "map_tasks", counted_map_tasks)
    monkeypatch.setattr(cli_module.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    code, doc, _ = run_json(capsys, "fte-scan", "--ring", "regular-f2-xy",
                            "--samples", "1", "--jobs", "0")
    assert code == 0, doc
    assert jobs == [1]


def test_cap_trip_in_a_pool_worker_is_exit_three(capsys):
    # traced at seed 42: each top-tower run pops 45 pairs, while no run
    # outside the towers pops more than 28, so 36 trips inside a tower task
    runs = [run_json(capsys, "hsl", "--ring", "two-planes-f2",
                     "--max-pairs", "36", "--jobs", jobs)
            for jobs in ("1", "2")]
    assert runs[0][0] == runs[1][0] == 3
    assert runs[1][1]["error"]["type"] == "ResourceCapExceeded"
    assert without_timestamp(runs[0][1]) == without_timestamp(runs[1][1])
    assert multiprocessing.active_children() == []


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
], ids=["unknown-flag", "flag-below-bound", "undeclared-flag"])
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
    code, doc, _ = run_json(capsys, "gb", "--ring", "regular-f2-xy",
                            "--ideal", "x^3 + y", "--max-degree", "2")
    assert code == 3
    assert doc["schema"] == "frobex/error/1"
    assert doc["error"]["type"] == "ResourceCapExceeded"
    assert doc["exit_code"] == 3


def test_resource_cap_during_ring_load_is_exit_three(capsys):
    code, _, _ = run_json(capsys, "dim", "--ring", "fermat-cubic-p2",
                          "--max-degree", "2")
    assert code == 3


def test_corpus_listing_builds_its_rings_under_the_caps(capsys):
    # the cubic relation of fermat-cubic-p2 is over a degree cap of 2
    code, doc, _ = run_json(capsys, "corpus", "--max-degree", "2")
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
