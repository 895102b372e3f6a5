"""End-to-end checks of the command line front end and the JSON loaders."""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import cases
from cases import acyclic_pq, chk_loop, empty_machine, flip_algebra, three_state_automaton
from relfix.cli import main
from relfix import cli, jsonio, nu
from relfix.errors import BijectionViolation, BudgetExceeded, SchemaError
from relfix.finstruct import FinAlgebra, FinCoalgebra
from relfix.fractal import RES_LIMIT
from relfix.lattice import TransitionSystem
from relfix.nu import TreePrefix
from relfix.sigterm import Signature

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "scripts" / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    body = json.loads(captured.out) if captured.out else None
    return code, body


# ---------------------------------------------------------------- subcommands


def test_hylo_count(capsys):
    code, body = run(capsys, "hylo", DATA / "two_cycle.json", DATA / "flip_algebra.json")
    assert code == 0
    assert body == {"count": 2}


def test_hylo_explicit_count_flag(capsys):
    code, body = run(
        capsys, "hylo", DATA / "two_cycle.json", DATA / "flip_algebra.json", "--count"
    )
    assert code == 0
    assert body == {"count": 2}


def test_hylo_empty_machine(capsys, tmp_path):
    coalg = empty_machine()
    f = tmp_path / "empty.json"
    f.write_text(jsonio.canonical_dumps(jsonio.coalgebra_to_json(coalg)))
    code, body = run(capsys, "hylo", f, DATA / "flip_algebra.json")
    assert (code, body["count"]) == (0, 1)


def test_hylo_odd_loop_has_no_solution(capsys, tmp_path):
    coalg = chk_loop()
    f = tmp_path / "loop.json"
    f.write_text(jsonio.canonical_dumps(jsonio.coalgebra_to_json(coalg)))
    code, body = run(capsys, "hylo", f, DATA / "flip_algebra.json")
    assert (code, body["count"]) == (0, 0)


def test_hylo_list_in_enumeration_order(capsys):
    code, body = run(
        capsys, "hylo", DATA / "two_cycle.json", DATA / "flip_algebra.json", "--list"
    )
    assert code == 0
    assert body["morphisms"] == [
        {"q0": "0", "q1": "1"},
        {"q0": "1", "q1": "0"},
    ]


def test_hylo_budget_exit_code(capsys):
    code = main([
        "hylo", str(DATA / "two_cycle.json"), str(DATA / "flip_algebra.json"),
        "--budget", "3",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_safety_safe(capsys):
    code, body = run(capsys, "safety", DATA / "chain_safe.json")
    assert code == 0
    # the trim chain is already stationary when the first step is computed
    assert body == {"result": "safe", "stage": 0}


def test_safety_unsafe(capsys):
    code, body = run(capsys, "safety", DATA / "chain_unsafe.json")
    assert code == 3
    assert body["result"] == "unsafe"
    assert body["stage"] == 0
    assert body["witness"] == "s2"


def test_safety_precondition_violation(capsys, tmp_path):
    obj = jsonio.load_json(DATA / "chain_safe.json")
    obj["safe"] = ["s0"]  # F({s0}) = {s0, s1} is not inside it
    bad = tmp_path / "bad.json"
    bad.write_text(jsonio.canonical_dumps(obj))
    code, body = run(capsys, "safety", bad)
    assert code == 2
    assert body is None


def test_mu_eq_named_equality(capsys):
    code, body = run(
        capsys, "mu-eq", DATA / "three_state.json",
        "q0", "cross(cross(q0,q1),chk(q2,q2))",
    )
    assert code == 0
    assert body["result"] == "equal"
    assert body["generators"] == [
        "q0 = cross(q1,q2)",
        "q1 = cross(q0,q1)",
        "q2 = chk(q2,q2)",
    ]


def test_mu_eq_reflexive(capsys):
    code, body = run(capsys, "mu-eq", DATA / "three_state.json", "q1", "q1")
    assert (code, body["result"]) == (0, "equal")


def test_mu_eq_distinct(capsys):
    code, body = run(capsys, "mu-eq", DATA / "three_state.json", "q0", "q1")
    assert code == 0
    assert body["result"] == "distinct"


def test_mu_eq_parse_error(capsys):
    code, body = run(capsys, "mu-eq", DATA / "three_state.json", "q0(", "q1")
    assert code == 2
    assert body is None


def test_mu_eq_foreign_variable(capsys):
    code, body = run(capsys, "mu-eq", DATA / "three_state.json", "zz", "q1")
    assert code == 2


def test_galois(capsys):
    code, body = run(capsys, "galois", DATA / "chain_safe.json")
    assert code == 0
    assert body == {
        "holds": True,
        "forward": True,
        "backward": True,
        "mu_post": ["s0", "s1"],
        "nu_pre": ["s0", "s1"],
    }


def test_galois_explicit_starts(capsys):
    code, body = run(
        capsys, "galois", DATA / "chain_safe.json", "--post", "s2", "--pre", "s0,s1,s2"
    )
    assert code == 0
    assert body["mu_post"] == ["s2"]
    assert body["nu_pre"] == ["s0", "s1", "s2"]


def test_nu_enum(capsys):
    code, body = run(
        capsys, "nu-enum", DATA / "flip_algebra.json", "--root", "0", "--depth", "1"
    )
    assert code == 0
    assert body["count"] == 2
    assert body["prefixes"][0] == {
        "label": "0", "op": "cross", "children": [{"label": "0"}]
    }
    assert body["prefixes"][1] == {
        "label": "0", "op": "chk", "children": [{"label": "1"}]
    }


def test_nu_enum_output_revalidates(capsys):
    code, body = run(
        capsys, "nu-enum", DATA / "flip_algebra.json", "--root", "0", "--depth", "2"
    )
    assert code == 0
    for node in body["prefixes"]:
        jsonio.prefix_from_json(node)  # raises SchemaError on malformed output


def test_nu_enum_budget(capsys):
    code, body = run(
        capsys, "nu-enum", DATA / "flip_algebra.json",
        "--root", "0", "--depth", "6", "--budget", "5",
    )
    assert code == 1


def test_nu_enum_bad_root(capsys):
    code, body = run(
        capsys, "nu-enum", DATA / "flip_algebra.json", "--root", "9", "--depth", "1"
    )
    assert code == 2


def test_nu_check_guided(capsys):
    code, body = run(
        capsys, "nu-check", DATA / "flip_algebra.json", DATA / "guided_prefix.json"
    )
    assert code == 0
    assert body == {"guided": True}


def test_nu_check_unguided(capsys, tmp_path):
    prefix = TreePrefix("1", "cross", (TreePrefix("0"),))  # cross(0) = 0, not 1
    f = tmp_path / "p.json"
    f.write_text(jsonio.canonical_dumps(
        {"format": 1, "kind": "prefix", "root": jsonio.prefix_to_json(prefix)}
    ))
    code, body = run(capsys, "nu-check", DATA / "flip_algebra.json", f)
    assert code == 0
    assert body == {"guided": False}


def test_nu_check_foreign_label(capsys, tmp_path):
    f = tmp_path / "p.json"
    f.write_text(jsonio.canonical_dumps(
        {"format": 1, "kind": "prefix", "root": {"label": "7"}}
    ))
    code, body = run(capsys, "nu-check", DATA / "flip_algebra.json", f)
    assert code == 2


def test_cartesian(capsys):
    code, body = run(capsys, "cartesian", DATA / "three_state.json")
    assert code == 0
    assert body == {
        "count": 3,
        "fixed_points": [[], ["q2"], ["q0", "q1", "q2"]],
    }


def test_cartesian_classify(capsys):
    code, body = run(capsys, "cartesian", DATA / "three_state.json", "--classify")
    assert code == 0
    assert body["classification"][1] == {
        "subset": ["q2"],
        "morphism": {"q0": "0", "q1": "0", "q2": "1"},
    }


def test_cartesian_bound(capsys):
    code, body = run(capsys, "cartesian", DATA / "three_state.json", "--bound", "2")
    assert code == 1


def test_recursive_negative(capsys):
    code, body = run(capsys, "recursive", DATA / "two_cycle.json", "--max-carrier", "2")
    assert code == 0
    assert body == {"algebras_tested": 3, "max_carrier": 2, "recursive": False}


def test_recursive_positive(capsys, tmp_path):
    f = tmp_path / "m.json"
    f.write_text(jsonio.canonical_dumps(jsonio.coalgebra_to_json(acyclic_pq())))
    code, body = run(capsys, "recursive", f, "--max-carrier", "2")
    assert code == 0
    assert body == {"algebras_tested": 33, "max_carrier": 2, "recursive": True}


def test_recursive_refuses_max_carrier_below_one(capsys):
    # with no algebra tested, the cyclic two_cycle machine would pass as recursive
    for value in ("0", "-1"):
        assert main(["recursive", str(DATA / "two_cycle.json"), "--max-carrier", value]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: --max-carrier {value} is below 1\n")


def test_sierpinski(capsys, tmp_path):
    out = tmp_path / "carpet.pgm"
    code, body = run(capsys, "sierpinski", "--depth", "1", "--res", "3", "--out", out)
    assert code == 0
    assert body["inside"] == 8
    raw = out.read_bytes()
    assert raw.startswith(b"P5\n3 3\n255\n")
    assert raw[-9:] == bytes([0, 0, 0, 0, 255, 0, 0, 0, 0])


def test_carpet_member(capsys):
    code, body = run(capsys, "carpet-member", "1/2", "1/2", "--depth", "3")
    assert (code, body["member"]) == (0, False)
    code, body = run(capsys, "carpet-member", "0", "0", "--depth", "3")
    assert (code, body["member"]) == (0, True)


def test_carpet_member_outside_unit_square(capsys):
    code, body = run(capsys, "carpet-member", "2", "0", "--depth", "3")
    assert code == 2


def test_carpet_member_refuses_a_huge_decimal_exponent():
    start = time.perf_counter()
    proc = run_process("carpet-member", "1e-100000000", "0.5", timeout=10)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stderr == "error: x has decimal exponent -100000000, over the bound 2097152\n"


def test_selftest(capsys):
    code, body = run(capsys, "selftest", "--trials", "5", "--seed", "3")
    assert code == 0
    assert body["failures"] == []
    assert body["checks"] == 35


def test_selftest_failure_exits_1_and_prints_its_document(capsys, monkeypatch):
    def violated(*_):
        raise BijectionViolation("next-time fixed points and square solutions do not match")

    monkeypatch.setattr(nu, "classify_cartesian", violated)
    code, body = run(capsys, "selftest", "--trials", "1")
    assert code == 1
    assert body == {"seed": 0, "trials": 1, "checks": 7, "failures": ["cartesian[0]"]}


# ------------------------------------------------------------- error handling


def test_schema_rejections(capsys, tmp_path):
    cases = [
        {"format": 2, "kind": "algebra"},                       # wrong version
        {"format": 1, "kind": "coalgebra"},                     # wrong kind for algebra
        {"format": 1, "kind": "algebra", "signature": {"symbols": []}},  # no carrier
    ]
    for i, obj in enumerate(cases):
        f = tmp_path / f"bad{i}.json"
        f.write_text(json.dumps(obj))
        code, body = run(capsys, "hylo", DATA / "two_cycle.json", f)
        assert code == 2, obj


def test_not_json(capsys, tmp_path):
    f = tmp_path / "junk.json"
    f.write_text("not json at all")
    code, body = run(capsys, "safety", f)
    assert code == 2


def test_missing_file(capsys, tmp_path):
    code, body = run(capsys, "safety", tmp_path / "absent.json")
    assert code == 2


def run_process(*argv, timeout=60, **env_vars):
    env = dict(cases.child_env(), **env_vars)
    return subprocess.run(
        [sys.executable, "-m", "relfix", *map(str, argv)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_galois_names_the_first_unknown_state_under_any_hash_seed():
    # starts keep the order written, so string hashing cannot pick the state named
    for seed in ("0", "2"):
        proc = run_process(
            "galois", DATA / "chain_unsafe.json", "--post", "a,b,c,d", "--pre", "c",
            PYTHONHASHSEED=seed,
        )
        assert (proc.returncode, proc.stderr) == (2, "error: 'a' is not a state\n")


def test_too_deep_prefix_is_an_input_error(tmp_path):
    # built as text: json.dump itself would recurse this deep
    depth = 3000
    node = '{"label": "0", "op": "cross", "children": ['
    root = node * depth + '{"label": "0"}' + "]}" * depth
    f = tmp_path / "deep.json"
    f.write_text('{"format": 1, "kind": "prefix", "root": ' + root + "}")
    proc = run_process("nu-check", DATA / "flip_algebra.json", f)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_deep_nu_enum_is_refused_by_its_budget():
    proc = run_process(
        "nu-enum", DATA / "flip_algebra.json", "--root", "0", "--depth", "2000",
        "--budget", "1000",
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: enumeration of size 1001 exceeds budget 1000\n"


def test_nu_enum_refuses_while_listing_levels():
    start = time.perf_counter()
    proc = run_process(
        "nu-enum", DATA / "flip_algebra.json", "--root", "0", "--depth", "10000000",
        "--budget", "10", timeout=10,
    )
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stderr == "error: enumeration of size 11 exceeds budget 10\n"


def test_wide_symbol_fibers_are_refused_by_the_budget(tmp_path):
    f = tmp_path / "wide.json"
    f.write_text(
        '{"format": 1, "kind": "algebra", "signature": {"symbols": [{"name": "c", "arity": 0}, '
        '{"name": "p", "arity": 30}]}, "carrier": ["0", "1"], "default": "0", "table": '
        '[{"op": "c", "args": [], "out": "1"}]}\n'
    )
    start = time.perf_counter()
    proc = run_process("nu-enum", f, "--root", "1", "--depth", "1", "--budget", "10", timeout=10)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stderr == f"error: enumeration of size {1 + 30 * 2**30} exceeds budget 10\n"


def test_nu_enum_budget_counts_printed_nodes(tmp_path):
    # one shared node per level, but 2^21 - 1 nodes printed at depth 20
    f = tmp_path / "b2.json"
    f.write_text(
        '{"format": 1, "kind": "algebra", "signature": {"symbols": [{"name": "b", "arity": 2}]}, '
        '"carrier": ["0"], "table": [{"op": "b", "args": ["0", "0"], "out": "0"}]}\n'
    )
    start = time.perf_counter()
    proc = run_process("nu-enum", f, "--root", "0", "--depth", "20", timeout=10)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stderr == "error: enumeration of size 1000001 exceeds budget 1000000\n"


def test_nu_enum_sizes_a_huge_arity_without_its_power(tmp_path):
    f = tmp_path / "huge.json"
    f.write_text(
        '{"format": 1, "kind": "algebra", "signature": {"symbols": [{"name": "c", "arity": 0}, '
        '{"name": "p", "arity": 2000000000}]}, "carrier": ["0", "1"], "default": "0", "table": '
        '[{"op": "c", "args": [], "out": "1"}]}\n'
    )
    start = time.perf_counter()
    proc = run_process("nu-enum", f, "--root", "1", "--depth", "1", timeout=10)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stderr == "error: enumeration of size 1000001 exceeds budget 1000000\n"


def test_cartesian_refuses_the_meet_row_of_an_unused_wide_symbol(tmp_path):
    # the meet algebra's p-row would hold 10^8 cells, though no step uses p
    f = tmp_path / "m.json"
    f.write_text(
        '{"format": 1, "kind": "coalgebra", "signature": {"symbols": [{"name": "c", "arity": 0}, '
        '{"name": "p", "arity": 100000000}]}, "states": ["q"], '
        '"step": {"q": {"op": "c", "args": []}}}\n'
    )
    start = time.perf_counter()
    proc = run_process("cartesian", f, "--classify", timeout=10)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stderr == "error: enumeration of size 100000000 exceeds budget 1000000\n"


def test_incomplete_algebra_is_refused_by_row_count(tmp_path):
    # no default and no p-row: the table is incomplete, found without
    # walking p's one 10^8-wide argument tuple
    sig = ('"signature": {"symbols": [{"name": "c", "arity": 0}, '
           '{"name": "p", "arity": 100000000}]}')
    machine, algebra, prefix = (tmp_path / name for name in ("m.json", "a.json", "t.json"))
    machine.write_text(f'{{"format": 1, "kind": "coalgebra", {sig}, "states": ["q"], '
                       '"step": {"q": {"op": "c", "args": []}}}\n')
    algebra.write_text(f'{{"format": 1, "kind": "algebra", {sig}, "carrier": ["0"], '
                       '"table": [{"op": "c", "args": [], "out": "0"}]}\n')
    prefix.write_text('{"format": 1, "kind": "prefix", "root": {"label": "0"}}\n')
    for argv in (("hylo", machine, algebra), ("nu-check", algebra, prefix)):
        start = time.perf_counter()
        proc = run_process(*argv, timeout=10)
        assert time.perf_counter() - start < 2
        assert proc.returncode == 2
        assert "symbol 'p'" in proc.stderr, proc.stderr


def g_ring_against_successor(tmp_path):
    """A 4100-state g-ring and the successor algebra on 12 elements: every
    state keeps all 12 values, so the space is 12^4100."""
    sig = Signature((("g", 1),))
    n, size = 4100, 12
    ring = FinCoalgebra(sig, tuple(f"x{i}" for i in range(n)),
                        {f"x{i}": ("g", (f"x{(i + 1) % n}",)) for i in range(n)})
    succ = FinAlgebra(sig, tuple(map(str, range(size))),
                      {("g", (str(c),)): str((c + 1) % size) for c in range(size)})
    machine, algebra = tmp_path / "ring.json", tmp_path / "succ.json"
    machine.write_text(jsonio.canonical_dumps(jsonio.coalgebra_to_json(ring)))
    algebra.write_text(jsonio.canonical_dumps(jsonio.algebra_to_json(succ)))
    return "hylo", machine, algebra


def arity_20000_algebra(tmp_path):
    f = tmp_path / "wide.json"
    f.write_text(
        '{"format": 1, "kind": "algebra", "signature": {"symbols": [{"name": "c", "arity": 0}, '
        '{"name": "p", "arity": 20000}]}, "carrier": ["0", "1"], "default": "0", "table": '
        '[{"op": "c", "args": [], "out": "1"}]}\n'
    )
    return "nu-enum", f, "--root", "1", "--depth", "1"


@pytest.mark.parametrize("files", [g_ring_against_successor, arity_20000_algebra])
def test_refused_size_with_too_many_digits_exits_1(files, tmp_path):
    # more than 4300 digits: Python 3.11 will not print the size in decimal
    start = time.perf_counter()
    proc = run_process(*files(tmp_path), "--budget", "10", timeout=10)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: enumeration of size ")
    assert proc.stderr.endswith(" exceeds budget 10\n")


def test_budget_message_names_sizes_of_any_length():
    assert str(BudgetExceeded(144, 10)) == "enumeration of size 144 exceeds budget 10"
    huge = 12**4100
    assert BudgetExceeded(huge, 10).required == huge
    try:
        str(huge)
    except ValueError:
        pass
    else:
        pytest.skip("this interpreter prints integers of any length")
    for n, power in ((huge, 4424), (10**4400 - 1, 4399), (10**4400, 4400)):
        assert str(BudgetExceeded(n, 10)) == f"enumeration of size at least 10^{power} exceeds budget 10"


def test_recursive_counts_algebras_before_building_one(tmp_path):
    # the unused p/12 gives each 2-element algebra 2^(1 + 2^12) tables
    sig = Signature((("c", 0), ("p", 12)))
    f = tmp_path / "wide.json"
    f.write_text(jsonio.canonical_dumps(
        jsonio.coalgebra_to_json(FinCoalgebra(sig, ("q",), {"q": ("c", ())}))
    ))
    start = time.perf_counter()
    proc = run_process("recursive", f, "--max-carrier", "2", timeout=10)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 1
    assert proc.stderr == "error: enumeration of size 1000001 exceeds budget 1000000\n"


def wide_unused_symbol(tmp_path, kind):
    """A file over c/0 and an unused p/10^8: the machine q = c, or the
    algebra on {0} with c() = 0 and default 0."""
    sig = ('"signature": {"symbols": [{"name": "c", "arity": 0}, '
           '{"name": "p", "arity": 100000000}]}')
    f = tmp_path / f"{kind}.json"
    if kind == "coalgebra":
        f.write_text(f'{{"format": 1, "kind": "coalgebra", {sig}, "states": ["q"], '
                     '"step": {"q": {"op": "c", "args": []}}}\n')
    else:
        f.write_text(f'{{"format": 1, "kind": "algebra", {sig}, "carrier": ["0"], '
                     '"default": "0", "table": [{"op": "c", "args": [], "out": "0"}]}\n')
    return f


@pytest.mark.parametrize("kind, argv", [
    # one algebra on one element, but building its p-row key takes 10^8 cells
    ("coalgebra", ("recursive", "{}", "--max-carrier", "1")),
    # one argument tuple for p, but it is 10^8 wide
    ("algebra", ("nu-enum", "{}", "--root", "0", "--depth", "1")),
], ids=["recursive", "nu-enum"])
def test_unused_wide_symbol_is_refused_by_its_cells(tmp_path, kind, argv):
    f = wide_unused_symbol(tmp_path, kind)
    start = time.perf_counter()
    proc = run_process(*(f if a == "{}" else a for a in argv), timeout=10)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stderr == "error: enumeration of size 100000001 exceeds budget 1000000\n"


def test_carpet_member_refuses_a_long_scan_over_a_huge_denominator():
    # 2*10^6 steps pass the step bound, but each divides a 6.6-million-bit number
    start = time.perf_counter()
    proc = run_process("carpet-member", "1e-2000000", "0.5", "--depth", "2000000", timeout=10)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: x needs 2000000 digit steps on a 6643857-bit denominator, "
        "13287714000000 bit-steps over the bound 134217728\n"
    )


def test_carpet_member_digit_scan_is_bounded():
    start = time.perf_counter()
    proc = run_process("carpet-member", "1/2", "1/2", "--depth", "50000000", timeout=10)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 1
    assert proc.stderr == "error: x needs 50000000 digit steps, over the bound 2097152\n"


def long_chain_files(tmp_path, n=1500, from_head=False):
    """The chain `cases.chk_chain(n, from_head)` and `cases.flip_nil_algebra()`."""
    machine, algebra = tmp_path / "chain.json", tmp_path / "flip_nil.json"
    machine.write_text(jsonio.canonical_dumps(
        jsonio.coalgebra_to_json(cases.chk_chain(n, from_head))
    ))
    algebra.write_text(jsonio.canonical_dumps(jsonio.algebra_to_json(cases.flip_nil_algebra())))
    return machine, algebra


def test_long_wellfounded_chain_has_one_solution(tmp_path):
    machine, algebra = long_chain_files(tmp_path)
    proc = run_process("hylo", machine, algebra)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"count": 1}


def test_long_chain_declared_from_its_head_has_one_solution(tmp_path):
    machine, algebra = long_chain_files(tmp_path, n=3000, from_head=True)
    start = time.perf_counter()
    proc = run_process("hylo", machine, algebra, timeout=30)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"count": 1}


def test_long_wellfounded_chain_is_recursive(tmp_path):
    machine, _ = long_chain_files(tmp_path)
    proc = run_process("recursive", machine, "--max-carrier", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["recursive"] is True


def test_memory_error_is_an_input_error(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_safety", exhausted)
    code = main(["safety", str(DATA / "chain_safe.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_too_deep_a_document_to_print_is_an_input_error(capsys, monkeypatch):
    def too_deep(obj):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(jsonio, "canonical_dumps", too_deep)
    code = main(["carpet-member", "1/3", "1/2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: input nests too deeply (maximum recursion depth exceeded)\n"


def test_deep_carpet_member_is_answered():
    proc = run_process("carpet-member", "0", "0", "--depth", "5000")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["member"] is True
    # digit 4000 of both coordinates is the first 1, so only depth 4000 and
    # beyond drop the point
    v = f"1/{2 * 3**3999}"
    for depth, member in ((5000, False), (3999, True)):
        proc = run_process("carpet-member", v, v, "--depth", depth)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["member"] is member


@pytest.mark.parametrize(
    "argv",
    [
        ("carpet-member", "1/2", "1/2", "--depth", "-3"),
        ("carpet-member", "1/0", "0"),
        ("sierpinski", "--depth", "-1", "--res", "3", "--out", "carpet.pgm"),
    ],
)
def test_bad_carpet_input_is_an_input_error(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "carpet.pgm").exists()


def test_unwritable_out_is_an_input_error(tmp_path):
    out = tmp_path / "missing" / "carpet.pgm"
    proc = run_process("sierpinski", "--depth", "1", "--res", "3", "--out", out)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_sierpinski_res_over_bound_is_refused(capsys, tmp_path):
    out = tmp_path / "carpet.pgm"
    code, body = run(capsys, "sierpinski", "--depth", "1", "--res", RES_LIMIT + 1, "--out", out)
    assert (code, body) == (1, None)
    assert not out.exists()


def test_sierpinski_deep_render_is_refused(tmp_path):
    out = tmp_path / "carpet.pgm"
    proc = run_process("sierpinski", "--depth", "1000000", "--res", "4096", "--out", out, timeout=10)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: res * depth 4096000000 exceeds")
    assert not out.exists()


def test_cartesian_subsets_count_against_the_budget(tmp_path):
    sig = Signature((("g", 1),))
    states = tuple(f"r{i}" for i in range(30))
    step = {x: ("g", (states[(i + 1) % 30],)) for i, x in enumerate(states)}
    ring = FinCoalgebra(sig, states, step)
    f = tmp_path / "ring30.json"
    f.write_text(jsonio.canonical_dumps(jsonio.coalgebra_to_json(ring)))
    start = time.perf_counter()
    proc = run_process("cartesian", f, "--bound", "30", timeout=10)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stderr == f"error: enumeration of size {2**30} exceeds budget 1000000\n"


def test_cartesian_ignores_unused_wide_symbol(tmp_path):
    # the meet algebra must not tabulate 2^30 rows for the unused symbol p
    sig = Signature((("c", 0), ("p", 30)))
    f = tmp_path / "wide.json"
    f.write_text(jsonio.canonical_dumps(
        jsonio.coalgebra_to_json(FinCoalgebra(sig, ("q",), {"q": ("c", ())}))
    ))
    start = time.perf_counter()
    proc = run_process("cartesian", f, "--classify")
    assert time.perf_counter() - start < 10
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["fixed_points"] == [["q"]]


def wide_loop_files(tmp_path):
    """The one-state machine q = p(q, ..., q) with p/30, and the algebra on
    {0, 1} that states no rows and defaults to 0."""
    sig = Signature((("p", 30),))
    machine, algebra = tmp_path / "loop30.json", tmp_path / "empty30.json"
    machine.write_text(jsonio.canonical_dumps(
        jsonio.coalgebra_to_json(FinCoalgebra(sig, ("q",), {"q": ("p", ("q",) * 30)}))
    ))
    algebra.write_text(jsonio.canonical_dumps(
        jsonio.algebra_to_json(FinAlgebra(sig, ("0", "1"), {}, default="0"))
    ))
    return machine, algebra


def test_hylo_narrows_a_wide_step_from_the_stated_rows(tmp_path):
    # 2^30 argument tuples, but the algebra states none: every one is 0
    machine, algebra = wide_loop_files(tmp_path)
    start = time.perf_counter()
    proc = run_process("hylo", machine, algebra, "--budget", "10", "--list", timeout=10)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"count": 1, "morphisms": [{"q": "0"}]}


def test_cartesian_narrows_a_wide_step_from_the_stated_rows(tmp_path):
    machine, _ = wide_loop_files(tmp_path)
    start = time.perf_counter()
    proc = run_process("cartesian", machine, timeout=10)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"count": 2, "fixed_points": [[], ["q"]]}


@pytest.mark.parametrize("argv", [("cartesian",), ("mu-eq", "q", "g(q)")])
def test_boolean_arity_is_a_schema_error(argv, capsys, tmp_path):
    f = tmp_path / "bool.json"
    f.write_text(json.dumps({
        "format": 1, "kind": "coalgebra",
        "signature": {"symbols": [{"name": "g", "arity": True}]},
        "states": ["q"], "step": {"q": {"op": "g", "args": ["q"]}},
    }))
    with pytest.raises(SchemaError, match="integer arity"):
        jsonio.load_coalgebra(f)
    code, body = run(capsys, argv[0], f, *argv[1:])
    assert code == 2
    assert body is None


def test_signature_roundtrip():
    for sig in (*cases.CARTESIAN_SIGS, cases.CS, Signature((("c", 0), ("p", 10**8)))):
        doc = json.loads(jsonio.canonical_dumps(jsonio.signature_to_json(sig)))
        assert jsonio.signature_from_json(doc) == sig


S_SIG = {"symbols": [{"name": "s", "arity": 1}]}


@pytest.mark.parametrize("loader, doc, message", [
    ("load_coalgebra", ["not", "an", "object"], "top level must be an object"),
    ("load_coalgebra", {"format": 1, "signature": S_SIG, "states": ["q"], "step": {"q": {"args": ["q"]}}},
     "step of 'q' needs an \"op\" string"),
    ("load_algebra", {"format": 1, "signature": S_SIG, "carrier": ["0"], "table": {}},
     "expected a \"table\" list"),
    ("load_algebra", {"format": 1, "signature": S_SIG, "carrier": ["0"], "table": [], "default": 0},
     "default must be a string when present"),
    ("load_algebra", {"format": 1, "signature": S_SIG, "carrier": ["0"], "table": [
        {"op": "s", "args": ["0"], "out": "0"}, {"op": "s", "args": ["0"], "out": "0"},
    ]}, "table row s('0',) is given twice"),
], ids=["top-level-list", "step-without-op", "table-not-list", "default-not-string", "repeated-row"])
def test_loader_refusal_names_the_file_and_the_fault(loader, doc, message, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        getattr(jsonio, loader)(f)
    assert str(err.value) == f"{f}: {message}"


def test_repeated_table_row_exits_2(capsys, tmp_path):
    # the last s(0) row used to win, and q = s(q) was solved by q = 0
    machine, algebra = tmp_path / "m.json", tmp_path / "a.json"
    machine.write_text(json.dumps({"format": 1, "kind": "coalgebra", "signature": S_SIG,
                                   "states": ["q"], "step": {"q": {"op": "s", "args": ["q"]}}}))
    algebra.write_text(json.dumps({"format": 1, "kind": "algebra", "signature": S_SIG,
                                   "carrier": ["0", "1"], "table": [
        {"op": "s", "args": ["0"], "out": "1"},
        {"op": "s", "args": ["0"], "out": "0"},
        {"op": "s", "args": ["1"], "out": "0"},
    ]}))
    assert main(["hylo", str(machine), str(algebra), "--list"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {algebra}: table row s('0',) is given twice\n"


def test_repeated_step_state_exits_2(capsys, tmp_path):
    # `json` keeps the last of two equal keys: q = c() used to load, and the
    # loop q = g(q) was reported recursive
    machine = tmp_path / "m.json"
    machine.write_text(
        '{"format": 1, "kind": "coalgebra", "signature": {"symbols": '
        '[{"name": "g", "arity": 1}, {"name": "c", "arity": 0}]}, "states": ["q"], '
        '"step": {"q": {"op": "g", "args": ["q"]}, "q": {"op": "c", "args": []}}}'
    )
    assert main(["recursive", str(machine), "--max-carrier", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {machine}: object key 'q' is given twice\n"


def test_repeated_delta_state_exits_2(capsys, tmp_path):
    system = tmp_path / "ts.json"
    system.write_text(
        '{"format": 1, "kind": "transition-system", "states": ["s0", "s1"], '
        '"delta": {"s0": ["s1"], "s1": [], "s0": []}, "init": [], "safe": ["s0", "s1"]}'
    )
    assert main(["safety", str(system)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {system}: object key 's0' is given twice\n"


def test_output_is_deterministic(capsys):
    main(["galois", str(DATA / "chain_safe.json")])
    first = capsys.readouterr().out
    main(["galois", str(DATA / "chain_safe.json")])
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


# ------------------------------------------------------------------- loaders


def test_coalgebra_roundtrip(tmp_path):
    coalg = three_state_automaton()
    f = tmp_path / "c.json"
    f.write_text(jsonio.canonical_dumps(jsonio.coalgebra_to_json(coalg)))
    loaded = jsonio.load_coalgebra(f)
    assert loaded == coalg


def test_algebra_roundtrip(tmp_path):
    alg = flip_algebra()
    f = tmp_path / "a.json"
    f.write_text(jsonio.canonical_dumps(jsonio.algebra_to_json(alg)))
    assert jsonio.load_algebra(f) == alg


def test_transition_system_roundtrip(tmp_path):
    ts = TransitionSystem(
        ("s0", "s1"), {"s0": frozenset({"s1"}), "s1": frozenset()},
        frozenset(), frozenset({"s0"}),
    )
    f = tmp_path / "t.json"
    f.write_text(jsonio.canonical_dumps(jsonio.transition_system_to_json(ts)))
    assert jsonio.load_transition_system(f) == ts


def test_prefix_roundtrip(tmp_path):
    prefix = TreePrefix("0", "cross", (TreePrefix("0", "chk", (TreePrefix("1"),)),))
    f = tmp_path / "p.json"
    f.write_text(jsonio.canonical_dumps(
        {"format": 1, "kind": "prefix", "root": jsonio.prefix_to_json(prefix)}
    ))
    assert jsonio.load_prefix(f) == prefix


def test_load_problem_reports_kind(tmp_path):
    assert jsonio.load_problem(DATA / "flip_algebra.json").kind == "algebra"
    assert jsonio.load_problem(DATA / "chain_safe.json").kind == "transition-system"
    f = tmp_path / "q.json"
    for kind in ("query", "term-pair", "mystery"):
        f.write_text(json.dumps({"format": 1, "kind": kind, "body": "anything"}))
        with pytest.raises(SchemaError):
            jsonio.load_problem(f)


def test_loader_message_names_offending_file(tmp_path):
    f = tmp_path / "x.json"
    f.write_text(json.dumps({"format": 1, "kind": "coalgebra", "states": "oops"}))
    with pytest.raises(SchemaError) as err:
        jsonio.load_coalgebra(f)
    assert "x.json" in str(err.value)


# ------------------------------------------------------------ process checks


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "relfix", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout


def test_console_script():
    # The console script is the `[project.scripts]` entry; an installer turns it
    # into a launcher that imports the callable and exits with its return value.
    # Run that launcher from the checkout, and the installed one when present.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    target = scripts.get("relfix", "")
    assert re.fullmatch(r"[A-Za-z_][\w.]*:[A-Za-z_]\w*", target), target
    module, attr = target.split(":")
    launcher = (
        f"import sys\nfrom {module} import {attr}\n"
        f"sys.argv[0] = 'relfix'\nsys.exit({attr}())\n"
    )
    commands = [[sys.executable, "-c", launcher]]
    installed = shutil.which("relfix")
    if installed is not None:
        commands.append([installed])
    for command in commands:
        for name, code, result in (
            ("chain_safe.json", 0, "safe"),
            ("chain_unsafe.json", 3, "unsafe"),
        ):
            proc = subprocess.run(
                [*command, "safety", str(DATA / name)],
                capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == code, (command[0], name, proc.stderr)
            assert json.loads(proc.stdout)["result"] == result


# One command line per subcommand; "{tmp}" is a scratch directory.
COMMAND_LINES = [
    ["safety", DATA / "chain_safe.json"],
    ["galois", DATA / "chain_safe.json"],
    ["carpet-member", "1/3", "1/2"],
    ["sierpinski", "--depth", "2", "--res", "9", "--out", "{tmp}/carpet.pgm"],
    ["mu-eq", DATA / "two_cycle.json", "q0", "chk(q1)"],
    ["hylo", DATA / "two_cycle.json", DATA / "flip_algebra.json"],
    ["nu-enum", DATA / "flip_algebra.json", "--root", "0", "--depth", "2"],
    ["nu-check", DATA / "flip_algebra.json", DATA / "guided_prefix.json"],
    ["cartesian", DATA / "two_cycle.json"],
    ["recursive", DATA / "two_cycle.json"],
    ["selftest", "--trials", "1"],
]

# The lattice commands need none of the term and tree code, and the carpet
# commands none of the lattice, term or tree code.
NOT_LOADED = {
    "safety": {"finstruct", "sigterm", "nu", "mu", "fractal"},
    "galois": {"finstruct", "sigterm", "nu", "mu", "fractal"},
    "carpet-member": {"lattice", "finstruct", "sigterm", "nu", "mu"},
    "sierpinski": {"lattice", "finstruct", "sigterm", "nu", "mu"},
}


def loaded_modules(argv, tmp_path) -> set[str]:
    """The relfix submodules a `relfix` process imports, read from the
    `-X importtime` report on its stderr."""
    env = cases.child_env()
    argv = [str(a).replace("{tmp}", str(tmp_path)) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "relfix", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(re.findall(r"^import time:.*\|\s*relfix\.(\w+)$", proc.stderr, re.M))


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=lambda argv: argv[0])
def test_subcommand_loads_only_its_modules(argv, tmp_path):
    loaded = loaded_modules(argv, tmp_path)
    assert {"cli", "errors", "jsonio"} <= loaded
    assert not loaded & NOT_LOADED.get(argv[0], set()), loaded
    assert ("mu" in loaded) == (argv[0] == "mu-eq"), loaded


def test_traced_commands_call_the_wrappers(capsys, monkeypatch):
    """The benchmark tracer patches each traced function where it is defined;
    a command that imports it when it runs gets the wrapper."""
    from test_tracer import load_tracer

    t = load_tracer(monkeypatch).Tracer()
    t.install()
    try:
        for argv in (["safety", DATA / "chain_safe.json"], ["carpet-member", "1/3", "1/2"]):
            op = SimpleNamespace(family="probe", label=argv[0])
            assert t.run_op(op, lambda _: main([str(a) for a in argv])) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    assert t.calls["lattice.safety_check"] == 1
    assert t.calls["jsonio.load"] == 1
    assert t.calls["fractal.carpet_member"] == 1
    assert t.calls["jsonio.canonical_dumps"] == 2


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])
