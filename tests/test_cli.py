import hashlib
import json
import os
import shlex
import subprocess
import sys
from importlib import resources
from itertools import combinations, permutations
from pathlib import Path

import pytest

from fullflow.cli import main
from fullflow.errors import InvariantViolationError
from fullflow.figures import figure_checks, figure_network, figure_networks
from fullflow.flows import flow_to_text, max_flow

from helpers import network_to_text, record_augment_calls, seeded_network

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture()
def fig1_file(tmp_path):
    path = tmp_path / "fig1.net"
    path.write_text(network_to_text(figure_network("fig1")), encoding="utf-8")
    return str(path)


@pytest.fixture()
def fig5_file(tmp_path):
    path = tmp_path / "fig5.net"
    path.write_text(network_to_text(figure_network("fig5")), encoding="utf-8")
    return str(path)


def test_pair_basic(fig1_file, capsys):
    assert main(["pair", fig1_file, "y", "z", "--set", "x"]) == 0
    out = capsys.readouterr().out
    assert out == "y z x 3 1 2 2 2 -\n"


def test_pair_exact_fig5(fig5_file, capsys):
    assert main(["pair", fig5_file, "y", "z", "--set", "x1,x2", "--exact"]) == 0
    fields = capsys.readouterr().out.split("\n")[0].split(" ")
    assert fields[:8] == ["y", "z", "x1,x2", "3", "2", "1", "2", "2"]
    assert fields[8] != "-"  # witness attached in exact mode


def test_pair_witness(fig1_file, capsys):
    assert main(["pair", fig1_file, "y", "z", "--set", "x", "--witness"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("witness ")
    assert "y-" in lines[1]


def test_pair_tsv(fig1_file, capsys):
    assert main(["pair", fig1_file, "y", "z", "--set", "x", "--format", "tsv"]) == 0
    assert capsys.readouterr().out == "y\tz\tx\t3\t1\t2\t2\t2\t-\n"


def test_pair_same_endpoints_exits_2(fig1_file, capsys):
    assert main(["pair", fig1_file, "y", "y", "--set", "x"]) == 2
    assert "source and sink" in capsys.readouterr().err


def test_pair_unknown_vertex_exits_2(fig1_file, capsys):
    assert main(["pair", fig1_file, "y", "z", "--set", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err
    assert main(["pair", fig1_file, "y", "q"]) == 2
    assert capsys.readouterr().err == "error: unknown vertex 'q'\n"


def test_pair_budget_exits_3(fig1_file, capsys):
    code = main(["pair", fig1_file, "y", "z", "--set", "x,v",
                 "--budget", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "budget" in err
    assert "pair (y, z)" in err
    assert "group v,x" in err


def test_negative_budget_exits_2(fig1_file, capsys):
    for args in (["pair", fig1_file, "y", "z", "--exact"], ["centrality", fig1_file]):
        for flag in ("--budget", "--max-capacity"):
            assert main([*args, flag, "-1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {flag} -1 is negative\n"


def test_pair_candidate_budget_exits_3(tmp_path, capsys):
    # K11 has about a million v01->v11 paths; more than --budget
    # candidates stop generation before the search starts
    tokens = [f"v{i:02d}" for i in range(1, 12)]
    lines = ["vertices " + " ".join(tokens)]
    lines += [f"{t} {h} 1" for t in tokens for h in tokens if t != h]
    path = tmp_path / "k11.net"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["pair", str(path), "v01", "v11", "--set", "v02,v03",
                 "--budget", "10"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: passage minimization budget exhausted at pair (v01, v11) "
        "group v02,v03 (partial count: 0, nodes: 0)\n"
    )


def test_pair_out_of_memory_exits_3(fig1_file, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("fullflow.cli.pair_report", exhausted)
    assert main(["pair", fig1_file, "y", "z", "--set", "x"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out of memory in pair {fig1_file}\n"
    assert "Traceback" not in captured.err


def test_pair_deep_passage_search_answers(tmp_path, capsys):
    # a sequence of 3005 paths: the search runs deeper than Python's
    # default recursion limit
    path = tmp_path / "big.net"
    path.write_text("vertices a b y z\ny a 3000\na z 3000\ny b 5\nb z 5\n",
                    encoding="utf-8")
    assert main(["pair", str(path), "y", "z", "--set", "a,b"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("y z a,b 3005 0 3005 3005 3005 ")
    assert captured.err == ""


@pytest.mark.parametrize("n, arcs", [(14, 57), (16, 74), (20, 115)])
def test_centrality_set_answers_within_small_budget(n, arcs, tmp_path, capsys):
    # every ordered pair gets an arc with probability 0.3; the passage
    # search would need far more than 1000 nodes or candidates on some
    # pairs, and the flow bounds of settle_pair leave it nothing to do
    net = seeded_network(n)
    assert len(net.capacities) == arcs
    path = tmp_path / f"n{n}.net"
    path.write_text(network_to_text(net), encoding="utf-8")
    assert main(["centrality", str(path), "--set", "v02,v03",
                 "--budget", "1000"]) == 0
    fields = capsys.readouterr().out.split(" ")
    assert fields[0] == "v02,v03"
    assert fields[1:3] == fields[3:5]  # vitality == betweenness


def test_parse_error_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("vertices a b\na b nope\n", encoding="utf-8")
    assert main(["pair", str(bad), "a", "b"]) == 2
    err = capsys.readouterr().err
    assert "bad.net" in err and "line 2" in err


def test_non_utf8_file_names_file(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_bytes(b"\xffvertices a b\n")
    assert main(["pair", str(bad), "a", "b"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


def test_missing_file_exits_2(capsys):
    assert main(["pair", "/no/such/file.net", "a", "b"]) == 2
    assert "file.net" in capsys.readouterr().err


def test_capacity_cap(tmp_path, capsys):
    big = tmp_path / "big.net"
    big.write_text("vertices a b\na b 2000000000\n", encoding="utf-8")
    assert main(["pair", str(big), "a", "b"]) == 2
    assert "exceeds" in capsys.readouterr().err
    assert main(["pair", str(big), "a", "b", "--max-capacity", str(10**10)]) == 0


def test_dump_flow(fig1_file, tmp_path, capsys):
    out_path = tmp_path / "flow.txt"
    assert main(["pair", fig1_file, "y", "z", "--set", "x",
                 "--dump-flow", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_text(encoding="utf-8") == flow_to_text(
        max_flow(figure_network("fig1"), "y", "z")[1]
    )


def test_failed_dump_prints_nothing(fig1_file, tmp_path, capsys):
    # the dump is written before the record, so a failed one prints none
    target = str(tmp_path / "no-such-dir" / "flow.txt")
    assert main(["pair", fig1_file, "y", "z", "--dump-flow", target]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{target}: " in err


def test_dump_flow_runs_no_extra_flow(fig1_file, tmp_path, capsys, monkeypatch):
    # the dumped flow is the one pair_report already settled the pair with
    args = ["pair", fig1_file, "y", "z", "--set", "x"]
    calls = record_augment_calls(monkeypatch)
    assert main(args) == 0
    plain = list(calls)
    calls.clear()
    assert main(args + ["--dump-flow", str(tmp_path / "flow.txt")]) == 0
    capsys.readouterr()
    assert calls == plain
    assert calls == [True, False]  # the canonical and the restricted flow


def test_centrality_default_singletons(fig1_file, capsys):
    assert main(["centrality", fig1_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # one per vertex
    assert lines[0].split(" ")[0] == "u"
    for line in lines:  # vitality equals betweenness on every singleton
        fields = line.split(" ")
        assert fields[1:3] == fields[3:5]


def test_centrality_fig6_pair_group(tmp_path, capsys):
    path = tmp_path / "fig6.net"
    path.write_text(network_to_text(figure_network("fig6")), encoding="utf-8")
    assert main(["centrality", str(path), "--set", "x1,x2"]) == 0
    out = capsys.readouterr().out
    assert out == "x1,x2 10 1 10 1 10.000000 10.000000\n"


def test_centrality_explain_and_tsv(fig1_file, capsys):
    assert main(["centrality", fig1_file, "--set", "x", "--explain",
                 "--format", "tsv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t")[0] == "x"
    assert all(line.split("\t")[0] == "term" for line in lines[1:])


def test_centrality_budget_error_names_pair_and_group(fig5_file, capsys):
    # on fig5 the y->z term separates drop from passage, so the search runs
    code = main(["centrality", fig5_file, "--set", "x1,x2", "--exact",
                 "--budget", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "pair (y, z)" in err
    assert "group x1,x2" in err


def test_centrality_repeat_runs_byte_identical(fig1_file, capsys):
    assert main(["centrality", fig1_file, "--exact"]) == 0
    first = capsys.readouterr().out
    assert main(["centrality", fig1_file, "--exact"]) == 0
    assert capsys.readouterr().out == first


def test_examples_all_pass(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_examples_byte_identical(capsys):
    assert main(["examples"]) == 0
    first = capsys.readouterr().out
    assert main(["examples"]) == 0
    assert capsys.readouterr().out == first


def test_python_m_fullflow(capsys):
    assert main(["examples"]) == 0
    expected = capsys.readouterr().out
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "fullflow", "examples"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0
    assert done.stdout == expected


def test_tampered_fixture_fails_named_check(fig5, monkeypatch):
    # negative control: deleting an arc of fig5 must trip its assertions
    capacities = dict(fig5.capacities)
    del capacities[("v2", "z")]
    from fullflow.network import Network

    nets = figure_networks()
    nets["fig5"] = Network(fig5.vertices, capacities)
    monkeypatch.setattr("fullflow.figures.figure_networks", lambda: nets)
    checks = figure_checks()
    failed = [c for c in checks if not c.passed]
    assert failed
    assert all(c.figure == "fig5" for c in failed)
    assert any(c.name == "max-flow-value" for c in failed)
    assert all("expected" in c.detail for c in failed)


def test_examples_failure_exits_4(capsys, monkeypatch):
    from fullflow.figures import FigureCheck

    def fake_checks():
        return [FigureCheck("fig1", "max-flow-value", False, "expected 3, got 2")]

    monkeypatch.setattr("fullflow.cli.figure_checks", fake_checks)
    assert main(["examples"]) == 4
    out = capsys.readouterr().out
    assert "FAIL" in out and "expected 3, got 2" in out


def test_output_stable_under_hash_randomization(fig5_file):
    # canonical ordering must not lean on set/dict hash order
    import subprocess
    import sys
    from pathlib import Path

    import fullflow

    # the package directory's parent, so the subprocess imports this copy
    import_path = str(Path(fullflow.__file__).resolve().parent.parent)

    def run(seed):
        env = {"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
               "PYTHONPATH": import_path}
        return subprocess.run(
            [sys.executable, "-m", "fullflow.cli", "centrality", fig5_file,
             "--set", "x1,x2", "--exact", "--explain"],
            capture_output=True, text=True, env=env, check=True,
        ).stdout

    assert run("1") == run("2")


def test_cli_import_loads_no_slow_modules():
    # every CLI call pays the package import, which loads neither
    # dataclasses (and inspect through it) nor importlib.resources, which
    # only the fixture loader reads; -S leaves site's imports out and -B
    # writes no bytecode into the checkout
    code = (
        f"import sys; sys.path.insert(0, {str(REPO / 'src')!r}); "
        "before = set(sys.modules); import fullflow, fullflow.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    added = subprocess.run(
        [sys.executable, "-B", "-S", "-c", code],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "fullflow.cli" in added
    assert not {"dataclasses", "inspect", "importlib.resources"}.intersection(added)


def _fixture_sweep(data):
    """Every argv of the fixture sweep, over the network files in ``data``."""
    sweep = []
    for name, network in figure_networks().items():
        path = str(data / f"{name}.net")
        vertices = network.vertices
        groups = [""] + list(vertices) + [",".join(g) for g in combinations(vertices, 2)]
        for y, z in permutations(vertices, 2):
            for group in groups:
                for flags in ([], ["--exact", "--witness"]):
                    sweep.append(["pair", path, y, z, "--set", group, *flags])
        sets = [arg for g in groups[1:] for arg in ("--set", g)]
        for args in ([], sets):
            for flags in ([], ["--exact"]):
                sweep.append(["centrality", path, "--explain", *args, *flags])
    sweep.append(["examples"])
    return sweep


def test_fixture_sweep_output_pinned(capsys):
    # every fixture, ordered pair and group of at most two vertices, as
    # `pair` with and without --exact --witness, and as `centrality
    # --explain` over all singletons and over every such group, with and
    # without --exact; the hash covers argv, exit code, stdout and stderr
    data = resources.files("fullflow") / "data"
    mask = str(data)
    digest = hashlib.sha256()
    sweep = _fixture_sweep(data)
    for argv in sweep:
        code = main(argv)
        captured = capsys.readouterr()
        record = [argv, code, captured.out, captured.err]
        digest.update(json.dumps(record).replace(mask, "DATA").encode() + b"\n")
    assert len(sweep) == 7369
    assert digest.hexdigest() == (
        "822c3b850ae25e6d4cc3ba4b6fccb97e4fc7e8755ed5d0feac8528090295f67d"
    )


def test_selftest_passes(capsys):
    assert main(["selftest", "--instances", "8", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("generator ")
    assert "violations 0" in out


def test_selftest_large_budget_pinned(capsys):
    # the one batch whose instances keep thousands of maximum flows: at this
    # assignment budget n = 6 instances reach the oracle
    args = ["selftest", "--seed", "7", "--instances", "200", "--max-vertices", "6",
            "--assignment-budget", "1000000"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[3:6] == [
        "assertions 62600", "oracle_skips 150", "enumeration_skips 0"
    ]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "64037b34e4ce4c56826de5984e5301a91f8250f727554cd2dca4dc3e855a0a2e"
    )


def test_selftest_byte_identical(capsys):
    args = ["selftest", "--instances", "6", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--max-vertices", "1"], "--max-vertices 1"),
        (["--max-vertices", "7"], "--max-vertices 7"),
        (["--instances", "-3"], "--instances -3"),
        (["--capacity", "5"], "--capacity 5"),
        (["--arc-probability", "2"], "--arc-probability 2.0"),
        (["--seed", "-1"], "--seed -1"),
        (["--budget", "-1"], "--budget -1"),
        (["--assignment-budget", "-1"], "--assignment-budget -1"),
        (["--instances", "0", "--capacity", "9"], "--capacity 9"),
        (["--instances", "2", "--seed", str(2**64 - 1)], f"--seed {2**64 - 1}"),
    ],
)
def test_selftest_rejects_bad_sizes(args, flag, capsys):
    assert main(["selftest", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} ")


def test_selftest_violation_exits_4(capsys, monkeypatch):
    # negative control: a throughput off by one must be reported, not raised.
    # Instance 0 samples the group {b}, a second time, and as a singleton
    # its throughput must equal its passage at (a, b) and (b, a) too
    from fullflow import oracle

    real = oracle._least_throughput
    monkeypatch.setattr(
        "fullflow.oracle._least_throughput",
        lambda *a, **k: [least + 1 for least in real(*a, **k)],
    )
    assert main(["selftest", "--instances", "3"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[6] == "violations 222"
    assert len(lines) == 7 + 222
    assert lines[7].startswith("violation: instance 0 (n=2 cap<=2 p=0.4 seed=0) ")
    assert lines[7].endswith(" throughput 1")


def test_invariant_violation_exits_4(fig1_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolationError("decomposition walk stuck at vertex 'v'")

    monkeypatch.setattr("fullflow.cli.pair_report", broken)
    assert main(["pair", fig1_file, "y", "z"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: decomposition walk stuck at vertex 'v'\n"


def test_readme_cli_examples_run(capsys, monkeypatch):
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("fullflow ")]
    assert len(lines) == 6
    monkeypatch.chdir(REPO)
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == 0, line
        assert capsys.readouterr().err == ""
