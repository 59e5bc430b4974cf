"""Command-line behavior: exit codes, output formats, caching, and
which modules a fresh interpreter loads."""

import json
import os
import subprocess
import sys

import pytest

import qbases
from qbases import cli


def run(tmp_path, *argv):
    out = tmp_path / "out.bin"
    code = cli.execute(list(argv) + ["--out", str(out)])
    return code, (out.read_bytes() if out.exists() else b"")


def test_usage_errors(tmp_path, capsys):
    code, _ = run(tmp_path, "bw", "--type", "A2", "--word", "1,1")
    assert code == 2
    assert "word not reduced" in capsys.readouterr().err
    code, _ = run(tmp_path, "basis", "--type", "E9", "--height", "2")
    assert code == 2
    # a vertex out of range, a malformed dimension vector, and lists with
    # an empty entry, which must not be read as shorter lists
    for argv in (("bw", "--type", "A2", "--word", "1,9", "--height", "2"),
                 ("basis", "--type", "A2", "--word", "3", "--height", "2"),
                 # reduced, but not a word of the longest element
                 ("basis", "--type", "A2", "--word", "1,2", "--height", "2"),
                 ("preproj", "--type", "A2", "--dim", "1,a"),
                 ("preproj", "--type", "A2", "--dim", "1,,1"),
                 ("bw", "--type", "A2", "--word", "1,,2", "--height", "2"),
                 ("bw", "--type", "A2", "--word", "1,", "--height", "2"),
                 ("ss-bound", "--type", "A2", "--label", ",1,0,0",
                  "--height", "4"),
                 # a label of the wrong length or with a negative entry
                 ("ss-bound", "--type", "A2", "--label", "1,0",
                  "--height", "4"),
                 ("ss-bound", "--type", "A2", "--label", "1,-1,0",
                  "--height", "4"),
                 # above the word-level cap, refused before any table
                 ("basis", "--type", "A2", "--height", "30"),
                 ("bw", "--type", "A2", "--word", "1", "--height", "15"),
                 # negative counts
                 ("cluster-verify", "--preset", "A2", "--exp", "-1"),
                 ("cluster-verify", "--preset", "A2", "--depth", "-1"),
                 ("basis", "--type", "A2", "--height", "-1"),
                 ("crystal", "--type", "A2", "--height", "-1"),
                 ("bw", "--type", "A2", "--word", "1,2", "--height", "-1"),
                 ("ss-bound", "--type", "A2", "--label", "1,0,0",
                  "--height", "-1"),
                 # a dimension vector of the wrong length or with a
                 # negative entry
                 ("preproj", "--type", "A2", "--dim=1"),
                 ("preproj", "--type", "A2", "--dim=-1,2"),
                 # the dropped worker count is an unknown argument
                 ("preproj", "--type", "A2", "--workers", "1")):
        capsys.readouterr()
        code, _ = run(tmp_path, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        if argv[-1].startswith("--dim="):
            assert "2 nonnegative entries, the rank of A2" in err
    # an --out that cannot be written: refused, not a traceback and exit 1
    for out in (tmp_path / "nonexistent" / "x", tmp_path):
        capsys.readouterr()
        code = cli.execute(["basis", "--type", "A2", "--height", "2",
                            "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
    assert cli.execute(["no-such-command"]) == 2
    assert cli.execute(["--help"]) == 0


def test_cache_path_naming_a_file_is_a_usage_error(tmp_path, monkeypatch,
                                                   capsys):
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory")
    monkeypatch.setenv(cli.CACHE_ENV, str(blocker))
    ran = []
    monkeypatch.setitem(cli._HANDLERS, "basis",
                        lambda args: ran.append(args) or ([], []))
    code, data = run(tmp_path, "basis", "--type", "A2", "--height", "2")
    assert (code, data, ran) == (2, b"", [])
    assert "error:" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory"


def test_basis_json_table(tmp_path):
    code, data = run(tmp_path, "basis", "--type", "A2", "--height", "4")
    assert code == 0
    body = json.loads(data)
    tables = {tuple(t["weight"]): t for t in body["items"]}
    assert len(tables[(1, 1)]["canonical"]) == 2
    assert tables[(1, 1)]["transition"][1][0] == {"1": "1"}


def test_basis_word_override_and_formats(tmp_path):
    code, data = run(tmp_path, "basis", "--type", "A2", "--height", "2",
                     "--word", "2,1,2", "--format", "csv")
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0].startswith("canonical,index")
    assert len(lines) > 4
    code, data = run(tmp_path, "basis", "--type", "A2", "--height", "2",
                     "--format", "tex")
    assert code == 0
    assert b"\\begin{tabular}" in data


def test_bw_route_agreement(tmp_path):
    code, data = run(tmp_path, "bw", "--type", "A2", "--word", "1,2",
                     "--height", "3")
    assert code == 0
    labels = [tuple(i["label"]) for i in json.loads(data)["items"]]
    assert (0, 0, 0) in labels and (1, 1, 0) in labels
    assert (0, 0, 1) not in labels


def test_preproj_single_dim(tmp_path):
    code, data = run(tmp_path, "preproj", "--type", "A2", "--dim", "1,1")
    assert code == 0
    items = json.loads(data)["items"]
    assert len(items) == 3
    assert all(i["rigid"] == i["open_orbit"] for i in items)


def test_cluster_verify_cli(tmp_path):
    code, data = run(tmp_path, "cluster-verify", "--preset", "A2-w0",
                     "--depth", "2", "--exp", "2")
    assert code == 0
    body = json.loads(data)
    assert body["preset"] == "A2-w0"
    assert all(m["status"] == "pass" for m in body["monomials"])


def test_crystal_items(tmp_path):
    code, data = run(tmp_path, "crystal", "--type", "A2", "--height", "2")
    assert code == 0
    items = {tuple(i["label"]): i for i in json.loads(data)["items"]}
    f2 = items[(0, 0, 1)]
    assert f2["epsilon"] == [0, 1]
    assert f2["etilde"] == {"1": None, "2": [0, 0, 0]}
    assert f2["ftilde"]["2"] == [0, 0, 2]


def test_ss_bound_contains_base(tmp_path):
    code, data = run(tmp_path, "ss-bound", "--type", "A2",
                     "--label", "1,0,0", "--height", "3")
    assert code == 0
    labels = [tuple(i["label"]) for i in json.loads(data)["items"]]
    assert (1, 0, 0) in labels
    assert all(cli_eps[0] >= 1 for cli_eps in
               (i["epsilon"] for i in json.loads(data)["items"]))


def test_emit_report_shapes():
    assert cli.emit_report([], "json") == b'{"items": []}\n'
    items = [{"a": 1, "b": [2, 3]}]
    parsed = json.loads(cli.emit_report(items, "json"))
    assert parsed == {"items": items}
    csv_out = cli.emit_report(items, "csv").decode()
    assert csv_out.splitlines()[0] == "a,b"
    tex_out = cli.emit_report(items, "tex").decode()
    assert "\\begin{tabular}" in tex_out
    with pytest.raises(cli.UsageError):
        cli.emit_report([], "yaml")


def test_failure_path_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        cli._HANDLERS, "crystal",
        lambda args: ([], [{"invariant": "demo", "witness": [1]}]))
    code, data = run(tmp_path, "crystal", "--type", "A2", "--height", "1")
    assert code == 1
    assert json.loads(data)["failures"] == [
        {"invariant": "demo", "witness": [1]}]


def test_cache_roundtrip(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    code1, data1 = run(tmp_path, "bw", "--type", "A2", "--word", "1,2",
                       "--height", "3")
    files = list(cache.iterdir())
    assert code1 == 0 and len(files) == 1
    code2, data2 = run(tmp_path, "bw", "--type", "A2", "--word", "1,2",
                       "--height", "3")
    assert code2 == 0 and data2 == data1
    assert list(cache.iterdir()) == files


BW_A2 = ("bw", "--type", "A2", "--word", "1,2", "--height", "3")


@pytest.mark.parametrize("damage", [
    lambda text: text[:len(text) // 2],          # truncated mid-write
    lambda text: "",                             # empty
    lambda text: '{"results": []}',              # a key missing
    lambda text: "[1, 2]",                       # not an object
])
def test_corrupt_cache_file_is_recomputed(tmp_path, monkeypatch, damage):
    cache = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    code, fresh = run(tmp_path, *BW_A2)
    [path] = cache.iterdir()
    good = path.read_text()
    path.write_text(damage(good))
    code2, again = run(tmp_path, *BW_A2)
    assert code2 == code == 0 and again == fresh
    assert list(cache.iterdir()) == [path]
    assert path.read_text() == good


def test_cache_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    run(tmp_path, *BW_A2)
    run(tmp_path, "basis", "--type", "A2", "--height", "2")
    names = sorted(p.name for p in cache.iterdir())
    assert [n.split("-")[0] for n in names] == ["basis", "bw"]
    assert all(n.endswith(".json") for n in names)


def test_cache_key_follows_source_digest(monkeypatch):
    args = cli._build_parser().parse_args(list(BW_A2))
    key = cli._cache_key(args)
    assert cli._cache_key(args) == key
    assert len(cli._source_digest()) == 64
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    assert cli._cache_key(args) != key


# -- cold start: the modules a fresh interpreter loads for one command line

ALGEBRA = ("laurent", "linalg", "wordalg", "braid", "pbwalg", "canonical",
           "cluster", "preproj")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(qbases.__file__)))
PROBE = ("import json, sys\n"
         "from qbases import cli\n"
         "code = cli.execute(sys.argv[2:])\n"
         "with open(sys.argv[1], 'w') as fh:\n"
         "    json.dump([code, sorted(m[7:] for m in sys.modules\n"
         "                            if m.startswith('qbases.'))], fh)\n")


def fresh_run(tmp_path, argv, cache=None):
    """(exit code, qbases submodules loaded, stdout) of ``cli.execute``
    in a fresh interpreter that compiles from source."""
    path = filter(None, (SRC, os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(path))
    env.pop(cli.CACHE_ENV, None)
    if cache is not None:
        env[cli.CACHE_ENV] = str(cache)
    probe = tmp_path / "probe.json"
    proc = subprocess.run([sys.executable, "-c", PROBE, str(probe)]
                          + list(argv), env=env, capture_output=True,
                          timeout=120, check=True)
    code, loaded = json.loads(probe.read_text())
    return code, set(loaded), proc.stdout


def test_cache_hit_help_and_usage_errors_load_no_algebra(tmp_path,
                                                         monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    argv = ("basis", "--type", "A2", "--height", "3")
    code, miss = run(tmp_path, *argv)
    assert code == 0 and len(list(cache.iterdir())) == 1
    code, loaded, hit = fresh_run(tmp_path, argv, cache)
    assert code == 0 and hit == miss
    assert loaded.isdisjoint(ALGEBRA), loaded
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for argv, cache_dir in (
            (("--help",), None),
            (("no-such-command",), None),
            (("basis", "--type", "A2", "--height", "-1"), None),
            (("basis", "--type", "A2", "--out",
              str(tmp_path / "nonexistent" / "x")), None),
            (("basis", "--type", "A2"), blocker)):
        code, loaded, _ = fresh_run(tmp_path, argv, cache_dir)
        assert code == (0 if argv == ("--help",) else 2), argv
        assert loaded.isdisjoint(ALGEBRA), (argv, loaded)


def test_preproj_miss_loads_no_pbw_layers(tmp_path):
    code, loaded, out = fresh_run(
        tmp_path, ("preproj", "--type", "A2", "--dim", "1,1"))
    assert code == 0 and len(json.loads(out)["items"]) == 3
    assert "preproj" in loaded
    assert loaded.isdisjoint({"laurent", "pbwalg", "canonical", "cluster"})


def test_verify_conjecture_is_read_from_cluster(tmp_path, monkeypatch):
    from qbases import cluster
    assert cli.verify_conjecture is cluster.verify_conjecture
    # a wrapper installed on cluster, as tracing installs one, reaches both
    # the attribute and the handler
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return {"monomials": [], "exchange_log": []}
    monkeypatch.setattr(cluster, "verify_conjecture", wrapper)
    assert cli.verify_conjecture is wrapper
    code, _ = run(tmp_path, "cluster-verify", "--preset", "A2",
                  "--depth", "0", "--exp", "0")
    assert code == 0 and calls == [("A2", 0, 0)]
    assert "verify_conjecture" not in vars(cli)
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_package_exports_laurent_names():
    from qbases import (LaurentPoly, RatFunc, quantum_binomial,
                        quantum_factorial, quantum_int)
    from qbases import laurent
    assert (LaurentPoly, RatFunc, quantum_int, quantum_factorial,
            quantum_binomial) == (laurent.LaurentPoly, laurent.RatFunc,
                                  laurent.quantum_int,
                                  laurent.quantum_factorial,
                                  laurent.quantum_binomial)
    scope = {}
    exec("from qbases import *", scope)
    assert {n for n in scope if n != "__builtins__"} == set(qbases.__all__)
    with pytest.raises(AttributeError):
        qbases.nope
