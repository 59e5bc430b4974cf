"""Command-line behavior: exit codes, output formats, caching, and
determinism across worker counts."""

import json

import pytest

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
                 ("preproj", "--type", "A2", "--dim", "1,a"),
                 ("preproj", "--type", "A2", "--dim", "1,,1"),
                 ("bw", "--type", "A2", "--word", "1,,2", "--height", "2"),
                 ("bw", "--type", "A2", "--word", "1,", "--height", "2"),
                 ("ss-bound", "--type", "A2", "--label", ",1,0,0",
                  "--height", "4"),
                 # above the word-level cap, refused before any table
                 ("basis", "--type", "A2", "--height", "30"),
                 # negative counts
                 ("cluster-verify", "--preset", "A2", "--exp", "-1"),
                 ("cluster-verify", "--preset", "A2", "--depth", "-1"),
                 ("basis", "--type", "A2", "--height", "-1"),
                 ("crystal", "--type", "A2", "--height", "-1"),
                 ("bw", "--type", "A2", "--word", "1,2", "--height", "-1"),
                 ("ss-bound", "--type", "A2", "--label", "1,0,0",
                  "--height", "-1"),
                 ("preproj", "--type", "A2", "--workers", "-1")):
        capsys.readouterr()
        code, _ = run(tmp_path, *argv)
        assert code == 2
        assert "error:" in capsys.readouterr().err
    assert cli.execute(["no-such-command"]) == 2
    assert cli.execute(["--help"]) == 0


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
    code2, data2 = run(tmp_path, "cluster-verify", "--preset", "A2-w0",
                       "--depth", "2", "--exp", "2", "--workers", "3")
    assert code2 == 0 and data2 == data


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
