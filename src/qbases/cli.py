"""Command-line front end: basis tables, crystal and subset queries,
preprojective enumerations, conjecture verification, and epsilon-bound
shadows, emitted as JSON, CSV, or TeX."""

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import tempfile

from . import __version__
from .quiver import load_preset
from .canonical import get_canonical, weights_up_to_height
from .wordalg import PAIRING_HEIGHT_CAP
from .preproj import (ENUM_BOUNDS, all_dims_up_to, enumerate_modules,
                      is_open_orbit, is_rigid)
from .cluster import verify_conjecture

CACHE_ENV = "QBASES_CACHE"


class UsageError(ValueError):
    """Bad presets, words, or flag values; mapped to exit code 2."""


def _parse_word(text):
    """Comma-separated integers; the empty string is the empty list, and
    an empty entry anywhere else is a usage error."""
    if text == "":
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"malformed integer list {text!r}") from None


def _count(text):
    """A nonnegative integer flag value; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid integer {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"negative count {value}")
    return value


def _reduced_word(datum, text):
    word = _parse_word(text)
    try:
        if datum.is_reduced(word):
            return word
    except ValueError as e:  # a vertex out of range
        raise UsageError(str(e)) from None
    raise UsageError("word not reduced")


def _load(name):
    try:
        return load_preset(name)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _laurent_tex(obj):
    """TeX form of a serialized Laurent polynomial {exp: coeff}."""
    if not obj:
        return "0"
    parts = []
    for e in sorted(obj, key=int):
        c = obj[e]
        e = int(e)
        if e == 0:
            parts.append(str(c))
        else:
            exp = f"q^{{{e}}}" if e != 1 else "q"
            if c == "1":
                parts.append(exp)
            elif c == "-1":
                parts.append(f"-{exp}")
            else:
                parts.append(f"{c} {exp}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _cell(value):
    if isinstance(value, (str, int, float)) or value is None:
        return "" if value is None else str(value)
    return json.dumps(value, sort_keys=True)


def _csv_rows(item):
    if "transition" in item and "weight" in item:
        # basis tables flatten to one row per exponent vector
        for i, row in enumerate(item["transition"]):
            yield {
                "type": item["type"],
                "word": _cell(item["word"]),
                "weight": _cell(item["weight"]),
                "index": i,
                "pbw_gram": _cell(item["pbw_gram"][i]),
                "transition": _cell(row),
                "canonical": _cell(item["canonical"][i]),
            }
    else:
        yield {k: _cell(v) for k, v in item.items()}


def _tex_blocks(item):
    if "transition" in item and "weight" in item:
        n = len(item["transition"])
        lines = ["% canonical basis transition at weight "
                 + json.dumps(item["weight"]),
                 "\\begin{tabular}{" + "r" * max(n, 1) + "}"]
        for row in item["transition"]:
            lines.append(" & ".join(_laurent_tex(v) for v in row) + " \\\\")
        lines.append("\\end{tabular}")
        return "\n".join(lines)
    keys = sorted(item)
    lines = ["\\begin{tabular}{ll}"]
    for k in keys:
        lines.append(f"{k} & {_cell(item[k])} \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines)


def emit_report(results, fmt, failures=None):
    """Serialize results (a list of items, or one report object) with a
    stable field order; returns bytes."""
    if fmt == "json":
        if isinstance(results, list):
            body = {"items": results}
        else:
            body = dict(results)
        if failures:
            body["failures"] = failures
        return (json.dumps(body, sort_keys=True) + "\n").encode()
    items = results if isinstance(results, list) else \
        results.get("monomials", [results])
    if fmt == "csv":
        rows = [r for item in items for r in _csv_rows(item)]
        for f in failures or ():
            rows.append({"failure": _cell(f)})
        header = sorted({k for r in rows for k in r})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue().encode()
    if fmt == "tex":
        blocks = [_tex_blocks(item) for item in items]
        for f in failures or ():
            blocks.append("% FAILURE " + json.dumps(f, sort_keys=True))
        return ("\n\n".join(blocks) + "\n").encode()
    raise UsageError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results, failures)


def _cmd_basis(args):
    if args.height > PAIRING_HEIGHT_CAP:
        raise UsageError(f"height {args.height} exceeds the word-level cap "
                         f"{PAIRING_HEIGHT_CAP}")
    box = _load(args.type)
    datum = box["datum"]
    word = (_reduced_word(datum, args.word) if args.word
            else box["longest_word"])
    ctx = get_canonical(datum, word)
    items = [ctx.canonical_basis(w).to_json()
             for w in weights_up_to_height(datum.rank, args.height)]
    return items, []


def _cmd_crystal(args):
    box = _load(args.type)
    datum = box["datum"]
    ctx = get_canonical(datum, box["longest_word"])
    rng = range(1, datum.rank + 1)
    items = []
    for label in sorted(ctx.labels_up_to_height(args.height),
                        key=lambda l: (sum(ctx.label_weight(l)),
                                       ctx.label_weight(l), l)):
        etil = {str(i): (list(v) if v is not None else None)
                for i in rng for v in [ctx.etilde(i, label)]}
        items.append({
            "label": list(label),
            "weight": list(ctx.label_weight(label)),
            "epsilon": [ctx.epsilon(i, label) for i in rng],
            "phi": [ctx.phi(i, label) for i in rng],
            "star": list(ctx.star(label)),
            "etilde": etil,
            "ftilde": {str(i): list(ctx.ftilde(i, label)) for i in rng},
        })
    return items, []


def _cmd_bw(args):
    box = _load(args.type)
    datum = box["datum"]
    word = _reduced_word(datum, args.word)
    ctx = get_canonical(datum, box["longest_word"])
    via_pbw = ctx.bw_members_pbw(word, args.height)
    via_crystal = ctx.bw_members_crystal(word, args.height)
    items = [{"label": list(c)} for c in sorted(via_pbw & via_crystal)]
    failures = []
    if via_pbw != via_crystal:
        failures.append({
            "invariant": "bw route agreement",
            "witness": {
                "pbw_only": [list(c) for c in sorted(via_pbw - via_crystal)],
                "crystal_only": [list(c)
                                 for c in sorted(via_crystal - via_pbw)],
            },
        })
    return items, failures


def _cmd_preproj(args):
    box = _load(args.type)
    datum, orientation = box["datum"], box["orientation"]
    if args.dim:
        dims = [_parse_word(args.dim)]
    else:
        bound = ENUM_BOUNDS.get(datum.name)
        if bound is None:
            raise UsageError(f"enumeration unsupported for type {datum.name}")
        dims = all_dims_up_to(bound)
    items = []
    failures = []
    for dim in dims:
        try:
            classes = enumerate_modules(datum, orientation, dim,
                                        workers=args.workers)
        except ValueError as e:
            raise UsageError(str(e)) from None
        for m in classes:
            rigid = is_rigid(m)
            open_orbit = is_open_orbit(m)
            obj = m.to_json()
            obj["rigid"] = rigid
            obj["open_orbit"] = open_orbit
            items.append(obj)
            if rigid != open_orbit:
                failures.append({
                    "invariant": "rigid iff open orbit",
                    "witness": m.to_json(),
                })
    items.sort(key=lambda o: (o["dim"], json.dumps(o["arrows"],
                                                   sort_keys=True)))
    return items, failures


def _cmd_cluster_verify(args):
    try:
        report = verify_conjecture(args.preset, args.depth, args.exp,
                                   workers=args.workers)
    except ValueError as e:
        raise UsageError(str(e)) from None
    failures = [{"invariant": "cluster monomial is dual canonical",
                 "witness": m}
                for m in report["monomials"] if m["status"] != "pass"]
    failures += [{"invariant": "exchange relation normalizes",
                  "witness": e}
                 for e in report["exchange_log"] if e["status"] != "pass"]
    return report, failures


def _cmd_ss_bound(args):
    box = _load(args.type)
    datum = box["datum"]
    ctx = get_canonical(datum, box["longest_word"])
    label = _parse_word(args.label)
    if len(label) != len(box["longest_word"]) or any(x < 0 for x in label):
        raise UsageError(f"malformed label {args.label!r}")
    try:
        bound = ctx.epsilon_bound_set(label, args.height)
    except ValueError as e:
        raise UsageError(str(e)) from None
    rng = range(1, datum.rank + 1)
    items = [{"label": list(m),
              "epsilon": [ctx.epsilon(i, m) for i in rng]}
             for m in sorted(bound.members)]
    return items, []


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qbases",
        description="canonical bases, crystals, preprojective modules, "
                    "and quantum cluster verification at small rank")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, preset_flag="--type"):
        p.add_argument(preset_flag, required=True,
                       help="preset name (A2, A3, A4, D4)")
        p.add_argument("--format", choices=("json", "csv", "tex"),
                       default="json")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--workers", type=_count, default=1)

    p = sub.add_parser("basis", help="canonical basis tables by weight")
    common(p)
    p.add_argument("--height", type=_count, default=4)
    p.add_argument("--word", help="reduced word override, comma separated")

    p = sub.add_parser("crystal", help="crystal operator tables")
    common(p)
    p.add_argument("--height", type=_count, default=4)

    p = sub.add_parser("bw", help="crystal subset of a Weyl word, both routes")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--height", type=_count, default=4)

    p = sub.add_parser("preproj", help="preprojective module enumeration")
    common(p)
    p.add_argument("--dim", help="single dimension vector, comma separated")

    p = sub.add_parser("cluster-verify",
                       help="quantum cluster monomial verification")
    common(p, preset_flag="--preset")
    p.add_argument("--depth", type=_count, default=2)
    p.add_argument("--exp", type=_count, default=2)

    p = sub.add_parser("ss-bound", help="epsilon bound set of a label")
    common(p)
    p.add_argument("--label", required=True)
    p.add_argument("--height", type=_count, default=4)
    return parser


_HANDLERS = {
    "basis": _cmd_basis,
    "crystal": _cmd_crystal,
    "bw": _cmd_bw,
    "preproj": _cmd_preproj,
    "cluster-verify": _cmd_cluster_verify,
    "ss-bound": _cmd_ss_bound,
}


@functools.cache
def _source_digest():
    """sha256 of the package's modules and presets, so that cached results
    go stale when the code changes; computed once per process."""
    root = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                rel = os.path.relpath(path, root)
                h.update(f"{rel}\0{len(data)}\0".encode() + data)
    return h.hexdigest()


def _cache_key(args):
    skip = {"format", "out", "workers"}
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    payload["qbases"] = [__version__, _source_digest()]
    blob = json.dumps(payload, sort_keys=True).encode()
    return f"{args.command}-{hashlib.sha256(blob).hexdigest()[:24]}.json"


def _read_cache(path):
    """(results, failures) of a cache file; None when the file is missing,
    unreadable or malformed, so the caller recomputes and rewrites it."""
    try:
        with open(path) as fh:
            blob = json.load(fh)
        return blob["results"], blob["failures"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _write_cache(path, results, failures):
    """Write through a temporary file in the cache directory and rename it
    into place, so no reader ever sees a partial file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump({"results": results, "failures": failures}, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def execute(argv=None):
    """Run one command line; returns the exit code (0 pass, 1 checks
    failed, 2 usage)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2

    cache_dir = os.environ.get(CACHE_ENV)
    cache_path = None
    results = failures = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, _cache_key(args))
        results, failures = _read_cache(cache_path) or (None, None)

    if results is None:
        try:
            results, failures = _HANDLERS[args.command](args)
        except UsageError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        # normalize tuples so cached and fresh runs emit identical bytes
        results = json.loads(json.dumps(results))
        failures = json.loads(json.dumps(failures))
        if cache_path:
            _write_cache(cache_path, results, failures)

    try:
        data = emit_report(results, args.format, failures=failures)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    return 1 if failures else 0


def main():
    sys.exit(execute())


if __name__ == "__main__":
    main()
