"""Recompute the pinned output digests in ``pins.json`` by reference routes
that share nothing with the timed path but the library itself:

- ``cluster-a2``: ``verify_conjecture("A2", 2, 3)["monomials"]``, with an
  exchange log that must be all ``pass``;
- ``basis-build`` and ``preproj-enum``: the workload's calls in their
  natural order, in this one process;
- ``cli-cache``: ``qbases.cli.execute`` in this process with no disk cache,
  once per command and format.

    PYTHONPATH=src python3 perfbench/pin.py [--write]

Without ``--write`` it prints the digests and exits 1 if any differs from
``pins.json``.  Re-pin only when an output is meant to change.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402

PINS = os.path.join(HERE, "pins.json")


def cluster_digest():
    from qbases.cluster import verify_conjecture
    report = verify_conjecture(workloads.CLUSTER_PRESET,
                               workloads.CLUSTER_DEPTH, workloads.CLUSTER_EXP)
    if any(e["status"] != "pass" for e in report["exchange_log"]):
        raise AssertionError("exchange log is not all pass")
    return workloads.sha256_text(json.dumps(report["monomials"],
                                            sort_keys=True))


def natural_order_digest(cls):
    wl = cls()
    wl.setup()
    records = []
    for _, op in wl.plan():
        records.extend(op())
    return wl.digest(records)


def cli_digests():
    from qbases import cli
    os.environ.pop("QBASES_CACHE", None)
    out = {}
    for command in workloads.CLI_COMMANDS:
        for fmt in sorted(set(workloads.CLI_HIT_FORMATS)):
            buf = io.BytesIO()
            wrapper = io.TextIOWrapper(buf)
            with contextlib.redirect_stdout(wrapper):
                code = cli.execute(list(command) + ["--format", fmt])
                wrapper.flush()
            if code != 0:
                raise AssertionError(f"{command} exited {code}")
            out[workloads.cli_key(command, fmt)] = \
                hashlib.sha256(buf.getvalue()).hexdigest()
    return out


def compute():
    return {
        "cluster-a2": cluster_digest(),
        "basis-build": natural_order_digest(workloads.BasisBuild),
        "preproj-enum": natural_order_digest(workloads.PreprojEnum),
        "cli-cache": cli_digests(),
    }


def main(argv):
    pins = compute()
    text = json.dumps(pins, indent=1, sort_keys=True) + "\n"
    if "--write" in argv:
        with open(PINS, "w") as fh:
            fh.write(text)
        return 0
    print(text, end="")
    with open(PINS) as fh:
        return 0 if json.load(fh) == pins else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
