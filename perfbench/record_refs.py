"""Write perfbench/refs.json: digests of the exact outputs every workload asks for.

    python3 perfbench/record_refs.py

The committed file was recorded from the sources of commit a91f36f.  Do
not re-record it to make a later change pass: the point of the file is
that a change which alters any exact output reads as a failure.  Only a
change to the benchmark's own workloads (new k values, new words) should
record again, from the same sources.
"""

from __future__ import annotations

import json
import random
import sys

import harness
from workloads import (
    K_POOL, VERIFY_K, canonical, digest, partner, spelling, toggled, word_classes,
)

VERIFY_WORDS = 40


class RecordError(RuntimeError):
    pass


def verify_pool() -> list:
    """Word classes with tau=16: six P, five C, five E (n=38), no two toggles of each other."""
    rng = random.Random("verify-large pool")
    pool, taken = [], set()
    while len(pool) < VERIFY_WORDS:
        letters = list("P" * 6 + "C" * 5 + "E" * 5)
        rng.shuffle(letters)
        cls = canonical("".join(letters))
        if cls not in taken:
            taken.update((cls, partner(cls)))
            pool.append(cls)
    return pool


def _run(cli, argv) -> dict:
    rc, out = harness.call(cli, argv)
    if rc != 0:
        raise RecordError(f"{argv} exited {rc}")
    return json.loads(out)


def _check_partners(name, digests):
    for cls, d in digests.items():
        if digests.get(partner(cls), d) != d:
            raise RecordError(f"{name}: {cls} and its toggle class differ")


def scan_digests(cli, tau_max, method, field, k) -> dict:
    payload = _run(cli, ["scan", "--tau-max", str(tau_max), "--k", k, "--method", method])
    got = {canonical(e["word"]): digest(e[field]) for e in payload["entries"]}
    if sorted(got) != sorted(word_classes(3, tau_max)):
        raise RecordError("the scan's classes differ from the benchmark's enumeration")
    _check_partners(field, got)
    return got


def oracle_digests(cli, rng, k) -> dict:
    got = {}
    for cls in word_classes(3, 4):
        payload = _run(cli, ["charpoly", "--method", "oracle", "--k", k,
                             "--word", spelling(rng, cls)])
        got[cls] = digest(payload["coefficients"]["oracle"])
    _check_partners("oracle", got)
    return got


def main() -> int:
    cli = harness.import_cli()
    rng = random.Random("record")
    refs = {"recorded_with": harness.run_context(cli), "verify_words": verify_pool(),
            "charpoly_exact": {}, "short_part": {}, "oracle": {}}
    for k in K_POOL:
        refs["charpoly_exact"][k] = scan_digests(cli, 5, "exact", "charpoly_exact", k)
        refs["short_part"][k] = scan_digests(cli, 4, "transfer", "short_part", k)
        refs["oracle"][k] = oracle_digests(cli, rng, k)
        print(f"k={k} done", file=sys.stderr, flush=True)
    big = refs["charpoly_exact"].setdefault(VERIFY_K, {})
    for cls in refs["verify_words"]:
        for side in (cls, toggled(cls)):
            payload = _run(cli, ["verify", "--word", spelling(rng, side), "--k", VERIFY_K,
                                 "--method", "exact"])
            d = digest(payload["result"]["charpoly_exact"])
            if big.setdefault(cls, d) != d:
                raise RecordError(f"charpoly_exact of {cls} and its toggle differ")
    with open(harness.REFS, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
